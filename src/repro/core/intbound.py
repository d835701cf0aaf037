"""The one integer-bound authority: may an integer value reach 2^63?

The interpreter computes on unbounded Python ints; the array engines on
int64, which wraps silently.  :func:`bound` over-approximates ``|expr|``
and collects the largest integer intermediate; the static analyzer
(``RPR-W201``) feeds it trace bounds, the runtime the magnitudes of the
arrays it is about to combine, so both reach one verdict on a trace that
attains its bounds.  The one response: a value that may reach
:data:`LIMIT` makes its evaluation or accumulation run on exact Python
ints (``object`` arrays, :func:`exact`) after one :func:`warn`.  Bounds
are Python ints: ``abs(np.int64.min)`` would itself wrap.
"""

from __future__ import annotations

import warnings
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .ast_nodes import (
    BinOp,
    Call,
    ColumnRef,
    Cond,
    Expr,
    FieldRef,
    Number,
    ParamRef,
    StateRef,
    UnaryOp,
)

#: The first magnitude int64 cannot hold.
LIMIT = 1 << 63

#: State bound :func:`growth` probes with: far above any product of
#: column, parameter and literal bounds.
_PROBE = 1 << 4096

Lookup = Callable[[str], "int | None"]


def bound(expr: Expr, column: Lookup, state: Lookup,
          params: Mapping[str, object], worst: list[int]) -> int | None:
    """A bound on ``|expr|`` over every row when the expression is
    integer-valued, ``None`` when it is float-valued (floats cannot
    wrap).  ``column``/``state`` bound an integer column or state by
    name (``None``: float or exact).  ``worst[0]`` collects the largest
    integer intermediate, predicates included — a wrapped comparison
    operand would pick the wrong branch; an operand whose value feeds
    no arithmetic is only scanned, so a bare column costs no lookup."""
    def scan(e: Expr) -> None:
        if not isinstance(e, (Number, FieldRef, ColumnRef, StateRef,
                              ParamRef)):
            bound(e, column, state, params, worst)

    def record(value: int | None) -> int | None:
        if value is not None and value > worst[0]:
            worst[0] = value
        return value

    if isinstance(expr, Number):
        return None if isinstance(expr.value, float) else abs(expr.value)
    if isinstance(expr, (FieldRef, ColumnRef)):
        return column(expr.name)
    if isinstance(expr, StateRef):
        return state(expr.name)
    if isinstance(expr, ParamRef):
        return value_bound(params.get(expr.name))
    if isinstance(expr, Cond):
        scan(expr.pred)
        branches = [bound(e, column, state, params, worst)
                    for e in (expr.then, expr.orelse)]
        return None if None in branches else max(branches)
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            scan(expr.operand)
            return 1
        return record(bound(expr.operand, column, state, params, worst))
    if isinstance(expr, Call):
        args = [bound(a, column, state, params, worst) for a in expr.args]
        if None in args:
            return None
        return record(max(args)) if expr.func == "abs" else max(args)
    if isinstance(expr, BinOp) and expr.op in ("+", "-", "*"):
        left = bound(expr.left, column, state, params, worst)
        if left is None:
            scan(expr.right)
            return None
        right = bound(expr.right, column, state, params, worst)
        if right is None:
            return None
        return record(left * right if expr.op == "*" else left + right)
    if isinstance(expr, BinOp):
        scan(expr.left)
        scan(expr.right)
        return None if expr.op == "/" else 1
    return None


def peak(expr: Expr, column: Lookup, state: Lookup,
         params: Mapping[str, object]) -> int:
    """The largest integer value one evaluation of ``expr`` produces:
    its result or any intermediate."""
    worst = [0]
    top = bound(expr, column, state, params, worst)
    return max(worst[0], top or 0)


def step(exprs: Mapping[str, Expr], column: Lookup, state: Mapping[str, int],
         params: Mapping[str, object]) -> tuple[dict[str, int], int]:
    """One round of update ``exprs`` from integer state bounded by
    ``state``: the bounds after it (a variable whose update is float
    leaves the integer state) and the round's largest integer value."""
    worst = [0]
    new = {var: bound(expr, column, state.get, params, worst)
           for var, expr in exprs.items()}
    top = max((b for b in new.values() if b is not None), default=0)
    after = {var: max(old, new.get(var, old)) for var, old in state.items()
             if new.get(var, old) is not None}
    return after, max(worst[0], top)


class Growth(NamedTuple):
    step: int           # largest integer value of a round from zero state
    total: int          # bound on every integer value of the rounds
                        # (at least LIMIT when they are not proven)
    safe: int | None    # rounds proven below LIMIT (None: any number)


#: Rounds :func:`growth` iterates at most: a fold still growing after
#: them is proven for them only.
_STEPS = 256


def growth(exprs: Mapping[str, Expr], column: Lookup,
           state: Mapping[str, int], params: Mapping[str, object],
           rounds: int) -> Growth:
    """Bound every integer value ``rounds`` rounds of ``exprs`` produce
    from integer state bounded by ``state``.  :func:`bound` is a max of
    sums and products of nonnegative terms, so a probe far above every
    constant shows how a round grows the state: not at all, by at most
    one state magnitude plus the zero-state peak ``c`` (closed form:
    round ``r`` stays below ``start + (r + 1)·c``), or faster — then
    :func:`step` iterates until a value reaches :data:`LIMIT` (that
    value is ``total``), the bounds stop moving, or :data:`_STEPS`
    rounds pass."""
    start = max(state.values(), default=0)
    base = step(exprs, column, dict.fromkeys(state, 0), params)[1]
    probe = step(exprs, column, dict.fromkeys(state, _PROBE), params)[1]
    if probe == base:                       # no state feeds a value
        total = max(start, base)
        return Growth(base, total, None if total < LIMIT else 0)
    if probe <= _PROBE + base:              # unit growth
        safe = (LIMIT - 1 - start) // base if base else \
            (None if start < LIMIT else 0)
        return Growth(base, start + rounds * base,
                      safe if safe is None else max(0, safe))
    total = start                           # faster: iterate
    for done in range(min(rounds, _STEPS)):
        after, worst = step(exprs, column, state, params)
        total = max(total, worst)
        if worst >= LIMIT or after == state:
            return Growth(base, total, done if worst >= LIMIT else None)
        state = after
    return Growth(base, total if rounds <= _STEPS else max(total, LIMIT),
                  min(rounds, _STEPS))


def value_bound(value) -> int | None:
    """``max |value|`` of an integer array or scalar as a Python int (0
    when empty); ``None`` for what cannot wrap: floats, exact arrays."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iub":
            return None
        if not value.size:
            return 0
        return max(abs(int(value.min())), abs(int(value.max())))
    if isinstance(value, (int, np.integer, np.bool_)):
        return abs(int(value))
    return None


def exact(value):
    """An integer array or scalar as exact Python ints (an ``object``
    array); anything else unchanged."""
    if isinstance(value, np.ndarray):
        return value.astype(object) if value.dtype.kind in "iu" else value
    return int(value) if isinstance(value, np.integer) else value


def warn(what: str) -> None:
    """The one overflow warning: ``what`` now runs on exact ints."""
    warnings.warn(
        f"{what} may exceed int64; switching to exact Python-int "
        f"arithmetic (slower, bit-identical to the row engine)",
        RuntimeWarning, stacklevel=3)


def addends(out: np.ndarray, b: np.ndarray, count: int, what: str,
            touched: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``out`` and ``b`` for an ``np.add.at`` adding at most ``count``
    elements of ``b`` into each slot of ``out``: unchanged while
    ``max|out| + count·max|b|`` (``out`` restricted to the ``touched``
    slots) stays below :data:`LIMIT`, else both exact."""
    if out.dtype.kind not in "iu" or b.dtype.kind not in "iu" or not len(b):
        return out, b
    base = value_bound(out if touched is None else out[touched])
    if base + count * value_bound(b) < LIMIT:
        return out, b
    warn(what)
    return exact(out), exact(b)


def factors(out: np.ndarray, a: np.ndarray, count: int,
            what: str) -> tuple[np.ndarray, np.ndarray]:
    """``out`` and ``a`` for an ``np.multiply.at`` multiplying at most
    ``count`` elements of ``a`` into each slot of ``out``: unchanged
    while ``max|out|·max|a|^count`` stays below :data:`LIMIT`, else
    both exact."""
    if out.dtype.kind not in "iu" or a.dtype.kind not in "iu" or not count:
        return out, a
    top, factor = value_bound(out), value_bound(a)
    if factor > 1:                  # past 64 factors of 2 any top >= 1 wraps
        top *= factor ** min(count, 64)
    if top < LIMIT:
        return out, a
    warn(what)
    return exact(out), exact(a)
