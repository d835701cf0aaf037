"""Vectorized query execution engine (batch counterpart of the
reference interpreter).

Evaluates a resolved program over *columns* instead of rows:

* ``WHERE`` predicates compile to boolean masks over the input columns;
* ``SELECT`` projections evaluate each output expression as one array
  expression over the masked columns;
* ``GROUPBY`` stages factorize the key columns once (one sort of the
  row hash, verified on every key column; first-occurrence group
  order — the same order the interpreter's dict produces), then
  evaluate every fold with the cheapest strategy that is *exactly*
  equivalent to the interpreter's per-row loop:

  - **reduction** — folds whose update matrix is the identity (the
    paper's §3.2 linear-in-state class with ``S = S + B``, detected by
    :func:`repro.core.linearity.analyze_fold`): ``B`` is evaluated as
    one array over the matching packets and accumulated per group with
    ``np.add.at``, which applies updates sequentially in packet order —
    the floating-point result is bit-identical to the row loop.
    History variables (bounded packet history, footnote 4) are handled
    by evaluating their update expression per packet and shifting it by
    one position within each group segment.
  - **rounds** — any other fold (non-identity linear such as EWMA, and
    the non-linear class such as ``nonmt``): the if-converted update
    expressions are applied elementwise across all live groups, one
    round per in-group packet rank.  Groups are relabelled by
    descending packet count, so round *k*'s live groups are a prefix
    of the labels and its packets (the *k*-th of every live group) one
    contiguous slice of a round-major permutation built by one scatter.
    Columns are gathered once per call in that order and every
    state-free subexpression (EWMA's ``alpha * (tout - tin)``) is
    evaluated once over all of them; the rest compiles once per call
    into closures, so a round costs a few numpy calls on slices and
    state-prefix views, with no gather, scatter or tree walk.  Each
    state transition performs the same scalar operations in the same
    order as the interpreter, so results are again exact.
  - **replay** — a per-fold fallback to the reference interpreter's
    scalar update loop, used when an expression contains something the
    array evaluator does not support.  Only the affected fold is
    replayed; the other folds of the stage stay vectorized.

``JOIN`` stages run over (small) post-aggregation tables on an
embedded :class:`~repro.core.interpreter.Interpreter`; every other
stage runs on the array path, exact by the strategies above —
vectorization changes the speed, never the result.

Known semantic deltas versus the scalar evaluator (documented, not
observable in well-formed queries): division by zero yields ``inf``/
``nan`` instead of raising, both branches of a conditional are
evaluated (with the untaken side discarded), and ``and``/``or`` do not
short-circuit.  Integer arithmetic is 64-bit; an evaluation, an
accumulation or a round that :mod:`repro.core.intbound` cannot prove
below 2^63 runs on exact Python ints instead.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Mapping

import numpy as np

from . import intbound
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
    walk,
)
from .errors import HardwareError, InterpreterError
from .eval_expr import EvalContext, Numeric, evaluate
from .interpreter import Interpreter, ResultTable
from .linearity import LinearityResult, analyze_fold
from .semantics import FoldInstance, ResolvedProgram, ResolvedQuery


class VectorizationError(Exception):
    """Internal: this expression cannot run on the array path.

    Raising it inside a fold evaluation triggers that fold's exact
    scalar replay; resolved programs over columnized input never
    raise it anywhere else.
    """


# ---------------------------------------------------------------------------
# Array expression evaluation
# ---------------------------------------------------------------------------


class ArrayContext:
    """Column environment for array-expression evaluation.

    ``columns`` maps field/column names to arrays of length ``n`` (the
    current batch); ``state`` maps state-variable names to arrays (one
    element per group or per row, depending on the caller).
    The column magnitudes :func:`eval_array` proves int64 safety from
    are computed lazily, once per context; ``proved`` skips that proof
    where the caller has made it.
    """

    __slots__ = ("columns", "state", "params", "n", "bounds", "proved")

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        params: Mapping[str, Numeric],
        n: int,
        state: Mapping[str, np.ndarray] | None = None,
        proved: bool = False,
    ):
        self.columns = columns
        self.state = state
        self.params = params
        self.n = n
        self.bounds: dict[str, int | None] = {}
        self.proved = proved

    def column_bound(self, name: str) -> int | None:
        if name not in self.bounds:
            self.bounds[name] = intbound.value_bound(self.columns.get(name))
        return self.bounds[name]

    def state_bound(self, name: str) -> int | None:
        return intbound.value_bound((self.state or {}).get(name))

    def exact(self, expr: Expr) -> "ArrayContext":
        """A proved context over exact copies of what ``expr`` reads."""
        names = {getattr(node, "name", None) for node in walk(expr)}

        def pick(values):
            return {name: intbound.exact(value)
                    for name, value in values.items() if name in names}

        return ArrayContext(pick(self.columns), pick(self.params), self.n,
                            None if self.state is None else pick(self.state),
                            proved=True)


def _truthy(value) -> np.ndarray:
    """Elementwise truth value (nonzero) of an array or scalar; a bool
    array is its own."""
    value = np.asarray(value)
    return value if value.dtype == bool else value != 0


def _as_pred_int(value) -> np.ndarray:
    """Materialise a boolean result as 0/1 int64, mirroring the scalar
    evaluator's hardware convention."""
    return _truthy(value).astype(np.int64)


def _divide(left, right):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.true_divide(left, right)


#: The array semantics of every operator, the one table that
#: :func:`eval_array` and the round kernel share: ``(node type, op or
#: function)`` -> ``(function of the operand values, predicate)``.  A
#: predicate's value is a truth array, stored as 0/1 int64 (the scalar
#: evaluator's convention) or fed to a ``Cond`` as it is.  A ``Cond``
#: takes both branches evaluated and discards the untaken side.
_OPERATORS: dict[tuple[type, str | None], tuple[Callable, bool]] = {
    (BinOp, "+"): (np.add, False),
    (BinOp, "-"): (np.subtract, False),
    (BinOp, "*"): (np.multiply, False),
    (BinOp, "/"): (_divide, False),
    (BinOp, "=="): (np.equal, True),
    (BinOp, "!="): (np.not_equal, True),
    (BinOp, "<"): (np.less, True),
    (BinOp, "<="): (np.less_equal, True),
    (BinOp, ">"): (np.greater, True),
    (BinOp, ">="): (np.greater_equal, True),
    (BinOp, "and"): (lambda left, right: _truthy(left) & _truthy(right), True),
    (BinOp, "or"): (lambda left, right: _truthy(left) | _truthy(right), True),
    (UnaryOp, "not"): (lambda value: ~_truthy(value), True),
    (UnaryOp, "-"): (np.negative, False),
    (Call, "abs"): (np.abs, False),
    (Call, "max"): (lambda *args: functools.reduce(np.maximum, args), False),
    (Call, "min"): (lambda *args: functools.reduce(np.minimum, args), False),
    (Cond, None): (lambda pred, then, orelse:
                   np.where(_truthy(pred), then, orelse), False),
}


def _operator(expr: Expr) -> tuple[Callable, bool]:
    """``expr``'s entry in :data:`_OPERATORS`."""
    key = (type(expr), getattr(expr, "op", getattr(expr, "func", None)))
    try:
        return _OPERATORS[key]
    except KeyError:
        raise VectorizationError(f"cannot vectorize {expr!r}") from None


def eval_array(expr: Expr, ctx: ArrayContext,
               what: str = "integer expression"):
    """Evaluate a resolved expression over columns; returns an array of
    length ``ctx.n`` or a scalar (for inputs with no row dependence).

    Unless ``ctx`` is proved, an integer value of the evaluation that
    may reach 2^63 (:func:`repro.core.intbound.peak`) makes all of it
    run on exact Python ints, after a warning naming ``what``.
    """
    if not ctx.proved:
        if intbound.peak(expr, ctx.column_bound, ctx.state_bound,
                         ctx.params) < intbound.LIMIT:
            ctx = ArrayContext(ctx.columns, ctx.params, ctx.n, ctx.state,
                               proved=True)
        else:
            intbound.warn(what)
            ctx = ctx.exact(expr)
    if isinstance(expr, Number):
        return expr.value
    if isinstance(expr, (FieldRef, ColumnRef)):
        if getattr(expr, "table", None) is not None:
            raise VectorizationError("qualified column in vector context")
        try:
            return ctx.columns[expr.name]
        except KeyError:
            raise VectorizationError(f"no column {expr.name!r}") from None
    if isinstance(expr, StateRef):
        if ctx.state is None or expr.name not in ctx.state:
            raise VectorizationError(f"no state array for {expr.name!r}")
        return ctx.state[expr.name]
    if isinstance(expr, ParamRef):
        try:
            return ctx.params[expr.name]
        except KeyError:
            raise InterpreterError(
                f"query parameter {expr.name!r} has no binding; pass it via params="
            ) from None
    fn, predicate = _operator(expr)
    if isinstance(expr, Cond):
        pred = eval_array(expr.pred, ctx)
        with np.errstate(all="ignore"):
            return fn(pred, eval_array(expr.then, ctx),
                      eval_array(expr.orelse, ctx))
    value = fn(*[eval_array(arg, ctx) for arg in expr.children()])
    return _as_pred_int(value) if predicate else value


def _stored(fn: Callable) -> Callable:
    """A predicate's function with its value stored as 0/1 int64."""
    return lambda *values: _as_pred_int(fn(*values))


def _compile(expr: Expr, whole: ArrayContext, states: dict[str, np.ndarray],
             predicate: bool = False):
    """``expr`` as a function of one round, ``(lo, hi, m)``: the
    round's rows are ``[lo, hi)`` of the round-major columns of
    ``whole``, its live groups the first ``m`` of ``states``.  A
    state-free subexpression is evaluated once over all of ``whole``:
    an array is sliced per round, a scalar is returned as it is (not a
    function).  The rest apply :data:`_OPERATORS` to their operands.
    ``predicate``: the value feeds a truth test, so it may stay bool."""
    if not any(isinstance(node, StateRef) for node in walk(expr)):
        value = eval_array(expr, whole)
        if isinstance(value, np.ndarray) and value.ndim == 1:
            return lambda lo, hi, m: value[lo:hi]
        return value
    if isinstance(expr, StateRef):
        name = expr.name
        if name not in states:
            raise VectorizationError(f"no state array for {name!r}")
        return lambda lo, hi, m: states[name][:m]
    fn, is_predicate = _operator(expr)
    if is_predicate and not predicate:
        fn = _stored(fn)
    args = [_compile(arg, whole, states, isinstance(expr, Cond) and not i)
            for i, arg in enumerate(expr.children())]
    if len(args) == 2:                  # the common case: no list per round
        a, b = args
        if not callable(a):
            return lambda lo, hi, m: fn(a, b(lo, hi, m))
        if not callable(b):
            return lambda lo, hi, m: fn(a(lo, hi, m), b)
        return lambda lo, hi, m: fn(a(lo, hi, m), b(lo, hi, m))
    fns = [arg if callable(arg) else (lambda lo, hi, m, value=arg: value)
           for arg in args]
    return lambda lo, hi, m: fn(*[arg(lo, hi, m) for arg in fns])


def _init_dtype(init: Numeric) -> np.dtype:
    """Accumulator dtype contributed by an initial state value."""
    return np.dtype(np.float64 if isinstance(init, float) else np.int64)


def as_column(value, n: int) -> np.ndarray:
    """Broadcast a scalar result to a length-``n`` array; pass arrays
    through."""
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return value
    return np.full(n, value)


def eval_mask(expr: Expr | None, ctx: ArrayContext) -> np.ndarray | None:
    """A WHERE predicate as a boolean mask; ``None`` means pass-all."""
    if expr is None:
        return None
    return _truthy(as_column(eval_array(expr, ctx), ctx.n))


def _expr_columns(exprs: Iterable[Expr]) -> set[str]:
    """Field/column names referenced by ``exprs``."""
    names: set[str] = set()
    for expr in exprs:
        for node in walk(expr):
            if isinstance(node, (FieldRef, ColumnRef)):
                names.add(node.name)
    return names


# ---------------------------------------------------------------------------
# Key factorization and group layout
# ---------------------------------------------------------------------------


_U = np.uint64


def splitmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finaliser, uint64 in and out: element-wise
    :func:`repro.switch.kvstore.cache.splitmix64` (uint64 wraps)."""
    return _splitmix64_into(values.astype(np.uint64, copy=True))


def _splitmix64_into(v: np.ndarray) -> np.ndarray:
    """:func:`splitmix64_array` of the uint64 array ``v``, in place."""
    v += _U(0x9E3779B97F4A7C15)
    t = np.right_shift(v, _U(30))
    v ^= t
    v *= _U(0xBF58476D1CE4E5B9)
    np.right_shift(v, _U(27), out=t)
    v ^= t
    v *= _U(0x94D049BB133111EB)
    np.right_shift(v, _U(31), out=t)
    v ^= t
    return v


def mix_key_array(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """The one row hash (cache sets, :func:`factorize` order): matches
    :func:`repro.switch.kvstore.cache.mix_key` per element, 1-D arrays
    as scalar int keys, 2-D ``(n, k)`` arrays as ``k``-tuples."""
    keys = np.asarray(keys)
    if keys.ndim not in (1, 2):
        raise HardwareError(f"key array must be 1-D or 2-D, got {keys.ndim}-D")
    return _mix_columns([keys] if keys.ndim == 1 else list(keys.T), seed)


def _mix_columns(columns: list[np.ndarray], seed: int = 0) -> np.ndarray:
    """splitmix64 fold of equal-length columns (tuple parts, in order)
    over ``seed``: element ``i`` is :func:`mix_key_array` of row ``i``."""
    acc = np.full(len(columns[0]), _U(seed & 0xFFFFFFFFFFFFFFFF),
                  dtype=np.uint64)
    for part in columns:
        acc ^= part.astype(np.int64, copy=False).view(np.uint64)
        _splitmix64_into(acc)
    return acc


def factorize(key_arrays: list[np.ndarray],
              hashes: np.ndarray | None = None,
              ) -> tuple[np.ndarray, list[np.ndarray], int]:
    """Dense group ids for multi-column keys, first-occurrence ordered.

    Returns ``(gid, unique_key_columns, n_groups)``: ``gid[i]`` is the
    group of row ``i``; group ``0`` is the key that appears first in
    the input, matching the insertion order of the interpreter's group
    dict.

    Exact: ``hashes`` (one uint64 per row, equal for equal rows;
    default the :func:`mix_key_array` fold of the integer columns) are
    sorted once as ``(hash >> b << b) | row``, each run of equal high
    bits is taken as a group, every row is checked against its group's
    first row on all key columns, and only runs whose rows differ
    (collisions, NaN keys) are re-split by a lexsort of their own rows.
    """
    n = len(key_arrays[0])
    if n == 0:
        return np.zeros(0, dtype=np.int64), [a[:0] for a in key_arrays], 0
    if hashes is None:
        ints = [a for a in key_arrays if a.dtype.kind in "iub"]
        hashes = _mix_columns(ints) if ints else np.zeros(n, dtype=np.uint64)
    b = _U(max(n - 1, 1).bit_length())
    comp = hashes >> b
    comp <<= b
    comp |= np.arange(n, dtype=np.uint64)
    comp.sort()
    order = (comp & ((_U(1) << b) - _U(1))).view(np.int64)
    comp >>= b
    run = np.append(True, comp[1:] != comp[:-1])   # hash run starts
    gid, first = _first_occurrence_ids(order, run)
    rep = first[gid]
    differs = np.zeros(n, dtype=bool)
    for arr in key_arrays:
        differs |= arr != arr[rep]
    if differs.any():
        # Lexsort the runs holding more than one key (run first, so each
        # keeps its slots; ties keep input order) and mark them again.
        run_id = np.cumsum(run) - 1
        sel = np.flatnonzero(np.isin(run_id, run_id[differs[order]]))
        rows = order[sel]
        rows = rows[np.lexsort([a[rows] for a in key_arrays[::-1]]
                               + [run_id[sel]])]
        order[sel] = rows
        change = run.copy()
        for arr in key_arrays:
            arr_sorted = arr[rows]
            change[sel[1:]] |= arr_sorted[1:] != arr_sorted[:-1]
        gid, first = _first_occurrence_ids(order, change)
    return gid, [arr[first] for arr in key_arrays], len(first)


def _first_occurrence_ids(order: np.ndarray, change: np.ndarray,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """First-occurrence group ids of rows laid out in ``order``, a group
    starting wherever ``change`` is set, and each group's first row."""
    first_idx = order[change]
    is_first = np.zeros(len(order), dtype=bool)
    is_first[first_idx] = True
    rank = (np.cumsum(is_first) - 1)[first_idx]
    gid = np.empty(len(order), dtype=np.int64)
    gid[order] = rank[np.cumsum(change) - 1]
    return gid, np.flatnonzero(is_first)


class _GroupLayout:
    """Group-major and round-major orderings of a batch of rows.

    The "groups" need not be key groups: the vectorized split store
    (:mod:`repro.switch.kvstore.vector_store`) reuses this layout — and
    the fold strategies below — with cache *residency epochs* as the
    groups, which is what makes per-epoch fold evaluation the same
    machinery as whole-stream ``GROUPBY`` evaluation.
    """

    __slots__ = ("gid", "n_groups", "order", "counts", "offsets")

    def __init__(self, gid: np.ndarray, n_groups: int):
        self.gid = gid
        self.n_groups = n_groups
        self.order = np.argsort(gid, kind="stable")   # group-major positions
        self.counts = np.bincount(gid, minlength=n_groups).astype(np.int64)
        self.offsets = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.offsets[1:])

    @classmethod
    def from_sorted_order(cls, gid: np.ndarray, n_groups: int,
                          order: np.ndarray) -> "_GroupLayout":
        """Build a layout from an already-computed group-major
        permutation (``gid[order]`` must be nondecreasing, ties in
        input order), skipping the argsort."""
        layout = cls.__new__(cls)
        layout.gid = gid
        layout.n_groups = n_groups
        layout.order = order
        layout.counts = np.bincount(gid, minlength=n_groups).astype(np.int64)
        layout.offsets = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(layout.counts, out=layout.offsets[1:])
        return layout

    def segment_starts_mask(self) -> np.ndarray:
        mask = np.zeros(len(self.gid), dtype=bool)
        mask[self.offsets[:-1][self.counts > 0]] = True
        return mask

    def ranks_group_major(self) -> np.ndarray:
        """In-group packet rank for each group-major position."""
        return np.arange(len(self.gid)) - np.repeat(self.offsets[:-1], self.counts)


# ---------------------------------------------------------------------------
# Fold evaluation strategies
# ---------------------------------------------------------------------------


class _FoldVectorizer:
    """Evaluates one fold instance over one factorized batch."""

    def __init__(self, fold: FoldInstance, linearity: LinearityResult,
                 params: Mapping[str, Numeric]):
        self.fold = fold
        self.linearity = linearity
        self.params = params
        self.update_exprs = linearity.update_exprs
        self.needed = _expr_columns(self.update_exprs.values())

    @property
    def strategy(self) -> str:
        lin = self.linearity
        if lin.linear and lin.matrix_kind == "identity":
            return "reduction"
        return "rounds"

    # -- shared: history pre-values ------------------------------------------

    def _history_values(self, ctx: ArrayContext, layout: _GroupLayout,
                        init_override: Mapping[str, np.ndarray] | None = None,
                        ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Per-row *pre*-values and per-group final values of every
        history variable (bounded-packet-history state, footnote 4).

        ``init_override`` maps state variables to per-group initial
        values (length ``n_groups``) — the windowed split store's
        epoch-continuation hook: a group whose epoch started in an
        earlier window resumes from its carried value instead of the
        fold's scalar init.
        """
        history = self.linearity.history
        pre: dict[str, np.ndarray] = {}
        final: dict[str, np.ndarray] = {}
        starts = layout.segment_starts_mask()
        nonempty = layout.counts > 0
        order = layout.order
        for var in sorted(history, key=history.get):
            hctx = ArrayContext(ctx.columns, self.params, ctx.n, state=pre)
            post = as_column(eval_array(self.update_exprs[var], hctx), ctx.n)
            post_gm = post[order]
            init = self.fold.inits.get(var, 0)
            if init_override is not None and var in init_override:
                init_arr = init_override[var]
                dtype = np.result_type(post_gm.dtype, init_arr.dtype)
                pre_gm = np.empty(ctx.n, dtype=dtype)
                pre_gm[1:] = post_gm[:-1]
                pre_gm[starts] = init_arr[nonempty]
            else:
                dtype = np.result_type(post_gm.dtype, _init_dtype(init))
                pre_gm = np.empty(ctx.n, dtype=dtype)
                pre_gm[1:] = post_gm[:-1]
                pre_gm[starts] = init
            pre_rm = np.empty_like(pre_gm)
            pre_rm[order] = pre_gm
            pre[var] = pre_rm
            final[var] = post_gm[layout.offsets[1:] - 1]
        return pre, final

    # -- strategy: segmented reduction (identity matrix) ---------------------

    def reduce(self, ctx: ArrayContext, layout: _GroupLayout,
               init_override: Mapping[str, np.ndarray] | None = None,
               ) -> dict[str, np.ndarray]:
        """Identity-matrix linear folds: ``S = S + B`` accumulated with
        order-preserving ``np.add.at`` (one pass, no Python loop).

        ``init_override`` seeds selected variables with per-group
        starting values (epoch continuation, see
        :meth:`_history_values`); accumulation on top of a seeded value
        performs the same additions in the same order as the scalar
        loop resuming from that value.
        """
        pre, states = self._history_values(ctx, layout, init_override)
        for var, out, b in self.addends(ctx, layout, pre, init_override):
            np.add.at(out, layout.gid, b)
            states[var] = out
        return states

    def addends(self, ctx: ArrayContext, layout: _GroupLayout,
                pre: Mapping[str, np.ndarray],
                init_override: Mapping[str, np.ndarray] | None = None):
        """``(var, start, B)`` per accumulated variable: the per-group
        starting values and the per-row offsets read against the
        history pre-values ``pre``, proved safe to add in int64 or made
        exact (:func:`repro.core.intbound.addends`)."""
        bctx = ArrayContext(ctx.columns, self.params, ctx.n, state=pre)
        most = int(layout.counts.max()) if layout.n_groups else 0
        for var in self.linearity.order:
            init = self.fold.inits.get(var, 0)
            b = np.asarray(as_column(
                eval_array(self.linearity.offset[var], bctx), ctx.n))
            if init_override is not None and var in init_override:
                init_arr = init_override[var]
                dtype = np.result_type(b.dtype, init_arr.dtype)
                out = init_arr.astype(dtype, copy=True)
            else:
                dtype = np.result_type(b.dtype, _init_dtype(init))
                out = np.full(layout.n_groups, init, dtype=dtype)
            yield (var, *intbound.addends(out, b.astype(dtype, copy=False),
                                          most, f"fold accumulation ({var})"))

    # -- strategy: round-major elementwise iteration -------------------------

    def run_rounds(self, ctx: ArrayContext, layout: _GroupLayout,
                   init_override: Mapping[str, np.ndarray] | None = None,
                   ) -> dict[str, np.ndarray]:
        """Exact general path: apply the if-converted update expressions
        elementwise across all groups, one round per in-group rank.

        Groups are relabelled by descending packet count, so round
        ``r``'s live groups are the first ``m`` labels and its rows one
        slice ``[lo, hi)`` of a round-major permutation: a round reads
        column slices and state views ``states[var][:m]``, and writes
        the views back once every new value of the round is computed
        (a bare state read is copied first).  Proved int64-safe
        (:func:`repro.core.intbound.growth`), the updates run as one
        kernel compiled for the call (:func:`_compile`); otherwise
        every round evaluates them with :func:`eval_array` over the
        same slices and views, which proves each evaluation or makes it
        exact.  Rounds raise no floating-point warnings: the untaken
        side of a conditional is evaluated too, and the scalar loop
        raises none on ``inf``/``nan`` arithmetic.

        ``init_override`` seeds selected variables with per-group
        starting values (epoch continuation) — each seeded group then
        undergoes exactly the state transitions the scalar loop would
        perform resuming from that state.
        """
        missing = self.needed - set(ctx.columns)
        if missing:
            raise VectorizationError(f"no column {missing.pop()!r}")
        by_len = np.argsort(-layout.counts, kind="stable")
        label = np.empty(layout.n_groups, dtype=np.int64)
        label[by_len] = np.arange(layout.n_groups)
        ranks = layout.ranks_group_major()
        offsets = np.append(0, np.cumsum(np.bincount(ranks)))
        rows_rm = np.empty(ctx.n, dtype=np.int64)
        rows_rm[offsets[ranks] + np.repeat(label, layout.counts)] = layout.order
        columns = {name: ctx.columns[name][rows_rm] for name in self.needed}
        states: dict[str, np.ndarray] = {}
        for var in self.fold.state_vars:
            init = self.fold.inits.get(var, 0)
            dtype = np.float64 if isinstance(init, float) else np.int64
            if init_override is not None and var in init_override:
                init_arr = init_override[var]
                states[var] = init_arr[by_len].astype(
                    np.result_type(dtype, init_arr.dtype), copy=False)
            else:
                states[var] = np.full(layout.n_groups, init, dtype=dtype)
        n_rounds = len(offsets) - 1
        bounds = {var: intbound.value_bound(arr)
                  for var, arr in states.items() if arr.dtype.kind in "iu"}
        safe = intbound.growth(self.update_exprs, ctx.column_bound, bounds,
                               self.params, n_rounds).safe
        exprs = list(self.update_exprs.values())
        if safe is None or safe >= n_rounds:        # one compile per call
            whole = ArrayContext(columns, self.params, ctx.n, proved=True)
            fns = [_compile(expr, whole, states) for expr in exprs]
            for i, fn in enumerate(fns):
                if not callable(fn):                # a constant update
                    column = np.full(ctx.n, fn)
                    fns[i] = lambda lo, hi, m, column=column: column[lo:hi]

            def step(lo: int, hi: int, m: int) -> list[np.ndarray]:
                return [fn(lo, hi, m) for fn in fns]
        else:
            def step(lo: int, hi: int, m: int) -> list[np.ndarray]:
                rctx = ArrayContext(
                    {name: arr[lo:hi] for name, arr in columns.items()},
                    self.params, m,
                    state={var: arr[:m] for var, arr in states.items()})
                return [as_column(eval_array(expr, rctx), m) for expr in exprs]
        names = list(self.update_exprs)
        aliased = [i for i, expr in enumerate(exprs) if isinstance(expr, StateRef)]
        cuts = offsets.tolist()
        with np.errstate(all="ignore"):
            for lo, hi in zip(cuts, cuts[1:]):
                m = hi - lo
                values = step(lo, hi, m)
                for i in aliased:               # a bare state read is a view
                    values[i] = values[i].copy()
                for var, value in zip(names, values):
                    current = states[var]
                    if value.dtype != current.dtype:
                        promoted = np.result_type(current.dtype, value.dtype)
                        if promoted != current.dtype:
                            states[var] = current = current.astype(promoted)
                    current[:m] = value
        return {var: arr[label] for var, arr in states.items()}

    # -- strategy: per-fold scalar replay ------------------------------------

    def replay(self, ctx: ArrayContext, layout: _GroupLayout) -> dict[str, np.ndarray]:
        """Reference-interpreter fallback for this fold only: replay the
        batch through the scalar update loop (exact by construction)."""
        needed = sorted(self.needed & set(ctx.columns))
        columns = {name: ctx.columns[name].tolist() for name in needed}
        gid = layout.gid.tolist()
        group_states: list[dict[str, Numeric] | None] = [None] * layout.n_groups
        for i in range(ctx.n):
            state = group_states[gid[i]]
            if state is None:
                state = self.fold.initial_state()
                group_states[gid[i]] = state
            row = {name: columns[name][i] for name in needed}
            fctx = EvalContext(row=row, state=state, params=self.params)
            state.update({
                var: evaluate(expr, fctx) for var, expr in self.update_exprs.items()
            })
        return {
            var: np.asarray([state[var] for state in group_states])
            for var in self.fold.state_vars
        }

    def evaluate(self, ctx: ArrayContext, layout: _GroupLayout) -> dict[str, np.ndarray]:
        """Final per-group state arrays, via the cheapest exact strategy."""
        try:
            if self.strategy == "reduction":
                return self.reduce(ctx, layout)
            return self.run_rounds(ctx, layout)
        except VectorizationError:
            return self.replay(ctx, layout)


#: Public names for the segmented-fold machinery shared with the
#: vectorized split store (epochs-as-groups, see _GroupLayout).
GroupLayout = _GroupLayout
FoldVectorizer = _FoldVectorizer


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class VectorExecutor:
    """Batch evaluator for a resolved program.

    Drop-in counterpart of :class:`~repro.core.interpreter.Interpreter`:
    same constructor, same ``run`` / ``run_result`` / ``evaluate_stage``
    surface, identical results.  Input of any shape is columnized
    once on entry (:func:`~repro.network.records.as_table`).

    Args:
        program: Output of :func:`repro.core.semantics.resolve_program`.
        params: Bindings for free query parameters.
    """

    def __init__(self, program: ResolvedProgram,
                 params: Mapping[str, Numeric] | None = None):
        self.program = program
        self.params = dict(params or {})
        missing = set(program.params) - set(self.params)
        if missing:
            raise InterpreterError(f"unbound query parameters: {sorted(missing)}")
        self._interp = Interpreter(program, params=self.params)
        self._folds: dict[tuple[str, str], _FoldVectorizer] = {}
        for query in program.queries:
            for fold in query.folds:
                self._folds[(query.name, fold.column)] = _FoldVectorizer(
                    fold, analyze_fold(fold), self.params
                )

    # -- public API ---------------------------------------------------------

    def run(self, records) -> dict[str, ResultTable]:
        """Evaluate every query; returns tables keyed by query name."""
        base_columns, base_n = self._base_input(records)
        tables: dict[str, ResultTable] = {}
        column_cache: dict[str, tuple[dict[str, np.ndarray], int]] = {}
        for query in self.program.queries:
            tables[query.name] = self._eval_query(
                query, base_columns, base_n, tables, column_cache
            )
        return tables

    def run_result(self, records) -> ResultTable:
        """Evaluate and return only the program's result table."""
        return self.run(records)[self.program.result]

    def evaluate_stage(self, query_name: str, records,
                       tables: dict[str, ResultTable]) -> ResultTable:
        """Evaluate one named query over already-materialised upstream
        ``tables`` (and ``records`` for base-table queries) — the
        entry point the telemetry runtime uses for software stages."""
        base_columns, base_n = self._base_input(records)
        return self._eval_query(
            self.program.by_name(query_name), base_columns, base_n, tables, {}
        )

    # -- input handling ---------------------------------------------------------

    def _base_input(self, records):
        """Columns + length of the stream."""
        from repro.network.records import as_table

        table = as_table(records)
        return table.columns(), len(table)

    @staticmethod
    def _columns_from_table(table: ResultTable) -> tuple[dict[str, np.ndarray], int]:
        """Upstream-table columns as arrays — columnar tables (the
        vector engines' output) hand their arrays over directly, with
        no row materialisation."""
        columns = {
            name: np.asarray(values)
            for name, values in table.columns().items()
        }
        return columns, len(table)

    # -- query dispatch ----------------------------------------------------------

    def _eval_query(self, query: ResolvedQuery, base_columns, base_n,
                    tables: dict[str, ResultTable],
                    column_cache: dict) -> ResultTable:
        if query.kind == "join":
            # Joins run over (small) post-aggregation tables; the
            # relational part stays on the reference interpreter.
            return self._interp._eval_join(query, tables)
        if query.source is None:
            columns, n = base_columns, base_n
        elif query.source in column_cache:
            columns, n = column_cache[query.source]
        else:
            columns, n = self._columns_from_table(tables[query.source])
            column_cache[query.source] = (columns, n)
        ctx = ArrayContext(columns, self.params, n)
        if query.kind == "select":
            table, out_columns = self._eval_select(query, ctx)
        elif query.kind == "groupby":
            table, out_columns = self._eval_groupby(query, ctx)
        else:
            raise InterpreterError(f"unknown query kind {query.kind!r}")
        column_cache[query.name] = (out_columns, len(table))
        return table

    # -- SELECT ------------------------------------------------------------------

    def _eval_select(self, query: ResolvedQuery, ctx: ArrayContext):
        mask = eval_mask(query.where, ctx)
        if mask is None:
            masked = ctx
        else:
            sel = np.flatnonzero(mask)
            needed = _expr_columns(
                col.expr for col in query.output.columns if col.expr is not None
            )
            masked = ArrayContext(
                {name: arr[sel] for name, arr in ctx.columns.items()
                 if name in needed},
                self.params, len(sel),
            )
        out_columns: dict[str, np.ndarray] = {}
        for col in query.output.columns:
            if col.expr is None:
                continue
            out_columns[col.name] = as_column(eval_array(col.expr, masked), masked.n)
        table = ResultTable.from_columns(query.output, out_columns)
        return table, out_columns

    # -- GROUPBY -----------------------------------------------------------------

    def _eval_groupby(self, query: ResolvedQuery, ctx: ArrayContext):
        mask = eval_mask(query.where, ctx)
        if mask is None:
            sel_ctx = ctx
        else:
            sel = np.flatnonzero(mask)
            needed = set(query.groupby_keys)
            for fold in query.folds:
                needed |= self._folds[(query.name, fold.column)].needed
            sel_ctx = ArrayContext(
                {name: arr[sel] for name, arr in ctx.columns.items()
                 if name in needed},
                self.params, len(sel),
            )
        key_arrays = [sel_ctx.columns[k] for k in query.groupby_keys]
        gid, unique_keys, n_groups = factorize(key_arrays)
        layout = _GroupLayout(gid, n_groups)

        fold_states: dict[str, dict[str, np.ndarray]] = {}
        for fold in query.folds:
            vectorizer = self._folds[(query.name, fold.column)]
            fold_states[fold.column] = vectorizer.evaluate(sel_ctx, layout)

        out_columns: dict[str, np.ndarray] = dict(
            zip(query.groupby_keys, unique_keys)
        )
        for col in query.output.columns:
            if col.kind == "agg":
                out_columns[col.name] = fold_states[col.fold][col.state_var]
            elif col.kind == "derived":
                dctx = ArrayContext({}, self.params, n_groups,
                                    state=fold_states[col.fold])
                with np.errstate(divide="ignore", invalid="ignore"):
                    out_columns[col.name] = as_column(
                        eval_array(col.read_expr, dctx), n_groups
                    )
        table = ResultTable.from_columns(query.output, out_columns)
        return table, out_columns


def run_query_vectorized(source: str, records,
                         params: Mapping[str, Numeric] | None = None) -> ResultTable:
    """One-shot convenience: parse, resolve, and batch-evaluate."""
    from .parser import parse_program
    from .semantics import resolve_program

    program = resolve_program(parse_program(source))
    return VectorExecutor(program, params=params).run_result(records)
