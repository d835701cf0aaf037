"""Linear-in-state analysis (paper §3.2).

A fold's state update is *linear in state* when it can be written

    S = A · S + B

where ``S`` is the state vector and ``A`` and ``B`` are functions of
the current packet alone — or, per footnote 4, "of a constant number of
packets preceding and including the current packet".  Linearity is what
makes cache evictions mergeable: the backing store can compose the
evicted partial aggregate with its stored value without replaying
packets.

This module performs the analysis symbolically on a resolved
:class:`~repro.core.semantics.FoldInstance`:

Phase 0 — *if-conversion*: execute the fold body symbolically (one pass,
branch-merging with :class:`Cond` nodes) to obtain, for every state
variable, a single update expression over pre-update state and packet
fields.  This succeeds for any fold and doubles as the switch ALU
program.

Phase 1 — *history variables*: a state variable is a history variable
of depth ``k`` when its updated value is a function of the last ``k``
packets only (no dependence on unbounded state).  ``lastseq = tcpseq +
payload_len`` has depth 1.  History variables may appear inside ``A``
and ``B`` (footnote 4).

Phase 2 — *affine extraction*: re-evaluate each update expression as an
affine form ``Σ_j A[i][j]·s_j + B[i]`` whose coefficients may reference
packet fields, parameters, and history variables' pre-values, but not
mergeable state.  Any violation (state×state products, predicates on
non-history state such as ``maxseq > tcpseq`` in the paper's ``nonmt``,
``max``/``min`` over state) classifies the fold as *not* linear in
state, with a human-readable reason.

The resulting matrix ``A`` / vector ``B`` drive merge synthesis
(:mod:`repro.core.merge_synthesis`) and the hardware ALU configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast_nodes import (
    Assign,
    BinOp,
    Call,
    ColumnRef,
    Cond,
    Expr,
    FieldRef,
    If,
    Number,
    ParamRef,
    StateRef,
    Stmt,
    UnaryOp,
    walk,
)
from .errors import LinearityError
from .semantics import FoldInstance

ZERO = Number(0)
ONE = Number(1)


# ---------------------------------------------------------------------------
# Smart constructors with light constant folding
# ---------------------------------------------------------------------------


def mk_add(left: Expr, right: Expr) -> Expr:
    if left == ZERO:
        return right
    if right == ZERO:
        return left
    if isinstance(left, Number) and isinstance(right, Number):
        return Number(left.value + right.value)
    return BinOp("+", left, right)


def mk_sub(left: Expr, right: Expr) -> Expr:
    if right == ZERO:
        return left
    if isinstance(left, Number) and isinstance(right, Number):
        return Number(left.value - right.value)
    return BinOp("-", left, right)


def mk_mul(left: Expr, right: Expr) -> Expr:
    if left == ZERO or right == ZERO:
        return ZERO
    if left == ONE:
        return right
    if right == ONE:
        return left
    if isinstance(left, Number) and isinstance(right, Number):
        return Number(left.value * right.value)
    return BinOp("*", left, right)


def mk_div(left: Expr, right: Expr) -> Expr:
    if left == ZERO:
        return ZERO
    if right == ONE:
        return left
    if isinstance(left, Number) and isinstance(right, Number) and right.value != 0:
        return Number(left.value / right.value)
    return BinOp("/", left, right)


def mk_cond(pred: Expr, then: Expr, orelse: Expr) -> Expr:
    if then == orelse:
        return then
    if isinstance(pred, Number):
        return then if pred.value else orelse
    return Cond(pred, then, orelse)


def mk_neg(operand: Expr) -> Expr:
    if isinstance(operand, Number):
        return Number(-operand.value)
    return UnaryOp("-", operand)


# ---------------------------------------------------------------------------
# Phase 0: if-conversion (symbolic execution to per-variable update exprs)
# ---------------------------------------------------------------------------


def if_convert(body: tuple[Stmt, ...], state_vars: tuple[str, ...]) -> dict[str, Expr]:
    """Collapse a fold body to one update expression per state variable.

    The returned expressions are over :class:`StateRef` (pre-update
    values), packet fields/columns and parameters; sequential
    assignments are composed and branches merged with :class:`Cond`.
    This is total — every fold body converts.
    """
    env: dict[str, Expr] = {v: StateRef(v) for v in state_vars}
    _exec_block(body, env)
    return env


def _exec_block(stmts: tuple[Stmt, ...], env: dict[str, Expr]) -> None:
    for stmt in stmts:
        if isinstance(stmt, Assign):
            env[stmt.target] = _subst(stmt.value, env)
        elif isinstance(stmt, If):
            pred = _subst(stmt.pred, env)
            then_env = dict(env)
            else_env = dict(env)
            _exec_block(stmt.then, then_env)
            _exec_block(stmt.orelse, else_env)
            for var in env:
                env[var] = mk_cond(pred, then_env[var], else_env[var])
        else:
            raise LinearityError(f"unknown statement {stmt!r}")


def _subst(expr: Expr, env: dict[str, Expr]) -> Expr:
    """Substitute current symbolic state values into ``expr``."""
    if isinstance(expr, StateRef):
        return env[expr.name]
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _subst(expr.left, env), _subst(expr.right, env))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _subst(expr.operand, env))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(_subst(a, env) for a in expr.args))
    if isinstance(expr, Cond):
        return mk_cond(_subst(expr.pred, env), _subst(expr.then, env),
                       _subst(expr.orelse, env))
    return expr


# ---------------------------------------------------------------------------
# Phase 1: history variables
# ---------------------------------------------------------------------------


def history_depths(update_exprs: dict[str, Expr]) -> dict[str, int]:
    """Depth of each history variable; non-history variables absent.

    ``v`` has depth 1 when its update references no state at all, and
    depth ``1 + max(depth(w))`` when it references only history
    variables ``w`` (their pre-values).  Cyclic or non-history
    dependence (e.g. ``v`` referencing itself) excludes a variable.
    """
    deps: dict[str, set[str]] = {}
    for var, expr in update_exprs.items():
        deps[var] = {n.name for n in walk(expr) if isinstance(n, StateRef)}

    depths: dict[str, int] = {}
    changed = True
    while changed:
        changed = False
        for var, dep in deps.items():
            if var in depths:
                continue
            if all(w in depths for w in dep):
                depth = 1 + max((depths[w] for w in dep), default=0)
                depths[var] = depth
                changed = True
    return depths


# ---------------------------------------------------------------------------
# Phase 2: affine extraction
# ---------------------------------------------------------------------------


class _NonAffine(Exception):
    """Internal: expression is not affine in mergeable state."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


@dataclass
class AffineForm:
    """``Σ coeffs[v]·s_v + const`` with state-free coefficient exprs."""

    coeffs: dict[str, Expr] = field(default_factory=dict)
    const: Expr = ZERO

    def is_pure(self) -> bool:
        return not self.coeffs

    def add(self, other: "AffineForm", sign: int = 1) -> "AffineForm":
        coeffs = dict(self.coeffs)
        for var, coeff in other.coeffs.items():
            term = coeff if sign > 0 else mk_neg(coeff)
            coeffs[var] = mk_add(coeffs[var], term) if var in coeffs else term
        const = mk_add(self.const, other.const) if sign > 0 else mk_sub(self.const, other.const)
        return AffineForm({v: c for v, c in coeffs.items() if c != ZERO}, const)

    def scale(self, factor: Expr) -> "AffineForm":
        return AffineForm(
            {v: mk_mul(factor, c) for v, c in self.coeffs.items()},
            mk_mul(factor, self.const),
        )

    def divide(self, denom: Expr) -> "AffineForm":
        return AffineForm(
            {v: mk_div(c, denom) for v, c in self.coeffs.items()},
            mk_div(self.const, denom),
        )

    def negate(self) -> "AffineForm":
        return AffineForm({v: mk_neg(c) for v, c in self.coeffs.items()},
                          mk_neg(self.const))


def _affine(expr: Expr, history: dict[str, int]) -> AffineForm:
    """Affine form of ``expr`` over mergeable (non-history) state vars."""
    if isinstance(expr, Number):
        return AffineForm(const=expr)
    if isinstance(expr, (FieldRef, ColumnRef, ParamRef)):
        return AffineForm(const=expr)
    if isinstance(expr, StateRef):
        if expr.name in history:
            # A history variable's pre-value is a bounded-packet-history
            # function, so it may live inside coefficients (footnote 4).
            return AffineForm(const=expr)
        return AffineForm(coeffs={expr.name: ONE})
    if isinstance(expr, UnaryOp):
        if expr.op == "-":
            return _affine(expr.operand, history).negate()
        inner = _affine(expr.operand, history)
        if not inner.is_pure():
            raise _NonAffine("'not' applied to an expression that depends on state")
        return AffineForm(const=UnaryOp("not", inner.const))
    if isinstance(expr, BinOp):
        op = expr.op
        if op in ("+", "-"):
            return _affine(expr.left, history).add(
                _affine(expr.right, history), 1 if op == "+" else -1)
        if op == "*":
            left = _affine(expr.left, history)
            right = _affine(expr.right, history)
            if left.is_pure():
                return right.scale(left.const)
            if right.is_pure():
                return left.scale(right.const)
            raise _NonAffine("product of two state-dependent expressions")
        if op == "/":
            left = _affine(expr.left, history)
            right = _affine(expr.right, history)
            if not right.is_pure():
                raise _NonAffine("division by a state-dependent expression")
            return left.divide(right.const)
        # Comparisons and boolean connectives must be state-free to sit
        # inside A/B; a predicate on real state is exactly what makes
        # ``nonmt`` non-linear (§3.2).
        left = _affine(expr.left, history)
        right = _affine(expr.right, history)
        if not left.is_pure() or not right.is_pure():
            raise _NonAffine(
                f"comparison/boolean {op!r} over a state-dependent expression"
            )
        return AffineForm(const=BinOp(op, left.const, right.const))
    if isinstance(expr, Call):
        args = [_affine(a, history) for a in expr.args]
        if any(not a.is_pure() for a in args):
            raise _NonAffine(f"{expr.func}() applied to state is not affine")
        return AffineForm(const=Call(expr.func, tuple(a.const for a in args)))
    if isinstance(expr, Cond):
        pred = _affine(expr.pred, history)
        if not pred.is_pure():
            raise _NonAffine("branch predicate depends on state")
        then = _affine(expr.then, history)
        orelse = _affine(expr.orelse, history)
        coeffs: dict[str, Expr] = {}
        for var in set(then.coeffs) | set(orelse.coeffs):
            coeffs[var] = mk_cond(pred.const,
                                  then.coeffs.get(var, ZERO),
                                  orelse.coeffs.get(var, ZERO))
        return AffineForm(coeffs, mk_cond(pred.const, then.const, orelse.const))
    raise _NonAffine(f"unsupported expression {expr!r}")


# ---------------------------------------------------------------------------
# Result type and entry points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearityResult:
    """Outcome of analysing one fold instance.

    Attributes:
        fold: The analysed fold instance.
        update_exprs: Per-variable update expressions (Phase 0); valid
            for *every* fold and used as the ALU program.
        linear: True when all mergeable variables update affinely.
        reason: Why the fold is not linear (when ``linear`` is False).
        history: History variables and their depths.
        history_depth: Max history depth appearing in ``A``/``B``, or
            of any history variable of depth ≥ 2 (0 ⇒ coefficients and
            reported history are pure packet functions and the paper's
            merge is exact from the first post-eviction packet).
        order: Mergeable state variables, in layout order.
        matrix: ``A[i][j]`` coefficient exprs, keyed ``(var_i, var_j)``;
            identity entries are stored explicitly.
        offset: ``B[i]`` exprs keyed by variable.
        matrix_kind: ``"identity"`` | ``"diagonal"`` | ``"full"``.
    """

    fold: FoldInstance
    update_exprs: dict[str, Expr]
    linear: bool
    reason: str | None
    history: dict[str, int]
    history_depth: int
    order: tuple[str, ...] = ()
    matrix: dict[tuple[str, str], Expr] = field(default_factory=dict)
    offset: dict[str, Expr] = field(default_factory=dict)
    matrix_kind: str = "identity"


def analyze_fold(instance: FoldInstance) -> LinearityResult:
    """Run the full linear-in-state analysis on ``instance``."""
    update_exprs = if_convert(instance.body, instance.state_vars)
    history = history_depths(update_exprs)

    mergeable_vars = tuple(v for v in instance.state_vars if v not in history)

    matrix: dict[tuple[str, str], Expr] = {}
    offset: dict[str, Expr] = {}
    try:
        for var in mergeable_vars:
            form = _affine(update_exprs[var], history)
            for dep, coeff in form.coeffs.items():
                matrix[(var, dep)] = coeff
            offset[var] = form.const
    except _NonAffine as exc:
        return LinearityResult(
            fold=instance, update_exprs=update_exprs, linear=False,
            reason=exc.reason, history=history,
            history_depth=max(history.values(), default=0),
        )

    matrix_kind = _classify_matrix(matrix, mergeable_vars)
    # A history variable of depth d >= 2 is itself reported state that
    # reads the packets before the current one: after an eviction it
    # needs its epoch's first d packets logged, whether or not A/B
    # read it.  Depth 1 reads only the current packet.
    used_history = max(_history_depth_used(matrix, offset, history),
                       max((d for d in history.values() if d >= 2),
                           default=0))
    return LinearityResult(
        fold=instance, update_exprs=update_exprs, linear=True, reason=None,
        history=history, history_depth=used_history,
        order=mergeable_vars, matrix=matrix, offset=offset,
        matrix_kind=matrix_kind,
    )


def _classify_matrix(matrix: dict[tuple[str, str], Expr],
                     order: tuple[str, ...]) -> str:
    identity = True
    diagonal = True
    for (i, j), coeff in matrix.items():
        if i != j:
            diagonal = False
            identity = False
        elif coeff != ONE:
            identity = False
    # Identity also requires every diagonal entry to be present-and-one
    # or absent (absent diagonal = coefficient 0, i.e. the variable is
    # overwritten each packet — still trivially mergeable, but not by
    # pure addition). Treat missing diagonals as non-identity.
    if identity:
        for var in order:
            if (var, var) in matrix and matrix[(var, var)] != ONE:
                identity = False
            if (var, var) not in matrix:
                identity = False
    if identity:
        return "identity"
    return "diagonal" if diagonal else "full"


def _history_depth_used(matrix: dict[tuple[str, str], Expr],
                        offset: dict[str, Expr],
                        history: dict[str, int]) -> int:
    """Max depth of history variables referenced by ``A``/``B``."""
    depth = 0
    for expr in list(matrix.values()) + list(offset.values()):
        for node in walk(expr):
            if isinstance(node, StateRef) and node.name in history:
                depth = max(depth, history[node.name])
    return depth
