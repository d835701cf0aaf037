"""Merge-function synthesis for cache evictions (paper §3.2).

When the SRAM cache evicts a key, its value must be folded into the
backing store's value for that key.  For linear-in-state folds

    S = A·S + B

the correct merged value after ``N`` in-cache packets is

    S_correct = S_new + P · (S_backing − S_0),      P = A_N · ... · A_1

(the paper derives the EWMA special case ``P = (1−α)^N``).  This module
turns a :class:`~repro.core.linearity.LinearityResult` into an
executable :class:`MergeSpec` and provides the runtime operations the
hardware model invokes:

* :func:`init_aux` — auxiliary registers added to the cache value at
  key insertion (the running product ``P``, plus the optional
  first-``k``-packets log for exact history handling);
* :func:`update_aux` — per-packet auxiliary update (``P ← A(pkt)·P``),
  executed by the same ALU pass as the state update;
* :func:`merge_values` — the backing-store merge at eviction time.

Strategies
----------

``additive``   ``A ≡ I`` (counters, sums): no ``P`` register needed,
               merge is plain addition — the common fast path.
``scale``      ``A`` diagonal (EWMA): one product register per
               variable.
``matrix``     general ``A``: a ``k×k`` product matrix.
``list``       not linear in state: no merge; the backing store keeps a
               list of per-epoch values and marks multi-epoch keys
               invalid (§3.2, "Operations that are not linear in
               state").

History correction (beyond the paper)
-------------------------------------

When ``A``/``B`` reference history variables (footnote 4, e.g. the
``outofseq`` fold reads the previous packet's ``lastseq``), the first
packet after a (re)insertion evaluates them against freshly initialised
history — a small per-eviction error the paper accepts.  With
``exact_history`` enabled, the cache logs the packet fields consumed by
the first ``k`` packets of each epoch, together with a snapshot of the
state after those packets and a product ``P`` restricted to packets
``k+1..N``; the merge then *replays* the first ``k`` packets against
the true backing state and applies the affine composition to the rest,
recovering exactness (this is the mechanism the Marple follow-on paper
adopts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .ast_nodes import ColumnRef, Expr, FieldRef, walk
from .errors import LinearityError
from .eval_expr import EvalContext, Numeric, evaluate
from .linearity import LinearityResult

AuxState = dict[str, object]
State = dict[str, Numeric]


@dataclass(frozen=True)
class MergeSpec:
    """Executable description of how to merge evicted values."""

    strategy: str                          # additive | scale | matrix | list
    order: tuple[str, ...]                 # mergeable variables, layout order
    history_vars: tuple[str, ...]
    history_depth: int                     # k (0 = coefficients are packet-pure)
    matrix: dict[tuple[str, str], Expr] = field(default_factory=dict)
    offset: dict[str, Expr] = field(default_factory=dict)
    update_exprs: dict[str, Expr] = field(default_factory=dict)
    packet_fields: tuple[str, ...] = ()    # fields to log for exact history
    exact_history: bool = False

    @property
    def mergeable(self) -> bool:
        return self.strategy != "list"

    @property
    def exact(self) -> bool:
        """True when merged backing values are exactly correct."""
        if self.strategy == "list":
            return False
        return self.history_depth == 0 or self.exact_history

    def aux_registers(self) -> int:
        """Number of extra value registers the cache entry carries,
        counted for the hardware value-layout model."""
        count = 0
        if self.strategy == "scale":
            count += len(self.order)
        elif self.strategy == "matrix":
            count += len(self.order) * len(self.order)
        if self.exact_history and self.history_depth > 0:
            count += self.history_depth * max(1, len(self.packet_fields))
            count += len(self.order) + len(self.history_vars)  # state snapshot
            count += 1  # packets-seen counter
        return count


def synthesize_merge(result: LinearityResult, exact_history: bool = False) -> MergeSpec:
    """Build the merge spec for an analysed fold."""
    fields = _packet_fields(result.update_exprs)
    if not result.linear:
        return MergeSpec(
            strategy="list",
            order=(),
            history_vars=tuple(result.history),
            history_depth=result.history_depth,
            update_exprs=result.update_exprs,
            packet_fields=fields,
        )
    if result.matrix_kind == "identity":
        strategy = "additive"
    elif result.matrix_kind == "diagonal":
        strategy = "scale"
    else:
        strategy = "matrix"
    return MergeSpec(
        strategy=strategy,
        order=result.order,
        history_vars=tuple(result.history),
        history_depth=result.history_depth,
        matrix=dict(result.matrix),
        offset=dict(result.offset),
        update_exprs=result.update_exprs,
        packet_fields=fields,
        exact_history=exact_history and result.history_depth > 0,
    )


def _packet_fields(update_exprs: Mapping[str, Expr]) -> tuple[str, ...]:
    names: list[str] = []
    for expr in update_exprs.values():
        for node in walk(expr):
            if isinstance(node, FieldRef) and node.name not in names:
                names.append(node.name)
            elif isinstance(node, ColumnRef) and node.table is None and node.name not in names:
                names.append(node.name)
    return tuple(names)


# ---------------------------------------------------------------------------
# Runtime: auxiliary registers
# ---------------------------------------------------------------------------


def init_aux(spec: MergeSpec) -> AuxState:
    """Fresh auxiliary registers for a newly inserted cache entry."""
    aux: AuxState = {}
    if spec.strategy == "scale":
        aux["P"] = {v: 1 for v in spec.order}
    elif spec.strategy == "matrix":
        aux["P"] = {
            (i, j): int(i == j) for i in spec.order for j in spec.order
        }
    if spec.exact_history:
        aux["log"] = []            # field dicts of the first k packets
        aux["snapshot"] = None     # state after the first k packets
        aux["seen"] = 0
    return aux


def update_aux(spec: MergeSpec, aux: AuxState, pre_state: State,
               row: object, params: Mapping[str, Numeric]) -> None:
    """Per-packet auxiliary update, evaluated against *pre-update* state.

    Must be called before the state update is applied (the coefficient
    matrix ``A`` may read history variables' pre-values).
    """
    if spec.strategy == "list":
        return
    ctx = EvalContext(row=row, state=pre_state, params=params)

    in_replay_prefix = False
    if spec.exact_history:
        seen = aux["seen"]  # type: ignore[assignment]
        if seen < spec.history_depth:
            aux["log"].append(  # type: ignore[union-attr]
                {f: ctx.field(f) for f in spec.packet_fields}
            )
            in_replay_prefix = True
        aux["seen"] = seen + 1  # type: ignore[assignment]

    # The product P only covers packets *after* the replay prefix.
    if in_replay_prefix:
        return
    if spec.strategy == "scale":
        product: dict[str, Numeric] = aux["P"]  # type: ignore[assignment]
        for var in spec.order:
            coeff = spec.matrix.get((var, var))
            a = evaluate(coeff, ctx) if coeff is not None else 0
            product[var] = a * product[var]
    elif spec.strategy == "matrix":
        product = aux["P"]  # type: ignore[assignment]
        step = {
            (i, j): (evaluate(spec.matrix[(i, j)], ctx) if (i, j) in spec.matrix else 0)
            for i in spec.order for j in spec.order
        }
        new_product = {}
        for i in spec.order:
            for j in spec.order:
                new_product[(i, j)] = sum(
                    step[(i, k)] * product[(k, j)] for k in spec.order
                )
        aux["P"] = new_product


def note_post_prefix_state(spec: MergeSpec, aux: AuxState, state: State) -> None:
    """Record the state snapshot right after the replay prefix completes
    (exact-history mode only); call after each state update."""
    if spec.exact_history and aux["snapshot"] is None and aux["seen"] >= spec.history_depth:
        aux["snapshot"] = dict(state)


# ---------------------------------------------------------------------------
# Runtime: the merge proper
# ---------------------------------------------------------------------------


def merge_values(
    spec: MergeSpec,
    evicted: State,
    aux: AuxState,
    backing: State | None,
    init_state: State,
    params: Mapping[str, Numeric] | None = None,
) -> State:
    """Merge an evicted cache value into the backing-store value.

    Args:
        spec: The fold's merge spec (must be mergeable).
        evicted: State of the evicted cache entry (after N packets).
        aux: The entry's auxiliary registers.
        backing: Current backing-store state for the key, or ``None``
            if the key has never been evicted before.
        init_state: The fold's initial state ``S_0``.
        params: Query-parameter bindings (needed only for exact-history
            replay).

    Returns:
        The new backing-store state.
    """
    if spec.strategy == "list":
        raise LinearityError(
            "merge_values called for a fold that is not linear in state; "
            "use the backing store's value-list path instead"
        )
    if backing is None:
        return dict(evicted)

    if spec.exact_history and aux.get("log"):
        return _merge_with_replay(spec, evicted, aux, backing, init_state, params or {})

    merged = dict(evicted)
    if spec.strategy == "additive":
        for var in spec.order:
            merged[var] = evicted[var] + (backing[var] - init_state[var])
    elif spec.strategy == "scale":
        product: dict[str, float] = aux["P"]  # type: ignore[assignment]
        for var in spec.order:
            merged[var] = evicted[var] + product[var] * (backing[var] - init_state[var])
    else:  # matrix
        product = aux["P"]  # type: ignore[assignment]
        delta = {v: backing[v] - init_state[v] for v in spec.order}
        for i in spec.order:
            correction = sum(product[(i, j)] * delta[j] for j in spec.order)
            merged[i] = evicted[i] + correction
    # History variables depend only on the most recent packets, which
    # the cache saw: take the evicted copy (already in ``merged``).
    return merged


def _merge_with_replay(
    spec: MergeSpec,
    evicted: State,
    aux: AuxState,
    backing: State,
    init_state: State,
    params: Mapping[str, Numeric],
) -> State:
    """Exact merge for history-dependent folds (see module docstring)."""
    log: list[dict[str, Numeric]] = aux["log"]  # type: ignore[assignment]
    # 1. Replay the first k packets against the *true* prior state.
    state = dict(backing)
    for row in log:
        ctx = EvalContext(row=row, state=state, params=params)
        state = {v: evaluate(expr, ctx) for v, expr in spec.update_exprs.items()}
    snapshot: State | None = aux.get("snapshot")  # type: ignore[assignment]
    if snapshot is None:
        # The epoch ended inside the replay prefix: the replayed state is
        # already exact.
        return state
    # 2. Affinely compose the remaining packets (k+1..N):
    #    S_N = P·S_k + C with C recoverable from the cache's own run.
    merged = dict(evicted)
    if spec.strategy == "additive":
        for var in spec.order:
            merged[var] = evicted[var] + (state[var] - snapshot[var])
    elif spec.strategy == "scale":
        product: dict[str, float] = aux["P"]  # type: ignore[assignment]
        for var in spec.order:
            merged[var] = evicted[var] + product[var] * (state[var] - snapshot[var])
    else:
        product = aux["P"]  # type: ignore[assignment]
        delta = {v: state[v] - snapshot[v] for v in spec.order}
        for i in spec.order:
            correction = sum(product[(i, j)] * delta[j] for j in spec.order)
            merged[i] = evicted[i] + correction
    return merged
