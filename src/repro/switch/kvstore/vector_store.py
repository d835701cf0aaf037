"""Schedule-driven vectorized split key-value store: the fold kernel.

Batch counterpart of :class:`~repro.switch.kvstore.split.SplitKeyValueStore`
— the last per-packet Python loop on the hardware path.  Given a
stage's (WHERE-filtered) key/value column stream, the vector engine
produces **bit-identical** results without touching each packet in
Python:

1. **Schedule.** :class:`~repro.switch.kvstore.vector_cache.VectorCacheSim`
   precomputes, per access, whether it hits the resident entry or
   initialises a fresh value (:meth:`VectorCacheSim.miss_schedule`),
   plus the exact :class:`CacheStats` counters.  The replacement
   process is independent of the values (and of periodic refresh,
   which resets values but never residency), so the schedule is a pure
   function of the key stream.

2. **Epochs.** A key's accesses between two of its misses are all hits
   on one resident entry, so each key's occurrence list cut at its
   miss positions — and at periodic-refresh boundaries (§3.2), which
   reset values in place — yields the *residency epochs*: exactly the
   per-entry value lifetimes the row store pushes to the backing store
   (each nonempty epoch is dirty and absorbed exactly once, at
   eviction, refresh, or the final flush).  One composite
   ``(key, time)`` sort materialises every epoch as a contiguous
   segment.

3. **Segmented folds.** Per-epoch fold values are computed with the
   shared machinery of :mod:`repro.core.vector_exec`, with epochs as
   the groups: identity linear folds (§3.2, via
   :mod:`repro.core.linearity`) as ``np.add.at`` segmented reductions
   (order-preserving, so float results match the row loop bit for
   bit), diagonal linear folds (EWMA) via the exact round-major path
   with the merge product ``P`` as a segmented ``np.multiply.at``, and
   everything else (non-linear folds' value segments, full-matrix
   merges) via the round-major path or an exact scalar replay over the
   packed epoch layout.  Exact-history auxiliaries (first-``k`` packet
   logs, post-prefix snapshots) come from prefix-restricted segmented
   reductions.

4. **Backing-store merge.** Closed epochs are absorbed into the backing
   store in per-key chronological order (the only order merging
   observes — a key has at most one open epoch at a time).  The common
   all-additive case is itself vectorized: with zero initial state the
   row store's nested ``evicted + (backing - init)`` merges reassociate
   to a plain segmented sum (IEEE addition is commutative), so per-key
   merged values fall out of ``np.add.at`` over the epoch values.

:class:`VectorSplitStore` is the window-independent kernel — step 3,
which every epoch layout shares.  The one concrete store is
:class:`~repro.switch.kvstore.windowed_store.WindowedVectorStore`, which
runs steps 1, 2 and 4 once per window with carried state (one window
for the whole stream when it is unbounded), exactly as a switch sees
packets: as they arrive.

Differential property tests (``tests/test_vector_store.py``) assert
bit-identical ``ResultTable``, ``CacheStats``, accuracy, backing-store
writes, and refresh counts against the row store over the full query
catalog, every eviction policy, and adversarial streams.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from repro.core.ast_nodes import StateRef, walk
from repro.core.errors import HardwareError
from repro.core.eval_expr import Numeric
from repro.core.interpreter import ResultTable
from repro.core.merge_synthesis import (
    AuxState,
    State,
    init_aux,
    note_post_prefix_state,
    update_aux,
)
from repro.core.plan import FoldConfig, GroupByStage
from repro.network.records import ColumnRowView
from repro.core.vector_exec import (
    ArrayContext,
    FoldVectorizer,
    GroupLayout,
    VectorizationError,
    as_column,
    eval_array,
    guard_int64_accumulation,
)

from ..alu import compile_update
from .cache import CacheGeometry, CacheStats


class _FoldEpochs:
    """Per-epoch end states and auxiliary registers for one fold.

    ``values`` maps state variables to per-epoch sequences; auxiliary
    registers are materialised lazily per epoch by :meth:`aux` (only
    absorbed epochs pay for dict construction).
    """

    __slots__ = ("spec", "values", "arrays", "aux_list", "P", "log",
                 "snapshot", "seen")

    def __init__(self, spec, values: dict[str, list], arrays=None,
                 aux_list=None, P=None, log=None, snapshot=None, seen=None):
        self.spec = spec
        self.values = values
        self.arrays = arrays            # vectorized paths: the numpy originals
        self.aux_list = aux_list        # replay fallback: real AuxState dicts
        self.P = P                      # scale: var -> per-epoch product
        self.log = log                  # exact history: j -> field -> values
        self.snapshot = snapshot        # exact history: var -> per-epoch value
        self.seen = seen                # exact history: per-epoch access count

    def value(self, e: int) -> dict[str, Numeric]:
        return {var: lst[e] for var, lst in self.values.items()}

    def aux(self, e: int) -> AuxState:
        if self.aux_list is not None:
            return self.aux_list[e]
        aux: AuxState = {}
        if self.P is not None:
            aux["P"] = {var: lst[e] for var, lst in self.P.items()}
        if self.spec.exact_history:
            k = self.spec.history_depth
            seen = self.seen[e]
            aux["log"] = [
                {f: vals[e] for f, vals in self.log[j].items()}
                for j in range(min(k, seen))
            ]
            aux["snapshot"] = (
                {var: lst[e] for var, lst in self.snapshot.items()}
                if seen >= k else None
            )
            aux["seen"] = seen
        return aux


class _FoldCont(NamedTuple):
    """Epoch-continuation inputs for one fold in one window: epochs of
    the current window that resume a carried open epoch (``eids``, ids
    in the *current* window's layout), with the carried end states and
    auxiliary registers to resume from, aligned.

    Folds carried this way (full-matrix merges, exact history) resume
    only through :meth:`VectorSplitStore._replay_fold`; the vectorized
    paths also call ``override``/``p_values``, which the windowed
    store's array-backed continuation provides.
    """

    eids: np.ndarray
    states: list[State]
    auxes: list[AuxState]


class VectorSplitStore:
    """Vectorized split cache/backing-store engine for one ``GROUPBY``
    stage: the per-epoch fold kernel and the surface every vector store
    shares — same constructor and result surface as
    :class:`~repro.switch.kvstore.split.SplitKeyValueStore`, fed whole
    column batches via ``add_batch`` instead of per-packet calls.

    The schedule, the epoch cut and the backing-store merge belong to
    the concrete store,
    :class:`~repro.switch.kvstore.windowed_store.WindowedVectorStore`,
    which implements :meth:`finalize` and :meth:`result_table` (and the
    rest of the observable surface).
    """

    def __init__(
        self,
        stage: GroupByStage,
        geometry: CacheGeometry,
        params: Mapping[str, Numeric] | None = None,
        policy: str = "lru",
        seed: int = 0,
        refresh_interval: int | None = None,
    ):
        if refresh_interval is not None and refresh_interval <= 0:
            raise HardwareError("refresh_interval must be positive")
        self.stage = stage
        self.params = dict(params or {})
        self.geometry = geometry
        self.policy = policy
        self.seed = seed
        self.refresh_interval = refresh_interval
        self.refreshes = 0
        self._stats = CacheStats()
        self._finalized = False
        self._vec = {
            fold.column: FoldVectorizer(fold.instance, fold.linearity,
                                        self.params)
            for fold in stage.folds
        }
        #: Observation-table fields the fold updates read (the batch
        #: caller must supply these columns).
        self.needed_fields: frozenset[str] = frozenset().union(
            *(v.needed for v in self._vec.values())
        ) if stage.folds else frozenset()

    def process(self, record: object) -> None:
        raise HardwareError(
            "the vector split store is batch-only; use add_batch(), or "
            "the row engine (SplitKeyValueStore) for per-packet streaming"
        )

    def process_keyed(self, key, record: object) -> None:
        self.process(record)

    def finalize(self) -> None:
        """Execute everything still pending and flush every open epoch
        into the backing store (idempotent)."""
        raise NotImplementedError

    def result_table(self, include_invalid: bool = False) -> ResultTable:
        """Stage output in first-access key order — bit-identical to
        the row store's."""
        raise NotImplementedError

    # -- fold evaluation -----------------------------------------------------

    def _eval_fold(self, fold: FoldConfig, ctx: ArrayContext,
                   layout: GroupLayout,
                   cont: _FoldCont | None = None) -> _FoldEpochs:
        """Per-epoch fold values; ``cont`` seeds epochs that continue a
        carried open epoch from an earlier window."""
        spec = fold.merge
        vec = self._vec[fold.column]
        try:
            if cont is not None and spec.exact_history:
                # Continuing an exact-history epoch means resuming its
                # packet log / snapshot / seen registers mid-prefix —
                # sequential by nature: exact scalar replay.
                return self._replay_fold(fold, ctx, layout, cont)
            if spec.strategy == "list":
                # Non-mergeable: only per-epoch end states are needed
                # (the backing store keeps them as value segments).
                if cont is None:
                    states = vec.evaluate(ctx, layout)
                else:
                    override = cont.override(fold, layout.n_groups,
                                             fold.instance.state_vars)
                    if vec.strategy == "reduction":
                        states = vec.reduce(ctx, layout,
                                            init_override=override)
                    else:
                        states = vec.run_rounds(ctx, layout,
                                                init_override=override)
                return _FoldEpochs(spec, _tolist_states(states))
            if spec.strategy == "additive":
                return self._eval_additive(fold, vec, ctx, layout, cont)
            if spec.strategy == "scale" and not spec.exact_history:
                return self._eval_scale(fold, vec, ctx, layout, cont)
            # Full-matrix merge products (and exact-history scale) are
            # sequential and non-commutative: exact scalar replay.
            return self._replay_fold(fold, ctx, layout, cont)
        except VectorizationError:
            return self._replay_fold(fold, ctx, layout, cont)

    def _eval_additive(self, fold: FoldConfig, vec: FoldVectorizer,
                       ctx: ArrayContext, layout: GroupLayout,
                       cont=None) -> _FoldEpochs:
        """Identity-matrix linear folds: per-epoch ``S = init + Σ B``
        via order-preserving ``np.add.at`` (bit-identical to the row
        loop), with history pre-values reset per epoch; exact-history
        snapshots are the same reduction restricted to each epoch's
        first ``k`` packets.  ``cont`` (array-backed, see
        :mod:`~repro.switch.kvstore.windowed_store`) seeds continuing
        epochs' state (exact-history continuation never reaches this
        path)."""
        spec = fold.merge
        override = None if cont is None else \
            cont.override(fold, layout.n_groups, fold.instance.state_vars)
        pre, final = vec._history_values(ctx, layout, init_override=override)
        states = dict(final)
        k = spec.history_depth if spec.exact_history else 0
        snapshot: dict[str, np.ndarray] = {}
        if k:
            ranks = layout.ranks_group_major()
            prefix_pos = np.flatnonzero(ranks < k)   # (epoch, time)-ordered
            prefix_rows = layout.order[prefix_pos]
            prefix_eid = layout.gid[prefix_rows]
        bctx = ArrayContext(ctx.columns, self.params, ctx.n, state=pre)
        for var in fold.linearity.order:
            init = fold.instance.inits.get(var, 0)
            b = np.asarray(as_column(
                eval_array(fold.linearity.offset[var], bctx), ctx.n))
            if override is not None:
                init_arr = override[var]
                dtype = np.result_type(b.dtype, init_arr.dtype)
                out = init_arr.astype(dtype, copy=True)
            else:
                dtype = np.result_type(
                    b.dtype,
                    np.float64 if isinstance(init, float) else np.int64)
                out = np.full(layout.n_groups, init, dtype=dtype)
            b = b.astype(dtype, copy=False)
            guard_int64_accumulation(out, b)
            np.add.at(out, layout.gid, b)
            states[var] = out
            if k:
                snap = np.full(layout.n_groups, init, dtype=dtype)
                np.add.at(snap, prefix_eid, b[prefix_rows])
                snapshot[var] = snap
        return _FoldEpochs(
            spec, _tolist_states(states), arrays=states,
            log=self._epoch_logs(spec, ctx, layout) if k else None,
            snapshot=_tolist_states(snapshot) if k else None,
            seen=layout.counts.tolist() if k else None,
        )

    def _eval_scale(self, fold: FoldConfig, vec: FoldVectorizer,
                    ctx: ArrayContext, layout: GroupLayout,
                    cont=None) -> _FoldEpochs:
        """Diagonal linear folds (EWMA class): end states via the exact
        round-major path; the merge product ``P`` is a segmented
        ``np.multiply.at`` of the per-packet coefficients (affine
        extraction guarantees they read only the packet and history
        pre-values, so one vectorized pass evaluates them all).
        ``cont`` (array-backed) seeds continuing epochs' state and
        running product — multiplications then continue in packet order
        from the carried product, exactly like the scalar ``P ← a·P``
        updates."""
        spec = fold.merge
        override = None if cont is None else \
            cont.override(fold, layout.n_groups, fold.instance.state_vars)
        states = vec.run_rounds(ctx, layout, init_override=override)
        coeffs = [spec.matrix.get((var, var)) for var in spec.order]
        pre = None
        if any(c is not None and _references_state(c) for c in coeffs):
            pre, _ = vec._history_values(ctx, layout, init_override=override)
        pctx = ArrayContext(ctx.columns, self.params, ctx.n, state=pre)
        P: dict[str, list] = {}
        for var, coeff in zip(spec.order, coeffs):
            prod = np.ones(layout.n_groups, dtype=np.float64)
            if cont is not None and len(cont.eids):
                prod[cont.eids] = cont.p_values(var)
            if coeff is None:
                a: np.ndarray | float = 0.0
            else:
                a = as_column(eval_array(coeff, pctx), ctx.n)
            np.multiply.at(prod, layout.gid, a)
            P[var] = prod.tolist()
        return _FoldEpochs(spec, _tolist_states(states), P=P)

    def _epoch_logs(self, spec, ctx: ArrayContext,
                    layout: GroupLayout) -> list[dict[str, list]]:
        """Exact-history packet logs: the fields of each epoch's first
        ``k`` packets (``log[j][field][e]`` — defined for epochs with
        more than ``j`` accesses)."""
        logs: list[dict[str, list]] = []
        counts = layout.counts
        for j in range(spec.history_depth):
            sel = np.flatnonzero(counts > j)
            rows = layout.order[layout.offsets[:-1][sel] + j]
            entry: dict[str, list] = {}
            for f in spec.packet_fields:
                vals = np.zeros(layout.n_groups,
                                dtype=ctx.columns[f].dtype)
                vals[sel] = ctx.columns[f][rows]
                entry[f] = vals.tolist()
            logs.append(entry)
        return logs

    def _replay_fold(self, fold: FoldConfig, ctx: ArrayContext,
                     layout: GroupLayout,
                     cont: _FoldCont | None = None) -> _FoldEpochs:
        """Exact scalar replay over the packed epoch layout — the same
        update/aux calls as the row store's per-packet path, minus the
        cache machinery.  Safety net for full-matrix merges and
        anything the array evaluator cannot express.  ``cont`` seeds
        continuing epochs with (copies of) the carried state and
        auxiliary registers."""
        spec = fold.merge
        update = compile_update(fold.alu.update_exprs, self.params)
        needs_aux = spec.strategy in ("scale", "matrix") or spec.exact_history
        needed = sorted(self._vec[fold.column].needed)
        missing = [f for f in needed if f not in ctx.columns]
        if missing:
            raise HardwareError(f"missing fold input column {missing[0]!r}")
        col_lists = {f: ctx.columns[f].tolist() for f in needed}
        gid_list = layout.gid.tolist()
        n_epochs = layout.n_groups
        states: list[dict | None] = [None] * n_epochs
        auxes: list[AuxState | None] = [None] * n_epochs
        if cont is not None:
            for e, state, aux in zip(cont.eids.tolist(), cont.states,
                                     cont.auxes):
                states[e] = dict(state)
                auxes[e] = _copy_aux(aux)
        exact_history = spec.exact_history
        for i in layout.order.tolist():      # epoch-major, time within
            e = gid_list[i]
            state = states[e]
            if state is None:
                state = fold.instance.initial_state()
                states[e] = state
                auxes[e] = init_aux(spec)
            row = ColumnRowView(col_lists, i)
            if needs_aux:
                update_aux(spec, auxes[e], state, row, self.params)
            state.update(update(row, state))
            if exact_history:
                note_post_prefix_state(spec, auxes[e], state)
        values = {
            var: [state[var] for state in states]
            for var in fold.instance.state_vars
        }
        return _FoldEpochs(spec, values, aux_list=auxes)

    # -- backing-store absorption --------------------------------------------

    def _all_plain_additive(self) -> bool:
        """True when every fold merges by plain addition from zero
        initial state — the case where the row store's nested merges
        reassociate to one segmented sum (see module docstring)."""
        for fold in self.stage.folds:
            spec = fold.merge
            if spec.strategy != "additive" or spec.exact_history:
                return False
            if any(fold.instance.inits.get(var, 0) != 0
                   for var in spec.order):
                return False
        return True


def _copy_aux(aux: AuxState) -> AuxState:
    """Copy carried auxiliary registers deeply enough that a replay
    continuation cannot mutate the original (``update_aux`` mutates the
    ``P`` dict in place and appends to the log list; the other entries
    are replaced, never mutated)."""
    out: AuxState = {}
    for name, value in aux.items():
        if isinstance(value, dict):
            out[name] = dict(value)
        elif isinstance(value, list):
            out[name] = list(value)
        else:
            out[name] = value
    return out


def _tolist_states(states: dict[str, np.ndarray]) -> dict[str, list]:
    """Per-epoch state arrays to native-scalar lists (the merge and the
    result table operate on Python numbers, like the row store)."""
    return {var: np.asarray(arr).tolist() for var, arr in states.items()}


def _references_state(expr) -> bool:
    return any(isinstance(node, StateRef) for node in walk(expr))
