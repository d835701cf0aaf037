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
   reductions, offset by each epoch's carried packet count when the
   epoch continues from an earlier window.

4. **Backing-store merge.** Closed epochs are absorbed in per-key
   chronological order (the only order merging observes — a key has at
   most one open epoch at a time) into per-key merged arrays, for every
   merge class, by one array mirror of
   :func:`~repro.core.merge_synthesis.merge_values`
   (:func:`absorb_epochs`).  Plain-additive folds (zero initial state)
   are one ``np.add.at``: the row store's nested
   ``evicted + (backing - init)`` merges reassociate to a segmented sum
   (IEEE addition is commutative).  Every other merge — ``scale``,
   ``matrix``, exact history's log replay — runs in rounds by each
   key's closed-epoch rank, with a short tail on a scalar loop.  The
   ``list`` class keeps no merged value: its segments are logged.

:class:`VectorSplitStore` is the window-independent kernel — steps 3
and 4, which every epoch layout shares.  The one concrete store is
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

from typing import Mapping

import numpy as np

from repro.core import intbound
from repro.core.ast_nodes import BinOp, Expr, Number, StateRef, walk
from repro.core.errors import HardwareError
from repro.core.eval_expr import Numeric
from repro.core.interpreter import ResultTable
from repro.core.merge_synthesis import (
    AuxState,
    State,
    init_aux,
    merge_values,
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
)

from ..alu import compile_update
from .cache import CacheGeometry, CacheStats


class _FoldEpochs:
    """Per-epoch end states and merge registers for one fold.

    ``arrays`` maps state variables to per-epoch arrays.  The
    vectorized paths keep the merge registers as per-epoch arrays in
    ``regs`` (keyed as :func:`register_keys` lists them); the replay
    fallback keeps real :data:`AuxState` dicts in ``aux_list``.
    :meth:`registers` packs selected epochs' registers as arrays (what
    the merge kernel and the open-epoch carry read).
    """

    __slots__ = ("spec", "arrays", "aux_list", "regs")

    def __init__(self, spec, arrays: dict[str, np.ndarray], aux_list=None,
                 regs=None):
        self.spec = spec
        self.arrays = arrays
        self.aux_list = aux_list        # replay fallback: real AuxState dicts
        self.regs: dict[tuple, np.ndarray] = regs or {}

    def registers(self, eids: np.ndarray) -> dict[tuple, np.ndarray]:
        """The merge registers of epochs ``eids`` as arrays (packed from
        the replay fallback's dicts when the window fell back)."""
        if self.aux_list is None:
            return {key: arr[eids] for key, arr in self.regs.items()}
        return pack_registers(self.spec,
                              [self.aux_list[e] for e in eids.tolist()])


def register_keys(spec) -> list[tuple]:
    """The array-carried merge registers of a fold, one key each: the
    scale product ``("P", var)`` or the full-matrix product
    ``("P", i, j)``; exact history's ``("seen",)``, packet log
    ``("log", j, field)`` and post-prefix ``("snapshot", var)``."""
    keys: list[tuple] = []
    if spec.strategy == "scale":
        keys += [("P", var) for var in spec.order]
    elif spec.strategy == "matrix":
        keys += [("P", i, j) for i in spec.order for j in spec.order]
    if spec.exact_history:
        keys.append(("seen",))
        keys += [("log", j, f) for j in range(spec.history_depth)
                 for f in spec.packet_fields]
        keys += [("snapshot", var) for var in spec.order]
    return keys


def aux_from_registers(spec, lists: Mapping[tuple, list], i: int) -> AuxState:
    """Entry ``i`` of per-register value lists as the row store's
    :data:`AuxState` dict (see :func:`repro.core.merge_synthesis.init_aux`):
    the log holds the first ``min(k, seen)`` packets, and the snapshot
    is defined once ``seen >= k``."""
    aux: AuxState = {}
    if spec.strategy == "scale":
        aux["P"] = {var: lists[("P", var)][i] for var in spec.order}
    elif spec.strategy == "matrix":
        aux["P"] = {(a, b): lists[("P", a, b)][i]
                    for a in spec.order for b in spec.order}
    if spec.exact_history:
        k = spec.history_depth
        seen = lists[("seen",)][i]
        aux["log"] = [{f: lists[("log", j, f)][i] for f in spec.packet_fields}
                      for j in range(min(k, seen))]
        aux["snapshot"] = ({var: lists[("snapshot", var)][i]
                            for var in spec.order} if seen >= k else None)
        aux["seen"] = seen
    return aux


def pack_registers(spec, auxes: list[AuxState]) -> dict[tuple, np.ndarray]:
    """:data:`AuxState` dicts as per-register arrays (the inverse of
    :func:`aux_from_registers`)."""
    return {key: exact_array([_register_value(aux, key) for aux in auxes])
            for key in register_keys(spec)}


def _register_value(aux: AuxState, key: tuple) -> Numeric:
    """One register of an :data:`AuxState` dict (0 where undefined: a
    log slot not yet filled, a snapshot not yet taken)."""
    name = key[0]
    if name == "P":
        return aux["P"][key[1] if len(key) == 2 else key[1:]]
    if name == "seen":
        return aux["seen"]
    if name == "log":
        log = aux["log"]
        return log[key[1]][key[2]] if key[1] < len(log) else 0
    snapshot = aux["snapshot"]
    return 0 if snapshot is None else snapshot[key[1]]


def exact_array(values: list) -> np.ndarray:
    """Python numbers as an array without losing an integer: ``int64``
    when every value is an int that fits, ``object`` (exact Python
    ints) when one does not, numpy's choice otherwise."""
    if values and all(type(v) is int for v in values):
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return np.array(values, dtype=object)
    return np.asarray(values)


class VectorSplitStore:
    """Vectorized split cache/backing-store engine for one ``GROUPBY``
    stage: the per-epoch fold kernel and the surface every vector store
    shares — same constructor and result surface as
    :class:`~repro.switch.kvstore.split.SplitKeyValueStore`, fed whole
    column batches via ``add_batch`` instead of per-packet calls.

    The schedule, the epoch cut and the absorption target belong to
    the concrete store,
    :class:`~repro.switch.kvstore.windowed_store.WindowedVectorStore`,
    which merges through :func:`absorb_epochs` and implements
    :meth:`finalize` and :meth:`result_table` (and the rest of the
    observable surface).
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
                   layout: GroupLayout, cont=None) -> _FoldEpochs:
        """Per-epoch fold values; ``cont`` seeds epochs that continue a
        carried open epoch from an earlier window."""
        spec = fold.merge
        vec = self._vec[fold.column]
        try:
            if spec.strategy == "list":
                # Non-mergeable: only per-epoch end states are needed
                # (the backing store keeps them as value segments).
                override = None if cont is None else cont.override(
                    fold, layout.n_groups, fold.instance.state_vars)
                run = vec.reduce if vec.strategy == "reduction" \
                    else vec.run_rounds
                return _FoldEpochs(spec, run(ctx, layout, override))
            if spec.strategy == "additive":
                # Exact history included: its registers continue by
                # per-epoch offsets (see _eval_additive).
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
        loop), with history pre-values reset per epoch.  ``cont``
        (array-backed, see :mod:`~repro.switch.kvstore.windowed_store`)
        seeds continuing epochs' state.

        Exact-history registers continue by per-epoch offsets: with
        ``s`` the carried ``seen`` of an epoch (0 for a fresh one), the
        window's packet of epoch rank ``r`` is the epoch's packet
        ``s + r``.  So ``seen`` grows by the window's count, log slot
        ``j >= s`` takes the window packet of rank ``j - s``, and an
        epoch with ``s < k`` takes its snapshot as the same segmented
        reduction restricted to window ranks ``< k - s``, starting from
        the carried state (an epoch with ``s >= k`` keeps its carried
        snapshot)."""
        spec = fold.merge
        override = None if cont is None else \
            cont.override(fold, layout.n_groups, fold.instance.state_vars)
        pre, states = vec._history_values(ctx, layout, override)
        k = spec.history_depth if spec.exact_history else 0
        regs: dict[tuple, np.ndarray] = {}
        if k:
            counts = layout.counts
            seen0 = np.zeros(layout.n_groups, dtype=np.int64)
            if cont is not None:
                carried_seen = cont.register(("seen",))
                seen0[cont.eids] = carried_seen
            regs[("seen",)] = seen0 + counts
            room = np.repeat(k - seen0, counts)   # group-major positions
            prefix_pos = np.flatnonzero(layout.ranks_group_major() < room)
            prefix_rows = layout.order[prefix_pos]
            prefix_eid = layout.gid[prefix_rows]
            _continue_logs(spec, ctx, layout, seen0, cont, regs)
        for var, out, b in vec.addends(ctx, layout, pre, override):
            if k:
                snap = out.copy()
                np.add.at(snap, prefix_eid, b[prefix_rows])
                if cont is not None:
                    done = carried_seen >= k
                    carried = cont.register(("snapshot", var))[done]
                    snap = snap.astype(
                        np.result_type(snap.dtype, carried.dtype), copy=False)
                    snap[cont.eids[done]] = carried
                regs[("snapshot", var)] = snap
            np.add.at(out, layout.gid, b)
            states[var] = out
        return _FoldEpochs(spec, states, regs=regs)

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
        updates.  ``P`` takes the coefficients' dtype (an integer fold
        keeps an integer product) and runs on exact ints when the
        longest epoch's product may reach 2^63."""
        spec = fold.merge
        override = None if cont is None else \
            cont.override(fold, layout.n_groups, fold.instance.state_vars)
        states = vec.run_rounds(ctx, layout, init_override=override)
        coeffs = [spec.matrix.get((var, var)) for var in spec.order]
        pre = None
        if any(c is not None and _references_state(c) for c in coeffs):
            pre, _ = vec._history_values(ctx, layout, init_override=override)
        pctx = ArrayContext(ctx.columns, self.params, ctx.n, state=pre)
        regs: dict[tuple, np.ndarray] = {}
        longest = int(layout.counts.max()) if layout.n_groups else 0
        for var, coeff in zip(spec.order, coeffs):
            a = np.zeros(ctx.n, dtype=np.int64) if coeff is None else \
                as_column(eval_array(coeff, pctx), ctx.n)
            carried = cont.register(("P", var)) \
                if cont is not None and len(cont.eids) else a[:0]
            prod = np.ones(layout.n_groups, dtype=np.result_type(
                a.dtype, carried.dtype, np.int64))
            if len(carried):
                prod[cont.eids] = carried
            prod, a = intbound.factors(prod, a, longest,
                                       f"merge product P ({var})")
            np.multiply.at(prod, layout.gid, a)
            regs[("P", var)] = prod
        return _FoldEpochs(spec, states, regs=regs)

    def _replay_fold(self, fold: FoldConfig, ctx: ArrayContext,
                     layout: GroupLayout, cont=None) -> _FoldEpochs:
        """Exact scalar replay over the packed epoch layout — the same
        update/aux calls as the row store's per-packet path, minus the
        cache machinery.  Safety net for full-matrix merges and
        anything the array evaluator cannot express.  ``cont`` seeds
        continuing epochs (``cont.eids``) with the carried state and
        auxiliary registers as fresh dicts (``cont.dicts()``)."""
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
            carried_states, carried_auxes = cont.dicts()
            for e, state, aux in zip(cont.eids.tolist(), carried_states,
                                     carried_auxes):
                states[e] = state
                auxes[e] = aux
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
        arrays = {
            var: exact_array([state[var] for state in states])
            for var in fold.instance.state_vars
        }
        return _FoldEpochs(spec, arrays, aux_list=auxes)


def _continue_logs(spec, ctx: ArrayContext, layout: GroupLayout,
                   seen0: np.ndarray, cont,
                   regs: dict[tuple, np.ndarray]) -> None:
    """Exact-history packet logs into ``regs``: log slot ``j`` of
    an epoch holds the fields of its ``j``-th packet — carried for
    ``j < seen0``, else the window's packet of rank ``j - seen0``
    (0 where the epoch has no such packet yet)."""
    counts = layout.counts
    starts = layout.offsets[:-1]
    for j in range(spec.history_depth):
        rank = j - seen0
        sel = np.flatnonzero((rank >= 0) & (rank < counts))
        rows = layout.order[starts[sel] + rank[sel]]
        if cont is not None:
            keep = seen0[cont.eids] > j
            keep_eids = cont.eids[keep]
        for f in spec.packet_fields:
            column = ctx.columns[f]
            vals = np.zeros(layout.n_groups, dtype=column.dtype)
            vals[sel] = column[rows]
            if cont is not None:
                carried = cont.register(("log", j, f))[keep]
                vals = vals.astype(
                    np.result_type(vals.dtype, carried.dtype), copy=False)
                vals[keep_eids] = carried
            regs[("log", j, f)] = vals


def _references_state(expr) -> bool:
    return any(isinstance(node, StateRef) for node in walk(expr))


# ---------------------------------------------------------------------------
# The merge kernel: closed epochs into per-key merged arrays
# ---------------------------------------------------------------------------

#: A merge round with fewer epochs than this — and every round after
#: it, since a key's epochs come in consecutive rounds — runs on the
#: scalar loop: per-round array overhead beats per-epoch Python there.
_SCALAR_TAIL = 16


def absorb_epochs(folds, params: Mapping[str, Numeric],
                  merged: dict[str, dict[str, np.ndarray]],
                  epochs: np.ndarray, gids: np.ndarray,
                  values: Mapping[str, Mapping[str, np.ndarray]],
                  regs: Mapping[str, Mapping[tuple, np.ndarray]]) -> None:
    """Merge closed epochs into per-key merged arrays: the array form of
    :meth:`~repro.switch.kvstore.backing.BackingStore.absorb` for every
    mergeable fold, element for element.

    ``gids[i]`` is the key of epoch ``i``; each key's epochs are
    contiguous and chronological.  ``values[col][var]`` and
    ``regs[col][reg]`` are aligned with ``gids``.  ``merged[col][var]``
    are per-key arrays of length ``len(epochs)``, updated in place
    (created, and dtype-promoted, by replacing the dict entry).
    ``epochs`` counts each key's absorbed epochs: a key at 0 has no
    backing value, and its first epoch is copied.  The caller counts
    the new epochs and logs the ``list`` folds' segments.

    Plain-additive folds (identity merge from zero initial state) add
    with one order-preserving ``np.add.at``.  Every other merge applies
    in rounds by each key's closed-epoch rank — per-key chronological,
    so floats stay bit-identical — and finishes a short tail of rounds
    on the scalar loop (:func:`merge_values` itself).
    """
    n = len(gids)
    if not n or not merged:                 # nothing to merge
        return
    fresh = epochs[gids] == 0
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(gids[1:], gids[:-1], out=run_start[1:])
    if run_start.all():
        # One epoch per key (every open-epoch absorption): one round.
        last: np.ndarray | slice = slice(None)
        rounds = (np.arange(n), np.array([0, n]))
    else:
        starts = np.flatnonzero(run_start)
        lengths = np.diff(np.append(starts, n))
        rank = np.arange(n) - np.repeat(starts, lengths)
        fresh &= rank == 0
        last = np.append(starts[1:], n) - 1
        rounds = None
    for fold in folds:
        spec = fold.merge
        if not spec.mergeable:
            continue
        target = merged[fold.column]
        evicted = values[fold.column]
        if _plain_additive(fold):
            _absorb_additive(spec, target, len(epochs), gids, evicted,
                             fresh, last)
            continue
        if rounds is None:
            offsets = np.zeros(int(lengths.max()) + 1, dtype=np.int64)
            np.cumsum(np.bincount(rank), out=offsets[1:])
            rounds = (np.argsort(rank, kind="stable"), offsets)
        _merge_rounds(fold, params, target, len(epochs), gids, evicted,
                      regs[fold.column], fresh, rounds)


def _plain_additive(fold: FoldConfig) -> bool:
    """Identity merge from zero initial state: the row store's nested
    ``evicted + (backing - 0)`` merges are one segmented sum (IEEE
    addition is commutative)."""
    spec = fold.merge
    return (spec.strategy == "additive" and not spec.exact_history
            and all(fold.instance.inits.get(var, 0) == 0
                    for var in spec.order))


def _absorb_additive(spec, target: dict[str, np.ndarray], size: int,
                     gids: np.ndarray, evicted: Mapping[str, np.ndarray],
                     fresh: np.ndarray, last: np.ndarray | slice) -> None:
    """Plain-additive folds: a key's first epoch is copied and the
    rest added with one ``np.add.at`` per order variable; every other
    variable takes the key's last epoch (``merge_values`` keeps the
    evicted copy)."""
    first_only = bool(fresh.all())          # then ``last`` takes them all
    for var, vals in evicted.items():
        if first_only or var not in spec.order:
            scatter_promote(target, var, gids[last], vals[last], size)
            continue
        scatter_promote(target, var, gids[fresh], vals[fresh], size)
        rest = ~fresh
        g, v = gids[rest], vals[rest]
        arr, v = intbound.addends(target[var], v, len(v),
                                  f"backing-store merge ({var})", touched=g)
        target[var] = arr
        np.add.at(arr, g, v)


def _merge_rounds(fold: FoldConfig, params: Mapping[str, Numeric],
                  target: dict[str, np.ndarray], size: int,
                  gids: np.ndarray, evicted: Mapping[str, np.ndarray],
                  regs: Mapping[tuple, np.ndarray], fresh: np.ndarray,
                  rounds: tuple[np.ndarray, np.ndarray]) -> None:
    """Apply one fold's merges round by round (round ``r`` merges every
    key's ``r``-th closed epoch), then the scalar tail."""
    spec = fold.merge
    init = fold.instance.initial_state()
    order, offsets = rounds
    for var, vals in evicted.items():       # allocate before any gather
        scatter_promote(target, var, gids[:0], vals[:0], size)
    for r in range(len(offsets) - 1):
        lo, hi = offsets[r], offsets[r + 1]
        if hi - lo < _SCALAR_TAIL:
            _merge_tail(spec, params, init, target, size, gids, evicted,
                        regs, fresh, np.sort(order[lo:]))
            return
        idx = order[lo:hi]
        if r == 0:                          # first epochs are copied
            first = fresh[idx]
            g = gids[idx[first]]
            for var, vals in evicted.items():
                scatter_promote(target, var, g, vals[idx[first]], size)
            idx = idx[~first]
            if not len(idx):
                continue
        g = gids[idx]
        out = merge_arrays(
            spec,
            {var: vals[idx] for var, vals in evicted.items()},
            {key: arr[idx] for key, arr in regs.items()},
            {var: arr[g] for var, arr in target.items()},
            init, params)
        for var, vals in out.items():
            scatter_promote(target, var, g, vals, size)


def _merge_tail(spec, params: Mapping[str, Numeric], init: State,
                target: dict[str, np.ndarray], size: int, gids: np.ndarray,
                evicted: Mapping[str, np.ndarray],
                regs: Mapping[tuple, np.ndarray], fresh: np.ndarray,
                pos: np.ndarray) -> None:
    """The scalar loop over the epochs at ``pos`` (ascending: key-major,
    chronological): :func:`merge_values` on native scalars read from,
    and written back to, the same arrays."""
    g = gids[pos].tolist()
    ev = {var: vals[pos].tolist() for var, vals in evicted.items()}
    reg_lists = {key: arr[pos].tolist() for key, arr in regs.items()}
    is_fresh = fresh[pos].tolist()
    keys: list[int] = []
    results: list[State] = []
    for i, key in enumerate(g):
        if not keys or keys[-1] != key:
            keys.append(key)
            results.append(None if is_fresh[i] else
                           {var: arr.item(key) for var, arr in
                            target.items()})
        results[-1] = merge_values(
            spec, evicted={var: vals[i] for var, vals in ev.items()},
            aux=aux_from_registers(spec, reg_lists, i),
            backing=results[-1], init_state=init, params=params)
    key_arr = np.asarray(keys, dtype=np.int64)
    for var in results[0]:
        scatter_promote(target, var, key_arr,
                        exact_array([state[var] for state in results]), size)


def merge_arrays(spec, evicted: Mapping[str, np.ndarray],
                 regs: Mapping[tuple, np.ndarray],
                 backing: Mapping[str, np.ndarray], init_state: State,
                 params: Mapping[str, Numeric]) -> dict[str, np.ndarray]:
    """:func:`~repro.core.merge_synthesis.merge_values` over arrays of
    epochs whose keys already hold a backing value: the same operations
    in the same order on each element, as array evaluations (exact
    Python ints wherever an int64 value could wrap)."""
    if not spec.exact_history:
        return _compose(spec, evicted, regs, backing, init_state)
    # A nonempty epoch has a nonempty log: replay it against the true
    # prior state.  An epoch that ended inside its replay prefix keeps
    # the replayed state; the others compose the rest affinely.
    state = _replay_log(spec, dict(backing), regs, params)
    done = np.flatnonzero(regs[("seen",)] >= spec.history_depth)
    if len(done):
        composed = _compose(
            spec,
            {var: vals[done] for var, vals in evicted.items()},
            {key: arr[done] for key, arr in regs.items()},
            {var: arr[done] for var, arr in state.items()},
            {var: regs[("snapshot", var)][done] for var in spec.order})
        n = len(regs[("seen",)])
        for var, vals in composed.items():
            scatter_promote(state, var, done, vals, n)
    return state


def _compose(spec, evicted: Mapping[str, np.ndarray],
             regs: Mapping[tuple, np.ndarray], base: Mapping[str, object],
             ref: Mapping[str, object]) -> dict[str, np.ndarray]:
    """``evicted + P·(base - ref)`` per merge strategy, with every other
    variable kept from ``evicted`` (the non-replay half of
    ``merge_values``), operation for operation — the matrix correction
    starts, like Python's ``sum``, at int 0 — as one array evaluation
    per order variable over the names ``ev.v``, ``base.v``, ``ref.v``
    and ``P.v`` / ``P.i.j``."""
    state = {".".join(map(str, key)): arr for key, arr in regs.items()
             if key[0] == "P"}
    for var in spec.order:
        state.update({f"ev.{var}": evicted[var], f"base.{var}": base[var],
                      f"ref.{var}": ref[var]})
    ctx = ArrayContext({}, {}, len(evicted[spec.order[0]]), state=state)

    def delta(var: str) -> Expr:
        return BinOp("-", StateRef(f"base.{var}"), StateRef(f"ref.{var}"))

    merged = dict(evicted)
    for i in spec.order:
        if spec.strategy == "additive":
            correction = delta(i)
        elif spec.strategy == "scale":
            correction = BinOp("*", StateRef(f"P.{i}"), delta(i))
        else:                               # matrix
            correction = Number(0)
            for j in spec.order:
                correction = BinOp("+", correction, BinOp(
                    "*", StateRef(f"P.{i}.{j}"), delta(j)))
        merged[i] = eval_array(BinOp("+", StateRef(f"ev.{i}"), correction),
                               ctx, f"backing-store merge ({i})")
    return merged


def _replay_log(spec, state: dict[str, np.ndarray],
                regs: Mapping[tuple, np.ndarray],
                params: Mapping[str, Numeric]) -> dict[str, np.ndarray]:
    """Replay each epoch's logged packets (its first ``min(k, seen)``)
    through the if-converted update expressions, starting from
    ``state``: log slot ``j`` is one array round over the epochs that
    logged it."""
    seen = regs[("seen",)]
    n = len(seen)
    what = f"backing-store merge ({', '.join(spec.update_exprs)})"
    for j in range(spec.history_depth):
        rows = np.flatnonzero(seen > j)
        if not len(rows):
            break
        columns = {f: regs[("log", j, f)][rows] for f in spec.packet_fields}
        pre = {var: arr[rows] for var, arr in state.items()}
        ctx = ArrayContext(columns, params, len(rows), state=pre)
        new = {var: as_column(eval_array(expr, ctx, what), len(rows))
               for var, expr in spec.update_exprs.items()}
        for var, vals in new.items():
            scatter_promote(state, var, rows, vals, n)
    return state


def scatter_promote(target: dict, key, idx: np.ndarray, vals: np.ndarray,
                    size: int) -> None:
    """``target[key][idx] = vals``, creating the array (length ``size``)
    or promoting its dtype (ints to floats, anything to ``object``) as
    the values need."""
    arr = target.get(key)
    if arr is None:
        arr = target[key] = np.zeros(size, dtype=vals.dtype)
    promoted = np.result_type(arr.dtype, vals.dtype)
    if promoted != arr.dtype:
        arr = target[key] = arr.astype(promoted)
    arr[idx] = vals
