"""The vector split store: schedule-driven execution, window by window.

:class:`WindowedVectorStore` is the one vector split store the runtime
instantiates.  It executes the schedule-driven machinery of
:mod:`~repro.switch.kvstore.vector_store` **window by window** with
carried state — every ``window`` accesses, or, with ``window=None``
(unbounded), once over everything buffered when an observable is read
(``finalize()``, ``snapshot()``, ``stats``).  A bounded window bounds
peak memory by the window (plus per-key results); either way every
observable stays **bit-identical** to the per-packet row store, for
*any* window partitioning:

1. **Carried residency.** The cache's replacement state at a window
   boundary is summarised and replayed into the next window's schedule:

   * LRU / direct-mapped (``m == 1``, any policy — one slot per bucket
     makes the policies indistinguishable): by the LRU inclusion
     property, the resident keys of a set are exactly its ``m`` most
     recently accessed distinct keys, in recency order.  Prepending one
     *phantom access* per resident key (per set, oldest → newest) to
     the window's stream reconstructs the exact replacement state, so
     the unmodified
     :meth:`~repro.switch.kvstore.vector_cache.VectorCacheSim.miss_schedule`
     over the augmented stream yields the continuation's exact hit/miss
     flags.  Eviction counts fall out of per-set occupancy arithmetic
     (``max(0, occupancy + misses - m)`` per set), and the next
     boundary's residency is read off the augmented stream's per-set
     most-recent keys.
   * FIFO / random: the packed per-set array replay of the cache
     simulator (:func:`repro.switch.kvstore.vector_cache._replay_segments`)
     with its per-set ring buffers, occupancy, residency flags, and
     counter-based RNG counters carried across windows, for every
     geometry with ``m > 1``.  Sets the vectorized rounds cannot
     advance in parallel (few-set geometries, the long tail of a
     skewed window) finish on the replay's one scalar loop.

2. **Carried open epochs.** A key's current cache-residency epoch can
   span windows.  Its partial fold state (and merge registers) is
   carried — in per-key *arrays* for the vectorizable merge classes
   (additive, exact-history additive included, scale, non-mergeable
   value segments), in per-key dicts only for the sequential ones
   (full-matrix, exact-history scale) — and injected as the initial
   per-epoch state of the next window's segmented fold evaluation
   (``init_override`` in :mod:`repro.core.vector_exec`); accumulations
   and round updates then perform the same scalar operations in the
   same order as an uncut epoch, so results are bit-identical.  An
   exact-history epoch's packet log, post-prefix snapshot and ``seen``
   count continue by per-epoch offsets from the carried ``seen`` (see
   ``VectorSplitStore._eval_additive``) — no replay.  An epoch
   closes — and is absorbed into the backing store, in per-key
   chronological order — when its key misses again, when a
   periodic-refresh boundary passes (global positions), or when the
   key is found non-resident at a window boundary (its next access, if
   any, must miss, so the epoch is provably complete).  Open-epoch
   state is therefore bounded by the cache capacity.

3. **Carried merges, one merged form.** The all-plain-additive fast
   path keeps per-key accumulator arrays (one ``np.add.at`` per window
   over global key ids) instead of a materialised backing store; the
   general path absorbs into a real :class:`BackingStore` as epochs
   close.  Window keys map to persistent global ids with one
   ``searchsorted`` over an index of the known unique keys sorted by
   one 64-bit value per key (the key itself for one field, a seeded
   mix of the row otherwise), each match verified against the full
   key row — no per-access Python; only rows whose hash collides are
   resolved one by one.  The index is built on the first lookup (a
   run that is one window never builds it) and merged incrementally
   after that.  Either way the merged result is read through one
   plain-data :class:`MergedState` (key rows in first-access order
   plus the merged arrays or the backing entries):
   :meth:`WindowedVectorStore.merged_state` builds it — views of the
   final state once finalized, copies with every carried open epoch
   absorbed mid-stream — and ``result_table``, ``backing``,
   ``backing_writes``, ``accuracy`` and ``snapshot`` all read it.  A
   shard worker ships the same form, and the shard combine
   (:mod:`~repro.switch.kvstore.sharded`) concatenates its copies.

Differential tests (``tests/test_session.py``,
``tests/test_vector_store.py``) assert bit-identical tables, counters,
accuracy, writes, and refresh counts against the row store across the
query catalog, multiple window sizes (unbounded included), and refresh
intervals that cut mid-window.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from repro.core.errors import CheckpointError, HardwareError
from repro.core.eval_expr import Numeric
from repro.core.interpreter import ResultTable
from repro.core.merge_synthesis import AuxState, State
from repro.core.plan import FoldConfig, GroupByStage
from repro.core.vector_exec import (
    ArrayContext,
    GroupLayout,
    VectorizationError,
    as_column,
    eval_array,
    factorize,
)

from .backing import BackingStore, KeyEntry
from .cache import CacheGeometry, CacheStats
from .vector_cache import _FILLER, _SKIP_BLOCK_START, VectorCacheSim, \
    _collapse_runs, _replay_segments, mix_key_array
from .split import StoreSnapshot, build_result_table
from .vector_store import VectorSplitStore, _FoldCont, _copy_aux, \
    aux_from_registers

_U = np.uint64
#: Seed of the global key index's row hash (any fixed value: the hash
#: only orders the index, it never picks a cache set).
_KEY_HASH_SEED = 0x6B65795F696478


@dataclass(eq=False)
class MergedState:
    """One stage's merged per-key results, in first-access key order —
    what the store holds as if the stream ended now, what a shard
    worker ships back, and what the shard combine concatenates.  Plain
    data (it crosses the shard pipe): observables take the stage and
    params as arguments.

    ``keys`` holds the key rows (2-D int64).  The all-plain-additive
    path carries ``merged`` (fold -> state variable -> per-key array)
    and per-key ``epochs``; the general path carries the backing
    store's ``entries`` and the keys as tuples (``key_list``).
    """

    keys: np.ndarray
    writes: int
    merged: dict[str, dict[str, np.ndarray]] | None = None
    epochs: np.ndarray | None = None
    entries: dict[tuple, KeyEntry] | None = None
    key_list: list[tuple] | None = None
    _backing: BackingStore | None = field(default=None, init=False,
                                          repr=False)

    def key_tuples(self) -> list[tuple]:
        """The keys as tuples, in row order — built on demand on the
        all-additive path, whose table reads the key columns directly."""
        if self.key_list is not None:
            return self.key_list
        return _row_tuples(self.keys)

    def table(self, stage: GroupByStage, params: Mapping[str, Numeric],
              include_invalid: bool = False) -> ResultTable:
        """The stage's result table.  The all-additive path reads the
        merged arrays; the general path (and a derived column the array
        evaluator cannot express) builds the rows from the backing
        store and packs complete ones into columns (:func:`_columnar`)."""
        if self.merged is not None:
            n = len(self.keys)
            out: dict[str, np.ndarray] = {
                name: self.keys[:, j]
                for j, name in enumerate(stage.key.fields)
            }
            try:
                for col in stage.output.columns:
                    if col.kind == "agg":
                        out[col.name] = self.merged[col.fold][col.state_var]
                    elif col.kind == "derived":
                        dctx = ArrayContext({}, params, n,
                                            state=self.merged[col.fold])
                        with np.errstate(divide="ignore", invalid="ignore"):
                            out[col.name] = as_column(
                                eval_array(col.read_expr, dctx), n)
                return ResultTable.from_columns(stage.output, out)
            except VectorizationError:
                pass
        return _columnar(build_result_table(
            stage, self.backing(stage, params), self.key_tuples(), params,
            include_invalid=include_invalid))

    def backing(self, stage: GroupByStage,
                params: Mapping[str, Numeric]) -> BackingStore:
        """A real per-key :class:`BackingStore` over this state (built
        once; on the all-additive path it is materialised from the
        merged arrays)."""
        if self._backing is None:
            backing = BackingStore(stage.folds, params=params)
            backing.writes = self.writes
            if self.entries is not None:
                backing.data = self.entries
            else:
                columns = [
                    (col, [(var, arr.tolist()) for var, arr in per_var.items()])
                    for col, per_var in self.merged.items()
                ]
                counts = self.epochs.tolist()
                data = backing.data
                for g, key in enumerate(self.key_tuples()):
                    data[key] = KeyEntry(
                        merged={col: {var: vals[g] for var, vals in items}
                                for col, items in columns},
                        epochs=counts[g],
                    )
            self._backing = backing
        return self._backing

    def accuracy(self, stage: GroupByStage,
                 params: Mapping[str, Numeric]) -> float:
        """Fig. 6 accuracy (1.0 on the all-additive path: every fold
        merges)."""
        if self.merged is not None:
            return 1.0
        return self.backing(stage, params).accuracy


class _ArrayCont:
    """Array-backed epoch continuation over the carried open-epoch
    arrays: ``override``/``register`` for the vectorized fold paths,
    plus the :class:`~repro.switch.kvstore.vector_store._FoldCont`
    fields, materialised only on the replay fallback."""

    __slots__ = ("eids", "gids", "_spec", "_state", "_regs")

    def __init__(self, eids: np.ndarray, gids: np.ndarray, spec,
                 state: dict[str, np.ndarray],
                 regs: dict[tuple, np.ndarray]):
        self.eids = eids
        self.gids = gids
        self._spec = spec
        self._state = state
        self._regs = regs

    def register(self, key: tuple) -> np.ndarray:
        """The carried merge register ``key`` (see
        :func:`~repro.switch.kvstore.vector_store.register_keys`),
        aligned with ``eids``."""
        return self._regs[key][self.gids]

    def override(self, fold: FoldConfig, n_groups: int,
                 variables) -> dict[str, np.ndarray]:
        """Per-group initial-value arrays for ``variables``: the fold's
        scalar init everywhere, the carried value at continuing epochs
        (dtype-promoted so carried floats are not truncated)."""
        out: dict[str, np.ndarray] = {}
        for var in variables:
            init = fold.instance.inits.get(var, 0)
            arr = np.full(n_groups, init,
                          dtype=np.float64 if isinstance(init, float)
                          else np.int64)
            vals = self._state[var][self.gids]
            dtype = np.result_type(arr.dtype, vals.dtype)
            if dtype != arr.dtype:
                arr = arr.astype(dtype)
            arr[self.eids] = vals
            out[var] = arr
        return out

    # Replay fallback only: per-epoch scalar dicts.

    @property
    def states(self) -> list[State]:
        return _carried_dicts(self._spec, self._state, self._regs,
                              self.gids)[0]

    @property
    def auxes(self) -> list[AuxState]:
        return _carried_dicts(self._spec, self._state, self._regs,
                              self.gids)[1]


class _LruWindowScheduler:
    """Carried-residency scheduler for LRU and direct-mapped caches
    (any policy when ``m == 1``).  See the module docstring, item 1."""

    def __init__(self, geometry: CacheGeometry, policy: str, seed: int):
        self.geometry = geometry
        self.policy = policy
        self.seed = seed
        self._res_keys: np.ndarray | None = None   # (r, k) key columns
        self._res_gids = np.zeros(0, dtype=np.int64)

    def schedule(self, keys2d: np.ndarray, gid: np.ndarray,
                 final: bool = False,
                 ) -> tuple[np.ndarray, int, np.ndarray | None]:
        """Miss flags (stream order), eviction count, and the resident
        key ids after this window — ``None`` for the ``final`` window,
        whose residency nothing reads (extracting it is a sort over the
        whole window)."""
        geometry = self.geometry
        n_buckets, m = geometry.n_buckets, geometry.m_slots
        r = len(self._res_gids)
        if r:
            aug_keys = np.concatenate([self._res_keys, keys2d])
            aug_gid = np.concatenate([self._res_gids, gid])
        else:
            aug_keys, aug_gid = keys2d, gid
        n_aug = len(aug_gid)
        sim = VectorCacheSim(aug_keys, seed=self.seed, key_ids=aug_gid)
        miss = sim.miss_schedule(geometry, policy=self.policy)[r:]

        if n_buckets == 1:
            buckets = np.zeros(n_aug, dtype=np.int64)
        else:
            buckets = (sim._hash() % _U(n_buckets)).astype(np.int64)

        # Evictions: LRU occupancy only grows (an eviction replaces),
        # so per set they are max(0, occupancy_before + misses - m).
        miss_b = buckets[r:][miss]
        if not len(miss_b):
            evictions = 0
        elif n_buckets <= 1 << 22:
            occ = np.bincount(buckets[:r], minlength=n_buckets)
            per_set = np.bincount(miss_b, minlength=n_buckets)
            evictions = int(np.maximum(0, occ + per_set - m).sum())
        else:                              # degenerate bucket counts
            all_b = np.concatenate([buckets[:r], miss_b])
            uniq, inv = np.unique(all_b, return_inverse=True)
            occ = np.bincount(inv[:r], minlength=len(uniq))
            per_set = np.bincount(inv[r:], minlength=len(uniq))
            evictions = int(np.maximum(0, occ + per_set - m).sum())
        if final:
            return miss, evictions, None

        # New residency: per set, the (up to) m most recently accessed
        # distinct keys of the augmented stream, in recency order.
        comp = (aug_gid << np.int64(32)) | np.arange(n_aug, dtype=np.int64)
        comp.sort()
        pos = comp & np.int64(0xFFFFFFFF)
        gz = comp >> np.int64(32)
        last = np.empty(n_aug, dtype=bool)
        last[-1] = True
        np.not_equal(gz[1:], gz[:-1], out=last[:-1])
        last_pos = pos[last]                      # last access per key
        last_gid = gz[last]
        key_bucket = buckets[last_pos]
        order = np.argsort((key_bucket << np.int64(32)) | last_pos)
        sb = key_bucket[order]
        nk = len(sb)
        seg_start = np.empty(nk, dtype=bool)
        seg_start[0] = True
        np.not_equal(sb[1:], sb[:-1], out=seg_start[1:])
        seg_id = np.cumsum(seg_start) - 1
        counts = np.bincount(seg_id)
        ends = np.repeat(np.cumsum(counts), counts)
        keep = (ends - np.arange(nk)) <= m        # tail m of each set
        kept = order[keep]
        recency = np.argsort(last_pos[kept])      # oldest → newest
        kept = kept[recency]
        self._res_gids = last_gid[kept]
        self._res_keys = aug_keys[last_pos[kept]]
        return miss, evictions, self._res_gids

    def checkpoint_state(self) -> dict:
        return {
            "kind": "lru",
            "res_keys": None if self._res_keys is None
            else self._res_keys.copy(),
            "res_gids": self._res_gids.copy(),
        }

    def restore_state(self, state: dict) -> None:
        if state.get("kind") != "lru":
            raise CheckpointError(
                f"scheduler state mismatch: snapshot carries "
                f"{state.get('kind')!r}, store expects 'lru'")
        self._res_keys = state["res_keys"]
        self._res_gids = state["res_gids"]


class _PackedWindowScheduler:
    """Carried packed per-set replay for the FIFO/random ablation
    policies: the persistent per-set state of the cache simulator's
    packed replay — insertion-ordered ring buffers, occupancy, and the random
    policy's per-set eviction counters — lives in flat arrays indexed
    by a registry of touched sets; each window is grouped by set with
    one composite sort, its sets' state rows are gathered, replayed
    through the shared step-major core
    (:func:`~repro.switch.kvstore.vector_cache._replay_segments`), and
    scattered back.  Bit-identical to the per-access reference cache
    for every window partitioning (the replay state a set carries is
    independent of where windows cut)."""

    def __init__(self, geometry: CacheGeometry, policy: str, seed: int):
        self.geometry = geometry
        self.policy = policy
        self.seed = seed
        m = geometry.m_slots
        self._known_ids = np.zeros(0, dtype=np.int64)    # sorted bucket ids
        self._known_rows = np.zeros(0, dtype=np.int64)   # their state rows
        self._set_of_row = np.zeros(0, dtype=np.int64)   # inverse mapping
        self._n_sets = 0
        self._ring = np.full((0, m), _FILLER, dtype=np.int64)
        self._head = np.zeros(0, dtype=np.int64)
        self._count = np.zeros(0, dtype=np.int64)
        self._counters = np.zeros(0, dtype=np.uint64)
        #: Per-key-id residency flags, exactly the rings' content (key
        #: ids are dense): one-gather membership tests in the core and
        #: O(resident) boundary extraction.
        self._in_cache = np.zeros(0, dtype=bool)
        self._width = _SKIP_BLOCK_START      # adapted skip width carry

    def schedule(self, keys2d: np.ndarray, gid: np.ndarray,
                 final: bool = False,
                 ) -> tuple[np.ndarray, int, np.ndarray]:
        # The residency bitmap is the replay state itself, so ``final``
        # saves nothing here.
        n = len(gid)
        n_buckets, m = self.geometry.n_buckets, self.geometry.m_slots
        if n_buckets == 1:
            buckets = np.zeros(n, dtype=np.int64)
        else:
            buckets = (mix_key_array(keys2d, self.seed) %
                       _U(n_buckets)).astype(np.int64)
        if n_buckets <= 1 << 31:
            comp = (buckets << np.int64(32)) | np.arange(n, dtype=np.int64)
            comp.sort()
            order = comp & np.int64(0xFFFFFFFF)
            bz = comp >> np.int64(32)
        else:                              # degenerate bucket counts
            order = np.argsort(buckets, kind="stable")
            bz = buckets[order]
        segstart = np.empty(n, dtype=bool)
        segstart[0] = True
        np.not_equal(bz[1:], bz[:-1], out=segstart[1:])
        seg_ids = bz[segstart]
        # Collapse runs of the same key inside a set, exactly like the
        # cache simulator: a window is a contiguous chunk of the
        # stream, so in-window adjacency in set order is true adjacency.
        keep_idx, kz2, starts, lens = _collapse_runs(gid[order], segstart)
        rows = self._rows_for(seg_ids)
        randomized = self.policy == "random"
        max_gid = int(gid.max()) + 1
        if len(self._in_cache) < max_gid:
            self._in_cache = _grown(self._in_cache, max_gid)
        miss_kept, evictions, self._width = _replay_segments(
            kz2, starts, lens, self._set_of_row, m, self.policy,
            self.seed, self._ring, self._head, self._count,
            self._counters if randomized else None,
            in_cache=self._in_cache, state_rows=rows,
            start_width=self._width)
        # Scatter only the miss positions back to stream order (misses
        # are typically a small fraction of the window).
        miss = np.zeros(n, dtype=bool)
        miss[order[keep_idx[np.flatnonzero(miss_kept)]]] = True
        return miss, evictions, self._in_cache

    def _rows_for(self, seg_ids: np.ndarray) -> np.ndarray:
        """State rows for this window's (sorted, unique) bucket ids,
        registering unseen sets with empty state."""
        rows = np.empty(len(seg_ids), dtype=np.int64)
        if self._n_sets == 0:
            fresh = np.ones(len(seg_ids), dtype=bool)
        else:
            pos = np.searchsorted(self._known_ids, seg_ids)
            found = pos < len(self._known_ids)
            safe = np.where(found, pos, 0)
            found &= self._known_ids[safe] == seg_ids
            rows[found] = self._known_rows[safe[found]]
            fresh = ~found
        n_new = int(np.count_nonzero(fresh))
        if n_new:
            start = self._n_sets
            new_rows = start + np.arange(n_new)
            rows[fresh] = new_rows
            self._grow(start + n_new)
            self._n_sets = start + n_new
            new_ids = seg_ids[fresh]
            self._set_of_row[new_rows] = new_ids
            ins = np.searchsorted(self._known_ids, new_ids)
            self._known_ids = np.insert(self._known_ids, ins, new_ids)
            self._known_rows = np.insert(self._known_rows, ins, new_rows)
        return rows

    def checkpoint_state(self) -> dict:
        n = self._n_sets
        return {
            "kind": "packed",
            "known_ids": self._known_ids.copy(),
            "known_rows": self._known_rows.copy(),
            "set_of_row": self._set_of_row[:n].copy(),
            "n_sets": n,
            "ring": self._ring[:n].copy(),
            "head": self._head[:n].copy(),
            "count": self._count[:n].copy(),
            "counters": self._counters[:n].copy(),
            "in_cache": self._in_cache.copy(),
            "width": self._width,
        }

    def restore_state(self, state: dict) -> None:
        if state.get("kind") != "packed":
            raise CheckpointError(
                f"scheduler state mismatch: snapshot carries "
                f"{state.get('kind')!r}, store expects 'packed'")
        self._known_ids = state["known_ids"]
        self._known_rows = state["known_rows"]
        self._n_sets = state["n_sets"]
        self._ring = state["ring"]
        self._head = state["head"]
        self._count = state["count"]
        self._counters = state["counters"]
        self._set_of_row = state["set_of_row"]
        self._in_cache = state["in_cache"]
        self._width = state["width"]

    def _grow(self, n: int) -> None:
        cap = len(self._head)
        if cap >= n:
            return
        # One capacity for every state array (the rows of _ring must
        # stay aligned with the 1-D arrays and the set registry), and
        # never more rows than the geometry has sets: a few-set
        # geometry's rows are long (a fully associative cache is one
        # row holding every slot).
        new_cap = min(max(n, 2 * cap, 1024), self.geometry.n_buckets)
        ring = np.full((new_cap, self.geometry.m_slots), _FILLER,
                       dtype=np.int64)
        ring[:cap] = self._ring
        self._ring = ring
        for name in ("_head", "_count", "_counters", "_set_of_row"):
            old = getattr(self, name)
            new = np.zeros(new_cap, dtype=old.dtype)
            new[:cap] = old
            setattr(self, name, new)


class WindowedVectorStore(VectorSplitStore):
    """The vector split store: executes the schedule-driven machinery
    of :class:`VectorSplitStore` once per ``window`` accesses with
    carried residency/epoch state (see the module docstring), so
    unbounded streams run in bounded memory.  ``window=None`` buffers
    until an observable is read and then runs everything buffered as
    one window — the fastest schedule for a bounded trace.  Results do
    not depend on where windows cut, so every observable, mid-stream
    :meth:`snapshot` reads included, is the same either way.
    """

    def __init__(
        self,
        stage: GroupByStage,
        geometry: CacheGeometry,
        params: Mapping[str, Numeric] | None = None,
        policy: str = "lru",
        seed: int = 0,
        refresh_interval: int | None = None,
        window: int | None = None,
    ):
        super().__init__(stage, geometry, params=params, policy=policy,
                         seed=seed, refresh_interval=refresh_interval)
        if window is not None and window <= 0:
            raise HardwareError("window must be positive")
        self.window = window
        self._key_chunks: list[np.ndarray] = []
        self._col_chunks: dict[str, list[np.ndarray]] = {
            name: [] for name in self.needed_fields
        }
        self._buffered = 0
        self._total = 0
        # Persistent key table: unique key rows in first-seen
        # (= first-access) order, with a hash-sorted index (built on
        # first lookup, see _map_global) for vectorized window-key ->
        # global-id matching, and the rows as tuples (converted on
        # demand, see _key_tuples).
        self._nkeys = 0
        self._all_keys = np.zeros((0, len(stage.key.fields)),
                                  dtype=np.int64)
        self._index_hash: np.ndarray | None = None
        self._index_gid: np.ndarray | None = None
        self._keys_list: list[tuple] = []
        # Open epochs, bounded by cache capacity: a per-key flag/last-
        # position pair, per-key state and merge-register arrays for
        # the vectorizable merge classes, per-key dicts for the
        # sequential ones (full-matrix, exact-history scale).
        self._open_mask = np.zeros(0, dtype=bool)
        self._open_pos = np.zeros(0, dtype=np.int64)
        self._array_carry = {
            fold.column: (fold.merge.strategy in ("additive", "list")
                          or (fold.merge.strategy == "scale"
                              and not fold.merge.exact_history))
            for fold in stage.folds
        }
        self._open_state: dict[str, dict[str, np.ndarray]] = {
            fold.column: {} for fold in stage.folds
            if self._array_carry[fold.column]
        }
        self._open_aux: dict[str, dict[tuple, np.ndarray]] = {
            col: {} for col in self._open_state
        }
        self._open_dicts: dict[int, dict[str, tuple[State, AuxState]]] = {}
        if geometry.m_slots == 1 or policy == "lru":
            self._sched = _LruWindowScheduler(geometry, policy, seed)
        else:
            self._sched = _PackedWindowScheduler(geometry, policy, seed)
        # Absorption target: per-key accumulator arrays when every fold
        # merges by plain addition from zero, a real backing store
        # otherwise (materialised from the arrays on demand).
        self._bulk_mode = self._all_plain_additive()
        self._backing: BackingStore | None = None
        self._writes = 0
        self._final_state: MergedState | None = None
        if self._bulk_mode:
            self._acc: dict[str, dict[str, np.ndarray]] = {
                fold.column: {} for fold in stage.folds}
            self._hist: dict[str, dict[str, np.ndarray]] = {
                fold.column: {} for fold in stage.folds}
            self._epochs = np.zeros(0, dtype=np.int64)
            #: Running |value| bound per (fold, var) for the int64
            #: overflow guard on the cross-window accumulators (each
            #: window's reduction is guarded in vector_exec; the
            #: per-key accumulation across windows needs its own).
            self._acc_bound: dict[tuple[str, str], int] = {}
        else:
            self._backing = BackingStore(stage.folds, params=self.params)

    # -- ingestion -----------------------------------------------------------

    def add_batch(self, keys: np.ndarray,
                  columns: Mapping[str, np.ndarray]) -> None:
        if self._finalized:
            raise HardwareError("store already finalized")
        if keys.ndim != 2 or keys.dtype.kind not in "iub":
            raise HardwareError("vector store needs a 2-D integer key array")
        self._key_chunks.append(keys)
        for name in self.needed_fields:
            try:
                self._col_chunks[name].append(columns[name])
            except KeyError:
                raise HardwareError(f"missing fold input column {name!r}") \
                    from None
        self._buffered += len(keys)
        if self.window is not None and self._buffered >= self.window:
            self._drain()

    def _drain(self, final: bool = False) -> None:
        """Execute everything buffered as one window (``final``: the
        last one — the store is finalized right after)."""
        if self._buffered == 0:
            return
        keys2d = np.ascontiguousarray(np.concatenate(self._key_chunks))
        if keys2d.dtype != np.int64:
            keys2d = keys2d.astype(np.int64)
        columns = {
            name: np.concatenate(chunks)
            for name, chunks in self._col_chunks.items()
        }
        self._key_chunks.clear()
        for chunks in self._col_chunks.values():
            chunks.clear()
        self._buffered = 0
        self._run_window(keys2d, columns, final)

    # -- global key ids ------------------------------------------------------

    def _map_global(self, unique_cols: list[np.ndarray]) -> np.ndarray:
        """Map a window's unique key rows (first-occurrence order) to
        persistent global ids, registering unseen keys in order — one
        ``searchsorted`` of the rows' :func:`_key_hash` against the
        hash-sorted index of the known keys, each match verified
        against the full key row.  The first window knows no keys and
        needs no index; the index is built on the first lookup and
        merged incrementally after that."""
        rows = np.column_stack(unique_cols)
        start = self._nkeys
        if start == 0:
            l2g = np.arange(len(rows), dtype=np.int64)
            new_rows = rows
        else:
            # Search in hash order: sorted probes walk the index
            # monotonically, several times faster than random ones.
            hashes = _key_hash(rows)
            order = np.argsort(hashes, kind="stable")
            hashes = hashes[order]
            index_hash, index_gid = self._key_index()
            lo = np.searchsorted(index_hash, hashes, side="left")
            hi = np.searchsorted(index_hash, hashes, side="right")
            found = self._verify(rows[order], lo, hi)
            unseen = np.flatnonzero(found < 0)          # hash order
            fresh = np.zeros(len(rows), dtype=bool)
            fresh[order[unseen]] = True
            new_rows = rows[fresh]
            l2g = np.empty(len(rows), dtype=np.int64)
            l2g[order] = found
            l2g[fresh] = start + np.arange(len(new_rows))
            if len(new_rows):
                # Merge the new keys into the index at their search
                # positions — O(new + K), no re-sort.  Equal hashes
                # may repeat: lookups verify rows.
                self._index_hash = np.insert(index_hash, lo[unseen],
                                             hashes[unseen])
                self._index_gid = np.insert(index_gid, lo[unseen],
                                            l2g[order[unseen]])
        if len(new_rows):
            self._grow_keys(start + len(new_rows))
            self._all_keys[start:start + len(new_rows)] = new_rows
            self._nkeys = start + len(new_rows)
        return l2g

    def _verify(self, rows: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> np.ndarray:
        """Global ids of ``rows`` given their equal-hash index ranges
        ``[lo, hi)`` (-1 for unseen rows): every candidate is checked
        against the stored key row.  A range wider than one is a hash
        collision, resolved candidate by candidate — a loop over the
        colliding rows only."""
        index_gid = self._index_gid
        width = hi - lo
        ids = np.full(len(rows), -1, dtype=np.int64)
        single = np.flatnonzero(width == 1)
        cand = index_gid[lo[single]]
        match = (self._all_keys[cand] == rows[single]).all(axis=1)
        ids[single[match]] = cand[match]
        for i in np.flatnonzero(width > 1).tolist():
            cands = index_gid[lo[i]:hi[i]]
            hit = np.flatnonzero(
                (self._all_keys[cands] == rows[i]).all(axis=1))
            if len(hit):
                ids[i] = cands[hit[0]]
        return ids

    def _key_tuples(self) -> list[tuple]:
        """The known keys as tuples, in global-id order — the backing
        store's keys.  Converted on demand: the all-additive result
        table reads the key columns directly and never needs them."""
        done = len(self._keys_list)
        if done < self._nkeys:
            self._keys_list.extend(
                _row_tuples(self._all_keys[done:self._nkeys]))
        return self._keys_list

    def _key_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted key hashes, global ids in that order)`` over every
        known key, built here on first use."""
        if self._index_hash is None:
            hashes = _key_hash(self._all_keys[:self._nkeys])
            perm = np.argsort(hashes, kind="stable")
            self._index_hash = hashes[perm]
            self._index_gid = perm.astype(np.int64, copy=False)
        return self._index_hash, self._index_gid

    def _grow_keys(self, n: int) -> None:
        """Grow every per-key array to capacity >= n (doubling)."""
        if len(self._open_mask) >= n:
            return
        cap = max(n, 2 * len(self._open_mask), 1024)
        grown = np.zeros((cap, self._all_keys.shape[1]), dtype=np.int64)
        grown[:self._nkeys] = self._all_keys[:self._nkeys]
        self._all_keys = grown
        self._open_mask = _grown(self._open_mask, cap)
        self._open_pos = _grown(self._open_pos, cap)
        if self._bulk_mode:
            self._epochs = _grown(self._epochs, cap)
            per_key = [self._acc, self._hist]
        else:
            per_key = []
        for group in (*per_key, self._open_state, self._open_aux):
            for per_fold in group.values():
                for var, arr in per_fold.items():
                    per_fold[var] = _grown(arr, cap)

    # -- one window ----------------------------------------------------------

    def _run_window(self, keys2d: np.ndarray,
                    columns: dict[str, np.ndarray], final: bool) -> None:
        n = len(keys2d)
        offset = self._total
        key_cols = [keys2d[:, j] for j in range(keys2d.shape[1])]
        lgid, l_unique_cols, l_n = factorize(key_cols)
        gid = self._map_global(l_unique_cols)[lgid]

        # Replacement schedule with carried residency.
        miss, evictions, resident = self._sched.schedule(keys2d, gid, final)
        stats = self._stats
        misses = int(np.count_nonzero(miss))
        stats.accesses += n
        stats.hits += n - misses
        stats.misses += misses
        stats.insertions += misses
        stats.evictions += evictions

        # Epoch segmentation (see vector_store, item 2), with refresh
        # boundaries at *global* stream positions.
        comp = (gid << np.int64(32)) | np.arange(n, dtype=np.int64)
        comp.sort()
        sorted_idx = comp & np.int64(0xFFFFFFFF)
        gid_sorted = comp >> np.int64(32)
        new_epoch = np.empty(n, dtype=bool)
        new_epoch[0] = True
        same_key = gid_sorted[1:] == gid_sorted[:-1]
        new_epoch[1:] = ~same_key | miss[sorted_idx[1:]]
        refresh = self.refresh_interval
        if refresh is not None:
            boundaries = (sorted_idx + offset) // refresh
            new_epoch[1:] |= same_key & (boundaries[1:] > boundaries[:-1])
        eid_sorted = np.cumsum(new_epoch) - 1
        n_epochs = int(eid_sorted[-1]) + 1
        eid = np.empty(n, dtype=np.int64)
        eid[sorted_idx] = eid_sorted
        epoch_key = gid_sorted[new_epoch]
        layout = GroupLayout.from_sorted_order(eid, n_epochs, sorted_idx)

        # Per-key window extent (sorted space is key-major).
        key_start = np.empty(n, dtype=bool)
        key_start[0] = True
        key_start[1:] = ~same_key
        start_pos = np.flatnonzero(key_start)
        end_pos = np.append(start_pos[1:], n) - 1
        win_keys = gid_sorted[start_pos]          # distinct ids, ascending
        first_idx = sorted_idx[start_pos]
        last_eid = eid_sorted[end_pos]

        # Carried open epochs: continue into this window's first epoch
        # of their key (first access hits, no refresh boundary passed),
        # or close now — *before* the window's own epochs of that key.
        open_w = self._open_mask[win_keys]
        cont_mask = open_w & ~miss[first_idx]
        if refresh is not None:
            cont_mask &= (self._open_pos[win_keys] // refresh ==
                          (first_idx + offset) // refresh)
        self._absorb_open(win_keys[open_w & ~cont_mask])
        cont_keys = win_keys[cont_mask]
        cont_eids = eid_sorted[start_pos][cont_mask]
        self._open_mask[cont_keys] = False
        cont_dicts = [self._open_dicts.pop(int(g), None)
                      for g in cont_keys] if self._open_dicts else \
            [None] * len(cont_keys)

        # Per-epoch fold values, with continuation injection.
        ctx = ArrayContext(columns, self.params, n)
        fold_epochs = {}
        for fold in self.stage.folds:
            col = fold.column
            if not len(cont_keys):
                cont = None
            elif self._array_carry[col]:
                cont = _ArrayCont(cont_eids, cont_keys, fold.merge,
                                  self._open_state[col],
                                  self._open_aux[col])
            else:
                cont = _FoldCont(
                    cont_eids,
                    [d[col][0] for d in cont_dicts],
                    [d[col][1] for d in cont_dicts],
                )
            fold_epochs[col] = self._eval_fold(fold, ctx, layout, cont)

        # Absorb every epoch that provably closed inside the window
        # (all but each key's last), then stash the still-open ones.
        is_open = np.zeros(n_epochs, dtype=bool)
        is_open[last_eid] = True
        if self._bulk_mode:
            self._bulk_absorb_closed(fold_epochs, epoch_key, ~is_open)
        else:
            items = list(fold_epochs.items())
            keys_list = self._key_tuples()
            absorb = self._backing.absorb
            open_list = is_open.tolist()
            for e, g in enumerate(epoch_key.tolist()):
                if open_list[e]:
                    continue
                absorb(keys_list[g],
                       {col: fe.value(e) for col, fe in items},
                       {col: fe.aux(e) for col, fe in items})
        self._stash_open(win_keys, last_eid,
                         offset + sorted_idx[end_pos], fold_epochs)

        # Window boundary: a key that is no longer resident can only
        # miss on its next access, so its open epoch is complete (after
        # the final window, finalize() absorbs every open epoch).
        if not final:
            open_gids = np.flatnonzero(self._open_mask[:self._nkeys])
            self._absorb_open(open_gids[~_is_resident(open_gids, resident)])

        self._total += n
        if refresh is not None:
            self.refreshes = self._total // refresh

    # -- open-epoch carry ----------------------------------------------------

    def _stash_open(self, win_keys: np.ndarray, last_eid: np.ndarray,
                    last_pos: np.ndarray, fold_epochs) -> None:
        """Record each window key's still-open last epoch in the carry
        storage (vectorized for the array-carried folds)."""
        self._open_mask[win_keys] = True
        self._open_pos[win_keys] = last_pos
        dict_folds = []
        for fold in self.stage.folds:
            col = fold.column
            fe = fold_epochs[col]
            if not self._array_carry[col]:
                dict_folds.append((col, fe))
                continue
            target = self._open_state[col]
            for var in fold.instance.state_vars:
                if fe.arrays is not None:
                    vals = fe.arrays[var]
                else:
                    vals = np.asarray(fe.values[var])
                self._scatter(target, var, vals[last_eid], win_keys)
            for key, vals in fe.registers(last_eid).items():
                self._scatter(self._open_aux[col], key, vals, win_keys)
        if dict_folds:
            for j, g in enumerate(win_keys.tolist()):
                e = int(last_eid[j])
                self._open_dicts[g] = {
                    col: (fe.value(e), fe.aux(e)) for col, fe in dict_folds
                }

    def _scatter(self, target: dict[str, np.ndarray], var: str,
                 vals: np.ndarray, gids: np.ndarray) -> None:
        """``target[var][gids] = vals`` with creation/promotion."""
        arr = target.get(var)
        if arr is None:
            arr = np.zeros(len(self._open_mask), dtype=vals.dtype)
            target[var] = arr
        promoted = np.result_type(arr.dtype, vals.dtype)
        if promoted != arr.dtype:
            arr = arr.astype(promoted)
            target[var] = arr
        arr[gids] = vals

    def _open_payloads(self, gids: np.ndarray) -> list[
            tuple[int, dict[str, State], dict[str, AuxState]]]:
        """(gid, states, aux) for carried open epochs — scalars pulled
        out of the carry arrays (native Python values, like the
        in-window absorb path) and the carry dicts."""
        per_fold = {
            fold.column: _carried_dicts(fold.merge,
                                        self._open_state[fold.column],
                                        self._open_aux[fold.column], gids)
            for fold in self.stage.folds if self._array_carry[fold.column]
        }
        out = []
        for i, g in enumerate(gids.tolist()):
            states: dict[str, State] = {}
            aux: dict[str, AuxState] = {}
            for fold in self.stage.folds:
                col = fold.column
                if col in per_fold:
                    states[col] = per_fold[col][0][i]
                    aux[col] = per_fold[col][1][i]
                else:
                    states[col], aux[col] = self._open_dicts[g][col]
            out.append((g, states, aux))
        return out

    # -- absorption ----------------------------------------------------------

    def _absorb_open(self, gids: np.ndarray) -> None:
        """Close and absorb the carried open epochs of ``gids``
        (vectorized on the all-additive path)."""
        if len(gids) == 0:
            return
        if self._bulk_mode:
            for fold in self.stage.folds:
                col = fold.column
                history = fold.linearity.history
                for var in fold.instance.state_vars:
                    vals = self._open_state[col][var][gids]
                    target = self._hist if var in history else self._acc
                    arr = self._target_array(target[col], var, vals.dtype)
                    if var in history:
                        arr[gids] = vals
                    else:
                        arr = self._guard_acc(target[col], col, var, arr,
                                              vals)
                        arr[gids] += vals      # unique ids: plain fancy add
            self._epochs[gids] += 1
            self._writes += len(gids)
        else:
            absorb = self._backing.absorb
            keys_list = self._key_tuples()
            for g, states, aux in self._open_payloads(gids):
                absorb(keys_list[g], states, aux)
        self._open_mask[gids] = False
        if self._open_dicts:
            for g in gids.tolist():
                self._open_dicts.pop(g, None)

    def _bulk_absorb_closed(self, fold_epochs, epoch_key: np.ndarray,
                            closed: np.ndarray) -> None:
        """Vectorized absorption of the window's closed epochs on the
        all-additive path: one ``np.add.at`` per order variable, a
        last-epoch-per-key assignment per history variable."""
        closed_e = np.flatnonzero(closed)
        if len(closed_e) == 0:
            return
        closed_g = epoch_key[closed_e]
        # Epoch ids ascend per key, so each key's closed epochs are a
        # contiguous, chronological run; its last one carries the
        # history values.
        run_last = np.empty(len(closed_g), dtype=bool)
        run_last[-1] = True
        np.not_equal(closed_g[1:], closed_g[:-1], out=run_last[:-1])
        for fold in self.stage.folds:
            fe = fold_epochs[fold.column]
            history = fold.linearity.history
            for var in fold.instance.state_vars:
                if fe.arrays is not None:
                    vals = fe.arrays[var]
                else:
                    vals = np.asarray(fe.values[var])
                vals = vals[closed_e]
                target = self._hist if var in history else self._acc
                arr = self._target_array(target[fold.column], var,
                                         vals.dtype)
                if var in history:
                    arr[closed_g[run_last]] = vals[run_last]
                else:
                    arr = self._guard_acc(target[fold.column], fold.column,
                                          var, arr, vals)
                    np.add.at(arr, closed_g, vals)
        np.add.at(self._epochs, closed_g, 1)
        self._writes += len(closed_e)

    def _target_array(self, target: dict[str, np.ndarray], var: str,
                      dtype) -> np.ndarray:
        """The per-key accumulator for ``var``, created/promoted on
        demand at the shared capacity."""
        arr = target.get(var)
        if arr is None:
            arr = np.zeros(len(self._open_mask), dtype=dtype)
            target[var] = arr
        promoted = np.result_type(arr.dtype, dtype)
        if promoted != arr.dtype:
            arr = arr.astype(promoted)
            target[var] = arr
        return arr

    def _guard_acc(self, target: dict[str, np.ndarray], col: str, var: str,
                   arr: np.ndarray, vals: np.ndarray,
                   persist: bool = True) -> np.ndarray:
        """int64 overflow guard for the bulk path's cross-window
        accumulators: tracks a conservative running bound on the
        accumulated magnitude and, before it can reach 2^63, promotes
        the accumulator to ``object`` dtype — exact Python-int
        arithmetic, matching the row engine's unbounded ints — with a
        warning.  Bounds are computed with Python ints (``np.abs`` on
        ``int64.min`` would itself wrap)."""
        if arr.dtype.kind not in "iu":
            return arr
        v = np.asarray(vals)
        if v.dtype.kind not in "iu" or v.size == 0:
            return arr
        step = int(v.size) * max(abs(int(v.min())), abs(int(v.max())))
        bound = self._acc_bound.get((col, var), 0) + step
        if persist:
            self._acc_bound[(col, var)] = bound
        if bound < 2 ** 63:
            return arr
        warnings.warn(
            f"fold {col!r} state {var!r} may exceed int64 while merging "
            f"epochs across windows; switching the accumulator to exact "
            f"Python-int arithmetic (slower, bit-identical to the row "
            f"engine)", RuntimeWarning, stacklevel=4)
        arr = arr.astype(object)
        target[var] = arr
        return arr

    # -- end of run / observables --------------------------------------------

    def finalize(self) -> None:
        """Process the remaining partial window and absorb every open
        epoch (idempotent)."""
        if self._finalized:
            return
        self._drain(final=True)
        self._finalized = True
        self._absorb_open(np.flatnonzero(self._open_mask[:self._nkeys]))

    def merged_state(self) -> MergedState:
        """The merged per-key results as if the stream ended now.

        After :meth:`finalize` it wraps views of the final arrays (or
        the real backing store's entries) and is cached.  Mid-stream,
        pending input runs first (results are partition-independent, so
        this is observation-neutral) and every carried open epoch is
        absorbed into *copies*; streaming continues untouched."""
        if self._final_state is not None:
            return self._final_state
        final = self._finalized
        if not final:
            self._drain()
        nk = self._nkeys
        keys = self._all_keys[:nk]        # registered rows never change
        open_gids = np.flatnonzero(self._open_mask[:nk])   # none once final
        if self._bulk_mode:
            merged: dict[str, dict[str, np.ndarray]] = {}
            for fold in self.stage.folds:
                col = fold.column
                history = fold.linearity.history
                per_var = merged[col] = {}
                for var in fold.instance.state_vars:
                    target = self._hist if var in history else self._acc
                    arr = target[col].get(var)
                    if arr is None:
                        init = fold.instance.inits.get(var, 0)
                        arr = np.full(max(nk, 1), init)
                    arr = arr[:nk] if final else arr[:nk].copy()
                    if len(open_gids):
                        vals = self._open_state[col][var][open_gids]
                        promoted = np.result_type(arr.dtype, vals.dtype)
                        if promoted != arr.dtype:
                            arr = arr.astype(promoted)
                        if var in history:
                            arr[open_gids] = vals
                        else:
                            arr = self._guard_acc(per_var, col, var, arr,
                                                  vals, persist=False)
                            arr[open_gids] += vals
                    per_var[var] = arr
            epochs = self._epochs[:nk] if final else self._epochs[:nk].copy()
            epochs[open_gids] += 1
            state = MergedState(keys, self._writes + len(open_gids),
                                merged=merged, epochs=epochs)
        else:
            backing = self._backing if final else self._backing.clone()
            keys_list = self._key_tuples()
            for g, states, aux in self._open_payloads(open_gids):
                backing.absorb(keys_list[g],
                               {col: dict(s) for col, s in states.items()},
                               {col: _copy_aux(a) for col, a in aux.items()})
            state = MergedState(keys, backing.writes, entries=backing.data,
                                key_list=list(keys_list))
        if final:
            self._final_state = state
        return state

    @property
    def backing(self) -> BackingStore:
        """The end-of-run backing store (materialised from the merged
        arrays on first access on the all-additive path)."""
        self.finalize()
        return self.merged_state().backing(self.stage, self.params)

    def result_table(self, include_invalid: bool = False) -> ResultTable:
        self.finalize()
        return self.merged_state().table(self.stage, self.params,
                                         include_invalid=include_invalid)

    @property
    def backing_writes(self) -> int:
        self.finalize()
        return self.merged_state().writes

    def accuracy(self) -> float:
        self.finalize()
        return self.merged_state().accuracy(self.stage, self.params)

    def snapshot(self, include_invalid: bool = False) -> StoreSnapshot:
        """Observable state as if the stream ended now, without ending
        it (see :meth:`merged_state`)."""
        state = self.merged_state()
        return StoreSnapshot(
            table=state.table(self.stage, self.params,
                              include_invalid=include_invalid),
            stats=replace(self._stats),
            backing_writes=state.writes,
            accuracy=state.accuracy(self.stage, self.params),
        )

    @property
    def stats(self) -> CacheStats:
        """Counters over everything ingested so far (end-of-run values
        once the store is finalized; open-epoch absorption never moves
        the counters, so draining pending input suffices)."""
        if not self._finalized:
            self._drain()
        return self._stats

    # -- durable checkpoints -------------------------------------------------

    def checkpoint_state(self) -> dict:
        """Plain-data snapshot of *everything* the continuation needs:
        pending (undrained) input, the persistent key table, carried
        residency (scheduler state incl. RNG counters), carried open
        epochs, and the absorption target (bulk accumulators with their
        overflow bounds, or the general backing store).  Pending input
        is serialized as-is — not drained — so a restored store runs
        the byte-for-byte same window schedule as an uninterrupted one.
        """
        if self._finalized:
            raise CheckpointError("cannot checkpoint a finalized store")
        nk = self._nkeys
        state = {
            "kind": "windowed",
            "window": self.window,
            "bulk": self._bulk_mode,
            "buffered": self._buffered,
            "pending_keys": np.concatenate(self._key_chunks)
            if self._key_chunks else None,
            "pending_cols": {
                name: np.concatenate(chunks) if chunks else None
                for name, chunks in self._col_chunks.items()
            },
            "total": self._total,
            "nkeys": nk,
            "keys": self._all_keys[:nk].copy(),
            "open_mask": self._open_mask[:nk].copy(),
            "open_pos": self._open_pos[:nk].copy(),
            "open_state": {
                col: {var: arr[:nk].copy() for var, arr in per.items()}
                for col, per in self._open_state.items()
            },
            "open_aux": {
                col: {key: arr[:nk].copy() for key, arr in per.items()}
                for col, per in self._open_aux.items()
            },
            "open_dicts": {
                g: {col: (dict(s), _copy_aux(a))
                    for col, (s, a) in folds.items()}
                for g, folds in self._open_dicts.items()
            },
            "stats": replace(self._stats),
            "refreshes": self.refreshes,
            "sched": self._sched.checkpoint_state(),
        }
        if self._bulk_mode:
            state["acc"] = {
                col: {var: arr[:nk].copy() for var, arr in per.items()}
                for col, per in self._acc.items()
            }
            state["hist"] = {
                col: {var: arr[:nk].copy() for var, arr in per.items()}
                for col, per in self._hist.items()
            }
            state["epochs"] = self._epochs[:nk].copy()
            state["acc_bound"] = dict(self._acc_bound)
            state["writes"] = self._writes
        else:
            backing = self._backing.clone()
            state["backing_data"] = backing.data
            state["backing_writes"] = backing.writes
        return state

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`checkpoint_state` payload into this (freshly
        constructed) store.  The store takes ownership of the payload's
        arrays and containers."""
        if state.get("kind") != "windowed":
            raise CheckpointError(
                f"store state mismatch: snapshot carries "
                f"{state.get('kind')!r}, expected 'windowed'")
        if self._finalized or self._total or self._nkeys or self._buffered:
            raise CheckpointError("restore target store must be fresh")
        if state["window"] != self.window or state["bulk"] != self._bulk_mode:
            raise CheckpointError(
                "store configuration mismatch: snapshot was taken with "
                f"window={state['window']} bulk={state['bulk']}, store has "
                f"window={self.window} bulk={self._bulk_mode}")
        self._buffered = state["buffered"]
        if state["pending_keys"] is not None:
            self._key_chunks = [state["pending_keys"]]
            for name, pending in state["pending_cols"].items():
                self._col_chunks[name] = [pending]
        self._total = state["total"]
        nk = self._nkeys = state["nkeys"]
        if nk:
            # Every per-key array shares one capacity (the _grow_keys
            # invariant) — restore them all at exactly nk.  The key
            # index and tuples are rebuilt when first needed.
            self._all_keys = np.ascontiguousarray(state["keys"])
            self._open_mask = state["open_mask"]
            self._open_pos = state["open_pos"]
        self._open_state = {col: dict(per)
                            for col, per in state["open_state"].items()}
        self._open_aux = {col: dict(per)
                          for col, per in state["open_aux"].items()}
        self._open_dicts = {
            int(g): dict(folds) for g, folds in state["open_dicts"].items()}
        self._stats = state["stats"]
        self.refreshes = state["refreshes"]
        self._sched.restore_state(state["sched"])
        if self._bulk_mode:
            self._acc = {col: dict(per) for col, per in state["acc"].items()}
            self._hist = {col: dict(per)
                          for col, per in state["hist"].items()}
            self._epochs = state["epochs"]
            self._acc_bound = dict(state["acc_bound"])
            self._writes = state["writes"]
        else:
            self._backing.data = state["backing_data"]
            self._backing.writes = state["backing_writes"]


def _is_resident(gids: np.ndarray, resident: np.ndarray) -> np.ndarray:
    """Membership of ``gids`` in a scheduler's residency report —
    either a key-id array (the LRU scheduler) or a per-gid flag array
    (the packed scheduler's bitmap, possibly shorter than the store's
    key table)."""
    if resident.dtype == np.bool_:
        out = np.zeros(len(gids), dtype=bool)
        within = gids < len(resident)
        out[within] = resident[gids[within]]
        return out
    return np.isin(gids, resident)


def _carried_dicts(spec, state: Mapping[str, np.ndarray],
                   regs: Mapping[tuple, np.ndarray], gids: np.ndarray,
                   ) -> tuple[list[State], list[AuxState]]:
    """The carried open epochs of ``gids`` as the row store's per-epoch
    state and :data:`AuxState` dicts, with native Python scalars."""
    n = len(gids)
    states = {var: arr[gids].tolist() for var, arr in state.items()}
    lists = {key: arr[gids].tolist() for key, arr in regs.items()}
    return ([{var: vals[i] for var, vals in states.items()}
             for i in range(n)],
            [aux_from_registers(spec, lists, i) for i in range(n)])


def _columnar(table: ResultTable) -> ResultTable:
    """``table`` with column authority when every row carries every
    column (a kept invalid row may lack some): an ``int64``/``float64``
    array for a column of only ints/floats, a value list otherwise —
    the same values in the same order, without a dict and a boxed
    number per cell."""
    rows = table.rows
    if not rows:
        return table
    names = list(rows[0])
    width = len(names)
    if any(len(row) != width for row in rows):
        return table
    columns: dict[str, object] = {}
    for name in names:
        values = [row[name] for row in rows]
        kinds = set(map(type, values))
        column: object = values
        if kinds == {float}:
            column = np.array(values, dtype=np.float64)
        elif kinds == {int}:
            try:
                column = np.array(values, dtype=np.int64)
            except OverflowError:            # beyond int64: keep exact
                pass
        columns[name] = column
    return ResultTable.from_columns(table.schema, columns)


def _row_tuples(rows: np.ndarray) -> list[tuple]:
    """Key rows as tuples of Python ints (the backing store's keys)."""
    return list(zip(*(rows[:, j].tolist() for j in range(rows.shape[1]))))


def _key_hash(rows: np.ndarray) -> np.ndarray:
    """One 64-bit index value per int64 key row: the value itself for a
    one-field key, a seeded :func:`mix_key_array` of the row otherwise.
    Distinct rows may share a value; the index verifies every match
    against the full row (see ``WindowedVectorStore._verify``)."""
    if rows.shape[1] == 1:
        return rows[:, 0]
    return mix_key_array(rows, _KEY_HASH_SEED)


def _grown(arr: np.ndarray, n: int) -> np.ndarray:
    """Capacity-doubling resize, preserving contents."""
    if len(arr) >= n:
        return arr
    new = np.zeros(max(n, 2 * len(arr), 1024), dtype=arr.dtype)
    new[:len(arr)] = arr
    return new
