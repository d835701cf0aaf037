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
   (additive, scale, non-mergeable value segments), in per-key dicts
   for the sequential ones (full-matrix, exact history) — and injected
   as the initial per-epoch state of the next window's segmented fold
   evaluation (``init_override`` in :mod:`repro.core.vector_exec`);
   accumulations and round updates then perform the same scalar
   operations in the same order as an uncut epoch, so results are
   bit-identical.  An epoch closes — and is absorbed into the backing
   store, in per-key chronological order — when its key misses again,
   when a periodic-refresh boundary passes (global positions), or when
   the key is found non-resident at a window boundary (its next access,
   if any, must miss, so the epoch is provably complete).  Open-epoch
   state is therefore bounded by the cache capacity.

3. **Carried merges.** The all-plain-additive fast path keeps per-key
   accumulator arrays (one ``np.add.at`` per window over global key
   ids) instead of a materialised backing store; the general path
   absorbs into a real :class:`BackingStore` as epochs close.  Window
   keys map to persistent global ids with one ``searchsorted`` over a
   sorted index of the known unique keys — no per-access Python.  The
   index is built on the first lookup (a run that is one window never
   builds it) and merged incrementally after that.

Differential tests (``tests/test_session.py``,
``tests/test_vector_store.py``) assert bit-identical tables, counters,
accuracy, writes, and refresh counts against the row store across the
query catalog, multiple window sizes (unbounded included), and refresh
intervals that cut mid-window.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
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
from .split import build_result_table
from .vector_store import VectorSplitStore, _FoldCont, _copy_aux

_U = np.uint64


@dataclass
class StoreSnapshot:
    """Mid-stream observable state, as if the stream ended now."""

    table: ResultTable
    stats: CacheStats
    backing_writes: int
    accuracy: float


class _ArrayCont:
    """Array-backed epoch continuation over the carried open-epoch
    arrays: ``override``/``p_values`` for the vectorized fold paths,
    plus the :class:`~repro.switch.kvstore.vector_store._FoldCont`
    fields, materialised only on the replay fallback."""

    __slots__ = ("eids", "gids", "_state", "_P")

    def __init__(self, eids: np.ndarray, gids: np.ndarray,
                 state: dict[str, np.ndarray],
                 P: dict[str, np.ndarray] | None):
        self.eids = eids
        self.gids = gids
        self._state = state
        self._P = P

    def p_values(self, var: str) -> np.ndarray:
        """Carried merge products for ``var``, aligned with ``eids``."""
        return self._P[var][self.gids]

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
        lists = {var: arr[self.gids].tolist()
                 for var, arr in self._state.items()}
        return [{var: vals[i] for var, vals in lists.items()}
                for i in range(len(self.gids))]

    @property
    def auxes(self) -> list[AuxState]:
        if self._P is None:
            return [{} for _ in range(len(self.gids))]
        lists = {var: arr[self.gids].tolist()
                 for var, arr in self._P.items()}
        return [{"P": {var: vals[i] for var, vals in lists.items()}}
                for i in range(len(self.gids))]


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
        # (= first-access) order, with a sorted index (built on first
        # lookup, see _map_global) for vectorized window-key ->
        # global-id matching, and the rows as tuples (converted on
        # demand, see _key_tuples).
        self._nkeys = 0
        self._all_keys = np.zeros((0, len(stage.key.fields)),
                                  dtype=np.int64)
        self._sorted_view: np.ndarray | None = None
        self._sorted_perm: np.ndarray | None = None
        self._keys_list: list[tuple] = []
        # Open epochs, bounded by cache capacity: a per-key flag/last-
        # position pair, per-key state arrays for the vectorizable
        # merge classes, per-key dicts for the sequential ones.
        self._open_mask = np.zeros(0, dtype=bool)
        self._open_pos = np.zeros(0, dtype=np.int64)
        self._array_carry = {
            fold.column: (fold.merge.strategy in ("additive", "scale",
                                                  "list")
                          and not fold.merge.exact_history)
            for fold in stage.folds
        }
        self._open_state: dict[str, dict[str, np.ndarray]] = {
            fold.column: {} for fold in stage.folds
            if self._array_carry[fold.column]
        }
        self._open_P: dict[str, dict[str, np.ndarray]] = {
            fold.column: {} for fold in stage.folds
            if self._array_carry[fold.column]
            and fold.merge.strategy == "scale"
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
        ``searchsorted`` against the sorted index of the known keys.
        The first window knows no keys and needs no index; the index is
        built on the first lookup and merged incrementally after that."""
        rows = np.column_stack(unique_cols)
        start = self._nkeys
        if start == 0:
            l2g = np.arange(len(rows), dtype=np.int64)
            new_rows = rows
        else:
            view = _key_view(rows)
            sorted_view, sorted_perm = self._key_index()
            pos = np.searchsorted(sorted_view, view)
            found = pos < len(sorted_view)
            safe = np.where(found, pos, 0)
            found &= sorted_view[safe] == view
            l2g = np.empty(len(rows), dtype=np.int64)
            l2g[found] = sorted_perm[safe[found]]
            fresh = ~found
            new_rows = rows[fresh]
            new_gids = start + np.arange(len(new_rows))
            l2g[fresh] = new_gids
            if len(new_rows):
                # Merge the new keys into the index incrementally —
                # O(new log new + K) instead of re-sorting all K keys.
                new_view = view[fresh]
                new_order = np.argsort(new_view)
                pos = np.searchsorted(sorted_view, new_view[new_order])
                self._sorted_view = np.insert(sorted_view, pos,
                                              new_view[new_order])
                self._sorted_perm = np.insert(sorted_perm, pos,
                                              new_gids[new_order])
        if len(new_rows):
            self._grow_keys(start + len(new_rows))
            self._all_keys[start:start + len(new_rows)] = new_rows
            self._nkeys = start + len(new_rows)
        return l2g

    def _key_tuples(self) -> list[tuple]:
        """The known keys as tuples, in global-id order — the backing
        store's keys.  Converted on demand: the all-additive result
        table reads the key columns directly and never needs them."""
        done = len(self._keys_list)
        if done < self._nkeys:
            rows = self._all_keys[done:self._nkeys]
            self._keys_list.extend(
                zip(*(rows[:, j].tolist() for j in range(rows.shape[1]))))
        return self._keys_list

    def _key_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted key view, global ids in that order)`` over every
        known key, built here on first use."""
        if self._sorted_view is None:
            view = _key_view(self._all_keys[:self._nkeys])
            perm = np.argsort(view)
            self._sorted_view = view[perm]
            self._sorted_perm = perm.astype(np.int64, copy=False)
        return self._sorted_view, self._sorted_perm

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
        for group in (*per_key, self._open_state, self._open_P):
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
                cont = _ArrayCont(cont_eids, cont_keys,
                                  self._open_state[col],
                                  self._open_P.get(col))
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
            if fold.merge.strategy == "scale":
                p_target = self._open_P[col]
                for var in fold.merge.order:
                    if fe.P is not None:
                        pvals = np.asarray(fe.P[var],
                                           dtype=np.float64)[last_eid]
                    else:                  # replay fallback window
                        pvals = np.asarray(
                            [fe.aux_list[e]["P"][var]
                             for e in last_eid.tolist()])
                    self._scatter(p_target, var, pvals, win_keys)
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
        out = []
        glist = gids.tolist()
        per_fold: dict[str, tuple[dict[str, list], dict[str, list] | None]] = {}
        for fold in self.stage.folds:
            col = fold.column
            if not self._array_carry[col]:
                continue
            states = {var: arr[gids].tolist()
                      for var, arr in self._open_state[col].items()}
            P = None
            if fold.merge.strategy == "scale":
                P = {var: arr[gids].tolist()
                     for var, arr in self._open_P[col].items()}
            per_fold[col] = (states, P)
        for i, g in enumerate(glist):
            states: dict[str, State] = {}
            aux: dict[str, AuxState] = {}
            for fold in self.stage.folds:
                col = fold.column
                if self._array_carry[col]:
                    vals, P = per_fold[col]
                    states[col] = {var: lst[i] for var, lst in vals.items()}
                    aux[col] = {} if P is None else \
                        {"P": {var: lst[i] for var, lst in P.items()}}
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

    @property
    def backing(self) -> BackingStore:
        """The backing store.  On the all-additive path it is
        materialised on first access — the merged values live in
        per-key arrays, which serve the result table and accuracy."""
        self.finalize()
        if self._backing is None:
            self._backing = self._backing_from_bulk(
                self._bulk_states(), self._writes,
                self._epochs[:self._nkeys])
        return self._backing

    def result_table(self, include_invalid: bool = False) -> ResultTable:
        self.finalize()
        if self._bulk_mode:
            try:
                return self._bulk_table(self._bulk_states())
            except VectorizationError:
                pass
        return build_result_table(self.stage, self.backing,
                                  self._key_tuples(), self.params,
                                  include_invalid=include_invalid)

    def _bulk_states(self) -> dict[str, dict[str, np.ndarray]]:
        """Merged per-key state arrays (all-additive path), trimmed to
        the key count."""
        nk = self._nkeys
        out: dict[str, dict[str, np.ndarray]] = {}
        for fold in self.stage.folds:
            history = fold.linearity.history
            per_var: dict[str, np.ndarray] = {}
            for var in fold.instance.state_vars:
                target = self._hist if var in history else self._acc
                arr = target[fold.column].get(var)
                if arr is None:
                    init = fold.instance.inits.get(var, 0)
                    arr = np.full(max(nk, 1), init)
                per_var[var] = arr[:nk]
            out[fold.column] = per_var
        return out

    def _bulk_table(self, merged: dict[str, dict[str, np.ndarray]],
                    ) -> ResultTable:
        n_groups = self._nkeys
        keys = self._all_keys[:n_groups]
        out: dict[str, np.ndarray] = {
            field: keys[:, j]
            for j, field in enumerate(self.stage.key.fields)
        }
        for col in self.stage.output.columns:
            if col.kind == "agg":
                out[col.name] = merged[col.fold][col.state_var]
            elif col.kind == "derived":
                dctx = ArrayContext({}, self.params, n_groups,
                                    state=merged[col.fold])
                with np.errstate(divide="ignore", invalid="ignore"):
                    out[col.name] = as_column(
                        eval_array(col.read_expr, dctx), n_groups)
        return ResultTable.from_columns(self.stage.output, out)

    def _backing_from_bulk(self, merged, writes: int,
                           epochs: np.ndarray) -> BackingStore:
        """A real per-key :class:`BackingStore` from merged state
        arrays (the bulk path's on-demand store surface)."""
        backing = BackingStore(self.stage.folds, params=self.params)
        backing.writes = writes
        columns = [
            (col, [(var, arr.tolist()) for var, arr in per_var.items()])
            for col, per_var in merged.items()
        ]
        counts = epochs.tolist()
        data = backing.data
        for g, key in enumerate(self._key_tuples()):
            data[key] = KeyEntry(
                merged={col: {var: vals[g] for var, vals in items}
                        for col, items in columns},
                epochs=counts[g],
            )
        return backing

    @property
    def backing_writes(self) -> int:
        self.finalize()
        if self._bulk_mode:
            return self._writes
        return self._backing.writes

    def accuracy(self) -> float:
        self.finalize()
        if self._bulk_mode:
            return 1.0
        return self._backing.accuracy

    # -- mid-stream snapshots -------------------------------------------------

    def snapshot(self, include_invalid: bool = False) -> StoreSnapshot:
        """Observable state as if the stream ended now, without ending
        it: pending input is executed (results are partition-
        independent, so this is observation-neutral), open epochs are
        absorbed into *copies*, and streaming continues untouched."""
        if self._finalized:
            return StoreSnapshot(
                table=self.result_table(include_invalid=include_invalid),
                stats=replace(self._stats),
                backing_writes=self.backing_writes,
                accuracy=self.accuracy(),
            )
        self._drain()
        if self._bulk_mode:
            merged, epochs, writes = self._snapshot_bulk_state()
            try:
                table = self._bulk_table(merged)
            except VectorizationError:
                table = build_result_table(
                    self.stage,
                    self._backing_from_bulk(merged, writes, epochs),
                    self._key_tuples(), self.params,
                    include_invalid=include_invalid)
            return StoreSnapshot(table=table, stats=replace(self._stats),
                                 backing_writes=writes, accuracy=1.0)
        snap = self._snapshot_store()
        table = build_result_table(self.stage, snap, self._key_tuples(),
                                   self.params,
                                   include_invalid=include_invalid)
        return StoreSnapshot(table=table, stats=replace(self._stats),
                             backing_writes=snap.writes,
                             accuracy=snap.accuracy)

    def _snapshot_bulk_state(self) -> tuple[
            dict[str, dict[str, np.ndarray]], np.ndarray, int]:
        """Copies of the merged per-key accumulators with every carried
        open epoch absorbed — ``(merged, epochs, writes)``.  Call after
        :meth:`_drain`; shared by :meth:`snapshot` and the shard
        workers' mid-stream payloads."""
        open_gids = np.flatnonzero(self._open_mask[:self._nkeys])
        merged = {
            col: {var: arr.copy() for var, arr in per_var.items()}
            for col, per_var in self._bulk_states().items()
        }
        for fold in self.stage.folds if len(open_gids) else ():
            col = fold.column
            history = fold.linearity.history
            for var in fold.instance.state_vars:
                vals = self._open_state[col][var][open_gids]
                arr = merged[col][var]
                promoted = np.result_type(arr.dtype, vals.dtype)
                if promoted != arr.dtype:
                    arr = arr.astype(promoted)
                    merged[col][var] = arr
                if var in history:
                    arr[open_gids] = vals
                else:
                    arr = self._guard_acc(merged[col], col, var, arr, vals,
                                          persist=False)
                    arr[open_gids] += vals
        epochs = self._epochs[:self._nkeys].copy()
        epochs[open_gids] += 1
        return merged, epochs, self._writes + len(open_gids)

    def _snapshot_store(self) -> BackingStore:
        """Clone of the general-path backing store with every carried
        open epoch absorbed.  Call after :meth:`_drain`."""
        open_gids = np.flatnonzero(self._open_mask[:self._nkeys])
        snap = self._backing.clone()
        keys_list = self._key_tuples()
        for g, states, aux in self._open_payloads(open_gids):
            snap.absorb(keys_list[g],
                        {col: dict(s) for col, s in states.items()},
                        {col: _copy_aux(a) for col, a in aux.items()})
        return snap

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
            "open_P": {
                col: {var: arr[:nk].copy() for var, arr in per.items()}
                for col, per in self._open_P.items()
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
        self._open_P = {col: dict(per)
                        for col, per in state["open_P"].items()}
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


def _key_view(rows: np.ndarray) -> np.ndarray:
    """One sortable scalar per int64 key row: the value itself for a
    one-field key, the row's raw bytes otherwise.  Byte order is not
    numeric order, but it is a consistent total order — all a lookup
    index needs — and 3-8x cheaper to sort than a structured view."""
    if rows.shape[1] == 1:
        return rows[:, 0]
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))
                     ).ravel()


def _grown(arr: np.ndarray, n: int) -> np.ndarray:
    """Capacity-doubling resize, preserving contents."""
    if len(arr) >= n:
        return arr
    new = np.zeros(max(n, 2 * len(arr), 1024), dtype=arr.dtype)
    new[:len(arr)] = arr
    return new
