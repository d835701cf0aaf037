"""Hash-partitioned sharded execution of ``GROUPBY`` split stores.

The paper's linear-in-state restriction (§3.2) is what makes execution
*shardable*: synthesized merges combine partial per-key values computed
anywhere, so partitioning the key space across worker processes and
combining their merged per-key results afterwards is exact.  This module
partitions by **cache set**: a key's bucket is
``mix_key(key, seed) % n_buckets`` — a pure function of the key — and
every replacement decision (and the random policy's counter-based
victim draw) is local to one bucket, so routing whole buckets to shards
(``bucket % n_shards``) preserves each bucket's exact access sequence.
Every shard runs the unmodified single-process engine over its slice:

* per-key hit/miss/eviction sequences — and therefore epochs, fold
  values, and merge products — are identical to the single-process run
  (stats are per-bucket sums, so they combine by field-wise addition);
* each key lives wholly in one shard, so the shard-local merged value
  *is* the final value.  Each worker ships its store's
  :class:`~repro.switch.kvstore.windowed_store.MergedState` (the one
  merged-result form the single-process store's observables read, for
  every merge class: per-key arrays plus key-major segment logs) with
  each key's global first-access position, and the combine
  concatenates those states with a stable re-sort by first-access
  position — the segment logs permuted with their keys — which
  reproduces the single-process engines' result order exactly.
  A worker learns those positions from its store's own key index: it
  registers each batch's keys as the batch arrives
  (:meth:`~repro.switch.kvstore.windowed_store.WindowedVectorStore.key_ids`;
  batches arrive in stream order, so the ids are the ones the store's
  windows assign) and keeps one position array per stage, indexed by
  key id.  The combined state answers every observable the same way the
  store's own does;
* the windowed store is bit-identical for every window partitioning,
  so shard-local window boundaries are observation-neutral.

**Mergeable/non-mergeable contract.**  A stage shards only when every
fold synthesizes a merge (``fold.merge.mergeable`` — strategies
``additive``/``scale``/``matrix``).  A stage with any non-mergeable
(``list``-strategy) fold falls back to routing its *whole* stream to
shard 0: per-key value *segments* are ordered by eviction time, and a
single worker preserves that order trivially, so results (including
§3.2 invalid-key accounting) stay bit-identical — at single-core speed
for that stage.  Fully-associative geometries (one bucket) take the
same single-shard route.  ``refresh_interval`` is rejected outright:
refresh epochs cut at *global* stream positions, which per-shard
streams cannot see.

Transport is :class:`repro.telemetry.shard_exec.ShardWorkerPool`; this
module owns the semantics (partitioning, worker-side stores, combine).
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from dataclasses import replace
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.errors import HardwareError
from repro.core.eval_expr import Numeric
from repro.core.interpreter import ResultTable
from repro.core.plan import GroupByStage
from repro.core.vector_exec import FoldVectorizer
from repro.telemetry.shard_exec import ShardError, ShardWorkerPool

from .cache import CacheGeometry, CacheStats
from .split import StoreSnapshot
from .vector_cache import mix_key_array
from .windowed_store import MergedState, WindowedVectorStore, _grown

if TYPE_CHECKING:                                  # pragma: no cover
    from repro.switch.pipeline import SessionConfig

_U = np.uint64


def make_store_pool(specs: Sequence[tuple[GroupByStage, CacheGeometry]],
                    params: Mapping[str, Numeric],
                    config: SessionConfig) -> ShardWorkerPool:
    """One worker per shard (``config.shards``), each holding every
    ``GROUPBY`` stage's ``(stage, geometry)`` spec; stores are built
    lazily in the worker on first use.  ``config.checkpoint_every``
    enables the pool's periodic role checkpoints and crash recovery;
    ``config.faults`` threads a deterministic fault injector into the
    transport."""
    roles = [_StoreShardRole(list(specs), params, config)
             for _ in range(config.shards)]
    return ShardWorkerPool(roles, checkpoint_every=config.checkpoint_every,
                           faults=config.faults)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _StoreShardRole:
    """Worker-side role: one single-process store per stage over this
    shard's key slice, plus each key's global first-access position
    (the combine's ordering key): one int64 array per stage, indexed
    by the store's key id."""

    def __init__(self, specs: list[tuple[GroupByStage, CacheGeometry]],
                 params: Mapping[str, Numeric], config: SessionConfig):
        self._specs = specs
        self._params = params
        self._config = config
        self._stores: dict[int, WindowedVectorStore] = {}
        self._first_pos: dict[int, np.ndarray] = {}
        self._finalized: set[int] = set()

    def _store(self, idx: int) -> WindowedVectorStore:
        store = self._stores.get(idx)
        if store is None:
            stage, geometry = self._specs[idx]
            config = self._config
            store = WindowedVectorStore(
                stage, geometry, params=self._params, policy=config.policy,
                seed=config.seed, window=config.window)
            self._stores[idx] = store
            self._first_pos[idx] = np.zeros(0, dtype=np.int64)
        return store

    def handle(self, op: str, meta, arrays: dict[str, np.ndarray]):
        idx = meta["stage"]
        store = self._store(idx)
        if op == "add_batch":
            keys = arrays.pop("__keys__")
            pos = arrays.pop("__pos__")
            self._record_firsts(idx, store, keys, pos)
            store.add_batch(keys, arrays)
            return None
        if op == "stats":
            return replace(store.stats)
        if op == "finalize":
            store.finalize()
            self._finalized.add(idx)
            return self._payload(idx, store)
        if op == "snapshot":
            return self._payload(idx, store)
        raise ShardError(f"unknown shard store op {op!r}")

    # -- durable checkpoints (pool-internal __checkpoint__/__restore__) ------

    def checkpoint(self) -> dict:
        """Plain-data snapshot of this shard's slice: every live
        store's state plus the global first-access positions (the
        combine's ordering key).  Finalized stores carry no state —
        their combined payload already left for the parent, and no op
        can touch them again."""
        return {
            "stores": {idx: (None if idx in self._finalized
                             else store.checkpoint_state())
                       for idx, store in self._stores.items()},
            "first_pos": {idx: self._first_pos[idx][:store.n_keys].copy()
                          for idx, store in self._stores.items()},
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`checkpoint` payload into this (freshly forked)
        role: rebuild each store from its spec, then load its state."""
        for idx, store_state in state["stores"].items():
            if store_state is not None:
                self._store(idx).restore_state(store_state)
        self._first_pos.update(state["first_pos"])
        return None

    def _record_firsts(self, idx: int, store: WindowedVectorStore,
                       keys: np.ndarray, pos: np.ndarray) -> None:
        """Register the batch's keys in the store's key index and record
        each new key's global first-access position.  Rows arrive in
        ascending position order and the index numbers new keys in
        first-occurrence order, so a row is its key's first occurrence
        exactly when its id exceeds every earlier new row's id."""
        start = store.n_keys
        gid = store.key_ids(keys, mix_key_array(keys, store.seed))
        new = np.flatnonzero(gid >= start)
        ids = gid[new]
        first = np.ones(len(ids), dtype=bool)
        first[1:] = ids[1:] > np.maximum.accumulate(ids)[:-1]
        first_pos = self._first_pos[idx] = _grown(self._first_pos[idx],
                                                  store.n_keys)
        first_pos[ids[first]] = pos[new[first]]

    # -- payloads (shipped back over the pipe, pickled) ----------------------

    def _payload(self, idx: int, store: WindowedVectorStore) -> dict:
        """The store's merged state as if its stream ended now (final
        once the store is finalized), its counters, and each key's
        global first-access position."""
        state = store.merged_state()
        return {"stats": replace(store.stats), "state": state,
                "first_pos": self._first_pos[idx][:len(state.keys)]}


# ---------------------------------------------------------------------------
# Parent side: combining
# ---------------------------------------------------------------------------


def _sum_stats(parts) -> CacheStats:
    """Field-wise sum — exact, because every counter is a sum of
    per-bucket events and buckets never split across shards."""
    total = CacheStats()
    for part in parts:
        for f in dataclass_fields(CacheStats):
            setattr(total, f.name,
                    getattr(total, f.name) + getattr(part, f.name))
    return total


def _combine(payloads: Sequence[dict]) -> tuple[CacheStats, MergedState]:
    """Shard payloads combined into one stage-level result.  Keys are
    disjoint across shards, so the combine is a concatenation re-sorted
    stably into global first-access key order; the segment logs move
    with their keys."""
    stats = _sum_stats(p["stats"] for p in payloads)
    live = [p for p in payloads if len(p["state"].keys)] or payloads[:1]
    states = [p["state"] for p in live]
    order = np.argsort(np.concatenate([p["first_pos"] for p in live]),
                       kind="stable")
    epochs = np.concatenate([s.epochs for s in states])
    take = _segment_order(epochs, order)
    return stats, MergedState(
        np.concatenate([s.keys for s in states])[order],
        sum(s.writes for s in states),
        epochs[order],
        {col: {var: np.concatenate([s.merged[col][var] for s in states])
               [order] for var in per}
         for col, per in states[0].merged.items()},
        {col: {var: np.concatenate([s.segments[col][var] for s in states])
               [take] for var in per}
         for col, per in states[0].segments.items()},
    )


def _segment_order(counts: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Positions that reorder a key-major segment log (``counts``
    segments per key) into key order ``order``."""
    starts = np.cumsum(counts) - counts
    lens = counts[order]
    ends = np.cumsum(lens)
    return np.repeat(starts[order] - (ends - lens), lens) + \
        np.arange(int(ends[-1]) if len(ends) else 0)


# ---------------------------------------------------------------------------
# Parent side: the store proxy
# ---------------------------------------------------------------------------


class ShardedStoreProxy:
    """Drop-in ``GROUPBY`` store that fans batches out to the shard
    pool and serves every observable from the merge-synthesized
    combine — same surface as
    :class:`~repro.switch.kvstore.windowed_store.WindowedVectorStore`
    (see the module docstring for the exactness argument and the
    mergeable/non-mergeable contract)."""

    def __init__(self, stage: GroupByStage, index: int,
                 pool: ShardWorkerPool, geometry: CacheGeometry,
                 params: Mapping[str, Numeric] | None, seed: int):
        self.stage = stage
        self.params = dict(params or {})
        self.geometry = geometry
        self.seed = seed
        self._pool = pool
        self._index = index
        self._n_shards = pool.n_workers
        self._pos = 0
        self._finalized = False
        self._final: tuple[CacheStats, MergedState] | None = None
        #: Sharding needs every fold to merge; otherwise the whole
        #: stream routes to shard 0 (documented fallback).  One bucket
        #: (fully associative) is one indivisible replacement domain.
        self.mergeable = all(f.merge.mergeable for f in stage.folds)
        self._single = (not self.mergeable or geometry.n_buckets == 1
                        or self._n_shards == 1)
        vec = {f.column: FoldVectorizer(f.instance, f.linearity, self.params)
               for f in stage.folds}
        self.needed_fields: frozenset[str] = frozenset().union(
            *(v.needed for v in vec.values())) if stage.folds else frozenset()

    # -- ingestion -----------------------------------------------------------

    def add_batch(self, keys: np.ndarray,
                  columns: Mapping[str, np.ndarray]) -> None:
        if self._finalized:
            raise HardwareError(
                "store already finalized (an observable was read); "
                "sharded sessions cannot stream past a final read")
        if keys.ndim != 2 or keys.dtype.kind not in "iub":
            raise HardwareError("vector store needs a 2-D integer key array")
        n = len(keys)
        pos = np.arange(self._pos, self._pos + n, dtype=np.int64)
        self._pos += n
        if n == 0:
            return
        keys = np.ascontiguousarray(keys)
        if keys.dtype != np.int64:
            keys = keys.astype(np.int64)
        cols = {}
        for name in self.needed_fields:
            try:
                cols[name] = columns[name]
            except KeyError:
                raise HardwareError(
                    f"missing fold input column {name!r}") from None
        meta = {"stage": self._index}
        if self._single:
            self._pool.post(0, "add_batch", meta,
                            {"__keys__": keys, "__pos__": pos, **cols})
            return
        # Partition by cache set: same hash as the replacement engine,
        # so each bucket's stream lands wholly in one shard.
        shard = (mix_key_array(keys, self.seed) %
                 _U(self.geometry.n_buckets)).astype(np.int64) \
            % self._n_shards
        order = np.argsort(shard, kind="stable")
        bounds = np.searchsorted(shard[order],
                                 np.arange(self._n_shards + 1))
        for s in range(self._n_shards):
            lo, hi = bounds[s], bounds[s + 1]
            if hi <= lo:
                continue
            sel = order[lo:hi]
            self._pool.post(s, "add_batch", meta, {
                "__keys__": keys[sel], "__pos__": pos[sel],
                **{name: np.asarray(col)[sel] for name, col in cols.items()},
            })

    # -- observables ---------------------------------------------------------

    def finalize(self) -> None:
        """Finalize every shard concurrently and combine (idempotent).
        The pool outlives this call — the pipeline closes it once every
        stage has combined."""
        if self._finalized:
            return
        self._finalized = True
        self._final = _combine(
            self._pool.call_all("finalize", {"stage": self._index}))

    def result_table(self, include_invalid: bool = False) -> ResultTable:
        self.finalize()
        return self._final[1].table(self.stage, self.params,
                                    include_invalid=include_invalid)

    @property
    def stats(self) -> CacheStats:
        if self._final is not None:
            return self._final[0]
        return _sum_stats(
            self._pool.call_all("stats", {"stage": self._index}))

    @property
    def backing_writes(self) -> int:
        self.finalize()
        return self._final[1].writes

    def accuracy(self) -> float:
        self.finalize()
        return self._final[1].accuracy()

    def snapshot(self, include_invalid: bool = False) -> StoreSnapshot:
        """Mid-stream combined observables: every worker snapshots its
        store (running whatever it buffered as one window, with or
        without a ``window``), and the payloads combine exactly like
        the final ones."""
        stats, state = self._final or _combine(
            self._pool.call_all("snapshot", {"stage": self._index}))
        return StoreSnapshot(
            table=state.table(self.stage, self.params,
                              include_invalid=include_invalid),
            stats=stats, backing_writes=state.writes,
            accuracy=state.accuracy())
