"""Hash-partitioned sharded execution of ``GROUPBY`` split stores.

The paper's linear-in-state restriction (§3.2) is what makes execution
*shardable*: synthesized merges combine partial per-key values computed
anywhere, so partitioning the key space across worker processes and
combining their backing stores afterwards is exact.  This module
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
  *is* the final value — combining is a concatenation plus a stable
  re-sort by each key's global first-access position, which reproduces
  the single-process engines' first-access result order exactly;
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
from typing import Mapping, Sequence

import numpy as np

from repro.core.errors import HardwareError
from repro.core.eval_expr import Numeric
from repro.core.interpreter import ResultTable
from repro.core.plan import GroupByStage
from repro.core.vector_exec import (
    ArrayContext,
    FoldVectorizer,
    VectorizationError,
    as_column,
    eval_array,
)
from repro.telemetry.shard_exec import ShardError, ShardWorkerPool

from .backing import BackingStore, KeyEntry
from .cache import CacheGeometry, CacheStats
from .split import build_result_table
from .vector_cache import mix_key_array
from .windowed_store import StoreSnapshot, WindowedVectorStore

_U = np.uint64


def make_store_pool(specs: Sequence[tuple], window: int | None,
                    n_shards: int, checkpoint_every: int | None = None,
                    faults=None) -> ShardWorkerPool:
    """One worker per shard, each holding every ``GROUPBY`` stage's
    spec (``(stage, geometry, config)``); stores are built lazily in
    the worker on first use.  ``checkpoint_every`` enables the pool's
    periodic role checkpoints and crash recovery; ``faults`` threads a
    deterministic fault injector into the transport."""
    roles = [_StoreShardRole(list(specs), window) for _ in range(n_shards)]
    return ShardWorkerPool(roles, name="kvshard",
                           checkpoint_every=checkpoint_every, faults=faults)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _StoreShardRole:
    """Worker-side role: one single-process store per stage over this
    shard's key slice, plus each key's global first-access position
    (the combine's ordering key)."""

    def __init__(self, specs: list[tuple], window: int | None):
        self._specs = specs
        self._window = window
        self._stores: dict[int, WindowedVectorStore] = {}
        self._firsts: dict[int, dict[tuple, int]] = {}

    def _store(self, idx: int) -> WindowedVectorStore:
        store = self._stores.get(idx)
        if store is None:
            stage, geometry, config = self._specs[idx]
            store = WindowedVectorStore(stage, geometry,
                                        window=self._window, **config)
            self._stores[idx] = store
            self._firsts[idx] = {}
        return store

    def handle(self, op: str, meta, arrays: dict[str, np.ndarray]):
        idx = meta["stage"]
        store = self._store(idx)
        if op == "add_batch":
            keys = arrays.pop("__keys__")
            pos = arrays.pop("__pos__")
            self._record_firsts(idx, keys, pos)
            store.add_batch(keys, arrays)
            return None
        if op == "stats":
            return replace(store.stats)
        if op == "finalize":
            store.finalize()
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
            "stores": {idx: (None if store._finalized
                             else store.checkpoint_state())
                       for idx, store in self._stores.items()},
            "firsts": {idx: dict(firsts)
                       for idx, firsts in self._firsts.items()},
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`checkpoint` payload into this (freshly forked)
        role: rebuild each store from its spec, then load its state."""
        for idx, store_state in state["stores"].items():
            if store_state is not None:
                self._store(idx).restore_state(store_state)
        for idx, firsts in state["firsts"].items():
            self._firsts[idx] = dict(firsts)
        return None

    def _record_firsts(self, idx: int, keys: np.ndarray,
                       pos: np.ndarray) -> None:
        """Register each unseen key's global first-access position
        (rows arrive in ascending position order, so the first
        occurrence within a batch is the earliest)."""
        firsts = self._firsts[idx]
        rows = np.ascontiguousarray(keys)
        view = rows.view([("", rows.dtype)] * rows.shape[1]).ravel()
        _, first_idx = np.unique(view, return_index=True)
        pos_list = pos.tolist()
        for i in first_idx.tolist():
            firsts.setdefault(tuple(rows[i].tolist()), pos_list[i])

    # -- payloads (shipped back over the pipe, pickled) ----------------------

    def _payload(self, idx: int, store: WindowedVectorStore) -> dict:
        """The store's observables as if its stream ended now: buffered
        input runs first, and open epochs are absorbed into copies (a
        finalized store has none left, so its payload is final)."""
        store._drain()
        firsts = self._firsts[idx]
        stats = replace(store._stats)
        nk = store._nkeys
        if nk == 0:
            return {"mode": "empty", "stats": stats, "writes": 0}
        if store._bulk_mode:
            merged, epochs, writes = store._snapshot_bulk_state()
            return self._bulk_payload(stats, store._all_keys[:nk].copy(),
                                      store._key_tuples(), firsts, merged,
                                      epochs, writes)
        backing = store._backing if store._finalized \
            else store._snapshot_store()
        return self._general_payload(stats, store._key_tuples(), firsts,
                                     backing)

    @staticmethod
    def _bulk_payload(stats, keys2d, keys_list, firsts, merged,
                      epochs, writes) -> dict:
        return {
            "mode": "bulk", "stats": stats, "writes": writes,
            "keys": keys2d,
            "first_pos": [firsts[k] for k in keys_list],
            "merged": merged, "epochs": epochs,
        }

    @staticmethod
    def _general_payload(stats, keys_list, firsts,
                         backing: BackingStore) -> dict:
        return {
            "mode": "general", "stats": stats, "writes": backing.writes,
            "keys_list": list(keys_list),
            "first_pos": [firsts[k] for k in keys_list],
            "entries": backing.data,
        }


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


class _Combined:
    """Shard payloads combined into one stage-level result: either the
    concatenated bulk arrays (all-additive fast path) or one union
    backing store, both re-sorted into global first-access key order."""

    __slots__ = ("stage", "params", "stats", "writes", "keys_list",
                 "keys", "merged", "epochs", "backing", "accuracy", "_mat")

    def __init__(self, stage: GroupByStage, params: Mapping[str, Numeric],
                 payloads: Sequence[dict]):
        self.stage = stage
        self.params = dict(params)
        self.stats = _sum_stats(p["stats"] for p in payloads)
        live = [p for p in payloads if p["mode"] != "empty"]
        self.writes = sum(p["writes"] for p in live)
        self.keys: np.ndarray | None = None
        self.merged: dict | None = None
        self.epochs: np.ndarray | None = None
        self.backing: BackingStore | None = None
        self._mat: BackingStore | None = None
        if live and all(p["mode"] == "bulk" for p in live):
            self._combine_bulk(live)
            self.accuracy = 1.0
        else:
            self._combine_general(live)
            self.accuracy = self.backing.accuracy

    def _combine_bulk(self, live: list[dict]) -> None:
        first = np.concatenate(
            [np.asarray(p["first_pos"], dtype=np.int64) for p in live])
        order = np.argsort(first, kind="stable")
        keys = np.concatenate([p["keys"] for p in live])[order]
        self.keys = keys
        self.merged = {
            fold.column: {
                var: np.concatenate(
                    [p["merged"][fold.column][var] for p in live])[order]
                for var in fold.instance.state_vars
            }
            for fold in self.stage.folds
        }
        self.epochs = np.concatenate(
            [np.asarray(p["epochs"]) for p in live])[order]
        self.keys_list = list(
            zip(*(keys[:, j].tolist() for j in range(keys.shape[1]))))

    def _combine_general(self, live: list[dict]) -> None:
        """Union of the per-shard stores (keys are disjoint).  Bulk
        payloads from other shards — possible when one shard's fold hit
        the exact-replay fallback — are converted to per-key entries
        (their folds are all-mergeable by construction)."""
        triples: list[tuple[int, tuple, KeyEntry | None]] = []
        for p in live:
            if p["mode"] == "bulk":
                counts = np.asarray(p["epochs"]).tolist()
                columns = [
                    (col, [(var, np.asarray(arr).tolist())
                           for var, arr in per_var.items()])
                    for col, per_var in p["merged"].items()
                ]
                rows = p["keys"]
                klist = list(zip(*(rows[:, j].tolist()
                                   for j in range(rows.shape[1]))))
                for g, key in enumerate(klist):
                    entry = KeyEntry(
                        merged={col: {var: vals[g] for var, vals in items}
                                for col, items in columns},
                        epochs=counts[g])
                    triples.append((p["first_pos"][g], key, entry))
            else:
                entries = p["entries"]
                for key, fp in zip(p["keys_list"], p["first_pos"]):
                    triples.append((fp, key, entries.get(key)))
        triples.sort(key=lambda t: t[0])
        backing = BackingStore(self.stage.folds, params=self.params)
        backing.writes = self.writes
        data = backing.data
        keys_list = []
        for _, key, entry in triples:
            keys_list.append(key)
            if entry is not None:
                data[key] = entry
        self.backing = backing
        self.keys_list = keys_list

    # -- observables ---------------------------------------------------------

    def table(self, include_invalid: bool = False) -> ResultTable:
        if self.backing is not None:
            return build_result_table(self.stage, self.backing,
                                      self.keys_list, self.params,
                                      include_invalid=include_invalid)
        try:
            return self._bulk_table()
        except VectorizationError:
            return build_result_table(self.stage, self.backing_store(),
                                      self.keys_list, self.params,
                                      include_invalid=include_invalid)

    def _bulk_table(self) -> ResultTable:
        n_groups = len(self.keys_list)
        out: dict[str, np.ndarray] = {
            field: self.keys[:, j]
            for j, field in enumerate(self.stage.key.fields)
        }
        for col in self.stage.output.columns:
            if col.kind == "agg":
                out[col.name] = self.merged[col.fold][col.state_var]
            elif col.kind == "derived":
                dctx = ArrayContext({}, self.params, n_groups,
                                    state=self.merged[col.fold])
                with np.errstate(divide="ignore", invalid="ignore"):
                    out[col.name] = as_column(
                        eval_array(col.read_expr, dctx), n_groups)
        return ResultTable.from_columns(self.stage.output, out)

    def backing_store(self) -> BackingStore:
        """Real per-key store surface (materialised on demand on the
        bulk path, the union store itself otherwise)."""
        if self.backing is not None:
            return self.backing
        if self._mat is None:
            backing = BackingStore(self.stage.folds, params=self.params)
            backing.writes = self.writes
            columns = [
                (col, [(var, arr.tolist()) for var, arr in per_var.items()])
                for col, per_var in self.merged.items()
            ]
            counts = np.asarray(self.epochs).tolist()
            data = backing.data
            for g, key in enumerate(self.keys_list):
                data[key] = KeyEntry(
                    merged={col: {var: vals[g] for var, vals in items}
                            for col, items in columns},
                    epochs=counts[g])
            self._mat = backing
        return self._mat


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
        self._final: _Combined | None = None
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

    def process(self, record: object) -> None:
        from repro.telemetry.diagnostics import exc_message

        raise HardwareError(exc_message("RPR-E006"))

    def process_keyed(self, key, record: object) -> None:
        self.process(record)

    # -- observables ---------------------------------------------------------

    def finalize(self) -> None:
        """Finalize every shard concurrently and combine (idempotent).
        The pool outlives this call — the pipeline closes it once every
        stage has combined."""
        if self._finalized:
            return
        self._finalized = True
        payloads = self._pool.call_all("finalize", {"stage": self._index})
        self._final = _Combined(self.stage, self.params, payloads)

    def result_table(self, include_invalid: bool = False) -> ResultTable:
        self.finalize()
        return self._final.table(include_invalid=include_invalid)

    @property
    def stats(self) -> CacheStats:
        if self._final is not None:
            return self._final.stats
        return _sum_stats(
            self._pool.call_all("stats", {"stage": self._index}))

    @property
    def backing(self) -> BackingStore:
        self.finalize()
        return self._final.backing_store()

    @property
    def backing_writes(self) -> int:
        self.finalize()
        return self._final.writes

    def accuracy(self) -> float:
        self.finalize()
        return self._final.accuracy

    def eviction_fraction(self) -> float:
        return self.stats.eviction_fraction

    def snapshot(self, include_invalid: bool = False) -> StoreSnapshot:
        """Mid-stream combined observables: every worker snapshots its
        store (running whatever it buffered as one window, with or
        without a ``window``), and the payloads combine exactly like
        the final ones."""
        if self._final is not None:
            return StoreSnapshot(
                table=self._final.table(include_invalid=include_invalid),
                stats=self._final.stats,
                backing_writes=self._final.writes,
                accuracy=self._final.accuracy)
        combined = _Combined(
            self.stage, self.params,
            self._pool.call_all("snapshot", {"stage": self._index}))
        return StoreSnapshot(
            table=combined.table(include_invalid=include_invalid),
            stats=combined.stats, backing_writes=combined.writes,
            accuracy=combined.accuracy)
