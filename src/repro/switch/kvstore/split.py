"""The split key-value store: SRAM cache + DRAM backing store (Fig. 3).

This is the execution engine for one compiled ``GROUPBY`` stage.  Per
packet (§3.2):

1. extract the aggregation key from the parsed headers;
2. look the key up in the on-chip cache — a hit *updates* the value in
   place, a miss *initialises* a fresh value (one operation per clock
   cycle either way);
3. if the insertion evicted a resident key, hand the evicted key-value
   pair to the backing store, which merges it (linear-in-state folds)
   or appends a value segment (others).

Results are read from the *backing store* — the paper notes the correct
value for linear folds "only resides in the backing store and cannot be
read from the cache" — so :meth:`SplitKeyValueStore.finalize` flushes
the cache before :meth:`result_table` builds the output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Iterable, Mapping

from repro.core.errors import CheckpointError, HardwareError
from repro.core.eval_expr import EvalContext, Numeric, evaluate
from repro.core.interpreter import ResultTable, Row
from repro.core.merge_synthesis import (
    AuxState,
    State,
    init_aux,
    note_post_prefix_state,
    update_aux,
)
from repro.core.plan import GroupByStage

from ..alu import compile_key_extractor, compile_update
from .backing import BackingStore
from .cache import CacheGeometry, CacheStats, Entry, KeyValueCache


@dataclass
class StoreSnapshot:
    """Mid-stream observable state of one store, as if the stream
    ended now (every store's ``snapshot()``)."""

    table: ResultTable
    stats: CacheStats
    backing_writes: int
    accuracy: float


@dataclass
class CacheValue:
    """Per-entry cache value: one state dict and one auxiliary-register
    dict per fold instance.

    ``dirty`` tracks whether the entry has absorbed any packet since it
    was last pushed to the backing store; clean entries are skipped on
    refresh/eviction/flush (their contribution is already merged, and
    pushing an all-initial value would add a spurious segment for
    non-mergeable folds).
    """

    states: dict[str, State]
    aux: dict[str, AuxState]
    dirty: bool = False


class SplitKeyValueStore:
    """Split cache/backing-store engine for one ``GROUPBY`` stage.

    Args:
        stage: Compiled stage (key layout, folds, merge specs).
        geometry: Cache geometry — capacity in key-value *pairs*.
        params: Query-parameter bindings, inlined into the ALU programs.
        policy: Cache eviction policy (paper: LRU).
        seed: Hash/RNG seed for reproducibility.
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
        self.refresh_interval = refresh_interval
        self._since_refresh = 0
        self.refreshes = 0
        self.cache: KeyValueCache[CacheValue] = KeyValueCache(
            geometry, policy=policy, seed=seed
        )
        self.backing = BackingStore(stage.folds, params=self.params)
        self._extract_key = compile_key_extractor(stage.key.fields)
        self._updates = {
            fold.column: compile_update(fold.alu.update_exprs, self.params)
            for fold in stage.folds
        }
        self._specs = {fold.column: fold.merge for fold in stage.folds}
        self._inits = {
            fold.column: fold.instance.initial_state() for fold in stage.folds
        }
        self._needs_aux = {
            column: (spec.strategy in ("scale", "matrix") or spec.exact_history)
            for column, spec in self._specs.items()
        }
        # Keys in first-access order (a key's first access is always a
        # miss, so recording on misses only keeps the hit path free of
        # bookkeeping).  This is the row order of :meth:`result_table`,
        # shared with the vectorized store, whose key factorization
        # produces exactly this first-occurrence order.
        self._seen: dict[Hashable, None] = {}
        self._finalized = False

    # -- per-packet path -----------------------------------------------------

    def process(self, record: object) -> None:
        """Run one (already filtered) packet through the store."""
        self.process_keyed(self._extract_key(record), record)

    def process_keyed(self, key: Hashable, record: object) -> None:
        """Run one packet whose aggregation key is already extracted —
        the batch path: the pipeline extracts key arrays per chunk, so
        per-packet work here is just the cache/store state machine."""
        if self._finalized:
            raise HardwareError("store already finalized")
        misses_before = self.cache.stats.misses
        entry, evicted = self.cache.access(key, self._fresh_value)
        if self.cache.stats.misses != misses_before:
            self._seen.setdefault(key)
        if evicted is not None:
            self._absorb(evicted)
        value = entry.value
        for column, update in self._updates.items():
            state = value.states[column]
            if self._needs_aux[column]:
                update_aux(self._specs[column], value.aux[column], state,
                           record, self.params)
            state.update(update(record, state))
            if self._specs[column].exact_history:
                note_post_prefix_state(self._specs[column], value.aux[column], state)
        value.dirty = True
        if self.refresh_interval is not None:
            self._since_refresh += 1
            if self._since_refresh >= self.refresh_interval:
                self.refresh()

    def _fresh_value(self) -> CacheValue:
        return CacheValue(
            states={c: dict(init) for c, init in self._inits.items()},
            aux={c: init_aux(spec) for c, spec in self._specs.items()},
        )

    def _absorb(self, entry: Entry[CacheValue]) -> None:
        if not entry.value.dirty:
            return
        self.backing.absorb(entry.key, entry.value.states, entry.value.aux)
        entry.value.dirty = False

    # -- periodic refresh (§3.2) -------------------------------------------------

    def refresh(self) -> None:
        """Push every resident entry's value to the backing store and
        reset it in place.

        §3.2: "keys can be periodically evicted to ensure the backing
        store is fresh, and monitoring applications can pull results
        from the backing store."  Resetting in place (state → initial,
        merge registers → identity) is observationally identical to
        evict-plus-immediate-reinsert but keeps the key resident, so
        the next packet still hits.

        For mergeable folds freshness is free of error; for
        non-mergeable folds each refresh starts a new value segment, so
        a refreshed key becomes *invalid* on its next push — intervals
        shorter than a key's lifetime trade validity for freshness.
        """
        self.refreshes += 1
        self._since_refresh = 0
        for entry in self.cache.entries():
            if not entry.value.dirty:
                continue
            self._absorb(entry)
            entry.value.states = {c: dict(init) for c, init in self._inits.items()}
            entry.value.aux = {c: init_aux(spec) for c, spec in self._specs.items()}

    # -- end of run -----------------------------------------------------------

    def finalize(self) -> None:
        """Flush the cache into the backing store (idempotent)."""
        if self._finalized:
            return
        for entry in self.cache.flush():
            self._absorb(entry)
        self._finalized = True

    def result_table(self, include_invalid: bool = False) -> ResultTable:
        """Materialise the stage output from the backing store.

        Rows for keys whose non-mergeable folds are invalid (multiple
        segments) are skipped unless ``include_invalid`` is set, in
        which case the *latest* segment is reported (it is correct over
        its own interval, §3.2).  Rows come out in first-access key
        order (the same order the reference interpreter produces).
        """
        self.finalize()
        return build_result_table(self.stage, self.backing, self._seen,
                                  self.params, include_invalid=include_invalid)

    def snapshot(self, include_invalid: bool = False) -> StoreSnapshot:
        """Observable state as if the stream ended now, without ending
        it: a copy of the backing store absorbs every resident *dirty*
        entry's value (the end-of-run backing state), and the table,
        writes and accuracy are read off that copy.  Streaming
        continues untouched."""
        backing = self.backing.clone()
        for entry in self.cache.entries():
            if entry.value.dirty:
                backing.absorb(entry.key, entry.value.states,
                               entry.value.aux)
        return StoreSnapshot(
            table=build_result_table(self.stage, backing, self._seen,
                                     self.params,
                                     include_invalid=include_invalid),
            stats=replace(self.cache.stats),
            backing_writes=backing.writes,
            accuracy=backing.accuracy,
        )

    # -- durable checkpoints -------------------------------------------------

    def checkpoint_state(self) -> dict:
        """Plain-data snapshot of the full engine state: per-bucket
        entries *in replacement order* (the OrderedDict order is the
        LRU/FIFO state), counters (incl. the random policy's per-bucket
        eviction counts — its RNG state), the backing store, and the
        first-access key order.  The vectorized per-bucket victim draw
        blocks are a pure-function cache and are rebuilt on demand."""
        if self._finalized:
            raise CheckpointError("cannot checkpoint a finalized store")
        cache = self.cache
        backing = self.backing.clone()
        return {
            "kind": "row",
            "buckets": [
                (i, [(e.key,
                      {c: dict(s) for c, s in e.value.states.items()},
                      {c: _copy_row_aux(a) for c, a in e.value.aux.items()},
                      e.value.dirty)
                     for e in bucket.values()])
                for i, bucket in enumerate(cache._buckets) if bucket
            ],
            "stats": replace(cache.stats),
            "evict_counts": dict(cache._evict_counts),
            "backing_data": backing.data,
            "backing_writes": backing.writes,
            "seen": list(self._seen),
            "since_refresh": self._since_refresh,
            "refreshes": self.refreshes,
        }

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`checkpoint_state` payload into this (freshly
        constructed) store.  Takes ownership of the payload's
        containers."""
        if state.get("kind") != "row":
            raise CheckpointError(
                f"store state mismatch: snapshot carries "
                f"{state.get('kind')!r}, expected 'row'")
        if self._finalized or self._seen or self.cache.stats.accesses:
            raise CheckpointError("restore target store must be fresh")
        cache = self.cache
        for i, entries in state["buckets"]:
            if i >= len(cache._buckets):
                raise CheckpointError(
                    f"snapshot bucket {i} exceeds the cache geometry "
                    f"({len(cache._buckets)} buckets)")
            bucket = cache._buckets[i]
            for key, states, aux, dirty in entries:
                bucket[key] = Entry(key=key, value=CacheValue(
                    states=states, aux=aux, dirty=dirty))
        cache.stats = state["stats"]
        cache._evict_counts = dict(state["evict_counts"])
        self.backing.data = state["backing_data"]
        self.backing.writes = state["backing_writes"]
        self._seen = dict.fromkeys(state["seen"])
        self._since_refresh = state["since_refresh"]
        self.refreshes = state["refreshes"]

    # -- statistics -------------------------------------------------------------

    @property
    def stats(self):
        return self.cache.stats

    @property
    def backing_writes(self) -> int:
        """Total backing-store writes so far (mirrors the vector
        store's surface, which avoids materialising the store)."""
        return self.backing.writes

    def accuracy(self) -> float:
        """Fig. 6 metric — fraction of keys whose value is valid."""
        self.finalize()
        return self.backing.accuracy


def _copy_row_aux(aux: AuxState) -> AuxState:
    """Copy auxiliary registers deeply enough that the live store
    cannot mutate the checkpointed copy (``update_aux`` mutates the
    ``P`` dict in place and appends to the log list; other entries are
    replaced, never mutated)."""
    out: AuxState = {}
    for name, value in aux.items():
        if isinstance(value, dict):
            out[name] = dict(value)
        elif isinstance(value, list):
            out[name] = list(value)
        else:
            out[name] = value
    return out


def build_result_table(stage: GroupByStage, backing: BackingStore,
                       keys: Iterable[Hashable],
                       params: Mapping[str, Numeric],
                       include_invalid: bool = False) -> ResultTable:
    """Materialise one ``GROUPBY`` stage's output from a (finalized)
    backing store — shared by the row and the vectorized store engines.

    ``keys`` fixes the row order (first-access order for both engines).
    """
    out = ResultTable(schema=stage.output)
    key_fields = stage.key.fields
    for key in keys:
        row: Row = dict(zip(key_fields, key))
        valid = True
        for col in stage.output.columns:
            if col.kind == "agg":
                state = backing.value_of(key, col.fold)
                if state is None:
                    valid = False
                    segments = backing.segments_of(key, col.fold)
                    if segments:
                        row[col.name] = segments[-1][col.state_var]
                    continue
                row[col.name] = state[col.state_var]
            elif col.kind == "derived":
                state = backing.value_of(key, col.fold)
                if state is None:
                    valid = False
                    continue
                row[col.name] = evaluate(
                    col.read_expr, EvalContext(state=state, params=params)
                )
        if valid or include_invalid:
            out.rows.append(row)
    return out
