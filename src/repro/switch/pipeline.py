"""Switch pipeline model: executes a compiled program over a packet
stream (paper §3.1-3.2).

The pipeline mirrors a match-action architecture [Bosshart et al.,
SIGCOMM'13]: the parser extracts the configured fields, ``WHERE``
predicates run as match stages, per-packet ``SELECT`` stages mirror
matching records to the collection layer, and each ``GROUPBY`` stage
drives one split key-value store.

One :class:`SwitchPipeline` models one switch.  The telemetry runtime
(:mod:`repro.telemetry`) installs pipelines on the simulated network's
switches, streams observations through them, and evaluates the
program's software stages over the collected results.  Every
``GROUPBY`` stage runs the schedule-driven vector store (or the
sharded proxy over it); the per-packet
:class:`~repro.switch.kvstore.split.SplitKeyValueStore` is the one-shot
reference of :mod:`repro.reference`, never a session store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from repro.core.errors import (
    CheckpointError,
    CompileError,
    InterpreterError,
    SessionConfigError,
)
from repro.core.eval_expr import Numeric
from repro.core.interpreter import ResultTable, Row
from repro.core.plan import GroupByStage, SelectStage, SwitchProgram
from repro.core.vector_exec import ArrayContext, as_column, eval_array, eval_mask
from repro.network.records import as_table

from .kvstore.cache import CacheGeometry, CacheStats
from .kvstore.windowed_store import WindowedVectorStore
from .parser_model import ParserConfig, configure_parser

#: Chunk size for the batch execution path: large enough to amortise
#: the per-chunk vector work, small enough to keep each chunk's
#: temporaries cache-friendly.
DEFAULT_CHUNK_SIZE = 1 << 16

#: Default cache geometry: the paper's target configuration — 32 Mbit
#: at 128 bits/pair is 2^18 pairs, 8-way associative (§4).
DEFAULT_GEOMETRY = CacheGeometry.set_associative(1 << 18, ways=8)

GeometrySpec = CacheGeometry | Mapping[str, CacheGeometry]


@dataclass(frozen=True)
class SessionConfig:
    """Every knob that shapes one telemetry session, validated once.

    Engine-level knobs (set by ``QueryEngine(...)``):

    * ``geometry``: cache geometry for every ``GROUPBY`` stage, or a
      per-query-name mapping.
    * ``policy``: cache eviction policy; ``seed``: cache hash seed.
    * ``refresh_interval``: push cache values to the backing store
      every this many packets (§3.2 freshness).

    Per-session knobs (set by ``QueryEngine.open``):

    * ``window``: accesses per schedule execution of the vector store,
      which then runs every ``window`` accesses with carried state and
      bounded memory.  ``None`` (unbounded) buffers the stream and runs
      it as one window whenever an observable is read — the fastest
      schedule for a bounded trace.  Results are bit-identical for
      every window size, and mid-stream snapshots work either way.
    * ``shards``: fan every ``GROUPBY`` stage out to this many worker
      processes partitioned by cache set
      (:mod:`repro.switch.kvstore.sharded`) and combine them via the
      synthesized merges, bit-identical to one process.  Stages with a
      non-mergeable fold route their whole stream to one shard.  Needs
      no ``refresh_interval``: refresh epochs cut at global stream
      positions, which per-shard streams cannot see.
    * ``checkpoint_every``: sharded sessions only — a per-worker role
      checkpoint every this many shard posts, which enables crash
      recovery (see :class:`~repro.telemetry.shard_exec.ShardWorkerPool`).
    * ``faults``: a :class:`~repro.telemetry.faults.FaultInjector` for
      deterministic fault injection.

    Building one is the only place the session rules run: a bad
    combination raises :class:`SessionConfigError` with the code and
    wording of :func:`repro.core.analyze.session_diagnostics`.
    """

    geometry: GeometrySpec = DEFAULT_GEOMETRY
    policy: str = "lru"
    seed: int = 0
    refresh_interval: int | None = None
    window: int | None = None
    shards: int | None = None
    checkpoint_every: int | None = None
    faults: Any = None

    def __post_init__(self) -> None:
        # Deferred import: the analyzer imports the telemetry layer,
        # which imports this module at package-init time.
        from repro.core.analyze import session_diagnostics

        errors = session_diagnostics(
            window=self.window, shards=self.shards,
            refresh_interval=self.refresh_interval)
        if errors:
            raise SessionConfigError(f"[{errors[0].code}] {errors[0].message}")

    def fingerprint(self) -> dict:
        """Plain-data identity of the engine-level knobs — what a
        checkpoint records and a resume must match."""
        if isinstance(self.geometry, CacheGeometry):
            geom = self.geometry.describe()
        else:
            geom = {name: g.describe()
                    for name, g in sorted(self.geometry.items())}
        return {"geometry": geom, "policy": self.policy, "seed": self.seed,
                "refresh_interval": self.refresh_interval}


def geometry_for(name: str, spec: GeometrySpec) -> CacheGeometry:
    """The cache geometry of stage ``name`` under ``spec``."""
    if isinstance(spec, CacheGeometry):
        return spec
    if name not in spec:
        raise CompileError(f"no cache geometry supplied for stage {name!r}")
    return spec[name]


def bind_params(program: SwitchProgram,
                params: Mapping[str, Numeric] | None) -> dict[str, Numeric]:
    """``params`` as a dict, after the checks every run of ``program``
    makes before any store is built: every free parameter is bound,
    and no store is allocated for a key the hardware cannot parse
    (``RPR-E302``)."""
    # Deferred import, as in SessionConfig.
    from repro.core.analyze import require_integer_keys

    bound = dict(params or {})
    missing = set(program.params) - set(bound)
    if missing:
        raise InterpreterError(f"unbound query parameters: {sorted(missing)}")
    require_integer_keys(program.groupby_stages)
    return bound


class _SelectRunner:
    """Per-packet filter + projection stage, evaluated per chunk: one
    mask evaluation plus one array expression per output column."""

    def __init__(self, stage: SelectStage, params: Mapping[str, Numeric]):
        self.stage = stage
        self.params = params
        self.rows: list[Row] = []

    def process_batch(self, ctx: ArrayContext) -> None:
        mask = eval_mask(self.stage.where, ctx)
        if mask is None:
            sel_ctx = ctx
        else:
            sel = np.flatnonzero(mask)
            sel_ctx = ArrayContext(
                {name: arr[sel] for name, arr in ctx.columns.items()},
                self.params, len(sel),
            )
        names = [col.name for col in self.stage.columns]
        data = [
            as_column(eval_array(col.expr, sel_ctx), sel_ctx.n).tolist()
            for col in self.stage.columns
        ]
        self.rows.extend(dict(zip(names, values)) for values in zip(*data))

    def result_table(self) -> ResultTable:
        return ResultTable(schema=self.stage.output, rows=self.rows)


class _GroupByRunner:
    """Match stage + split key-value store.

    Feeds the WHERE-filtered key/value columns to a
    :class:`~repro.switch.kvstore.windowed_store.WindowedVectorStore`
    (or to the sharded proxy over one per worker), whose
    schedule-driven execution runs once per ``window`` (once per read
    without one; bit-identical results either way).  Key columns are
    integers by construction: the analyzer rejects a non-integer key
    field (``RPR-E302``) before any store is built.
    """

    def __init__(self, stage: GroupByStage, geometry: CacheGeometry,
                 params: Mapping[str, Numeric], config: SessionConfig,
                 shard_pool=None, shard_index: int = 0):
        self.stage = stage
        if shard_pool is not None:
            from .kvstore.sharded import ShardedStoreProxy

            self.store = ShardedStoreProxy(
                stage, shard_index, shard_pool, geometry,
                params=params, seed=config.seed)
        else:
            self.store = WindowedVectorStore(
                stage, geometry, params=params, policy=config.policy,
                seed=config.seed, refresh_interval=config.refresh_interval,
                window=config.window)

    def process_batch(self, ctx: ArrayContext) -> None:
        """Chunk path: the WHERE mask and the key columns are extracted
        once per chunk, and the filtered arrays are queued for the
        schedule-driven store."""
        mask = eval_mask(self.stage.where, ctx)
        keys = np.column_stack([ctx.columns[f] for f in self.stage.key.fields])
        needed = self.store.needed_fields
        if mask is None:
            cols = {f: ctx.columns[f] for f in needed}
        else:
            sel = np.flatnonzero(mask)
            keys = keys[sel]
            cols = {f: ctx.columns[f][sel] for f in needed}
        self.store.add_batch(keys, cols)


class SwitchPipeline:
    """One switch running one compiled program.

    Args:
        program: Output of :func:`repro.core.compiler.compile_program`.
        params: Bindings for the program's free parameters.
        config: Every execution knob — geometry, policy, seed, refresh
            interval, window, shards, shard recovery and fault
            injection; see :class:`SessionConfig`.
    """

    def __init__(
        self,
        program: SwitchProgram,
        params: Mapping[str, Numeric] | None = None,
        config: SessionConfig | None = None,
    ):
        config = SessionConfig() if config is None else config
        self.config = config
        self.program = program
        self.params = bind_params(program, params)
        self.parser: ParserConfig = configure_parser(program.parse_fields)
        self._selects = [_SelectRunner(s, self.params) for s in program.select_stages]
        geometries = [geometry_for(s.query_name, config.geometry)
                      for s in program.groupby_stages]
        self._shard_pool = None
        if config.shards is not None and program.groupby_stages:
            from .kvstore.sharded import make_store_pool

            self._shard_pool = make_store_pool(
                list(zip(program.groupby_stages, geometries)), self.params,
                config)
        self._groupbys = [
            _GroupByRunner(s, geometry, self.params, config,
                           shard_pool=self._shard_pool, shard_index=i)
            for i, (s, geometry) in enumerate(zip(program.groupby_stages,
                                                  geometries))
        ]
        self.packets_seen = 0

    # -- execution -----------------------------------------------------------

    def run(self, records: Iterable[object]) -> "SwitchPipeline":
        """Stream ``records`` (any form
        :func:`~repro.network.records.as_table` accepts) through every
        stage in chunks of :data:`DEFAULT_CHUNK_SIZE`: per chunk, each
        stage's WHERE mask and key arrays are computed vectorized."""
        table = as_table(records)
        columns = table.columns()
        n = len(table)
        for lo in range(0, n, DEFAULT_CHUNK_SIZE):
            hi = min(lo + DEFAULT_CHUNK_SIZE, n)
            chunk = {name: arr[lo:hi] for name, arr in columns.items()}
            ctx = ArrayContext(chunk, self.params, hi - lo)
            for select in self._selects:
                select.process_batch(ctx)
            for groupby in self._groupbys:
                groupby.process_batch(ctx)
            self.packets_seen += hi - lo
        return self

    def finalize(self) -> None:
        for groupby in self._groupbys:
            groupby.store.finalize()
        if self._shard_pool is not None:
            # Every sharded stage has combined its payloads; the
            # workers are no longer needed (idempotent).
            self._shard_pool.close()

    def release(self) -> None:
        """Release the shard workers *without* finalizing the stores —
        the teardown path for broken sessions, where finalizing
        half-ingested state would compute untrustworthy results."""
        if self._shard_pool is not None:
            self._shard_pool.close()

    # -- results ---------------------------------------------------------------

    def results(self, include_invalid: bool = False) -> dict[str, ResultTable]:
        """On-switch stage outputs, keyed by query name.  ``GROUPBY``
        outputs come from the backing store (after a flush)."""
        self.finalize()
        out: dict[str, ResultTable] = {}
        for select in self._selects:
            out[select.stage.query_name] = select.result_table()
        for groupby in self._groupbys:
            out[groupby.stage.query_name] = groupby.store.result_table(
                include_invalid=include_invalid
            )
        return out

    def snapshot_results(self, include_invalid: bool = False) -> tuple[
            dict[str, ResultTable], dict[str, CacheStats],
            dict[str, int], dict[str, float]]:
        """Mid-stream observables — ``(tables, cache stats, backing
        writes, accuracy)`` as if the stream ended now — without
        finalizing; streaming can continue afterwards.

        The vector store (and the sharded proxy over it) runs its
        buffered input as one window first — results do not depend on
        where windows cut.
        """
        tables: dict[str, ResultTable] = {}
        stats: dict[str, CacheStats] = {}
        writes: dict[str, int] = {}
        accuracy: dict[str, float] = {}
        for select in self._selects:
            tables[select.stage.query_name] = ResultTable(
                schema=select.stage.output, rows=list(select.rows))
        for groupby in self._groupbys:
            name = groupby.stage.query_name
            snap = groupby.store.snapshot(include_invalid=include_invalid)
            tables[name] = snap.table
            stats[name] = snap.stats
            writes[name] = snap.backing_writes
            accuracy[name] = snap.accuracy
        return tables, stats, writes, accuracy

    # -- durable checkpoints -------------------------------------------------

    def checkpoint_state(self) -> dict:
        """Plain-data snapshot of every stage: accumulated select rows
        and each groupby runner's store state (collected per worker
        over the shard fabric when sharded)."""
        state = {
            "packets_seen": self.packets_seen,
            "selects": [list(s.rows) for s in self._selects],
            "sharded": self._shard_pool is not None,
        }
        if self._shard_pool is not None:
            state["workers"] = self._shard_pool.checkpoint_workers()
            state["proxy_pos"] = [g.store._pos for g in self._groupbys]
        else:
            state["stores"] = [g.store.checkpoint_state()
                               for g in self._groupbys]
        return state

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`checkpoint_state` payload into this (freshly
        constructed) pipeline."""
        if self.packets_seen:
            raise CheckpointError("restore target pipeline must be fresh")
        groupbys = (state["proxy_pos"] if state["sharded"]
                    else state["stores"])
        if (len(state["selects"]) != len(self._selects)
                or len(groupbys) != len(self._groupbys)):
            raise CheckpointError(
                "snapshot stage layout does not match the compiled program")
        if state["sharded"] != (self._shard_pool is not None):
            raise CheckpointError(
                "snapshot was taken with a different shards= setting; "
                "resume with the same shard count it was saved with")
        self.packets_seen = state["packets_seen"]
        for select, rows in zip(self._selects, state["selects"]):
            select.rows = list(rows)
        if self._shard_pool is not None:
            self._shard_pool.restore_workers(state["workers"])
            for g, pos in zip(self._groupbys, state["proxy_pos"]):
                g.store._pos = pos
        else:
            for g, store_state in zip(self._groupbys, state["stores"]):
                g.store.restore_state(store_state)

    def cache_stats(self) -> dict[str, CacheStats]:
        return {g.stage.query_name: g.store.stats for g in self._groupbys}

    def backing_writes(self) -> dict[str, int]:
        return {g.stage.query_name: g.store.backing_writes for g in self._groupbys}

    def store_for(self, query_name: str) -> WindowedVectorStore:
        for groupby in self._groupbys:
            if groupby.stage.query_name == query_name:
                return groupby.store
        raise KeyError(query_name)
