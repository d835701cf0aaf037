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
program's software stages over the collected results.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from repro.core.errors import (
    CheckpointError,
    CompileError,
    HardwareError,
    InterpreterError,
)
from repro.core.eval_expr import Numeric
from repro.core.interpreter import ResultTable, Row
from repro.core.plan import GroupByStage, SelectStage, SwitchProgram
from repro.core.vector_exec import (
    ArrayContext,
    VectorizationError,
    as_column,
    eval_array,
    eval_mask,
)
from repro.network.records import ColumnRowView, ObservationTable

from .alu import compile_predicate, compile_scalar
from .kvstore.cache import ENGINES, CacheGeometry, CacheStats
from .kvstore.split import SplitKeyValueStore
from .kvstore.windowed_store import WindowedVectorStore
from .parser_model import ParserConfig, configure_parser

#: Chunk size for the batch execution path: large enough to amortise
#: the per-chunk vector work, small enough to keep the per-chunk Python
#: lists cache-friendly.
DEFAULT_CHUNK_SIZE = 1 << 16

#: Default cache geometry: the paper's target configuration — 32 Mbit
#: at 128 bits/pair is 2^18 pairs, 8-way associative (§4).
DEFAULT_GEOMETRY = CacheGeometry.set_associative(1 << 18, ways=8)

GeometrySpec = CacheGeometry | Mapping[str, CacheGeometry]


#: Per-chunk row views for the per-packet fallbacks (shared helper —
#: see :class:`repro.network.records.ColumnRowView`).
_ColumnRow = ColumnRowView


class _LazyRowLists:
    """Per-chunk column→list conversion, deferred until a stage
    actually needs per-packet row views.

    The vector-store path never does, so fully vectorized runs skip
    the per-chunk ``tolist`` round trip entirely; row-path stages and
    vectorization fallbacks materialise once per chunk, exactly like
    the previous eager behaviour.
    """

    __slots__ = ("_chunk", "_fields", "_lists")

    def __init__(self, chunk: Mapping[str, np.ndarray],
                 fields: tuple[str, ...]):
        self._chunk = chunk
        self._fields = fields
        self._lists: dict[str, list] | None = None

    def materialize(self) -> dict[str, list]:
        if self._lists is None:
            self._lists = {name: self._chunk[name].tolist()
                           for name in self._fields}
        return self._lists


class _SelectRunner:
    """Per-packet filter + projection stage."""

    def __init__(self, stage: SelectStage, params: Mapping[str, Numeric]):
        self.stage = stage
        self.params = params
        self.predicate = compile_predicate(stage.where, params)
        self.extractors: list[tuple[str, Callable]] = [
            (col.name, compile_scalar(col.expr, params)) for col in stage.columns
        ]
        self.rows: list[Row] = []

    def process(self, record: object) -> None:
        if not self.predicate(record):
            return
        self.rows.append({name: fn(record) for name, fn in self.extractors})

    def process_batch(self, ctx: ArrayContext, rows: _LazyRowLists) -> None:
        """Vectorized chunk: one mask evaluation plus one array
        expression per output column, instead of per-packet calls."""
        try:
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
        except VectorizationError:
            row_lists = rows.materialize()
            for i in range(ctx.n):
                self.process(_ColumnRow(row_lists, i))
            return
        self.rows.extend(dict(zip(names, values)) for values in zip(*data))

    def result_table(self) -> ResultTable:
        return ResultTable(schema=self.stage.output, rows=self.rows)


class _GroupByRunner:
    """Match stage + split key-value store.

    The ``engine`` knob selects the store implementation on the batch
    path: ``"row"`` streams per-packet through
    :class:`SplitKeyValueStore`; ``"vector"``/``"auto"`` feed the
    WHERE-filtered key/value columns to a
    :class:`~repro.switch.kvstore.windowed_store.WindowedVectorStore`,
    whose schedule-driven execution runs once per ``window`` (once per
    read without one; bit-identical results either way).  Streams the
    vector store cannot take (non-integer keys,
    unvectorizable predicates, missing columns) fall back to the row
    store — the mode is decided once, on the first chunk, and is
    deterministic across chunks.
    """

    def __init__(self, stage: GroupByStage, geometry: CacheGeometry,
                 params: Mapping[str, Numeric], policy: str, seed: int,
                 refresh_interval: int | None = None, engine: str = "auto",
                 window: int | None = None, shard_pool=None,
                 shard_index: int = 0):
        self.stage = stage
        self.params = params
        self.engine = engine
        self.window = window
        self.predicate = compile_predicate(stage.where, params)
        self._config = dict(params=params, policy=policy, seed=seed,
                            refresh_interval=refresh_interval)
        self._geometry = geometry
        self._sharded = shard_pool is not None
        if self._sharded:
            from .kvstore.sharded import ShardedStoreProxy

            self.store = ShardedStoreProxy(
                stage, shard_index, shard_pool, geometry,
                params=params, seed=seed)
        else:
            self.store = SplitKeyValueStore(stage, geometry, **self._config)
        self._mode: str | None = None

    def _make_vector_store(self) -> WindowedVectorStore:
        return WindowedVectorStore(self.stage, self._geometry,
                                   window=self.window, **self._config)

    def process(self, record: object) -> None:
        if self._sharded:
            self.store.process(record)        # raises with guidance
        if self._mode == "vector":
            raise HardwareError(
                "cannot mix per-record processing with vector-batch "
                "execution (the schedule-driven store takes column "
                "batches); build the pipeline with engine=\"row\" for "
                "mixed streaming"
            )
        self._mode = "row"
        if self.predicate(record):
            self.store.process(record)

    def _decide_mode(self, ctx: ArrayContext) -> str:
        if self._sharded:
            self._require_vector(ctx)
            return "vector"
        if self.engine == "row" or self.store.stats.accesses > 0:
            return "row"
        try:
            eval_mask(self.stage.where, ctx)
        except VectorizationError:
            return "row"
        columns = ctx.columns
        if not all(f in columns and columns[f].dtype.kind in "iub"
                   for f in self.stage.key.fields):
            return "row"
        vstore = self._make_vector_store()
        if not all(f in columns for f in vstore.needed_fields):
            return "row"
        self.store = vstore
        return "vector"

    def _require_vector(self, ctx: ArrayContext) -> None:
        """Sharded stages have no row fallback — the conditions
        ``"auto"`` would silently fall back on raise instead."""
        try:
            eval_mask(self.stage.where, ctx)
        except VectorizationError as exc:
            raise HardwareError(
                f"sharded execution needs a vectorizable WHERE for "
                f"stage {self.stage.query_name!r}: {exc}") from exc
        columns = ctx.columns
        bad = [f for f in self.stage.key.fields
               if f not in columns or columns[f].dtype.kind not in "iub"]
        if bad:
            raise HardwareError(
                f"sharded execution needs integer key columns; stage "
                f"{self.stage.query_name!r} is missing {bad[0]!r} (or it "
                f"is non-integer)")
        missing = [f for f in self.store.needed_fields if f not in columns]
        if missing:
            raise HardwareError(
                f"sharded execution is missing fold input column "
                f"{missing[0]!r} for stage {self.stage.query_name!r}")

    def process_batch(self, ctx: ArrayContext, rows: _LazyRowLists) -> None:
        """Chunk path: the WHERE mask and the key columns are extracted
        once per chunk.  Vector mode queues the filtered arrays for the
        schedule-driven store; row mode runs the sequential cache
        machinery per matching packet with pre-built keys."""
        if self._mode is None:
            self._mode = self._decide_mode(ctx)
        if self._mode == "vector":
            mask = eval_mask(self.stage.where, ctx)
            keys = np.column_stack([
                ctx.columns[f].astype(np.int64, copy=False)
                for f in self.stage.key.fields
            ])
            needed = self.store.needed_fields
            if mask is None:
                cols = {f: ctx.columns[f] for f in needed}
            else:
                sel = np.flatnonzero(mask)
                keys = keys[sel]
                cols = {f: ctx.columns[f][sel] for f in needed}
            self.store.add_batch(keys, cols)
            return
        try:
            mask = eval_mask(self.stage.where, ctx)
            key_columns = [
                ctx.columns[f].tolist() for f in self.stage.key.fields
            ]
        except (VectorizationError, KeyError):
            row_lists = rows.materialize()
            for i in range(ctx.n):
                self.process(_ColumnRow(row_lists, i))
            return
        row_lists = rows.materialize()
        indices = range(ctx.n) if mask is None else np.flatnonzero(mask).tolist()
        keys = zip(*key_columns)
        process_keyed = self.store.process_keyed
        if mask is None:
            for i, key in enumerate(keys):
                process_keyed(key, _ColumnRow(row_lists, i))
        else:
            keys = list(keys)
            for i in indices:
                process_keyed(keys[i], _ColumnRow(row_lists, i))


class SwitchPipeline:
    """One switch running one compiled program.

    Args:
        program: Output of :func:`repro.core.compiler.compile_program`.
        params: Bindings for the program's free parameters.
        geometry: Cache geometry for every ``GROUPBY`` stage, or a
            per-query-name mapping.
        policy: Cache eviction policy.
        seed: Hash seed.
        engine: Split-store execution engine for ``GROUPBY`` stages on
            the batch path — ``"vector"`` (schedule-driven
            :class:`~repro.switch.kvstore.windowed_store.WindowedVectorStore`),
            ``"row"`` (per-packet :class:`SplitKeyValueStore`), or
            ``"auto"`` (vector whenever the stream supports it).  Both
            engines produce bit-identical results, and both support
            :meth:`snapshot_results` mid-stream.
        window: Accesses per schedule execution of the vector store:
            the schedule runs every ``window`` accesses with carried
            state, bounding memory on unbounded streams.  ``None``
            (unbounded) buffers the stream and runs it as one window
            whenever an observable is read — the fastest schedule for a
            bounded trace.  Results are bit-identical for every window
            size.
        shards: When set, every ``GROUPBY`` stage fans out to a pool of
            ``shards`` worker processes partitioned by cache set
            (:mod:`repro.switch.kvstore.sharded`), each running the
            single-process engine over its key slice; observables are
            combined via the synthesized merges, bit-identical to the
            unsharded engines.  Stages with a non-mergeable fold route
            their whole stream to one shard (same results, one core).
            Requires the vector path (``engine`` ``"auto"``/
            ``"vector"``, batch ingestion) and no ``refresh_interval``
            (refresh epochs cut at global stream positions, which
            per-shard streams cannot see).
    """

    def __init__(
        self,
        program: SwitchProgram,
        params: Mapping[str, Numeric] | None = None,
        geometry: GeometrySpec = DEFAULT_GEOMETRY,
        policy: str = "lru",
        seed: int = 0,
        refresh_interval: int | None = None,
        engine: str = "auto",
        window: int | None = None,
        shards: int | None = None,
        checkpoint_every: int | None = None,
        faults=None,
    ):
        # Deferred import: the diagnostics table lives in the telemetry
        # layer, which imports this module at package-init time.
        from repro.telemetry.diagnostics import exc_message

        if engine not in ENGINES:
            raise HardwareError(
                exc_message("RPR-E008", engines=ENGINES, engine=engine))
        if window is not None and window <= 0:
            # Checked here (not just in the windowed store) so the row
            # engine — which streams regardless — rejects it too.
            raise HardwareError(exc_message("RPR-E004", window=window))
        if shards is not None:
            if shards < 1:
                raise HardwareError(exc_message("RPR-E005", shards=shards))
            if engine == "row":
                raise HardwareError(exc_message("RPR-E001"))
            if refresh_interval is not None:
                raise HardwareError(exc_message("RPR-E002"))
        self.program = program
        self.params = dict(params or {})
        missing = set(program.params) - set(self.params)
        if missing:
            raise InterpreterError(f"unbound query parameters: {sorted(missing)}")
        self.parser: ParserConfig = configure_parser(program.parse_fields)
        self._selects = [_SelectRunner(s, self.params) for s in program.select_stages]
        self._shard_pool = None
        if shards is not None and program.groupby_stages:
            from .kvstore.sharded import make_store_pool

            specs = [
                (s, self._geometry_for(s.query_name, geometry),
                 dict(params=self.params, policy=policy, seed=seed,
                      refresh_interval=None))
                for s in program.groupby_stages
            ]
            self._shard_pool = make_store_pool(
                specs, window, shards, checkpoint_every=checkpoint_every,
                faults=faults)
        self._groupbys = [
            _GroupByRunner(s, self._geometry_for(s.query_name, geometry),
                           self.params, policy, seed,
                           refresh_interval=refresh_interval, engine=engine,
                           window=window, shard_pool=self._shard_pool,
                           shard_index=i)
            for i, s in enumerate(program.groupby_stages)
        ]
        self.packets_seen = 0

    @staticmethod
    def _geometry_for(name: str, spec: GeometrySpec) -> CacheGeometry:
        if isinstance(spec, CacheGeometry):
            return spec
        if name not in spec:
            raise CompileError(f"no cache geometry supplied for stage {name!r}")
        return spec[name]

    # -- execution -----------------------------------------------------------

    def process(self, record: object) -> None:
        """Run one observation through every stage."""
        self.packets_seen += 1
        for select in self._selects:
            select.process(record)
        for groupby in self._groupbys:
            groupby.process(record)

    def run(self, records: Iterable[object],
            chunk_size: int = DEFAULT_CHUNK_SIZE) -> "SwitchPipeline":
        """Stream ``records`` through every stage.

        A columnar :class:`ObservationTable` takes the chunked batch
        path: per chunk, each stage's WHERE mask and key arrays are
        computed vectorized, and only the split store's sequential
        cache machinery runs per packet.  Any other iterable takes the
        per-record path.  Both paths produce identical results.
        """
        if isinstance(records, ObservationTable) and records.is_columnar:
            return self.run_batch(records, chunk_size=chunk_size)
        process = self.process
        for record in records:
            process(record)
        return self

    def run_batch(self, table: ObservationTable,
                  chunk_size: int = DEFAULT_CHUNK_SIZE) -> "SwitchPipeline":
        """Chunked batch execution over a columnar observation table."""
        columns = table.columns()
        n = len(table)
        # Only the fields the program parses are ever converted to
        # Python lists for the per-packet update functions (§3.1: the
        # programmable parser extracts exactly the configured fields) —
        # and only lazily, when a stage actually runs a per-packet
        # fallback; fully vectorized chunks never pay for the lists.
        fields = tuple(self.program.parse_fields) or tuple(columns)
        for lo in range(0, n, chunk_size):
            hi = min(lo + chunk_size, n)
            chunk = {name: arr[lo:hi] for name, arr in columns.items()}
            rows = _LazyRowLists(chunk, fields)
            ctx = ArrayContext(chunk, self.params, hi - lo)
            for select in self._selects:
                select.process_batch(ctx, rows)
            for groupby in self._groupbys:
                groupby.process_batch(ctx, rows)
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

        Every store answers ``snapshot()``: the row store absorbs
        copies of its resident entries, the vector store (and the
        sharded proxy over it) runs its buffered input as one window
        first — results do not depend on where windows cut.
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
        """Plain-data snapshot of every stage: accumulated select rows,
        each groupby runner's decided mode and store state (collected
        per worker over the shard fabric when sharded)."""
        state = {
            "packets_seen": self.packets_seen,
            "selects": [list(s.rows) for s in self._selects],
            "modes": [g._mode for g in self._groupbys],
            "sharded": self._shard_pool is not None,
        }
        if self._shard_pool is not None:
            state["workers"] = self._shard_pool.checkpoint_workers()
            state["proxy_pos"] = [g.store._pos for g in self._groupbys]
        else:
            state["stores"] = [
                g.store.checkpoint_state() if g._mode is not None else None
                for g in self._groupbys
            ]
        return state

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`checkpoint_state` payload into this (freshly
        constructed) pipeline."""
        if self.packets_seen:
            raise CheckpointError("restore target pipeline must be fresh")
        if (len(state["selects"]) != len(self._selects)
                or len(state["modes"]) != len(self._groupbys)):
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
            for g, pos, mode in zip(self._groupbys, state["proxy_pos"],
                                    state["modes"]):
                g.store._pos = pos
                g._mode = mode
        else:
            for g, store_state, mode in zip(self._groupbys, state["stores"],
                                            state["modes"]):
                g._mode = mode
                if store_state is None:
                    continue
                if mode == "vector":
                    g.store = g._make_vector_store()
                g.store.restore_state(store_state)

    def cache_stats(self) -> dict[str, CacheStats]:
        return {g.stage.query_name: g.store.stats for g in self._groupbys}

    def backing_writes(self) -> dict[str, int]:
        return {g.stage.query_name: g.store.backing_writes for g in self._groupbys}

    def store_for(self, query_name: str,
                  ) -> SplitKeyValueStore | WindowedVectorStore:
        for groupby in self._groupbys:
            if groupby.stage.query_name == query_name:
                return groupby.store
        raise KeyError(query_name)
