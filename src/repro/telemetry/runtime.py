"""End-to-end telemetry runtime: the system a network operator uses.

Ties the whole reproduction together (the paper's Fig. 3 workflow plus
the compiler it leaves as future work):

1. parse + resolve + compile the query text;
2. install the compiled program on a (simulated) switch pipeline with a
   configured cache geometry;
3. stream an observation table through the pipeline;
4. pull on-switch results from the backing store, then evaluate the
   program's *software stages* (downstream composed queries, joins)
   over them;
5. expose results, cache/eviction statistics, and an optional exact
   ground truth: the same pipeline on a cache that never evicts.

Typical use::

    from repro import telemetry
    engine = telemetry.QueryEngine('''
        R1 = SELECT COUNT GROUPBY 5tuple
        R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity
        R3 = SELECT R2.COUNT/R1.COUNT FROM R1 JOIN R2 ON 5tuple
    ''')
    report = engine.run(table)
    report.result.rows
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from repro.core.ast_nodes import Program
from repro.core.compiler import CompileOptions, compile_program
from repro.core.errors import (
    CheckpointError,
    HardwareError,
    SessionConfigError,
)
from repro.core.eval_expr import Numeric
from repro.core.interpreter import Interpreter, ResultTable
from repro.core.parser import parse_program
from repro.core.plan import SwitchProgram
from repro.core.semantics import ResolvedProgram, resolve_program
from repro.core.vector_exec import ArrayContext, VectorExecutor, eval_mask
from repro.network.records import ObservationTable, as_table
from repro.reference import run_reference
from repro.switch.kvstore.cache import (
    ENGINES,
    CacheGeometry,
    CacheStats,
    simulate_eviction_count,
)
from repro.switch.pipeline import DEFAULT_GEOMETRY, GeometrySpec, SessionConfig
from repro.telemetry.diagnostics import DiagnosticsReport, exc_message
from repro.telemetry.session import TelemetrySession

#: Checkpoint kind -> the call that resumes it.
_RESUMED_BY = {"session": "QueryEngine.resume()",
               "network": "NetworkDeployment.resume()"}


@dataclass
class RunReport:
    """Everything one run produced."""

    tables: dict[str, ResultTable]
    result_name: str
    cache_stats: dict[str, CacheStats]
    backing_writes: dict[str, int]
    accuracy: dict[str, float]          # per groupby stage (% valid keys)
    ground_truth: dict[str, ResultTable] | None = None

    @property
    def result(self) -> ResultTable:
        return self.tables[self.result_name]

    def eviction_fractions(self) -> dict[str, float]:
        return {name: s.eviction_fraction for name, s in self.cache_stats.items()}


@dataclass(frozen=True)
class CachePlanPoint:
    """One candidate cache size for one ``GROUPBY`` stage: the exact
    counters the stage's cache would produce on the given workload."""

    query: str
    geometry: CacheGeometry
    policy: str
    pair_bits: int
    stats: CacheStats

    @property
    def eviction_fraction(self) -> float:
        return self.stats.eviction_fraction

    @property
    def mbits(self) -> float:
        """Cache SRAM for this geometry at the stage's pair width."""
        return self.geometry.capacity * self.pair_bits / (1 << 20)

    def writes_per_second(self, packet_rate: float | None = None) -> float:
        """Backing-store write rate this size implies (defaults to the
        §4 datacenter packet rate)."""
        from repro.switch.area import evictions_per_second

        return evictions_per_second(self.eviction_fraction,
                                    packet_rate=packet_rate)


@dataclass(frozen=True)
class QueryInfo:
    """Static facts about a compiled query (for operators and tests)."""

    params: frozenset[str]
    on_switch_stages: tuple[str, ...]
    software_stages: tuple[str, ...]
    linear_by_fold: dict[str, bool]
    pair_bits: dict[str, int]

    @property
    def fully_linear(self) -> bool:
        return all(self.linear_by_fold.values())


class QueryEngine:
    """Compile once, run on many traces.

    Args:
        source: Query text (or a pre-parsed :class:`Program`).
        params: Parameter bindings (``alpha``, ``L``, ...).
        exact_history: Enable the exact-history merge extension.
        geometry, policy, seed, refresh_interval: The engine-level
            knobs of :class:`~repro.switch.pipeline.SessionConfig`,
            which documents each.
        engine: ``"vector"`` (and ``"auto"``, the same engine) runs
            every call on the schedule-driven vector store and the
            vectorized executor; ``"row"`` is the one-shot reference
            (:mod:`repro.reference`: the per-packet store and the
            interpreter), which answers :meth:`run`, :meth:`run_exact`
            and :meth:`plan_cache` only — :meth:`open`,
            :meth:`resume` and :meth:`serve` raise ``[RPR-E001]``.
            Both give bit-identical results; an unknown ``engine``
            raises ``[RPR-E008]`` here.
    """

    def __init__(
        self,
        source: str | Program,
        params: Mapping[str, Numeric] | None = None,
        geometry: GeometrySpec = DEFAULT_GEOMETRY,
        policy: str = "lru",
        exact_history: bool = False,
        seed: int = 0,
        refresh_interval: int | None = None,
        engine: str = "auto",
    ):
        if engine not in ENGINES:
            raise SessionConfigError(exc_message(
                "RPR-E008", engines=ENGINES, engine=engine))
        #: True on the one-shot row reference (``engine="row"``).
        self.reference = engine == "row"
        #: The engine-level knobs; :meth:`open` sets the session ones.
        self.config = SessionConfig(
            geometry=geometry, policy=policy, seed=seed,
            refresh_interval=refresh_interval)
        program = parse_program(source) if isinstance(source, str) else source
        self.resolved: ResolvedProgram = resolve_program(program)
        self.compiled: SwitchProgram = compile_program(
            self.resolved, CompileOptions(exact_history=exact_history)
        )
        self.params = dict(params or {})
        self._interpreter: Interpreter | None = None
        self._vector: VectorExecutor | None = None
        #: Compile-time deployability report for the program as
        #: configured (no session knobs); :meth:`diagnostics` re-runs
        #: the analysis for a specific session shape.
        self.diagnostics_report: DiagnosticsReport = self.diagnostics()

    # -- introspection -------------------------------------------------------

    def info(self) -> QueryInfo:
        linear = {}
        pair_bits = {}
        for stage in self.compiled.groupby_stages:
            for fold in stage.folds:
                linear[f"{stage.query_name}/{fold.column}"] = fold.linearity.linear
            pair_bits[stage.query_name] = stage.pair_bits
        return QueryInfo(
            params=self.compiled.params,
            on_switch_stages=tuple(
                s.query_name for s in
                self.compiled.select_stages + self.compiled.groupby_stages
            ),
            software_stages=tuple(
                s.query.name for s in self.compiled.software_stages
            ),
            linear_by_fold=linear,
            pair_bits=pair_bits,
        )

    def describe_plan(self) -> str:
        return self.compiled.describe()

    def analyze(self, *, window: int | None = None,
                shards: int | None = None, trace_bounds=None,
                area_budget: float | None = None):
        """Run the compile-time deployability analysis
        (:func:`repro.core.analyze.analyze_program`) for this engine's
        configuration plus the given session knobs; returns a
        :class:`~repro.core.analyze.ProgramAnalysis`."""
        from repro.core.analyze import DEFAULT_AREA_BUDGET, analyze_program

        return analyze_program(
            self.compiled, self.resolved, params=self.params,
            geometry=self.config.geometry, window=window, shards=shards,
            refresh_interval=self.config.refresh_interval,
            trace_bounds=trace_bounds,
            area_budget=(DEFAULT_AREA_BUDGET if area_budget is None
                         else area_budget),
        )

    def diagnostics(self, **kwargs) -> DiagnosticsReport:
        """The :class:`DiagnosticsReport` of :meth:`analyze` — the
        structured record of every deployability verdict, with stable
        codes (see ``DIAGNOSTICS.md``)."""
        return self.analyze(**kwargs).report

    # -- engine selection ------------------------------------------------------

    def _row_engine(self) -> Interpreter:
        if self._interpreter is None:
            self._interpreter = Interpreter(self.resolved, params=self.params)
        return self._interpreter

    def _vector_engine(self) -> VectorExecutor:
        if self._vector is None:
            self._vector = VectorExecutor(self.resolved, params=self.params)
        return self._vector

    def _executor(self) -> Interpreter | VectorExecutor:
        """The software-stage executor, by the ``engine`` knob alone:
        the interpreter is the ``"row"`` oracle, everything else runs
        vectorized (input is always columnar below the door)."""
        if self.reference:
            return self._row_engine()
        return self._vector_engine()

    def _require_session(self) -> None:
        """``[RPR-E001]`` on the row reference, before any session
        state is built or shard worker forked."""
        if self.reference:
            raise SessionConfigError(exc_message("RPR-E001"))

    def _require_deployable(self, **knobs) -> DiagnosticsReport:
        """The :meth:`diagnostics` report for ``knobs``; its first hard
        error (``RPR-E*``) raised as :class:`HardwareError`."""
        report = self.diagnostics(**knobs)
        error = report.first_error
        if error is not None:
            raise HardwareError(f"[{error.code}] {error.message}")
        return report

    # -- execution -------------------------------------------------------------

    def open(self, window: int | None = None,
             shards: int | None = None,
             checkpoint_every: int | None = None,
             faults=None) -> TelemetrySession:
        """Open a streaming :class:`~repro.telemetry.session.TelemetrySession`
        — the execution protocol every entry point compiles down to:
        repeated :meth:`~TelemetrySession.ingest` calls, optional
        mid-stream :meth:`~TelemetrySession.results` snapshots, one
        :meth:`~TelemetrySession.close`.

        The arguments are the per-session knobs of
        :class:`~repro.switch.pipeline.SessionConfig`, which documents
        each; :meth:`run` opens with none (unbounded window).

        Every hard diagnostic (``RPR-E*``, see ``DIAGNOSTICS.md``) is
        raised here — before any session state is allocated or shard
        worker forked — with the same code and wording the CLI ``lint``
        command and served ``REJECT`` frames report.
        """
        self._require_session()
        config = replace(self.config, window=window, shards=shards,
                         checkpoint_every=checkpoint_every, faults=faults)
        report = self._require_deployable(window=window, shards=shards)
        session = TelemetrySession(self, config)
        session.diagnostics = report
        return session

    def serve(self, **kwargs):
        """Build a live ingest front end over this engine: a
        long-running socket service whose named sessions are
        :meth:`open`-ed on demand, with per-session backpressure,
        admission control, optional load shedding, auto-checkpointing,
        and graceful drain (see
        :class:`~repro.telemetry.serve.IngestServer` for every knob).
        Call :meth:`~repro.telemetry.serve.IngestServer.start` (or
        ``run_forever()``) on the returned server."""
        from .serve import IngestServer

        server = IngestServer(self, **kwargs)
        server.diagnostics = self.diagnostics_report
        return server

    def resume(self, snapshot: bytes,
               checkpoint_every: int | None = None,
               faults=None) -> TelemetrySession:
        """Rebuild a mid-stream session from a
        :meth:`TelemetrySession.checkpoint` byte string.

        The engine must be configured identically to the one that
        saved the snapshot (queries, params, geometry, policy, seed,
        refresh knob) — the snapshot carries a configuration
        fingerprint and a mismatch raises
        :class:`~repro.core.errors.CheckpointError`.  The resumed
        session continues the stream exactly where the checkpoint was
        taken: feed it the remaining records (everything after
        ``session.packets_ingested``) and its results are bit-identical
        to a run that never stopped."""
        self._require_session()
        payload = self._unpack_checkpoint(snapshot, "session")
        config = replace(self.config, window=payload["window"],
                         shards=payload["shards"],
                         checkpoint_every=checkpoint_every, faults=faults)
        session = TelemetrySession(self, config)
        session.diagnostics = self.diagnostics(
            window=config.window, shards=config.shards)
        session._restore_payload(payload)
        return session

    def _unpack_checkpoint(self, snapshot: bytes, kind: str) -> dict:
        """The payload of a ``kind`` checkpoint (``"session"`` or
        ``"network"``) that an identically configured engine saved;
        anything else raises
        :class:`~repro.core.errors.CheckpointError`."""
        from .checkpoint import unpack_checkpoint

        payload = unpack_checkpoint(snapshot)
        found = payload.get("kind")
        if found != kind:
            if found in _RESUMED_BY:
                raise CheckpointError(
                    f"this is a {found} checkpoint, not a {kind} one; "
                    f"resume it with {_RESUMED_BY[found]}")
            raise CheckpointError(
                f"not a {kind} checkpoint (kind={found!r})")
        if payload.get("config") != self._config_fingerprint():
            raise CheckpointError(
                "checkpoint was produced by a differently configured "
                "engine (queries, params, geometry, policy, seed, and "
                "the refresh knob must all match); resume on "
                "an engine configured like the one that saved it")
        return payload

    def _config_fingerprint(self) -> dict:
        """Plain-data identity of everything that shapes session
        results — embedded in checkpoints and compared on resume."""
        return {
            "plan": self.compiled.describe(),
            "result": self.compiled.result,
            "params": sorted(self.params.items()),
            **self.config.fingerprint(),
        }

    def run(
        self,
        records: Iterable[object],
        include_invalid: bool = False,
        with_ground_truth: bool = False,
    ) -> RunReport:
        """One-shot convenience over :meth:`open`: stream ``records``
        (any form :func:`~repro.network.records.as_table` accepts)
        through a fresh session and collect every query's result
        (hardware + software stages).

        The input is columnized once, at the door; the run and the
        optional ground truth share that one table.  On
        ``engine="row"`` the one-shot reference
        (:func:`repro.reference.run_reference`) runs instead of a
        session, over the same columns and behind the same
        :meth:`open` gate.
        """
        records = as_table(records)
        if self.reference:
            self._require_deployable()
            report = run_reference(self, records, self.config,
                                   include_invalid=include_invalid)
        else:
            session = self.open()
            session.ingest(records)
            report = session.close(include_invalid=include_invalid)
        if with_ground_truth:
            report.ground_truth = self.run_exact(records)
        return report

    def run_exact(self, records: Iterable[object]) -> dict[str, ResultTable]:
        """Exact evaluation: :meth:`run` on the engine the ``engine``
        knob selects, over a cache that never evicts.

        The backing store only ever sees evicted values (§3.2), so
        with one fully associative slot per record every key is
        written once, by the final flush, and every fold — linear or
        not — is exact.  Policy and seed cannot matter without an
        eviction; ``"lru"`` keeps the vector schedule on its array
        path.  No refresh pushes either: a push is a merge, and merges
        reassociate floating-point folds.  The ``open()`` area gate is
        skipped, since this cache is never deployed; ``RPR-E302`` is
        raised by the pipeline as on every session."""
        table = as_table(records)
        config = replace(
            self.config, policy="lru", refresh_interval=None, window=None,
            shards=None, geometry=CacheGeometry.fully_associative(
                max(1, len(table))))
        if self.reference:
            return run_reference(self, table, config).tables
        session = TelemetrySession(self, config)
        session.ingest(table)
        return session.close().tables

    # -- deploy-time cache planning ---------------------------------------------

    def plan_cache(
        self,
        records,
        capacities: Iterable[int],
        ways: int = 8,
    ) -> dict[str, list[CachePlanPoint]]:
        """Size the on-chip store before deploying: exact cache
        counters per ``GROUPBY`` stage for each candidate capacity.

        This is the §4 methodology as an operator tool: the stage's key
        stream is extracted from ``records`` once (WHERE mask + key
        columns), then each candidate geometry is simulated with the
        engine the ``engine`` knob selects — under ``"auto"`` /
        ``"vector"`` the array-native
        :class:`~repro.switch.kvstore.vector_cache.VectorCacheSim`,
        which shares layout work across the capacity sweep.  The
        predicted counters are bit-identical to what :meth:`run` with
        the same geometry/policy/seed would report, at a fraction of
        the cost (no value updates, no backing store).

        ``ways`` mirrors the CLI: 0 = fully associative, 1 = hash
        table, otherwise ``ways``-way set-associative.
        """
        from repro.core.analyze import require_integer_keys

        require_integer_keys(self.compiled.groupby_stages)
        capacities = list(capacities)
        table = as_table(records)
        plans: dict[str, list[CachePlanPoint]] = {}
        for stage in self.compiled.groupby_stages:
            keys = self._stage_key_stream(stage, table)
            if self.reference:
                key_list = [tuple(row) for row in keys.tolist()]
                stats_for = lambda g: simulate_eviction_count(  # noqa: E731
                    key_list, g, policy=self.config.policy,
                    seed=self.config.seed, engine="row")
            else:
                from repro.switch.kvstore.vector_cache import VectorCacheSim

                sim = VectorCacheSim(keys, seed=self.config.seed)
                stats_for = lambda g: sim.stats(  # noqa: E731
                    g, policy=self.config.policy)
            plans[stage.query_name] = [
                CachePlanPoint(
                    query=stage.query_name,
                    geometry=geometry,
                    policy=self.config.policy,
                    pair_bits=stage.pair_bits,
                    stats=stats_for(geometry),
                )
                for geometry in (self._plan_geometry(c, ways)
                                 for c in capacities)
            ]
        return plans

    @staticmethod
    def _plan_geometry(capacity: int, ways: int) -> CacheGeometry:
        if ways == 0:
            return CacheGeometry.fully_associative(capacity)
        if ways == 1:
            return CacheGeometry.hash_table(capacity)
        return CacheGeometry.set_associative(capacity, ways=ways)

    def _stage_key_stream(self, stage, table: ObservationTable):
        """The exact sequence of aggregation keys one stage's cache
        sees: WHERE-filtered, in arrival order, as a 2-D int64 array
        (one column per key field)."""
        columns = table.columns()
        mask = eval_mask(stage.where,
                         ArrayContext(columns, self.params, len(table)))
        keys = np.column_stack([columns[f].astype(np.int64, copy=False)
                                for f in stage.key.fields])
        return keys if mask is None else keys[mask]


def run(source: str, records: Iterable[object],
        params: Mapping[str, Numeric] | None = None,
        geometry: GeometrySpec = DEFAULT_GEOMETRY, **kwargs) -> RunReport:
    """One-shot convenience: build an engine and run it."""
    return QueryEngine(source, params=params, geometry=geometry, **kwargs).run(records)
