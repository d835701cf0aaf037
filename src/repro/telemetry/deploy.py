"""Network-wide query deployment: one pipeline per switch.

The language is defined over observations from *every* queue in the
network (§2), but each physical switch only sees its own queues.  This
module deploys a compiled program onto every switch of a simulated
network — each switch runs its own cache + backing store over its local
observations — and combines per-switch results in the collection layer:

* **cross-switch-combinable folds** — those whose state update is
  *commutative across streams* (identity matrix ``A``, i.e. counters
  and sums, even history-dependent ones like ``outofseq``): per-switch
  values are merged additively into one network-wide row per key, which
  is exact regardless of how a flow's packets interleaved across
  switches;
* everything else (EWMA and other order-dependent folds, non-linear
  folds): the network-wide value depends on the cross-switch packet
  order, which no per-switch decomposition preserves, so results stay
  *per (key, switch)* — still exactly what an operator wants for
  "which queue hurts this flow".

Execution rides the same :class:`~repro.telemetry.session.TelemetrySession`
protocol as single-switch runs: :meth:`NetworkDeployment.open` yields a
:class:`NetworkSession` holding one per-switch session; batches are
columnized at the door and routed to the owning switch, and
``results()``/``close()`` combine the per-switch reports.
:meth:`NetworkDeployment.run` is the one-shot wrapper over it.  Every
path of a deployment opens sessions, so every switch runs the vector
engine; a deployment has no ``engine`` knob (the row reference is
one-shot, see :mod:`repro.reference`).

This mirrors the paper's deployment story (queries are installed on
switches; results are pulled from backing stores) one step further
than the single-switch evaluation of §4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.core.ast_nodes import Program
from repro.core.errors import CheckpointError, SessionClosedError, SessionError
from repro.core.eval_expr import Numeric
from repro.core.interpreter import ResultTable, Row
from repro.network.records import ObservationTable, PacketRecord, as_table
from repro.network.simulator import NetworkSimulator
from repro.switch.pipeline import DEFAULT_GEOMETRY, GeometrySpec, SessionConfig
from repro.telemetry.runtime import QueryEngine
from repro.telemetry.session import TelemetrySession


@dataclass
class NetworkRunReport:
    """Results of a network-wide deployment."""

    combined: dict[str, ResultTable]       # query -> network-wide table
    per_switch: dict[str, dict[str, ResultTable]]  # switch -> query -> table
    combinable: dict[str, bool]            # query -> combined exactly?

    def result(self, query_name: str) -> ResultTable:
        return self.combined[query_name]


class NetworkDeployment:
    """Installs one compiled program on every switch of a topology.

    Args:
        source: Query text or a built :class:`Program`.
        simulator: The network whose switches observe traffic.  Each
            switch is identified by its node name; observations are
            routed to the switch owning the observed queue.
        params, geometry, policy, seed, exact_history: as in
            :class:`repro.telemetry.runtime.QueryEngine`.  Every path
            of a deployment opens sessions, so it runs the vector
            engine.
    """

    def __init__(
        self,
        source: str | Program,
        simulator: NetworkSimulator,
        params: Mapping[str, Numeric] | None = None,
        geometry: GeometrySpec = DEFAULT_GEOMETRY,
        policy: str = "lru",
        seed: int = 0,
        exact_history: bool = False,
    ):
        self.engine = QueryEngine(source, params=params, geometry=geometry,
                                  policy=policy, seed=seed,
                                  exact_history=exact_history)
        self.resolved = self.engine.resolved
        self.compiled = self.engine.compiled
        self.params = self.engine.params
        self.simulator = simulator
        self._queue_owner = {
            qid: edge[0] for edge, qid in simulator.topology._qids.items()
        }
        self._session: NetworkSession | None = None

    # -- execution -----------------------------------------------------------

    def open(self, window: int | None = None,
             shards: int | None = None,
             checkpoint_every: int | None = None,
             faults=None) -> "NetworkSession":
        """Open one streaming session per switch; batches ingested into
        the returned :class:`NetworkSession` are routed to the switch
        owning each observation's queue.  The most recently opened
        session backs :meth:`cache_stats`.

        ``shards`` runs the per-switch sessions in that many worker
        processes, one switch per shard round-robin — the switch is the
        natural sharding unit: its session already owns a disjoint
        slice of the observation stream (queue ownership), and
        :meth:`NetworkSession.ingest`'s composite sort routes to it
        unchanged.  Per-switch reports — and therefore the combined
        report — are bit-identical to the unsharded deployment.

        ``checkpoint_every`` enables shard-worker crash recovery and
        ``faults`` threads a deterministic fault injector into the
        transport, exactly as in :meth:`QueryEngine.open`.

        A bad ``window`` or ``shards`` raises its ``RPR-E00x`` code
        here, before any worker forks.  Placing whole switches on
        workers is not cache-set sharding, so the knobs are checked
        against the engine's defaults: ``refresh_interval``
        (``RPR-E002``) still shards by switch."""
        config = SessionConfig(window=window, shards=shards,
                               checkpoint_every=checkpoint_every,
                               faults=faults)
        self._session = NetworkSession(self, config)
        return self._session

    def resume(self, snapshot: bytes,
               checkpoint_every: int | None = None,
               faults=None) -> "NetworkSession":
        """Rebuild a mid-stream network session from a
        :meth:`NetworkSession.checkpoint` byte string — the deployment
        (program, params, geometry, knobs, *and topology*) must match
        the one that saved it."""
        payload = self.engine._unpack_checkpoint(snapshot, "network")
        session = self.open(window=payload["window"],
                            shards=payload["shards"],
                            checkpoint_every=checkpoint_every,
                            faults=faults)
        if session._switch_order != payload["switches"]:
            raise CheckpointError(
                "checkpoint was taken on a different topology (the "
                "switch set does not match); resume on the same "
                "simulated network")
        if payload["sharded"]:
            if session._pool is None:
                raise CheckpointError(
                    "snapshot was taken with a sharded deployment; "
                    "resume with the same shards= setting")
            session._pool.restore_workers(payload["workers"])
        else:
            if session._pool is not None:
                raise CheckpointError(
                    "snapshot was taken without shards; resume with "
                    "shards=None")
            for switch, sess_payload in payload["sessions"].items():
                session.sessions[switch]._restore_payload(sess_payload)
        self._session = session
        return session

    def run(self, records: Iterable[PacketRecord]) -> NetworkRunReport:
        """One-shot wrapper over :meth:`open`: route each observation
        to the switch owning its queue, then collect and combine
        results."""
        session = self.open()
        session.ingest(records)
        return session.close()

    # -- combination ------------------------------------------------------------

    @staticmethod
    def _stage_combinable(stage) -> bool:
        """Exact cross-switch combination requires every fold's ``A``
        to be the identity (stream-commutative accumulation)."""
        return all(f.linearity.linear and f.linearity.matrix_kind == "identity"
                   for f in stage.folds)

    def _combine_additive(self, stage, per_switch) -> ResultTable:
        key_fields = stage.key.fields
        inits = {
            f.column: f.instance.initial_state() for f in stage.folds
        }
        merged_rows: dict[tuple, Row] = {}
        for tables in per_switch.values():
            for row in tables[stage.query_name].rows:
                key = tuple(row[k] for k in key_fields)
                target = merged_rows.get(key)
                if target is None:
                    merged_rows[key] = dict(row)
                    continue
                for col in stage.output.columns:
                    if col.kind != "agg":
                        continue
                    init = inits[col.fold].get(col.state_var, 0)
                    target[col.name] += row[col.name] - init
        out = ResultTable(schema=stage.output)
        out.rows = list(merged_rows.values())
        return out

    @staticmethod
    def _tag_per_switch(stage, per_switch) -> ResultTable:
        """Non-combinable stages: union of rows with a ``switch``
        column appended (per-queue truth, not a network total)."""
        out = ResultTable(schema=stage.output)
        for switch, tables in per_switch.items():
            for row in tables[stage.query_name].rows:
                tagged = dict(row)
                tagged["switch"] = switch
                out.rows.append(tagged)
        return out

    # -- statistics -------------------------------------------------------------

    def cache_stats(self) -> dict[str, dict[str, object]]:
        """Counters of the most recently opened session ( ``{}`` before
        any :meth:`open`).  Once that session is closed this raises
        :class:`~repro.core.errors.SessionClosedError` like every other
        post-close read — final counters live on the close() reports."""
        if self._session is None:
            return {}
        return self._session.cache_stats()


class _NetworkShardRole:
    """Worker-side role of a sharded network deployment: runs the
    (unsharded) :class:`TelemetrySession` of every switch assigned to
    this worker.  The engine object is inherited at fork — compiled
    programs and closures ship for free, nothing is pickled."""

    def __init__(self, engine: QueryEngine, config: SessionConfig):
        self._engine = engine
        self._config = config
        self._sessions: dict[str, TelemetrySession] = {}
        self._reports: dict[str, object] = {}

    def _session(self, switch: str) -> TelemetrySession:
        session = self._sessions.get(switch)
        if session is None:
            session = self._engine.open(window=self._config.window)
            self._sessions[switch] = session
        return session

    def handle(self, op: str, meta, arrays):
        switch = meta["switch"]
        if op == "ingest_cols":
            self._session(switch).ingest(ObservationTable.from_arrays(arrays))
            return None
        if op == "results":
            return self._session(switch).results()
        if op == "close":
            # Idempotent so a partially-failed NetworkSession.close()
            # retry re-collects already-finalized switches.
            report = self._reports.get(switch)
            if report is None:
                report = self._session(switch).close()
                self._reports[switch] = report
            return report
        if op == "cache_stats":
            return self._session(switch).cache_stats()
        raise ValueError(f"unknown network shard op {op!r}")

    # -- durable checkpoints (pool-internal __checkpoint__/__restore__) ------

    def checkpoint(self) -> dict:
        """Plain-data snapshot of every switch session living in this
        worker, plus any already-collected close() reports (so a crash
        mid-close keeps its idempotency).  Closed sessions carry no
        state — their contribution is the stored final report."""
        return {
            "sessions": {switch: session._checkpoint_payload()
                         for switch, session in self._sessions.items()
                         if not session.closed},
            "reports": dict(self._reports),
        }

    def restore(self, state: dict) -> None:
        for switch, payload in state["sessions"].items():
            session = self._engine.open(window=self._config.window)
            session._restore_payload(payload)
            self._sessions[switch] = session
        self._reports = dict(state["reports"])
        return None


class _RemoteSwitchSession:
    """Parent-side handle of one switch's session living in a shard
    worker — the same surface :class:`NetworkSession` drives on
    in-process :class:`TelemetrySession` objects."""

    def __init__(self, pool, worker: int, switch: str):
        self._pool = pool
        self._worker = worker
        self._switch = switch

    def ingest(self, batch: ObservationTable) -> "_RemoteSwitchSession":
        self._pool.post(self._worker, "ingest_cols",
                        {"switch": self._switch}, batch.columns())
        return self

    def results(self):
        return self._pool.call(self._worker, "results",
                               {"switch": self._switch})

    def submit_close(self):
        return self._pool.submit(self._worker, "close",
                                 {"switch": self._switch})

    def cache_stats(self):
        return self._pool.call(self._worker, "cache_stats",
                               {"switch": self._switch})


class NetworkSession:
    """Streaming ingest across a deployment's switches: one
    :class:`TelemetrySession` per switch, batches routed by queue
    ownership, reports combined exactly like the one-shot path.

    With ``shards`` the per-switch sessions run inside a
    :class:`~repro.telemetry.shard_exec.ShardWorkerPool`, one switch
    per worker round-robin; all routing, combining, and close/retry
    semantics are unchanged (a dead worker surfaces as
    :class:`~repro.telemetry.shard_exec.ShardError`).
    """

    def __init__(self, deployment: NetworkDeployment, config: SessionConfig):
        self.deployment = deployment
        self.config = config
        switches = list(deployment.simulator.topology.switches())
        self._pool = None
        self._broken: str | None = None
        self._broken_cause: BaseException | None = None
        if config.shards is not None and switches:
            from repro.telemetry.shard_exec import ShardWorkerPool

            n_workers = min(config.shards, len(switches))
            self._pool = ShardWorkerPool(
                [_NetworkShardRole(deployment.engine, config)
                 for _ in range(n_workers)],
                name="netshard", checkpoint_every=config.checkpoint_every,
                faults=config.faults)
            self.sessions = {
                switch: _RemoteSwitchSession(self._pool, i % n_workers,
                                             switch)
                for i, switch in enumerate(switches)
            }
        else:
            self.sessions: dict[str, TelemetrySession] = {
                switch: deployment.engine.open(window=config.window)
                for switch in switches
            }
        self._switch_order = list(self.sessions)
        owners = deployment._queue_owner
        max_qid = max(owners, default=-1)
        index = {s: i for i, s in enumerate(self._switch_order)}
        self._owner_index = np.full(max_qid + 1, -1, dtype=np.int64)
        for qid, owner in owners.items():
            self._owner_index[qid] = index[owner]
        self._closed = False
        #: Per-switch close() reports already collected — close() is
        #: retryable after a partial failure (a later switch's close
        #: raising must not orphan the ones that already finalized).
        self._switch_reports: dict[str, object] = {}

    def __enter__(self) -> "NetworkSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Mirrors TelemetrySession.__exit__: close only on clean exit,
        # never suppress an in-flight exception.
        if not self._closed and exc_type is None:
            self.close()
        return False

    # -- ingestion ------------------------------------------------------------

    def ingest(self, batch: Iterable[object]) -> "NetworkSession":
        """Route one batch of observations (any form
        :func:`~repro.network.records.as_table` accepts) to the owning
        switches; observations from unmonitored queues are dropped, as
        in the one-shot path.

        The batch is columnized at the door, then split with a
        **single** composite sort of ``(owner, position)`` plus one
        ``searchsorted`` for the per-switch segment bounds — one pass
        over the batch regardless of fabric size, instead of one
        boolean mask per switch.  The low sort bits are the arrival
        positions, so each switch's segment is in arrival order: the
        split is bit-identical to per-switch ``owner == i`` masking."""
        if self._closed:
            raise SessionClosedError(
                "network session is closed; open a new one with "
                "NetworkDeployment.open()")
        self._check_broken()
        if self._switch_reports:
            raise SessionClosedError(
                "network session is partially closed (an earlier "
                "close() failed midway); retry close() instead of "
                "ingesting")
        try:
            return self._route(as_table(batch))
        except Exception as exc:
            # Fail fast: some switches may have absorbed the batch and
            # others not, so the combined view can no longer be
            # trusted (per-switch ShardError/SessionError poisoning
            # already covers the switch that raised).
            self._broken = f"{type(exc).__name__}: {exc}"
            self._broken_cause = exc
            raise

    def _check_broken(self) -> None:
        if self._broken is not None:
            raise SessionError(
                f"network session is broken — an earlier ingest() "
                f"failed ({self._broken}) after routing part of a "
                f"batch; close() this session and open a new one (or "
                f"resume from the last checkpoint() with "
                f"NetworkDeployment.resume())") from self._broken_cause

    def _route(self, batch: ObservationTable) -> "NetworkSession":
        if not len(self._owner_index):
            return self            # no monitored queues
        columns = batch.columns()
        qid = columns["qid"]
        valid = (qid >= 0) & (qid < len(self._owner_index))
        clipped = np.clip(qid, 0, len(self._owner_index) - 1)
        owner = np.where(valid, self._owner_index[clipped], -1)
        comp = (owner << np.int64(32)) | np.arange(len(owner), dtype=np.int64)
        comp.sort()
        sorted_owner = comp >> np.int64(32)        # -1 first (unmonitored)
        positions = comp & np.int64(0xFFFFFFFF)
        bounds = np.searchsorted(
            sorted_owner, np.arange(len(self._switch_order) + 1))
        for i, switch in enumerate(self._switch_order):
            lo, hi = bounds[i], bounds[i + 1]
            if hi > lo:
                sel = positions[lo:hi]
                self.sessions[switch].ingest(ObservationTable.from_arrays(
                    {name: arr[sel] for name, arr in columns.items()}))
        return self

    # -- results --------------------------------------------------------------

    def results(self) -> NetworkRunReport:
        """Combined mid-stream snapshot of every switch session (with
        or without a ``window``, on every engine).  Raises
        :class:`~repro.core.errors.SessionClosedError` once closed,
        like :class:`~repro.telemetry.session.TelemetrySession`; the
        final report is the one :meth:`close` returned."""
        if self._closed:
            raise SessionClosedError(
                "network session is closed; the final report is the "
                "close() return value")
        self._check_broken()
        # After a partial close() failure, already-finalized switches
        # answer from their stored final reports (their sessions would
        # raise); the rest snapshot live.
        return self._combine({
            switch: self._switch_reports.get(switch) or session.results()
            for switch, session in self.sessions.items()
        })

    def close(self) -> NetworkRunReport:
        """Close every per-switch session and return the combined
        final report; any further call raises
        :class:`~repro.core.errors.SessionClosedError`.

        If one switch's close fails, the already-finalized switches'
        reports are kept and a retry resumes with the remaining
        sessions instead of tripping over the closed ones."""
        if self._closed:
            raise SessionClosedError("network session is already closed")
        if self._broken is not None:
            self._closed = True
            if self._pool is not None:
                self._pool.close()
            raise SessionError(
                f"closing a broken network session (an earlier "
                f"ingest() failed: {self._broken}); its partial state "
                f"was discarded — open a new session, or resume from "
                f"the last checkpoint()") from self._broken_cause
        if self._pool is not None:
            # Submit every pending close before collecting the first
            # result so the switch finalizations run concurrently
            # across the shard workers (the worker-side close is
            # idempotent, preserving partial-failure retries).
            handles = {
                switch: session.submit_close()
                for switch, session in self.sessions.items()
                if switch not in self._switch_reports
            }
            for switch, handle in handles.items():
                self._switch_reports[switch] = self._pool.result(handle)
        else:
            for switch, session in self.sessions.items():
                if switch not in self._switch_reports:
                    self._switch_reports[switch] = session.close()
        report = self._combine(self._switch_reports)
        self._closed = True
        if self._pool is not None:
            self._pool.close()
        return report

    def _combine(self, reports) -> NetworkRunReport:
        deployment = self.deployment
        on_switch = [s.query_name for s in
                     deployment.compiled.select_stages +
                     deployment.compiled.groupby_stages]
        per_switch = {
            switch: {name: report.tables[name] for name in on_switch}
            for switch, report in reports.items()
        }
        combined: dict[str, ResultTable] = {}
        combinable: dict[str, bool] = {}
        for stage in deployment.compiled.groupby_stages:
            name = stage.query_name
            combinable[name] = deployment._stage_combinable(stage)
            if combinable[name]:
                combined[name] = deployment._combine_additive(stage, per_switch)
            else:
                combined[name] = deployment._tag_per_switch(stage, per_switch)
        for stage in deployment.compiled.select_stages:
            merged = ResultTable(schema=stage.output)
            for tables in per_switch.values():
                merged.rows.extend(tables[stage.query_name].rows)
            combined[stage.query_name] = merged
            combinable[stage.query_name] = True
        return NetworkRunReport(combined=combined, per_switch=per_switch,
                                combinable=combinable)

    # -- durable checkpoints ---------------------------------------------------

    def checkpoint(self) -> bytes:
        """Serialize every per-switch session into one composite,
        checksummed checkpoint.  Feed it to
        :meth:`NetworkDeployment.resume` on an identically configured
        deployment (same program, knobs, and topology) to continue the
        stream bit-identically; the session itself keeps streaming."""
        if self._closed:
            raise SessionClosedError(
                "network session is closed; there is no state left to "
                "checkpoint")
        self._check_broken()
        if self._switch_reports:
            raise SessionError(
                "network session is partially closed (an earlier "
                "close() failed midway); retry close() instead of "
                "checkpointing")
        from repro.telemetry.checkpoint import pack_checkpoint

        payload = {
            "kind": "network",
            "config": self.deployment.engine._config_fingerprint(),
            "window": self.config.window,
            "shards": self.config.shards,
            "switches": list(self._switch_order),
            "sharded": self._pool is not None,
        }
        if self._pool is not None:
            payload["workers"] = self._pool.checkpoint_workers()
        else:
            payload["sessions"] = {
                switch: session._checkpoint_payload()
                for switch, session in self.sessions.items()
            }
        return pack_checkpoint(payload)

    # -- statistics ------------------------------------------------------------

    def cache_stats(self) -> dict[str, dict[str, object]]:
        """Per-switch, per-stage cache counters so far.  Raises
        :class:`~repro.core.errors.SessionClosedError` once closed
        (consistent with every other post-close read)."""
        if self._closed:
            raise SessionClosedError(
                "network session is closed; read cache stats before "
                "close(), or from the per-switch close() reports")
        return {
            switch: (self._switch_reports[switch].cache_stats
                     if switch in self._switch_reports
                     else session.cache_stats())
            for switch, session in self.sessions.items()
        }
