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

A deployment has one form: :meth:`NetworkDeployment.open` yields a
:class:`NetworkSession` holding one in-process
:class:`~repro.telemetry.session.TelemetrySession` per switch.  Batches
are columnized at the door and routed to the owning switch;
``results()``/``close()`` combine the per-switch reports, and one
checkpoint carries every switch session.  :meth:`NetworkDeployment.run`
is the one-shot wrapper.  Every switch runs the vector engine; a
deployment has no ``engine`` knob (the row reference is one-shot, see
:mod:`repro.reference`).

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
from repro.telemetry.checkpoint import pack_checkpoint
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
            :class:`repro.telemetry.runtime.QueryEngine`.
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

    def open(self, window: int | None = None) -> "NetworkSession":
        """Open one in-process streaming session per switch, each with
        the same ``window``; batches ingested into the returned
        :class:`NetworkSession` are routed to the switch owning each
        observation's queue.  The most recently opened session backs
        :meth:`cache_stats`.

        A bad ``window`` raises ``RPR-E004`` here, before any switch
        session opens."""
        self._session = NetworkSession(self, SessionConfig(window=window))
        return self._session

    def resume(self, snapshot: bytes) -> "NetworkSession":
        """Rebuild a mid-stream network session from a
        :meth:`NetworkSession.checkpoint` byte string — the deployment
        (program, params, geometry, ``window``, *and topology*) must
        match the one that saved it."""
        payload = self.engine._unpack_checkpoint(snapshot, "network")
        session = self.open(window=payload["window"])
        if list(session.sessions) != payload["switches"]:
            raise CheckpointError(
                "checkpoint was taken on a different topology (the "
                "switch set does not match); resume on the same "
                "simulated network")
        for switch, sess_payload in payload["sessions"].items():
            session.sessions[switch]._restore_payload(sess_payload)
        return session

    def run(self, records: Iterable[PacketRecord]) -> NetworkRunReport:
        """One-shot wrapper over :meth:`open`: route each observation
        to the switch owning its queue, then collect and combine
        results."""
        return self.open().ingest(records).close()

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


class NetworkSession:
    """Streaming ingest across a deployment's switches: one in-process
    :class:`TelemetrySession` per switch, batches routed by queue
    ownership, reports combined exactly like the one-shot path."""

    def __init__(self, deployment: NetworkDeployment, config: SessionConfig):
        self.deployment = deployment
        self.config = config
        self._broken: str | None = None
        self._broken_cause: BaseException | None = None
        self.sessions: dict[str, TelemetrySession] = {
            switch: deployment.engine.open(window=config.window)
            for switch in deployment.simulator.topology.switches()
        }
        owners = deployment._queue_owner
        index = {s: i for i, s in enumerate(self.sessions)}
        self._owner_index = np.full(max(owners, default=-1) + 1, -1,
                                    dtype=np.int64)
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

        The columnized batch is split by one composite sort of
        ``(owner, position)`` and one ``searchsorted`` for the switch
        segment bounds, whatever the fabric size.  The low sort bits
        are arrival positions, so each switch sees its segment in
        arrival order, as per-switch ``owner == i`` masking would."""
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
            # trusted (per-switch SessionError poisoning already
            # covers the switch that raised).
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
            sorted_owner, np.arange(len(self.sessions) + 1))
        for i, session in enumerate(self.sessions.values()):
            lo, hi = bounds[i], bounds[i + 1]
            if hi > lo:
                sel = positions[lo:hi]
                session.ingest(ObservationTable.from_arrays(
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
            raise SessionError(
                f"closing a broken network session (an earlier "
                f"ingest() failed: {self._broken}); its partial state "
                f"was discarded — open a new session, or resume from "
                f"the last checkpoint()") from self._broken_cause
        for switch, session in self.sessions.items():
            if switch not in self._switch_reports:
                self._switch_reports[switch] = session.close()
        report = self._combine(self._switch_reports)
        self._closed = True
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
        return pack_checkpoint({
            "kind": "network",
            "config": self.deployment.engine._config_fingerprint(),
            "window": self.config.window,
            "switches": list(self.sessions),
            "sessions": {
                switch: session._checkpoint_payload()
                for switch, session in self.sessions.items()
            },
        })

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
