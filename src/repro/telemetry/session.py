"""Streaming telemetry sessions: the single execution protocol of the
runtime.

The paper's runtime monitors live switch traffic continuously; a
:class:`TelemetrySession` is the long-lived handle that matches that
shape — open once, then::

    session = engine.open(window=1 << 17)
    for batch in capture:              # any batch; columnized at the door
        session.ingest(batch)
        if time_to_report():
            print(session.results().result.rows)   # mid-stream snapshot
    report = session.close()                       # final RunReport

Every entry point of the runtime compiles down to one of these
sessions: :meth:`QueryEngine.run` is open–ingest–close,
:meth:`QueryEngine.run_exact` is the same session on a cache that
never evicts (the paper's §3.2 split store is exact for every key it
never evicts, linear fold or not), and
:class:`~repro.telemetry.deploy.NetworkDeployment` drives one session
per switch — exact, hardware, and network-wide paths share this one
code path.

Batches stream through a :class:`~repro.switch.pipeline.SwitchPipeline`,
whose ``GROUPBY`` stages run the windowed vector split store: with
``window`` set, memory stays bounded by the window (plus per-key
results) on unbounded streams; without one, ingested batches are
buffered and run as one window whenever results are read (fastest for
a bounded trace).  :meth:`results` snapshots work mid-stream either
way.  Sessions run on the vector engine only: the row reference
(``engine="row"``) is one-shot, and opening a session on it raises
``[RPR-E001]``.

Results are **bit-identical** across every window/shard combination,
to what :meth:`QueryEngine.run` produces, and to the row reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core.errors import SessionClosedError, SessionError
from repro.core.interpreter import ResultTable
from repro.network.records import as_table
from repro.switch.pipeline import SessionConfig, SwitchPipeline

from .checkpoint import pack_checkpoint

if TYPE_CHECKING:                                  # pragma: no cover
    from .runtime import QueryEngine, RunReport


class TelemetrySession:
    """One long-lived ingest/query handle over one compiled program.

    Built by :meth:`QueryEngine.open`; see the module docstring for the
    protocol.  Not thread-safe (like the stores underneath).

    Args:
        engine: The compiled :class:`QueryEngine` (program, params).
        config: Its :class:`~repro.switch.pipeline.SessionConfig` with
            this session's knobs set.
    """

    def __init__(self, engine: "QueryEngine", config: SessionConfig):
        self._engine = engine
        self.config = config
        #: Deployability report attached by :meth:`QueryEngine.open`
        #: (``None`` when the session was constructed directly).
        self.diagnostics = None
        self._closed = False
        self._broken: str | None = None
        self._broken_cause: BaseException | None = None
        self._pipeline = SwitchPipeline(
            engine.compiled, params=engine.params, config=config)

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "TelemetrySession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Close only on a clean exit: with an exception in flight the
        # session is left open (finalizing half-ingested state could
        # raise and mask the original error).  Never suppresses the
        # in-flight exception; a close() failure on the clean path
        # propagates.
        if not self._closed and exc_type is None:
            self.close()
        return False

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> bool:
        """True once an ingest failed mid-stream: stage state may be
        partially applied and no further results can be trusted (see
        :meth:`ingest`)."""
        return self._broken is not None

    def _check_broken(self) -> None:
        if self._broken is not None:
            raise SessionError(
                f"session is broken — an earlier ingest() failed "
                f"({self._broken}) and may have applied a batch "
                f"partially, so its state cannot be trusted; close() "
                f"this session and open a new one (or resume a fresh "
                f"session from the last checkpoint() with "
                f"QueryEngine.resume())") from self._broken_cause

    # -- ingestion ------------------------------------------------------------

    def ingest(self, batch: Iterable[object]) -> "TelemetrySession":
        """Stream one batch of observations (any form
        :func:`~repro.network.records.as_table` accepts: a table, an
        iterable of records, a column dict) through every stage;
        returns ``self`` for chaining.

        **Fail-fast poisoning:** an exception escaping mid-ingest may
        leave some stages having absorbed the batch and others not, so
        the session is marked *broken* — every subsequent call raises
        :class:`~repro.core.errors.SessionError` with recovery guidance
        rather than silently serving corrupt results."""
        if self._closed:
            raise SessionClosedError(
                "session is closed; open a new one with QueryEngine.open()")
        self._check_broken()
        try:
            if self.config.faults is not None:
                self.config.faults.on_ingest()
            self._pipeline.run(as_table(batch))
        except Exception as exc:
            # Keep the original exception: every later SessionError on
            # this poisoned session chains it as __cause__, so the real
            # failure survives to wherever the breakage is discovered.
            self._broken = f"{type(exc).__name__}: {exc}"
            self._broken_cause = exc
            raise
        return self

    # -- results --------------------------------------------------------------

    def results(self, include_invalid: bool = False) -> "RunReport":
        """A :class:`RunReport` snapshot as of everything ingested so
        far — the stream can continue afterwards.  Like every other
        method, raises :class:`~repro.core.errors.SessionClosedError`
        once the session is closed: the final report is the one
        :meth:`close` returned."""
        if self._closed:
            raise SessionClosedError(
                "session is closed; the final report is the close() "
                "return value")
        self._check_broken()
        tables, stats, writes, accuracy = \
            self._pipeline.snapshot_results(include_invalid=include_invalid)
        return self._assemble(tables, stats, writes, accuracy)

    def close(self, include_invalid: bool = False) -> "RunReport":
        """Finalize every stage (run buffered input, flush caches)
        and return the final report; any further call — :meth:`ingest`,
        :meth:`results`, :meth:`cache_stats`, :meth:`close` — raises
        :class:`~repro.core.errors.SessionClosedError`."""
        if self._closed:
            raise SessionClosedError("session is already closed")
        if self._broken is not None:
            # Release worker processes and shared-memory segments, then
            # report the breakage: a broken session has no trustworthy
            # final report to return.
            self._closed = True
            self._pipeline.release()
            raise SessionError(
                f"closing a broken session (an earlier ingest() failed: "
                f"{self._broken}); its partial state was discarded — "
                f"open a new session, or resume from the last "
                f"checkpoint() with QueryEngine.resume()"
            ) from self._broken_cause
        report = self._final_report(include_invalid)
        self._closed = True
        return report

    def _final_report(self, include_invalid: bool) -> "RunReport":
        pipeline = self._pipeline
        tables = pipeline.results(include_invalid=include_invalid)
        accuracy = {
            s.query_name: pipeline.store_for(s.query_name).accuracy()
            for s in self._engine.compiled.groupby_stages
        }
        return self._assemble(
            tables, pipeline.cache_stats(), pipeline.backing_writes(),
            accuracy)

    def cache_stats(self):
        """Per-stage cache counters so far.  After :meth:`close` raises
        :class:`~repro.core.errors.SessionClosedError` — final counters
        are on the report :meth:`close` returned."""
        if self._closed:
            raise SessionClosedError(
                "session is closed; final cache stats are on the "
                "close() report")
        self._check_broken()
        return self._pipeline.cache_stats()

    # -- durable checkpoints ---------------------------------------------------

    @property
    def packets_ingested(self) -> int:
        """Observations absorbed so far — what a resumed driver skips
        when replaying its input stream."""
        return self._pipeline.packets_seen

    def checkpoint(self) -> bytes:
        """Serialize the full mid-stream state into a self-describing,
        checksummed byte string.  Feed it to :meth:`QueryEngine.resume`
        on an engine with the *same* configuration to continue the
        stream — results from the resumed session are bit-identical to
        never having stopped.  The session itself is untouched and can
        keep streaming."""
        if self._closed:
            raise SessionClosedError(
                "session is closed; there is no state left to checkpoint")
        self._check_broken()
        return pack_checkpoint(self._checkpoint_payload())

    def _checkpoint_payload(self) -> dict:
        return {
            "kind": "session",
            "config": self._engine._config_fingerprint(),
            "window": self.config.window,
            "shards": self.config.shards,
            "packets_ingested": self.packets_ingested,
            "pipeline": self._pipeline.checkpoint_state(),
        }

    def _restore_payload(self, payload: dict) -> None:
        """Load a :meth:`_checkpoint_payload` dict into this (freshly
        opened) session — :meth:`QueryEngine.resume` only."""
        self._pipeline.restore_state(payload["pipeline"])

    # -- assembly --------------------------------------------------------------

    def _assemble(self, tables: dict[str, ResultTable],
                  stats, writes, accuracy) -> "RunReport":
        from .runtime import RunReport

        executor = self._engine._vector_engine()
        for stage in self._engine.compiled.software_stages:
            # Software stages read upstream *tables* only (the compiler
            # keeps every base-stream query on-switch), so the session
            # never retains the stream.
            tables[stage.query.name] = executor.evaluate_stage(
                stage.query.name, [], tables)
        return RunReport(
            tables=tables,
            result_name=self._engine.compiled.result,
            cache_stats=stats,
            backing_writes=writes,
            accuracy=accuracy,
        )
