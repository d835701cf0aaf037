"""Live ingest service: the long-running front end of the runtime.

The paper's premise is a *standing* network monitor — queries are
installed once and observations arrive forever — but every entry point
so far is batch-shaped: something must already hold the whole trace.
:class:`IngestServer` closes that gap.  It listens on localhost TCP or
a UNIX socket, accepts length-framed columnar batches
(:mod:`repro.telemetry.wire`), demultiplexes them into named
:class:`~repro.telemetry.session.TelemetrySession` instances, and
executes windows on a per-session worker thread while the asyncio
event loop keeps accepting — so a slow window never stops the service
from answering other clients.

Robustness is the design center, in the spirit of nara's fixed
self-throttling budget (overhead must stay bounded no matter how the
offered load grows) and ACORN's disorderly control planes (clients
stall, disconnect mid-frame, and send garbage; the service must stay
deterministic anyway):

* **Per-session bounded ingest queues.**  Each served session buffers
  at most ``queue_high_bytes`` of undigested batches.  Crossing the
  high watermark asserts *backpressure*: the server answers the
  offending batch with an explicit ``BUSY`` credit frame and stops
  reading that connection until the worker drains the queue below
  ``queue_low_bytes``, then sends ``READY``.  Memory is bounded by the
  watermark, not by how fast the client can push.
* **Admission control.**  ``max_sessions`` live sessions and
  ``max_inflight_bytes`` of total queued batches; a ``HELLO`` that
  would exceed either is answered with a ``REJECT`` frame naming the
  reason (never a silent drop, never an accept-then-collapse).
* **Load shedding** (``shed=True``).  Instead of backpressure, a batch
  arriving over the high watermark is dropped *whole* — never applied
  partially — and counted exactly: the client gets a ``SHED`` ack for
  that specific sequence number, and ``shed_batches``/``shed_records``
  ride every results/close reply's ``serve`` metadata.  Shedding is
  documented load *loss*; the differential tests run with it disabled.
* **Exactly-once ingest under retry.**  Batches carry per-session
  sequence numbers; the ``HELLO`` reply tells a (re)connecting client
  the next sequence the session expects, so a batch cut in half by a
  disconnect is resent and a batch whose ack was lost is skipped.
* **Idle/dead-client timeouts** (``idle_timeout``): a connection that
  goes quiet is closed; the session survives for the client's retry.
* **Durability.**  ``checkpoint_dir`` + ``checkpoint_every_batches``
  auto-checkpoint each session through the PR-7 machinery, and SIGTERM
  (or :meth:`IngestServer.stop`) triggers a graceful drain: stop
  accepting, finish every queued window, checkpoint, close, and report
  — ``QueryEngine.resume`` then continues bit-identically.

The **trace-file tailer** (:class:`TraceTailer`) closes the loop for
file-based capture: it follows a growing CSV observation trace —
surviving truncation and rotation — and feeds batches into a served
session through the same bounded queue (blocking at the high
watermark, the local equivalent of a ``BUSY`` frame).

``ingest_delay`` is a test/bench knob: it sleeps the worker thread
after every ingested batch to emulate a slow consumer, which is how
``benchmarks/bench_serve.py`` forces backpressure deterministically.
"""

from __future__ import annotations

import asyncio
import csv
import io
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Iterator

from repro.core.errors import SessionError
from repro.network.records import ObservationTable
from repro.traffic.trace_io import csv_table

from . import wire
from .diagnostics import diagnostic_code
from .wire import FrameError

if TYPE_CHECKING:                                  # pragma: no cover
    from .faults import FaultInjector
    from .runtime import QueryEngine


def batch_nbytes(columns: dict) -> int:
    """Queue accounting charge of one columnar batch."""
    return sum(arr.nbytes for arr in columns.values())


class _ServedSession:
    """One named session behind the server: a bounded job queue feeding
    a dedicated worker thread that owns the
    :class:`~repro.telemetry.session.TelemetrySession` outright.

    The event loop only ever touches the queue and counters (under
    ``_cond``); the session object itself — including its creation, so
    shard workers fork from the worker thread, not the loop — lives
    entirely on the worker thread.  FIFO job order is the consistency
    story: a ``results``/``close``/``checkpoint`` call observes every
    batch enqueued before it, exactly like the shard pool's pipe."""

    def __init__(self, server: "IngestServer", name: str) -> None:
        self._server = server
        self.name = name
        self.session: Any = None                  # worker thread only
        self._cond = threading.Condition()
        self._jobs: deque = deque()
        self.queued_bytes = 0
        self.next_seq = 0                         # socket batches enqueued
        self.closing = False
        self.error: str | None = None
        self.error_cause: BaseException | None = None
        # exact accounting (every counter surfaces in `serve` metadata)
        self.batches_in = 0
        self.records_in = 0
        self.bytes_in = 0
        self.shed_batches = 0
        self.shed_records = 0
        self.busy_events = 0
        self.checkpoints_written = 0
        self._since_checkpoint = 0
        self._drain_waiters: list[asyncio.Event] = []
        self._thread = threading.Thread(
            target=self._worker, name=f"serve-{name}", daemon=True)

    # -- event-loop side -------------------------------------------------------

    def start(self) -> Future:
        """Spawn the worker and return the future of the session-open
        job (awaited before the ``HELLO`` reply, so admission errors —
        bad knob combinations, fork failures — surface to the client)."""
        fut: Future = Future()
        self._jobs.append(("open", None, fut))
        self._thread.start()
        with self._cond:
            self._cond.notify_all()
        return fut

    def try_enqueue(self, table: ObservationTable, nbytes: int,
                    records: int, from_socket: bool = True) -> str:
        """Admit one batch under the watermark policy; returns ``"ok"``,
        ``"busy"`` (accepted, assert backpressure), ``"shed"`` (dropped
        whole, counted), or ``"error"`` (session is poisoned/closing)."""
        with self._cond:
            if self.error is not None or self.closing:
                return "error"
            high = self._server.queue_high_bytes
            if (self._server.shed and self._jobs
                    and self.queued_bytes + nbytes > high):
                self.shed_batches += 1
                self.shed_records += records
                if from_socket:
                    self.next_seq += 1
                return "shed"
            self._jobs.append(("batch", (table, nbytes), None))
            self.queued_bytes += nbytes
            self.batches_in += 1
            self.records_in += records
            self.bytes_in += nbytes
            if from_socket:
                self.next_seq += 1
            self._cond.notify_all()
            if not self._server.shed and self.queued_bytes >= high:
                self.busy_events += 1
                return "busy"
            return "ok"

    def enqueue_local(self, table: ObservationTable, nbytes: int,
                      records: int, stop: threading.Event) -> bool:
        """Tailer-side enqueue: block while over the high watermark
        (local backpressure) instead of speaking ``BUSY`` frames."""
        with self._cond:
            while (self.queued_bytes >= self._server.queue_high_bytes
                   and self.error is None and not self.closing
                   and not stop.is_set()):
                self._cond.wait(0.05)
            if self.error is not None or self.closing:
                return False
        return self.try_enqueue(table, nbytes, records,
                                from_socket=False) in ("ok", "busy")

    def add_drain_waiter(self) -> asyncio.Event:
        """Register for the below-low-watermark wakeup (the handler
        awaits this between its ``BUSY`` and ``READY`` frames)."""
        event = asyncio.Event()
        with self._cond:
            if self.queued_bytes <= self._server.queue_low_bytes:
                event.set()
            else:
                self._drain_waiters.append(event)
        return event

    def request(self, op: str) -> Future:
        """Enqueue a synchronous session operation (``results``,
        ``checkpoint``, ``close``, ``drain``) behind every pending
        batch; the worker fulfils the returned future."""
        fut: Future = Future()
        with self._cond:
            if op in ("close", "drain"):
                self.closing = True
            self._jobs.append((op, None, fut))
            self._cond.notify_all()
        return fut

    def serve_meta(self) -> dict:
        """The exact-accounting metadata riding every reply."""
        with self._cond:
            return {
                "session": self.name,
                "batches_in": self.batches_in,
                "records_in": self.records_in,
                "bytes_in": self.bytes_in,
                "shed_batches": self.shed_batches,
                "shed_records": self.shed_records,
                "busy_events": self.busy_events,
                "queued_bytes": self.queued_bytes,
                "checkpoints_written": self.checkpoints_written,
            }

    # -- worker side -----------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._jobs:
                    self._cond.wait()
                kind, arg, fut = self._jobs.popleft()
            if kind == "batch":
                self._ingest(*arg)
                continue
            if kind == "stop":
                return
            failed = False
            try:
                result = self._do_call(kind)
            except BaseException as exc:       # noqa: BLE001 - to the client
                failed = True
                fut.set_exception(exc)
            else:
                fut.set_result(result)
            if kind in ("close", "drain") or (kind == "open" and failed):
                self._fail_leftovers()
                return

    def _fail_leftovers(self) -> None:
        """The worker is exiting: jobs racing in behind the close must
        fail loudly, not hang their futures forever."""
        with self._cond:
            leftovers, self._jobs = list(self._jobs), deque()
        for _, _, fut in leftovers:
            if fut is not None:
                fut.set_exception(SessionError(
                    f"served session {self.name!r} closed while this "
                    f"request was queued behind the close"))

    def _ingest(self, table: ObservationTable, nbytes: int) -> None:
        try:
            self.session.ingest(table)
        except Exception as exc:
            with self._cond:
                self.error = f"{type(exc).__name__}: {exc}"
                self.error_cause = exc
        if self._server.ingest_delay:
            time.sleep(self._server.ingest_delay)
        with self._cond:
            self.queued_bytes -= nbytes
            self._cond.notify_all()
            if (self.queued_bytes <= self._server.queue_low_bytes
                    and self._drain_waiters):
                waiters, self._drain_waiters = self._drain_waiters, []
                loop = self._server._loop
                assert loop is not None   # set before any batch arrives
                loop.call_soon_threadsafe(_set_events, waiters)
        if self.error is None:
            self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        every = self._server.checkpoint_every_batches
        self._since_checkpoint += 1
        if (every is not None and self._since_checkpoint >= every
                and self._server.checkpoint_dir is not None):
            self._since_checkpoint = 0
            self._write_checkpoint()

    def _write_checkpoint(self) -> str:
        ckpt_dir = self._server.checkpoint_dir
        assert ckpt_dir is not None       # both callers guard on it
        path = Path(ckpt_dir) / f"{self.name}.ckpt"
        tmp = path.with_suffix(".ckpt.tmp")
        tmp.write_bytes(self.session.checkpoint())
        os.replace(tmp, path)                 # atomic: no torn checkpoints
        with self._cond:
            self.checkpoints_written += 1
        return str(path)

    def _do_call(self, op: str) -> dict | None:
        if op == "open":
            self.session = self._server._open_session()
            return None
        self._check_error()
        if op == "results":
            report = self.session.results(
                include_invalid=self._server.include_invalid)
            return {"report": report, "serve": self.serve_meta()}
        if op == "checkpoint":
            return {"checkpoint": self.session.checkpoint(),
                    "serve": self.serve_meta()}
        if op == "close":
            report = self.session.close(
                include_invalid=self._server.include_invalid)
            return {"report": report, "serve": self.serve_meta()}
        if op == "drain":
            return self._drain()
        raise SessionError(f"unknown served-session op {op!r}")

    def _check_error(self) -> None:
        if self.error is not None:
            raise SessionError(
                f"served session {self.name!r} is broken — an ingest "
                f"failed ({self.error}); close it and open a new one "
                f"(or resume from its last checkpoint)"
            ) from self.error_cause

    def _drain(self) -> dict:
        """Graceful-shutdown finish: every queued batch has already
        been ingested (FIFO), so checkpoint, close, and summarize."""
        info = self.serve_meta()
        info["packets_ingested"] = self.session.packets_ingested
        if self.error is not None:
            # A poisoned session has no trustworthy state to checkpoint;
            # just release its resources and report the breakage (the
            # chained close error carries the original ingest failure).
            info["error"] = self.error
            try:
                self.session.close()
            except SessionError as exc:
                info["close_error"] = str(exc)
            return info
        if self._server.checkpoint_dir is not None:
            info["checkpoint"] = self._write_checkpoint()
            info["checkpoints_written"] = self.checkpoints_written
        report = self.session.close(
            include_invalid=self._server.include_invalid)
        info["result"] = report.result_name
        info["result_rows"] = len(report.result)
        return info


def _set_events(events: list[asyncio.Event]) -> None:
    for event in events:
        event.set()


def _file_id(path: str) -> tuple[int, int]:
    st = os.stat(path)
    return st.st_dev, st.st_ino


def _unlink_socket(path: str, bound: tuple[int, int]) -> None:
    """Remove the UNIX socket file a server bound at ``path`` — unless
    the path names another file by now (a second server took it)."""
    try:
        if _file_id(path) == bound:
            os.unlink(path)
    except FileNotFoundError:
        pass


class IngestServer:
    """Long-running ingest front end over one compiled
    :class:`~repro.telemetry.runtime.QueryEngine` (see the module
    docstring for the robustness contract).

    Args:
        engine: The compiled engine served sessions open on.
        host, port: TCP listen address (``port=0`` picks an ephemeral
            port).  Loopback only by design — the wire format trusts
            its peer.
        unix_path: Listen on a UNIX socket instead of TCP.
        window, shards, checkpoint_every, faults: Session knobs of
            :class:`~repro.switch.pipeline.SessionConfig`, validated
            here and passed to :meth:`QueryEngine.open` for every
            served session (``window`` is strongly recommended: it
            bounds memory on long-lived streams).
        max_sessions: Admission cap on live sessions.
        max_inflight_bytes: Admission cap on total queued batch bytes
            across sessions; new sessions are rejected above it, and
            existing connections are backpressured.
        queue_high_bytes / queue_low_bytes: Per-session backpressure
            watermarks (``BUSY`` above high, ``READY`` below low).
        shed: Drop-whole-batches load shedding instead of backpressure
            (exact accounting in every reply's ``serve`` metadata).
        idle_timeout: Seconds of connection silence before the server
            closes it (the session survives for a reconnect).
        checkpoint_dir: Directory for ``<session>.ckpt`` files —
            written every ``checkpoint_every_batches`` ingested batches
            and on drain.
        include_invalid: Forwarded to ``results()``/``close()``.
        ingest_delay: Test/bench knob — per-batch worker sleep
            emulating a slow consumer.
    """

    def __init__(self, engine: "QueryEngine", *,
                 host: str = "127.0.0.1", port: int = 0,
                 unix_path: str | Path | None = None,
                 window: int | None = None, shards: int | None = None,
                 checkpoint_every: int | None = None,
                 faults: "FaultInjector | None" = None,
                 max_sessions: int = 8,
                 max_inflight_bytes: int = 256 << 20,
                 queue_high_bytes: int = 32 << 20,
                 queue_low_bytes: int | None = None,
                 shed: bool = False,
                 idle_timeout: float | None = None,
                 checkpoint_dir: str | Path | None = None,
                 checkpoint_every_batches: int | None = None,
                 include_invalid: bool = True,
                 ingest_delay: float = 0.0) -> None:
        # The row reference is one-shot ([RPR-E001]).
        engine._require_session()
        #: Every served session opens with this config.
        self.config = replace(engine.config, window=window, shards=shards,
                              checkpoint_every=checkpoint_every,
                              faults=faults)
        if queue_low_bytes is None:
            queue_low_bytes = queue_high_bytes // 4
        if not 0 <= queue_low_bytes <= queue_high_bytes:
            raise ValueError(
                f"queue watermarks must satisfy 0 <= low <= high, got "
                f"low={queue_low_bytes} high={queue_high_bytes}")
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if checkpoint_every_batches is not None and checkpoint_dir is None:
            raise ValueError(
                "checkpoint_every_batches requires checkpoint_dir")
        self.engine = engine
        self._host, self._port, self._unix_path = host, port, unix_path
        self.max_sessions = max_sessions
        self.max_inflight_bytes = max_inflight_bytes
        self.queue_high_bytes = queue_high_bytes
        self.queue_low_bytes = queue_low_bytes
        self.shed = shed
        self.idle_timeout = idle_timeout
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every_batches = checkpoint_every_batches
        self.include_invalid = include_invalid
        self.ingest_delay = ingest_delay
        self._sessions: dict[str, _ServedSession] = {}
        self._final: dict[str, dict] = {}
        self._rejected = 0
        self._idle_closed = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain_requested: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._tailers: list[tuple[TraceTailer, threading.Thread,
                                  threading.Event]] = []
        self._pending_tailers: list[tuple] = []
        self._address: str | tuple[str, int] | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread: threading.Thread | None = None
        self.drain_report: dict | None = None
        if checkpoint_dir is not None:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)

    def _open_session(self) -> Any:
        config = self.config
        return self.engine.open(window=config.window, shards=config.shards,
                                checkpoint_every=config.checkpoint_every,
                                faults=config.faults)

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> str | tuple[str, int] | None:
        """The bound listen address: ``(host, port)`` for TCP, the
        socket path string for UNIX — valid once started."""
        return self._address

    def start(self) -> str | tuple[str, int] | None:
        """Run the service on a background thread; returns the bound
        address once the socket is listening.  Pair with :meth:`stop`."""
        if self._thread is not None:
            raise SessionError("ingest server is already running")
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self._address

    def _request_drain(self) -> None:
        if self._drain_requested is not None:
            self._drain_requested.set()

    def stop(self, timeout: float = 60.0) -> dict | None:
        """Request a graceful drain (stop listening and remove the UNIX
        socket file, finish queued windows, checkpoint, close, report)
        and return the drain report."""
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._request_drain)
            except RuntimeError:             # loop already finished
                pass
        if self._thread is not None:
            self._thread.join(timeout)
        return self.drain_report

    def run_forever(self, signals: bool = True) -> dict:
        """Run in the foreground (the CLI path) until SIGTERM/SIGINT —
        or an external :meth:`stop` — triggers the graceful drain;
        returns the drain report."""
        loop = asyncio.new_event_loop()
        try:
            if signals:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    loop.add_signal_handler(signum, self._request_drain)
            report = loop.run_until_complete(self._main(loop))
            self.drain_report = report
        finally:
            loop.close()
        return report

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        try:
            self.drain_report = loop.run_until_complete(self._main(loop))
        except BaseException as exc:         # surface to start()
            self._startup_error = exc
        finally:
            self._ready.set()
            loop.close()

    async def _main(self, loop: asyncio.AbstractEventLoop) -> dict:
        self._loop = loop
        self._drain_requested = asyncio.Event()
        bound: tuple[int, int] | None = None
        if self._unix_path is not None:
            path = str(self._unix_path)
            server = await asyncio.start_unix_server(self._handle_conn,
                                                     path=path)
            self._address = path
            bound = await loop.run_in_executor(None, _file_id, path)
        else:
            server = await asyncio.start_server(
                self._handle_conn, host=self._host, port=self._port)
            self._address = server.sockets[0].getsockname()[:2]
        try:
            for args in self._pending_tailers:
                self._start_tailer(*args)
            self._pending_tailers.clear()
            self._ready.set()
            async with server:
                await self._drain_requested.wait()
                server.close()
                await server.wait_closed()
        finally:
            if bound is not None:
                await loop.run_in_executor(None, _unlink_socket, path, bound)
        return await self._drain()

    async def _drain(self) -> dict:
        # 1. Tailers first: they stop feeding after a final catch-up
        #    read, so the drain checkpoint reflects the whole file.
        for tailer, thread, stop in self._tailers:
            stop.set()
        for tailer, thread, stop in self._tailers:
            await asyncio.get_running_loop().run_in_executor(
                None, thread.join)
        # 2. Cut the remaining connections (retrying clients see a
        #    clean EOF, not a half-served stream).
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        # 3. Drain every live session: FIFO ensures queued batches run
        #    before the checkpoint+close the drain op performs.
        report: dict = {"sessions": {}, "rejected": self._rejected,
                        "idle_closed": self._idle_closed,
                        "shed": self.shed}
        for name, served in list(self._sessions.items()):
            fut = served.request("drain")
            try:
                report["sessions"][name] = await asyncio.wrap_future(fut)
            except Exception as exc:         # noqa: BLE001 - report anyway
                report["sessions"][name] = {"error": str(exc)}
        for name, payload in self._final.items():
            info = dict(payload.get("serve", {}))
            info["closed"] = True
            report["sessions"].setdefault(name, info)
        self.drain_report = report
        return report

    # -- connections -----------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None              # we are inside a task
        self._conn_tasks.add(task)
        try:
            await self._serve_conn(reader, writer)
        except asyncio.CancelledError:
            pass
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass                             # disconnects are routine
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        name: str | None = None
        while True:
            try:
                if self.idle_timeout is not None:
                    ftype, payload = await asyncio.wait_for(
                        wire.read_frame(reader), self.idle_timeout)
                else:
                    ftype, payload = await wire.read_frame(reader)
            except asyncio.TimeoutError:
                self._idle_closed += 1
                await self._send(writer, wire.T_ERROR, {
                    "reason": f"connection idle for {self.idle_timeout}s; "
                              f"closing (the session is still live — "
                              f"reconnect to continue)",
                    "fatal": False})
                return
            except FrameError as exc:
                # The stream may have lost frame sync; say why, drop
                # the connection, and let the client's seq resync
                # redeliver whatever the bad frame was carrying.
                await self._send(writer, wire.T_ERROR,
                                 {"reason": str(exc), "fatal": False})
                return
            if ftype == wire.T_HELLO:
                name = await self._handle_hello(writer, payload)
                if name is None:
                    return
            elif name is None:
                await self._send(writer, wire.T_ERROR, {
                    "reason": "protocol error: HELLO must precede "
                              "every other frame", "fatal": True})
                return
            elif ftype == wire.T_BATCH:
                if not await self._handle_batch(writer, name, payload):
                    return
            elif ftype in (wire.T_RESULTS, wire.T_CHECKPOINT, wire.T_CLOSE):
                await self._handle_call(writer, name, ftype)
            else:
                await self._send(writer, wire.T_ERROR, {
                    "reason": f"unexpected frame type {ftype}",
                    "fatal": True})
                return

    async def _handle_hello(self, writer: asyncio.StreamWriter,
                            payload: dict) -> str | None:
        name = str(payload.get("session", "default"))
        if name in self._final:
            # A finalized name stays addressable so a close() retry
            # whose reply was lost can re-fetch the stored report.
            await self._send(writer, wire.T_OK, {
                "session": name, "next_seq": None, "closed": True,
                "shed": self.shed})
            return name
        if name not in self._sessions:
            reason = self._admission_refusal()
            if reason is not None:
                self._rejected += 1
                await self._send(writer, wire.T_REJECT, {"reason": reason})
                return None
            served = _ServedSession(self, name)
            self._sessions[name] = served
            try:
                await asyncio.wrap_future(served.start())
            except Exception as exc:         # noqa: BLE001 - to the client
                del self._sessions[name]
                self._rejected += 1
                await self._send(writer, wire.T_REJECT, {
                    "reason": f"session open failed: {exc}",
                    "code": diagnostic_code(exc)})
                return None
        served = self._sessions[name]
        await self._send(writer, wire.T_OK, {
            "session": name, "next_seq": served.next_seq, "closed": False,
            "shed": self.shed})
        return name

    def _admission_refusal(self) -> str | None:
        if len(self._sessions) >= self.max_sessions:
            return (f"session limit reached ({self.max_sessions} live "
                    f"sessions); close one or raise max_sessions")
        inflight = sum(s.queued_bytes for s in self._sessions.values())
        if inflight >= self.max_inflight_bytes:
            return (f"overloaded: {inflight} bytes of batches in flight "
                    f"(limit {self.max_inflight_bytes}); retry later")
        return None

    async def _handle_batch(self, writer: asyncio.StreamWriter,
                            name: str, payload: dict) -> bool:
        served = self._sessions.get(name)
        if served is None:
            await self._send(writer, wire.T_ERROR, {
                "reason": f"session {name!r} is closed; its final report "
                          f"is still retrievable with CLOSE", "fatal": True})
            return False
        seq = payload["seq"]
        columns = payload["columns"]
        if seq < served.next_seq:
            # Duplicate delivery after a retry whose ack was lost: the
            # batch is already applied (or shed) — ack, don't re-ingest.
            await self._send(writer, wire.T_OK, {"seq": seq, "dup": True})
            return True
        if seq > served.next_seq:
            await self._send(writer, wire.T_ERROR, {
                "reason": f"out-of-order batch seq {seq} (expected "
                          f"{served.next_seq}); reconnect to resync",
                "fatal": True})
            return False
        table = ObservationTable.from_arrays(columns)
        status = served.try_enqueue(table, batch_nbytes(table.columns()),
                                    len(table))
        if status == "error":
            await self._send(writer, wire.T_ERROR, {
                "reason": f"session {name!r} is broken or closing "
                          f"({served.error or 'close in progress'})",
                "fatal": True})
            return False
        if status == "shed":
            await self._send(writer, wire.T_SHED,
                             {"seq": seq, "records": len(table)})
            return True
        total = sum(s.queued_bytes for s in self._sessions.values())
        if status == "ok" and not self.shed \
                and total >= self.max_inflight_bytes:
            # Global pressure backstop: this session is under its own
            # watermark but the service as a whole is not.
            with served._cond:
                served.busy_events += 1
            status = "busy"
        if status == "busy":
            await self._send(writer, wire.T_BUSY, {"seq": seq})
            # Stop reading this connection until the worker drains the
            # queue below the low watermark — the explicit credit stop.
            event = served.add_drain_waiter()
            await event.wait()
            await self._send(writer, wire.T_READY, {})
        else:
            await self._send(writer, wire.T_OK, {"seq": seq})
        return True

    async def _handle_call(self, writer: asyncio.StreamWriter,
                           name: str, ftype: int) -> None:
        op = {wire.T_RESULTS: "results", wire.T_CHECKPOINT: "checkpoint",
              wire.T_CLOSE: "close"}[ftype]
        if name in self._final:
            if op == "results":
                await self._send(writer, wire.T_ERROR, {
                    "reason": f"session {name!r} is closed; the final "
                              f"report is served by CLOSE", "fatal": True})
                return
            if op == "checkpoint":
                await self._send(writer, wire.T_ERROR, {
                    "reason": f"session {name!r} is closed; there is no "
                              f"state left to checkpoint", "fatal": True})
                return
            await self._send(writer, wire.T_RESULT, self._final[name])
            return
        served = self._sessions.get(name)
        if served is None:
            await self._send(writer, wire.T_ERROR, {
                "reason": f"unknown session {name!r}", "fatal": True})
            return
        fut = served.request(op)
        try:
            result = await asyncio.wrap_future(fut)
        except Exception as exc:             # noqa: BLE001 - to the client
            await self._send(writer, wire.T_ERROR,
                             {"reason": str(exc), "fatal": True})
            return
        if op == "close":
            self._final[name] = result
            del self._sessions[name]
        await self._send(writer, wire.T_RESULT, result)

    @staticmethod
    async def _send(writer: asyncio.StreamWriter,
                    ftype: int, payload: dict) -> None:
        writer.write(wire.pack_frame(ftype, payload))
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass                              # peer is gone; reader notices

    # -- tailers ---------------------------------------------------------------

    def attach_tailer(self, path: str | Path, session: str = "tail",
                      batch_size: int = 4096,
                      poll_interval: float = 0.05) -> None:
        """Follow a CSV observation trace into a served session (before
        or after :meth:`start`); the tailer thread blocks at the
        session's high watermark, stops — after one final catch-up
        read — when the server drains."""
        args = (TraceTailer(path, batch_size=batch_size,
                            poll_interval=poll_interval), session)
        if self._loop is None:
            self._pending_tailers.append(args)
        else:
            self._loop.call_soon_threadsafe(self._start_tailer, *args)

    def _start_tailer(self, tailer: "TraceTailer", session: str) -> None:
        served = self._sessions.get(session)
        if served is None:
            served = _ServedSession(self, session)
            self._sessions[session] = served
            served.start()
        stop = threading.Event()
        thread = threading.Thread(
            target=self._tail_into, args=(tailer, served, stop),
            name=f"tail-{session}", daemon=True)
        self._tailers.append((tailer, thread, stop))
        thread.start()

    def _tail_into(self, tailer: "TraceTailer", served: _ServedSession,
                   stop: threading.Event) -> None:
        for table in tailer.batches(stop=stop):
            columns = table.columns()
            if not served.enqueue_local(table, batch_nbytes(columns),
                                        len(table), stop):
                return


class TraceTailer:
    """Follow a growing CSV observation trace, yielding columnar
    batches — the file-capture twin of the socket front end.

    The tailer is deliberately paranoid about the file underneath it
    (log rotation is normal operations, not an error):

    * a **partial last line** (the writer mid-``write``) is left in the
      file until its newline arrives — batches only ever carry whole
      records;
    * **truncation** (size shrank) reopens from the start — the writer
      restarted the file;
    * **rotation** (inode changed) finishes reading the old file, then
      follows the new one from its header;
    * a **missing file** is waited out (the writer may not have created
      it yet).

    Fields parse through :func:`repro.traffic.trace_io.csv_table`, the
    rule :func:`~repro.traffic.trace_io.read_csv` uses, so a tailed
    trace produces the same columns an offline read would.
    """

    def __init__(self, path: str | Path, batch_size: int = 4096,
                 poll_interval: float = 0.05) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.path = Path(path)
        self.batch_size = batch_size
        self.poll_interval = poll_interval
        self.rotations = 0
        self.truncations = 0

    def batches(self, stop: threading.Event | None = None
                ) -> Iterator[ObservationTable]:
        """Generate :class:`ObservationTable` batches until ``stop`` is
        set (one final catch-up read runs first, so everything written
        before the stop is delivered)."""
        handle: IO[bytes] | None = None
        inode: int | None = None
        fields: list[str] | None = None
        pending = b""
        # Parsed but not yet yielded; each read parses with the header
        # of the file it came from, so a rotation to a file with other
        # columns cannot misparse rows still waiting here.
        buffered = ObservationTable.from_arrays({})
        try:
            while True:
                final = stop is not None and stop.is_set()
                if handle is None:
                    handle, inode = self._try_open()
                    fields, pending = None, b""
                progressed = False
                if handle is not None:
                    chunk = handle.read()
                    if chunk:
                        progressed = True
                        pending += chunk
                        lines = pending.split(b"\n")
                        pending = lines.pop()    # partial tail, keep
                        rows: list[list[str]] = []
                        for line in lines:
                            if not line.strip():
                                continue
                            if fields is None:
                                fields = self._split(line)
                            else:
                                rows.append(self._split(line))
                        if rows and fields is not None:
                            buffered = ObservationTable.concat(
                                [buffered, csv_table(fields, rows)])
                    while len(buffered) >= self.batch_size:
                        yield buffered[:self.batch_size]
                        buffered = buffered[self.batch_size:]
                    if self._stale(handle, inode):
                        handle.close()
                        handle = None
                        continue                 # reopen immediately
                if not progressed:
                    if final:
                        if len(buffered):
                            yield buffered
                        return
                    time.sleep(self.poll_interval)
        finally:
            if handle is not None:
                handle.close()

    def _try_open(self) -> tuple[IO[bytes] | None, int | None]:
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return None, None
        try:
            return handle, os.fstat(handle.fileno()).st_ino
        except Exception:
            # the handle has no owner yet; a failed fstat (EBADF under
            # a racing rotation, resource pressure) must not leak it
            handle.close()
            raise

    def _stale(self, handle: IO[bytes], inode: int | None) -> bool:
        """True when the path no longer names the open file (rotation)
        or the file shrank beneath our read position (truncation)."""
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            return False                     # keep draining the old file
        if st.st_ino != inode:
            self.rotations += 1
            return True
        if st.st_size < handle.tell():
            self.truncations += 1
            return True
        return False

    @staticmethod
    def _split(line: bytes) -> list[str]:
        return next(csv.reader(io.StringIO(line.decode())))
