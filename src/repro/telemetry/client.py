"""Retrying client for the live ingest service.

:class:`IngestClient` is the well-behaved peer of
:class:`~repro.telemetry.serve.IngestServer`: it frames columnar
batches onto a localhost TCP or UNIX socket, honors ``BUSY`` credit
frames (stop sending until ``READY``), and retries disconnects with
exponential backoff plus *full jitter* — ``sleep ~ U(0, min(cap,
base * 2**attempt))`` — so a fleet of clients bounced by a server
restart does not reconnect in lockstep.

Delivery is exactly-once from the session's point of view despite
at-least-once sends: every batch carries a per-session sequence
number, the server's ``HELLO`` reply names the next sequence it
expects, and after a reconnect the client drops batches the server
already applied and resends the rest in order.  A batch cut in half by
a mid-frame disconnect was never applied (the server discards the
incomplete frame) and is resent; a batch whose *ack* was lost was
applied and is skipped (or acked as a duplicate).  This is what makes
the differential property testable under injected connection faults:
served ingest stays bit-identical to :meth:`QueryEngine.run` no matter
where the connection breaks.

The client also accepts a :class:`~repro.telemetry.faults.FaultInjector`
whose connection-level plan (``disconnect_sends`` / ``corrupt_sends`` /
``stall_sends``) it consults before each batch transmission — the test
hook that makes those recovery paths deterministic.
"""

from __future__ import annotations

import random
import socket
import time
from collections import OrderedDict, deque
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import SessionError
from repro.network.records import as_table

from . import wire

if TYPE_CHECKING:
    from repro.telemetry.faults import FaultInjector


class ClientError(SessionError):
    """The client gave up: admission was rejected, the server reported
    a fatal protocol error, or retries were exhausted."""


class IngestClient:
    """Stream batches into one named served session.

    Args:
        address: ``(host, port)`` for TCP, or a UNIX socket path
            (``str``/``Path``, optionally ``"unix:"``-prefixed).
        session: Served session name to attach to (created on first
            HELLO if absent).
        connect_timeout / io_timeout: Socket timeouts in seconds.
        max_retries: Reconnect attempts per operation before
            :class:`ClientError`.
        backoff_base / backoff_cap: Full-jitter backoff parameters;
            attempt ``n`` sleeps ``U(0, min(cap, base * 2**(n-1)))``.
        retry_seed: Seed for the jitter RNG (reproducible tests).
        faults: Optional :class:`~repro.telemetry.faults.FaultInjector`
            consulted before every batch transmission.
        max_inflight: Unacked-batch pipeline depth; sending blocks for
            acks once this many batches are on the wire.
    """

    def __init__(self, address: tuple[str, int] | str | Path,
                 session: str = "default", *,
                 connect_timeout: float = 10.0, io_timeout: float = 60.0,
                 max_retries: int = 8, backoff_base: float = 0.05,
                 backoff_cap: float = 2.0, retry_seed: int | None = None,
                 faults: "FaultInjector | None" = None,
                 max_inflight: int = 8) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self._address = self._parse_address(address)
        self.session = session
        self._connect_timeout = connect_timeout
        self._io_timeout = io_timeout
        self._max_retries = max_retries
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._rng = random.Random(retry_seed)
        self._faults = faults
        self._max_inflight = max_inflight
        self._sock: socket.socket | None = None
        self._buf = bytearray()
        self._next_seq = 0                     # next seq to assign
        self._unacked: OrderedDict[int, dict] = OrderedDict()
        self._unsent: deque[tuple[int, dict]] = deque()
        self._paused = False
        self._closed_remote = False
        # observability counters (asserted on by tests and the bench)
        self.busy_events = 0
        self.ready_events = 0
        self.reconnects = 0
        self.shed_batches = 0
        self.shed_records = 0
        self.shed_seqs: list[int] = []

    @staticmethod
    def _parse_address(
            address: tuple[str, int] | str | Path) -> tuple[str, Any]:
        if isinstance(address, tuple):
            host, port = address
            return ("tcp", (host, int(port)))
        text = str(address)
        if text.startswith("unix:"):
            text = text[len("unix:"):]
        return ("unix", text)

    # -- connection ------------------------------------------------------------

    def connect(self) -> dict:
        """Connect (retrying — the server may still be starting) and
        attach to the session; returns the HELLO reply."""
        return self._with_retry(self._hello)

    def _connect_once(self) -> None:
        kind, target = self._address
        if kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.settimeout(self._connect_timeout)
            sock.connect(target)
            sock.settimeout(self._io_timeout)
        except Exception:
            # until the socket lands on self._sock nothing else can
            # close it — a failed settimeout/connect must not leak the fd
            sock.close()
            raise
        self._sock = sock
        self._buf.clear()
        self._paused = False

    def _require_sock(self) -> socket.socket:
        """The live socket; raises into the retry path if the
        connection was dropped out from under the caller."""
        sock = self._sock
        if sock is None:
            raise ConnectionError("connection dropped")
        return sock

    def _hello(self) -> dict:
        if self._sock is None:
            self._connect_once()
        self._require_sock().sendall(wire.pack_frame(
            wire.T_HELLO, {"session": self.session}))
        ftype, payload = self._read_frame()
        if ftype == wire.T_REJECT:
            raise ClientError(
                f"admission rejected for session {self.session!r}: "
                f"{payload.get('reason')}")
        if ftype == wire.T_ERROR:
            raise ClientError(f"HELLO failed: {payload.get('reason')}")
        if ftype != wire.T_OK:
            raise ClientError(f"unexpected HELLO reply type {ftype}")
        if payload.get("closed"):
            self._closed_remote = True
            return payload
        # Exactly-once resync: drop what the server already applied,
        # queue the rest (in order) for resend.
        next_seq = payload["next_seq"]
        pending = sorted(
            [(seq, cols) for seq, cols in self._unacked.items()]
            + list(self._unsent))
        self._unacked.clear()
        self._unsent.clear()
        for seq, cols in pending:
            if seq >= next_seq:
                self._unsent.append((seq, cols))
        return payload

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._buf.clear()
        self._paused = False

    def _with_retry(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` against a live connection, reconnecting with
        full-jitter backoff on connection failures."""
        last: Exception | None = None
        for attempt in range(self._max_retries + 1):
            if attempt:
                delay = min(self._backoff_cap,
                            self._backoff_base * (2 ** (attempt - 1)))
                time.sleep(self._rng.uniform(0.0, delay))
                self.reconnects += 1
            try:
                if fn is self._hello:
                    return self._hello()
                if self._sock is None:
                    self._hello()
                return fn()
            except ClientError:
                self._drop_connection()
                raise
            except (ConnectionError, socket.timeout, TimeoutError,
                    OSError, wire.FrameError) as exc:
                last = exc
                self._drop_connection()
        raise ClientError(
            f"gave up on session {self.session!r} after "
            f"{self._max_retries} retries: {last}") from last

    # -- framing ---------------------------------------------------------------

    def _read_frame(self) -> tuple[int, dict]:
        sock = self._require_sock()
        while True:
            frame = self._parse_buffered()
            if frame is not None:
                return frame
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buf.extend(chunk)

    def _try_read_frame(self) -> tuple[int, dict] | None:
        """Drain any frames already buffered/readable without blocking."""
        frame = self._parse_buffered()
        if frame is not None:
            return frame
        sock = self._require_sock()
        sock.setblocking(False)
        try:
            while True:
                try:
                    chunk = sock.recv(1 << 16)
                except (BlockingIOError, InterruptedError):
                    return None
                if not chunk:
                    raise ConnectionError("server closed the connection")
                self._buf.extend(chunk)
                frame = self._parse_buffered()
                if frame is not None:
                    return frame
        finally:
            sock.settimeout(self._io_timeout)

    def _parse_buffered(self) -> tuple[int, dict] | None:
        if len(self._buf) < wire.HEADER.size:
            return None
        ftype, length, crc = wire.parse_header(
            bytes(self._buf[:wire.HEADER.size]))
        end = wire.HEADER.size + length
        if len(self._buf) < end:
            return None
        body = bytes(self._buf[wire.HEADER.size:end])
        del self._buf[:end]
        return ftype, wire.decode_payload(body, crc)

    # -- acks ------------------------------------------------------------------

    def _handle_ack(self, ftype: int, payload: dict) -> None:
        if ftype == wire.T_OK:
            self._unacked.pop(payload["seq"], None)
        elif ftype == wire.T_BUSY:
            self._unacked.pop(payload["seq"], None)
            self._paused = True
            self.busy_events += 1
        elif ftype == wire.T_READY:
            self._paused = False
            self.ready_events += 1
        elif ftype == wire.T_SHED:
            self._unacked.pop(payload["seq"], None)
            self.shed_batches += 1
            self.shed_records += payload.get("records", 0)
            self.shed_seqs.append(payload["seq"])
        elif ftype == wire.T_REJECT:
            raise ClientError(f"rejected: {payload.get('reason')}")
        elif ftype == wire.T_ERROR:
            reason = payload.get("reason")
            if payload.get("fatal"):
                raise ClientError(f"server error: {reason}")
            # Non-fatal (idle timeout, frame-sync drop): the server is
            # closing this connection; force the reconnect path.
            raise ConnectionError(f"server dropped connection: {reason}")
        else:
            raise ClientError(f"unexpected frame type {ftype} as batch ack")

    def _pump_acks(self) -> None:
        """Consume every ack currently available without blocking."""
        while True:
            frame = self._try_read_frame()
            if frame is None:
                return
            self._handle_ack(*frame)

    def _await_ack(self) -> None:
        self._handle_ack(*self._read_frame())

    # -- sending ---------------------------------------------------------------

    def send(self, batch: Any) -> None:
        """Queue one batch (any form
        :func:`~repro.network.records.as_table` accepts: a table, an
        iterable of records, a columns dict) and drive the pipeline;
        blocks while the server asserts backpressure or the pipeline
        is full."""
        self._check_open()
        columns = as_table(batch).columns()
        self._unsent.append((self._next_seq, columns))
        self._next_seq += 1
        self._with_retry(self._drive_sends)

    def flush(self) -> None:
        """Block until every queued batch is acknowledged."""
        self._check_open()
        self._with_retry(self._drive_all)

    def _check_open(self) -> None:
        if self._closed_remote:
            raise ClientError(
                f"session {self.session!r} is already closed on the "
                f"server; its final report is available via close_session()")

    def _drive_sends(self) -> None:
        """Transmit until the unsent queue is empty (respecting the
        pipeline depth and any ``BUSY`` pause in force)."""
        while self._unsent:
            self._pump_acks()
            if self._paused:
                self._await_ack()        # blocks until READY (or error)
                continue
            if len(self._unacked) >= self._max_inflight:
                self._await_ack()
                continue
            seq, columns = self._unsent.popleft()
            self._unacked[seq] = columns
            self._transmit_batch(seq, columns)

    def _drive_all(self) -> None:
        self._drive_sends()
        while self._unacked:
            self._await_ack()

    def _transmit_batch(self, seq: int, columns: dict) -> None:
        frame = bytearray(wire.pack_frame(
            wire.T_BATCH, {"seq": seq, "columns": columns}))
        sock = self._require_sock()
        action = self._faults.on_send() if self._faults is not None else None
        if action == "stall" and self._faults is not None:
            time.sleep(self._faults.plan.stall_seconds)
        elif action == "corrupt":
            # Flip one payload byte: the server's checksum rejects the
            # frame and drops the connection; the resync resends.
            frame[wire.HEADER.size] ^= 0xFF
        elif action == "disconnect":
            # Mid-frame disconnect: half the frame leaves, then the
            # socket dies — the server never sees a complete frame.
            sock.sendall(bytes(frame[:len(frame) // 2]))
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            raise ConnectionError("injected mid-frame disconnect")
        sock.sendall(bytes(frame))

    # -- synchronous calls -----------------------------------------------------

    def results(self) -> dict:
        """Flush, then fetch a mid-stream results snapshot; returns
        ``{"report": RunReport, "serve": metadata}``."""
        self._check_open()
        return self._with_retry(lambda: self._call(wire.T_RESULTS))

    def checkpoint(self) -> dict:
        """Flush, then fetch a durable checkpoint of the served session
        (``{"checkpoint": bytes, "serve": metadata}``) — feed the bytes
        to :meth:`QueryEngine.resume`."""
        self._check_open()
        return self._with_retry(lambda: self._call(wire.T_CHECKPOINT))

    def close_session(self) -> dict:
        """Flush, finalize the served session, and return its final
        ``{"report": RunReport, "serve": metadata}``.  Idempotent: the
        server keeps the report, so a retry after a lost reply
        re-fetches it."""
        payload = self._with_retry(lambda: self._call(wire.T_CLOSE))
        self._closed_remote = True
        return payload

    def _call(self, ftype: int) -> dict:
        self._drive_all()
        self._require_sock().sendall(wire.pack_frame(ftype, {}))
        while True:
            rtype, payload = self._read_frame()
            if rtype == wire.T_RESULT:
                return payload
            if rtype == wire.T_READY:
                self._paused = False
                self.ready_events += 1
                continue
            if rtype == wire.T_ERROR:
                raise ClientError(f"server error: {payload.get('reason')}")
            raise ClientError(
                f"unexpected frame type {rtype} in reply to call")

    # -- teardown --------------------------------------------------------------

    def disconnect(self) -> None:
        """Drop the connection without touching the session (it stays
        live on the server for a later reconnect)."""
        self._drop_connection()

    def __enter__(self) -> "IngestClient":
        self.connect()
        return self

    def __exit__(self, *exc: object) -> None:
        self.disconnect()


def stream_file(address: tuple[str, int] | str | Path,
                path: str | Path, session: str = "default",
                batch_size: int = 4096, **kwargs: Any) -> dict:
    """Convenience: replay a CSV observation trace through a client
    (connect → send in ``batch_size`` chunks → close); returns the
    final close payload."""
    from repro.traffic.trace_io import read_csv

    records = read_csv(path)
    client = IngestClient(address, session, **kwargs)
    client.connect()
    try:
        for start in range(0, len(records), batch_size):
            client.send(records[start:start + batch_size])
        return client.close_session()
    finally:
        client.disconnect()
