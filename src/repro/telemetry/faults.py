"""Deterministic fault injection for durable-session testing.

A :class:`FaultPlan` names, ahead of time, exactly which events fail:
the Nth batch posted to worker ``w`` kills that worker first, the Nth
acknowledgement seen on the control pipe is dropped (its shared-memory
segment stays pending until close) or duplicated (exercising release
idempotency), and the Nth session ingest call aborts mid-window with
:class:`InjectedFault` (exercising session poisoning).  Plans are plain
data, so a schedule is reproducible across runs — the property the
differential checkpoint tests rely on: a crashed-and-recovered run
must be bit-identical to an uninterrupted one.

Connection-level faults cover the live ingest service
(:mod:`repro.telemetry.serve` / :mod:`repro.telemetry.client`): the Nth
batch *send* on the wire can disconnect mid-frame (half the frame's
bytes are written, then the socket drops — the server discards the
incomplete frame and the client's sequence resync delivers the batch
exactly once on retry), corrupt the frame (a payload byte is flipped,
tripping the frame checksum server-side), or stall (the client sleeps
past the server's idle timeout, exercising dead-client reaping).  The
served differential property in ``tests/test_serve.py`` runs under
these plans: socket ingest with injected connection faults must stay
bit-identical to :meth:`QueryEngine.run`.

The :class:`FaultInjector` is the live counterpart threaded through
``QueryEngine.open(..., faults=...)`` down to the
:class:`~repro.telemetry.shard_exec.ShardWorkerPool` transport.  The
pool consults it only on *public* sends and acks — never on its
internal checkpoint/restore/replay traffic, so recovery itself is not
re-faulted and every plan terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class InjectedFault(RuntimeError):
    """Raised by :meth:`FaultInjector.on_ingest` to abort a session
    ingest mid-window on schedule."""


@dataclass
class FaultPlan:
    """Which event ordinals fail.  All ordinals are 1-based and count
    *events of that type* since the injector was created.

    Attributes:
        kill_posts: ``{worker_index: {post_ordinal, ...}}`` — before
            the Nth batch is posted to that worker, the worker process
            is SIGKILLed (the batch is delivered via recovery replay).
        drop_acks: Ack ordinals (across all workers) whose shared-
            memory release is skipped.
        dup_acks: Ack ordinals processed twice.
        abort_ingests: Session-level ingest ordinals that raise
            :class:`InjectedFault` mid-call.
        disconnect_sends: Wire-send ordinals (client side) where only
            half of the batch frame is written before the socket drops.
        corrupt_sends: Wire-send ordinals whose frame payload has one
            byte flipped (checksum failure at the server).
        stall_sends: Wire-send ordinals preceded by a
            ``stall_seconds`` sleep (idle/dead-client timeout fodder).
        stall_seconds: How long a stalled send sleeps.
    """

    kill_posts: dict[int, set[int]] = field(default_factory=dict)
    drop_acks: set[int] = field(default_factory=set)
    dup_acks: set[int] = field(default_factory=set)
    abort_ingests: set[int] = field(default_factory=set)
    disconnect_sends: set[int] = field(default_factory=set)
    corrupt_sends: set[int] = field(default_factory=set)
    stall_sends: set[int] = field(default_factory=set)
    stall_seconds: float = 0.5


class FaultInjector:
    """Live counters over a :class:`FaultPlan`, plus an event log the
    tests assert against (``injector.events``) to prove each scheduled
    fault actually fired."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.events: list[tuple] = []
        self._posts: dict[int, int] = {}
        self._acks = 0
        self._ingests = 0
        self._sends = 0
        #: Send faults whose ordinal was claimed by a higher-priority
        #: fault on the same send — carried over to the next sends so
        #: an overlapping plan still fires every scheduled fault.
        self._send_backlog: list[str] = []

    # -- pool transport hooks ------------------------------------------------

    def on_post(self, worker: int, op: str) -> str | None:
        """Consulted before every public send to ``worker``; returns
        ``"kill"`` to SIGKILL the worker first, else ``None``."""
        n = self._posts.get(worker, 0) + 1
        self._posts[worker] = n
        if n in self.plan.kill_posts.get(worker, ()):
            self.events.append(("kill", worker, n, op))
            return "kill"
        return None

    def on_ack(self, worker: int) -> str | None:
        """Consulted on every batch acknowledgement; returns ``"drop"``
        (skip the segment release), ``"dup"`` (release twice), or
        ``None``."""
        self._acks += 1
        if self._acks in self.plan.drop_acks:
            self.events.append(("drop_ack", worker, self._acks))
            return "drop"
        if self._acks in self.plan.dup_acks:
            self.events.append(("dup_ack", worker, self._acks))
            return "dup"
        return None

    # -- session hook --------------------------------------------------------

    def on_ingest(self) -> None:
        """Consulted at the top of every session ingest; raises
        :class:`InjectedFault` on scheduled ordinals."""
        self._ingests += 1
        if self._ingests in self.plan.abort_ingests:
            self.events.append(("abort_ingest", self._ingests))
            raise InjectedFault(
                f"injected fault: ingest #{self._ingests} aborted "
                f"mid-window on schedule")

    # -- wire transport hook (ingest client) ----------------------------------

    def on_send(self) -> str | None:
        """Consulted before every batch frame leaves the client's
        socket; returns ``"disconnect"`` (write half the frame, drop
        the connection), ``"corrupt"`` (flip a payload byte), or
        ``"stall"`` (sleep ``stall_seconds`` first), else ``None``.
        Each ordinal counts one *transmission attempt* — a retried
        batch is a fresh send event, so every scheduled fault fires
        exactly once and every plan terminates.  When one ordinal
        schedules several faults, one fires per send in
        disconnect/corrupt/stall priority order and the rest carry
        over to the following sends (a disconnect or corrupt forces a
        retry, so the carried-over fault always gets its send)."""
        self._sends += 1
        if self._sends in self.plan.disconnect_sends:
            self._send_backlog.append("disconnect")
        if self._sends in self.plan.corrupt_sends:
            self._send_backlog.append("corrupt")
        if self._sends in self.plan.stall_sends:
            self._send_backlog.append("stall")
        if self._send_backlog:
            kind = self._send_backlog.pop(0)
            self.events.append((f"{kind}_send", self._sends))
            return kind
        return None
