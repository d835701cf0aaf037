"""Event-driven network simulator producing the observation table.

The query language's input is "an abstract table containing timestamped
records of each packet's arrival and departure at every network queue"
(§2).  This simulator materialises that table: packets injected at
hosts are routed hop by hop (shortest path); every switch egress queue
traversed contributes one :class:`PacketRecord` with real ``tin`` /
``tout`` / ``qin`` / ``qout`` values from the queue model, and a drop
terminates the packet's journey with ``tout = +inf`` at the dropping
queue.

``pkt_path`` is a stable hash of the node sequence, left opaque to
queries exactly as the paper specifies ("we leave its value
uninterpreted").

Events are processed on a global time heap, which also guarantees each
queue sees nondecreasing arrival times as its analytic model requires.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.switch.kvstore.cache import mix_key

from .queues import Departure, Drop, OutputQueue
from .records import RECORD_FIELDS, ObservationTable
from .topology import Topology


@dataclass(order=True)
class _Event:
    """Arrival of a packet at a node at a given time."""

    time: int
    seq: int
    packet: "SimPacket" = field(compare=False)
    node_index: int = field(compare=False, default=0)


@dataclass
class SimPacket:
    """A packet in flight: headers plus its route."""

    srcip: int
    dstip: int
    srcport: int
    dstport: int
    proto: int
    pkt_len: int
    payload_len: int
    tcpseq: int
    pkt_id: int
    path: list[str]
    path_id: int


class NetworkSimulator:
    """Simulates packet transit over a :class:`Topology`.

    Usage::

        sim = NetworkSimulator(topology)
        sim.inject(time_ns=0, src="h0", dst="h1", pkt_len=1500)
        table = sim.run()

    Host-name to address mapping is automatic (stable per topology);
    use :meth:`host_ip` to build queries that reference concrete hosts.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self.queues: dict[int, OutputQueue] = {}
        for (u, v) in topology.queue_edges():
            spec = topology.link(u, v)
            qid = topology.qid(u, v)
            self.queues[qid] = OutputQueue(
                qid=qid, rate_gbps=spec.rate_gbps,
                buffer_packets=spec.buffer_packets,
            )
        self._events: list[_Event] = []
        self._seq = itertools.count()
        self._pkt_ids = itertools.count()
        self._host_ips = {h: 0x0A000001 + i * 256
                          for i, h in enumerate(sorted(topology.hosts()))}
        # Records accumulate as per-field columnar buffers (one Python
        # list per schema field) and become a columnar ObservationTable
        # in run() — no per-record dataclass allocation or row sort.
        self._buffers: dict[str, list] = {name: [] for name in RECORD_FIELDS}
        self._streamed = False
        self.table = ObservationTable()
        self.delivered = 0
        self.dropped = 0

    # -- injection -----------------------------------------------------------

    def host_ip(self, host: str) -> int:
        return self._host_ips[host]

    def inject(
        self,
        time_ns: int,
        src: str,
        dst: str,
        pkt_len: int = 1500,
        srcport: int = 10000,
        dstport: int = 80,
        proto: int = 6,
        payload_len: int | None = None,
        tcpseq: int = 0,
    ) -> int:
        """Schedule one packet; returns its ``pkt_id``."""
        path = self.topology.path(src, dst)
        pkt_id = next(self._pkt_ids)
        packet = SimPacket(
            srcip=self._host_ips[src], dstip=self._host_ips[dst],
            srcport=srcport, dstport=dstport, proto=proto,
            pkt_len=pkt_len,
            payload_len=payload_len if payload_len is not None else max(0, pkt_len - 40),
            tcpseq=tcpseq, pkt_id=pkt_id, path=path,
            # The path id is opaque to queries (§2, "we leave its value
            # uninterpreted"); masking to 63 bits keeps it storable in
            # the observation table's int64 columns.
            path_id=mix_key(tuple(zlib.crc32(n.encode()) for n in path))
            & 0x7FFFFFFFFFFFFFFF,
        )
        heapq.heappush(self._events,
                       _Event(time=time_ns, seq=next(self._seq), packet=packet))
        return pkt_id

    # -- execution -------------------------------------------------------------

    def run(self) -> ObservationTable:
        """Drain the event heap; returns the observation table sorted
        by queue-arrival time (the stream order queries consume).

        The table is assembled columnar: the per-field buffers become
        numpy columns and one ``np.lexsort((pkt_id, tin))`` replaces
        the old Python row sort (same ``(tin, pkt_id)`` order).
        """
        if self._streamed:
            raise RuntimeError(
                "observations were already streamed out via "
                "stream_into(); run() would return an empty table — "
                "build a fresh simulator (or collect the streamed "
                "batches) to get the whole table"
            )
        events = self._events
        while events:
            event = heapq.heappop(events)
            self._arrive(event)
        arrays = {
            name: np.asarray(values,
                             dtype=np.float64 if name == "tout" else np.int64)
            for name, values in self._buffers.items()
        }
        order = np.lexsort((arrays["pkt_id"], arrays["tin"]))
        self.table = ObservationTable.from_arrays(
            {name: arr[order] for name, arr in arrays.items()})
        return self.table

    def stream_into(self, session, chunk_size: int = 1 << 16) -> int:
        """Drain the event heap, feeding observations into ``session``
        (anything with an ``ingest`` method — a
        :class:`~repro.telemetry.session.TelemetrySession` or a
        network-wide :class:`~repro.telemetry.deploy.NetworkSession`)
        in bounded columnar batches, in exactly the order :meth:`run`'s
        table would hold.

        Records are buffered per field as in :meth:`run`, but flushed
        whenever roughly ``chunk_size`` have accumulated: every
        buffered record with ``tin`` strictly below the next pending
        event's time is final (a queue stamps ``tin`` with the event
        time, and events pop in nondecreasing time order), so the
        prefix can be sorted by ``(tin, pkt_id)`` and emitted — the
        concatenation of the batches equals the one-shot table bit for
        bit, while peak memory stays bounded by the chunk, not the
        trace.  Returns the number of observations streamed.
        """
        self._streamed = True
        events = self._events
        streamed = 0
        while events:
            event = heapq.heappop(events)
            self._arrive(event)
            if events and len(self._buffers["tin"]) >= chunk_size:
                streamed += self._flush_into(session, events[0].time)
        streamed += self._flush_into(session, None)
        return streamed

    def _flush_into(self, session, horizon: int | None) -> int:
        """Emit the finalised buffer prefix (``tin < horizon``; all of
        it when ``horizon`` is None) into ``session``."""
        buffers = self._buffers
        n = len(buffers["tin"])
        if horizon is None:
            cut = n
        else:
            # tins are nondecreasing in record order (see stream_into).
            cut = bisect.bisect_left(buffers["tin"], horizon)
        if cut == 0:
            return 0
        arrays = {
            name: np.asarray(values[:cut],
                             dtype=np.float64 if name == "tout" else np.int64)
            for name, values in buffers.items()
        }
        for name in buffers:
            del buffers[name][:cut]
        order = np.lexsort((arrays["pkt_id"], arrays["tin"]))
        session.ingest(ObservationTable.from_arrays(
            {name: arr[order] for name, arr in arrays.items()}))
        return cut

    def _arrive(self, event: _Event) -> None:
        packet = event.packet
        node = packet.path[event.node_index]
        if event.node_index == len(packet.path) - 1:
            self.delivered += 1
            return
        next_node = packet.path[event.node_index + 1]
        if not self.topology.is_switch(node):
            # Host NIC: model as pure link traversal (no observed queue).
            spec = self.topology.link(node, next_node)
            tx = int(packet.pkt_len * 8.0 / spec.rate_gbps)
            heapq.heappush(self._events, _Event(
                time=event.time + tx + spec.prop_delay_ns,
                seq=next(self._seq), packet=packet,
                node_index=event.node_index + 1,
            ))
            return

        qid = self.topology.qid(node, next_node)
        queue = self.queues[qid]
        fate = queue.offer(event.time, packet.pkt_len)
        if isinstance(fate, Drop):
            self.dropped += 1
            self._record(packet, qid, fate.tin, float("inf"), fate.qin, 0)
            return
        assert isinstance(fate, Departure)
        self._record(packet, qid, fate.tin, float(fate.tout),
                     fate.qin, fate.qout)
        spec = self.topology.link(node, next_node)
        heapq.heappush(self._events, _Event(
            time=fate.tout + spec.prop_delay_ns,
            seq=next(self._seq), packet=packet,
            node_index=event.node_index + 1,
        ))

    def _record(self, packet: SimPacket, qid: int, tin: int, tout: float,
                qin: int, qout: int) -> None:
        buffers = self._buffers
        buffers["srcip"].append(packet.srcip)
        buffers["dstip"].append(packet.dstip)
        buffers["srcport"].append(packet.srcport)
        buffers["dstport"].append(packet.dstport)
        buffers["proto"].append(packet.proto)
        buffers["pkt_len"].append(packet.pkt_len)
        buffers["payload_len"].append(packet.payload_len)
        buffers["tcpseq"].append(packet.tcpseq)
        buffers["pkt_id"].append(packet.pkt_id)
        buffers["qid"].append(qid)
        buffers["tin"].append(tin)
        buffers["tout"].append(tout)
        buffers["qin"].append(qin)
        buffers["qout"].append(qout)
        buffers["qsize"].append(qin)
        buffers["pkt_path"].append(packet.path_id)
