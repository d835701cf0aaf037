#!/usr/bin/env python
"""Live ingest service: socket front end with backpressure + drain.

Everything else in this repo feeds a session in-process.  The ingest
service (:meth:`~repro.telemetry.runtime.QueryEngine.serve`, or
``python -m repro.cli serve`` on the command line) moves that behind a
localhost socket: a long-running server owns the sessions, clients
stream length-framed columnar batches at it, and robustness is the
contract — bounded per-session queues answer ``BUSY``/``READY``
instead of inflating, overload is refused at admission with a reason,
the client retries disconnects with full-jitter backoff and resumes
exactly where the last acknowledged batch left off, and a graceful
drain checkpoints every session to disk before exiting.

This script runs the whole loop in one process:

1. start a server (deliberately slow consumer, tiny queue watermark,
   checkpoint directory configured),
2. stream a datacenter trace through :class:`IngestClient` — with a
   mid-frame disconnect injected to show the retry path — and watch
   BUSY/READY backpressure fire,
3. fetch the final report over the wire and check it is bit-identical
   to the one-shot ``run()`` of the same trace,
4. stop the server (the graceful-drain path: SIGTERM does the same)
   and resume its drain checkpoint offline.

Run:  python examples/live_ingest.py
"""

import tempfile
from pathlib import Path

from repro.network.records import ObservationTable
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.client import IngestClient
from repro.telemetry.faults import FaultInjector, FaultPlan
from repro.telemetry.runtime import QueryEngine
from repro.traffic.datacenter import DatacenterConfig, DatacenterWorkload

QUERY = "SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip"
CHUNK = 2048


def chunked(table, size):
    columns = table.columns()
    for lo in range(0, len(table), size):
        yield ObservationTable.from_arrays(
            {name: arr[lo:lo + size] for name, arr in columns.items()})


def main() -> None:
    trace = DatacenterWorkload(DatacenterConfig(
        n_flows=300, duration_ns=60_000_000, seed=23)).observation_table()
    engine = QueryEngine(QUERY,
                         geometry=CacheGeometry.set_associative(512, ways=8))
    ckpt_dir = Path(tempfile.mkdtemp(prefix="repro_serve_"))

    # 1. A server with a deliberately slow consumer and a queue small
    #    enough that the client will hit the high watermark.
    server = engine.serve(window=4096, queue_high_bytes=64_000,
                          queue_low_bytes=16_000, ingest_delay=0.005,
                          checkpoint_dir=ckpt_dir)
    host, port = server.start()
    print(f"ingest service listening on {host}:{port}")

    # 2. Stream the trace.  The injected fault kills the connection
    #    halfway through frame 4; the client reconnects, learns which
    #    sequence numbers the server already applied, and resends only
    #    the rest — exactly-once, no duplicated ingest.
    injector = FaultInjector(FaultPlan(disconnect_sends={4}))
    client = IngestClient(("127.0.0.1", port), session="live",
                          faults=injector, retry_seed=7)
    client.connect()
    for batch in chunked(trace, CHUNK):
        client.send(batch)
    final = client.close_session()
    client.disconnect()
    meta = final["serve"]
    print(f"streamed {meta['records_in']} records in "
          f"{meta['batches_in']} batches: "
          f"{meta['busy_events']} BUSY pauses, "
          f"{client.reconnects} reconnect(s) after the injected "
          f"disconnect, {meta['shed_batches']} shed")

    # 3. The served report must match the one-shot run bit for bit.
    expected = engine.run(trace)
    report = final["report"]
    same = (report.result.rows == expected.result.rows
            and all((report.cache_stats[q].accesses,
                     report.cache_stats[q].evictions)
                    == (expected.cache_stats[q].accesses,
                        expected.cache_stats[q].evictions)
                    for q in expected.cache_stats))
    print(f"served result bit-identical to run(): "
          f"{'yes' if same else 'NO'} ({len(report.result)} rows)")

    # 4. Graceful drain: leave a second session mid-stream (as a real
    #    SIGTERM would catch it), stop the server, and watch the drain
    #    checkpoint it to the configured directory.
    half = ObservationTable.from_arrays(
        {name: arr[:len(trace) // 2] for name, arr in trace.columns().items()})
    with IngestClient(("127.0.0.1", port), session="midstream") as abandoned:
        for batch in chunked(half, CHUNK):
            abandoned.send(batch)
        abandoned.flush()                    # acked, but never closed
    drain = server.stop()
    print(f"drained: sessions={sorted(drain['sessions'])} "
          f"rejected={drain['rejected']} idle_closed={drain['idle_closed']}")

    # The mid-stream session resumes offline from the drain checkpoint
    # and finishes to the same answer as an uninterrupted run.
    snapshot = ckpt_dir / "midstream.ckpt"
    print(f"drain checkpoint: {snapshot.name} "
          f"({snapshot.stat().st_size / 1024:.1f} KiB)")
    resumed = engine.resume(snapshot.read_bytes())
    skip = resumed.packets_ingested
    rest = ObservationTable.from_arrays(
        {name: arr[skip:] for name, arr in trace.columns().items()})
    for batch in chunked(rest, CHUNK):
        resumed.ingest(batch)
    finished = resumed.close(include_invalid=True)
    same_resumed = finished.result.rows == expected.result.rows
    print(f"resumed {skip} packets in, finished offline: "
          f"bit-identical to run(): {'yes' if same_resumed else 'NO'}")
    if not (same and same_resumed):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
