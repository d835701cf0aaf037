#!/usr/bin/env python
"""Durable sessions: save a mid-stream checkpoint, "crash", resume.

A telemetry session is long-lived — it carries open epochs, fold
accumulators, and window residency across an unbounded stream, so
losing the process means re-reading the whole trace.
:meth:`~repro.telemetry.session.TelemetrySession.checkpoint` serializes
that state into a versioned, checksummed byte string;
:meth:`~repro.telemetry.runtime.QueryEngine.resume` rebuilds the
session on an identically-configured engine and continues exactly
where the snapshot stopped.  The resumed run is **bit-identical** to
one that never crashed — result tables, cache counters, accuracy, all
of it — which this script verifies on a Fig. 2 catalog query.

The same bytes round-trip through a file, so a driver can persist them
(``run --checkpoint-to`` / ``--resume-from`` on the CLI do exactly
this) and survive a kill between any two batches.

Run:  python examples/checkpoint_restore.py
"""

import tempfile
from pathlib import Path

from repro.network.records import ObservationTable
from repro.queries.catalog import ALL_QUERIES
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.checkpoint import describe_checkpoint
from repro.telemetry.runtime import QueryEngine
from repro.traffic.datacenter import DatacenterConfig, DatacenterWorkload

CHUNK = 4096


def chunked(table, size):
    columns = table.columns()
    for lo in range(0, len(table), size):
        yield ObservationTable.from_arrays(
            {name: arr[lo:lo + size] for name, arr in columns.items()})


def main() -> None:
    entry = ALL_QUERIES["per_flow_loss_rate"]
    trace = DatacenterWorkload(DatacenterConfig(
        n_flows=200, duration_ns=50_000_000, seed=11)).observation_table()
    # Plant ~0.5% drops (tout = +inf) so the loss-rate query has
    # something to report.
    trace.columns()["tout"][199::200] = float("inf")
    engine = QueryEngine(entry.source, params=entry.default_params,
                         geometry=CacheGeometry.set_associative(512, ways=8))

    # The reference: one session, never interrupted.
    reference = engine.open(window=8192)
    for batch in chunked(trace, CHUNK):
        reference.ingest(batch)
    expected = reference.close(include_invalid=True)

    # The durable run: stream half the trace, save a checkpoint ...
    session = engine.open(window=8192)
    half = len(trace) // 2
    for batch in chunked(trace, CHUNK):
        if session.packets_ingested >= half:
            break
        session.ingest(batch)
    path = Path(tempfile.gettempdir()) / "repro_session.ckpt"
    path.write_bytes(session.checkpoint())
    print(f"checkpointed {session.packets_ingested} of {len(trace)} "
          f"packets to {path} ({path.stat().st_size / 1024:.1f} KiB)")
    for key, value in describe_checkpoint(path.read_bytes()).items():
        if value is not None:
            print(f"  {key}: {value}")

    # ... "crash" (drop the session entirely), then resume from disk.
    del session
    resumed = engine.resume(path.read_bytes())
    skip = resumed.packets_ingested
    print(f"\nresumed: skipping the {skip} packets the snapshot "
          f"already absorbed")
    rest = ObservationTable.from_arrays(
        {name: arr[skip:] for name, arr in trace.columns().items()})
    for batch in chunked(rest, CHUNK):
        resumed.ingest(batch)
    actual = resumed.close(include_invalid=True)

    same_rows = actual.result.rows == expected.result.rows
    same_stats = all(
        (actual.cache_stats[q].accesses, actual.cache_stats[q].evictions)
        == (expected.cache_stats[q].accesses,
            expected.cache_stats[q].evictions)
        for q in expected.cache_stats)
    print(f"\n{entry.name}: {len(actual.result)} result rows")
    print(f"bit-identical to the uninterrupted run: "
          f"rows {'yes' if same_rows else 'NO'}, "
          f"cache counters {'yes' if same_stats else 'NO'}")
    if not (same_rows and same_stats):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
