#!/usr/bin/env python
"""Quickstart: write a performance query, compile it, run it.

Walks the full co-design loop from the paper on a synthetic datacenter
workload:

1. write a declarative query (per-flow packet/byte counters, Fig. 2
   row 1);
2. inspect the compiled switch configuration — parser fields,
   match-action stage, key-value store layout, merge strategy — and
   the compile-time deployability report (stable diagnostic codes,
   see DIAGNOSTICS.md);
3. open a streaming :class:`TelemetrySession` and ingest the trace in
   batches, pulling a mid-stream result snapshot along the way (the
   way a live monitor would);
4. read final results from the backing store and check them against
   ``run_exact``: the same pipeline on a cache that never evicts.

Run:  python examples/quickstart.py
"""

from repro import CacheGeometry, QueryEngine
from repro.telemetry.results import compare_tables
from repro.traffic.datacenter import DatacenterConfig, DatacenterWorkload

QUERY = """
SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip
"""


def main() -> None:
    # A ~1/10-second datacenter workload: 4 racks, heavy-tailed flows.
    workload = DatacenterWorkload(DatacenterConfig(
        n_flows=300, duration_ns=100_000_000, seed=1))
    table = workload.observation_table()
    print(f"trace: {len(table)} packet observations, "
          f"{table.unique_keys(('srcip', 'dstip'))} src-dst pairs\n")

    # Compile the query and show what would be installed on the switch.
    engine = QueryEngine(
        QUERY,
        # A deliberately small cache so evictions (and merges) happen:
        geometry=CacheGeometry.set_associative(64, ways=8),
    )
    print("switch configuration:")
    print(engine.describe_plan())
    print()

    # Deployability verdicts, decided before any packet flows: §3.2
    # mergeability, the §4 SRAM budget, engine/session compatibility.
    # Hard errors (RPR-E*) would make engine.open() raise; this query
    # only accrues the per-stage accounting and hygiene notes.
    print("deployability diagnostics:")
    print(engine.diagnostics_report.format())
    assert not engine.diagnostics_report.has_errors
    print()

    # Stream the observations through the modelled pipeline as a
    # telemetry session: ingest in batches, snapshot mid-stream, close
    # for the final report.  (engine.run(...) is exactly this, in one
    # call, for bounded traces.)
    session = engine.open(window=4096)
    half = len(table) // 2
    session.ingest(table[:half])
    midway = session.results()
    print(f"mid-stream snapshot after {half} observations: "
          f"{len(midway.result)} flow pairs so far")
    session.ingest(table[half:])
    report = session.close()
    report.ground_truth = engine.run_exact(table)

    stats = report.cache_stats[report.result_name]
    print(f"cache: {stats.accesses} accesses, {stats.hits} hits, "
          f"{stats.evictions} evictions "
          f"({100 * stats.eviction_fraction:.1f}% of packets)")
    print(f"backing store writes: {report.backing_writes[report.result_name]}\n")

    # Results live in the backing store (§3.2) — top talkers by bytes:
    top = sorted(report.result.rows, key=lambda r: -r["SUM(pkt_len)"])[:5]
    print("top 5 src-dst pairs by bytes:")
    for row in top:
        print(f"  {row['srcip']:>10x} -> {row['dstip']:<10x}  "
              f"pkts={row['COUNT']:<6} bytes={row['SUM(pkt_len)']}")

    # The merge machinery makes the split store exact for linear folds:
    diff = compare_tables(report.result, report.ground_truth[report.result_name])
    print(f"\nvs never-evicting run: {diff.describe()}")
    assert diff.exact


if __name__ == "__main__":
    main()
