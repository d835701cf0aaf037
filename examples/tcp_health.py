#!/usr/bin/env python
"""TCP health monitoring: the two stateful Fig. 2 queries side by side.

``outofseq`` (linear in state, mergeable — with the bounded-history
coefficients of footnote 4) and ``nonmt`` (not linear in state — the
backing store keeps per-epoch value segments and marks multi-epoch keys
invalid).  The example plants known anomalies and shows:

* both queries detect the planted retransmissions/reorderings;
* the linear query stays exact through cache evictions (with the
  exact-history merge extension);
* the non-linear query degrades gracefully — invalid keys are
  reported, and their per-epoch segments remain available.

Run:  python examples/tcp_health.py
"""

from repro import CacheGeometry, QueryEngine
from repro.traffic.datacenter import DatacenterConfig, DatacenterWorkload
from repro.traffic.tcpgen import (
    TcpAnomalyConfig,
    clean_sequence_table,
    inject_tcp_anomalies,
)

OUT_OF_SEQ = """
def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):
    if lastseq + 1 != tcpseq:
        oos_count = oos_count + 1
    lastseq = tcpseq + payload_len

SELECT 5tuple, outofseq GROUPBY 5tuple WHERE proto == TCP
"""

NON_MONOTONIC = """
def nonmt ((maxseq, nm_count), tcpseq):
    if maxseq > tcpseq:
        nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == TCP
"""

#: Small cache ⇒ real eviction pressure on both queries.
GEOMETRY = CacheGeometry.set_associative(64, ways=8)


def main() -> None:
    workload = DatacenterWorkload(DatacenterConfig(
        n_flows=250, duration_ns=120_000_000, seed=5))
    table = workload.observation_table()
    clean_sequence_table(table)
    planted = inject_tcp_anomalies(table, TcpAnomalyConfig(
        retransmit_rate=0.02, reorder_rate=0.01, duplicate_rate=0.005))
    print(f"trace: {len(table)} packets; planted anomalies: {planted}\n")

    # -- linear-in-state: exact through evictions -----------------------
    oos = QueryEngine(OUT_OF_SEQ, geometry=GEOMETRY,
                      exact_history=True).run(
        table, with_ground_truth=True)
    truth = oos.ground_truth[oos.result_name].by_key()
    hw = oos.result.by_key()
    mism = sum(1 for k in truth
               if truth[k]["outofseq.oos_count"] != hw[k]["outofseq.oos_count"])
    total_oos = sum(r["outofseq.oos_count"] for r in oos.result)
    stats = oos.cache_stats[oos.result_name]
    print("outofseq (linear in state, merged on eviction):")
    print(f"  evictions: {stats.evictions} "
          f"({100 * stats.eviction_fraction:.1f}% of packets)")
    print(f"  out-of-sequence events: {total_oos}")
    print(f"  flows mismatching the never-evicting run: {mism} (expect 0)\n")

    # -- not linear in state: validity accounting ------------------------
    nonmt = QueryEngine(NON_MONOTONIC, geometry=GEOMETRY).run(
        table, include_invalid=False)
    accuracy = nonmt.accuracy[nonmt.result_name]
    flagged = [r for r in nonmt.result if r["nonmt.nm_count"] > 0]
    print("nonmt (not linear in state, per-epoch value segments):")
    print(f"  valid keys: {100 * accuracy:.1f}% "
          "(invalid = evicted and reappeared, §3.2)")
    print(f"  flows with non-monotonic sequence numbers: {len(flagged)} "
          f"of {len(nonmt.result)} valid flows")
    worst = sorted(flagged, key=lambda r: -r["nonmt.nm_count"])[:5]
    for row in worst:
        print(f"    {row['srcip']:#x}:{row['srcport']}  "
              f"events={row['nonmt.nm_count']}")


if __name__ == "__main__":
    main()
