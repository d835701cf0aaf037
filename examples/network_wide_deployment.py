#!/usr/bin/env python
"""Network-wide deployment: one query, every switch.

The language is defined over observations from every queue in the
network, but each switch only sees its own.  This example installs one
program on all four switches of a leaf-spine fabric and shows the two
collection modes:

* counters (``COUNT``/``SUM``) combine *exactly* across switches —
  cross-stream accumulation is commutative for identity-matrix folds;
* the latency EWMA is order-dependent, so it is reported per
  (flow, switch) — which is the per-queue localisation the paper's
  motivation asks for anyway.

The counter deployment runs as a *streaming* network session: the
simulator feeds bounded columnar batches straight into one
``TelemetrySession`` per switch (``sim.stream_into``), so the full
observation table never has to exist in memory.

Run:  python examples/network_wide_deployment.py
"""

from collections import defaultdict

from repro import CacheGeometry
from repro.network.simulator import NetworkSimulator
from repro.network.topology import LinkSpec, leaf_spine
from repro.telemetry.deploy import NetworkDeployment
from repro.traffic.datacenter import DatacenterConfig, DatacenterWorkload

GEOMETRY = CacheGeometry.set_associative(1024, ways=8)

COUNTERS = "SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip"
EWMA = """
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

SELECT 5tuple, ewma GROUPBY 5tuple WHERE tout != infinity
"""


def build_simulator(topo) -> NetworkSimulator:
    sim = NetworkSimulator(topo)
    hosts = sorted(topo.hosts())
    workload = DatacenterWorkload(DatacenterConfig(
        n_racks=2, hosts_per_rack=4, n_flows=120, duration_ns=30_000_000,
        seed=9))
    for event in workload.injection_events():
        src = hosts[event.src_host % len(hosts)]
        dst = hosts[event.dst_host % len(hosts)]
        if src != dst:
            sim.inject(time_ns=event.time_ns, src=src, dst=dst,
                       pkt_len=event.pkt_len, srcport=event.srcport,
                       dstport=event.dstport)
    return sim


def main() -> None:
    topo = leaf_spine(n_leaves=2, n_spines=2, hosts_per_leaf=4,
                      edge_link=LinkSpec(rate_gbps=5.0, buffer_packets=48))

    # Counters: exact network-wide totals, streamed — the simulator
    # emits bounded columnar batches directly into one session per
    # switch; no whole-trace table is ever materialised.
    sim = build_simulator(topo)
    deploy = NetworkDeployment(COUNTERS, sim, geometry=GEOMETRY)
    session = deploy.open(window=8192)
    streamed = sim.stream_into(session, chunk_size=4096)
    print(f"{streamed} observations streamed across "
          f"{len(topo.switches())} switches\n")
    report = session.close()
    name = deploy.compiled.result
    print(f"counters combinable across switches: {report.combinable[name]}")
    top = sorted(report.result(name).rows, key=lambda r: -r["SUM(pkt_len)"])[:3]
    for row in top:
        print(f"  {row['srcip']:#x} -> {row['dstip']:#x}: "
              f"{row['COUNT']} observations, {row['SUM(pkt_len)']} bytes")

    # EWMA: per-switch localisation (one-shot run of the same workload
    # — the streaming run above drained the first simulator's events).
    sim2 = build_simulator(topo)
    table = sim2.run()
    deploy2 = NetworkDeployment(EWMA, sim2, params={"alpha": 0.1},
                                geometry=GEOMETRY)
    report2 = deploy2.run(table)
    name2 = deploy2.compiled.result
    print(f"\nEWMA combinable across switches: {report2.combinable[name2]} "
          "(order-dependent; reported per queue/switch)")
    by_switch: dict[str, list[float]] = defaultdict(list)
    for row in report2.result(name2).rows:
        by_switch[row["switch"]].append(row["lat_est"])
    print("mean flow-latency EWMA by switch:")
    for switch in sorted(by_switch):
        values = by_switch[switch]
        print(f"  {switch:8s} {sum(values) / len(values) / 1000:8.1f} us "
              f"({len(values)} flow entries)")


if __name__ == "__main__":
    main()
