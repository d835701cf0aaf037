#!/usr/bin/env python
"""Fleet monitoring: per-flow loss rates and latency EWMAs on a
leaf-spine fabric.

Exercises query *composition* and the restricted ``JOIN`` (§2): the
loss-rate query joins two on-switch ``GROUPBY``s in the collection
software, and the latency query is the paper's order-dependent EWMA
fold — the example that motivates the linear-in-state merge.

Run:  python examples/loss_latency_monitoring.py
"""

from repro import CacheGeometry, QueryEngine
from repro.network.simulator import NetworkSimulator
from repro.network.topology import LinkSpec, leaf_spine
from repro.traffic.datacenter import DatacenterConfig, DatacenterWorkload

LOSS_RATES = """
R1 = SELECT COUNT GROUPBY 5tuple
R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity
R3 = SELECT R2.COUNT/R1.COUNT AS loss_rate FROM R1 JOIN R2 ON 5tuple
"""

LATENCY_EWMA = """
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

SELECT 5tuple, ewma GROUPBY 5tuple WHERE tout != infinity
"""

GEOMETRY = CacheGeometry.set_associative(1024, ways=8)


def build_fabric_trace():
    """2 leaves x 2 spines, 8 hosts; replay a datacenter workload with
    tight edge buffers so congestion (and loss) actually occurs."""
    topo = leaf_spine(n_leaves=2, n_spines=2, hosts_per_leaf=4,
                      edge_link=LinkSpec(rate_gbps=2.0, buffer_packets=24),
                      fabric_link=LinkSpec(rate_gbps=4.0, buffer_packets=48))
    sim = NetworkSimulator(topo)
    hosts = sorted(topo.hosts())
    workload = DatacenterWorkload(DatacenterConfig(
        n_racks=2, hosts_per_rack=4, n_flows=150,
        duration_ns=40_000_000, seed=3))
    for event in workload.injection_events():
        src = hosts[event.src_host % len(hosts)]
        dst = hosts[event.dst_host % len(hosts)]
        if src == dst:
            continue
        sim.inject(time_ns=event.time_ns, src=src, dst=dst,
                   pkt_len=event.pkt_len, srcport=event.srcport,
                   dstport=event.dstport, tcpseq=event.tcpseq)
    table = sim.run()
    return sim, table


def main() -> None:
    sim, table = build_fabric_trace()
    print(f"fabric trace: {len(table)} observations over "
          f"{len(sim.queues)} queues; {sim.dropped} packets dropped\n")

    loss = QueryEngine(LOSS_RATES, geometry=GEOMETRY).run(table)
    lossy = sorted(loss.result.rows, key=lambda r: -r["loss_rate"])
    print(f"flows with loss ({len(lossy)} of "
          f"{len(loss.tables['R1'])} total):")
    for row in lossy[:6]:
        print(f"  {row['srcip']:#x}:{row['srcport']} -> "
              f"{row['dstip']:#x}:{row['dstport']}  "
              f"loss={100 * row['loss_rate']:.1f}%")

    latency = QueryEngine(LATENCY_EWMA, params={"alpha": 0.1},
                          geometry=GEOMETRY).run(table)
    worst = sorted(latency.result.rows, key=lambda r: -r["lat_est"])
    print("\nworst per-flow queueing-latency EWMAs (per queue visit):")
    for row in worst[:6]:
        print(f"  {row['srcip']:#x} -> {row['dstip']:#x}  "
              f"ewma={row['lat_est'] / 1000:.1f} us")

    # Cross-check: flows with loss should skew toward high latency —
    # both are symptoms of the same congested queues.
    lossy_keys = {(r["srcip"], r["dstip"], r["srcport"], r["dstport"],
                   r["proto"]) for r in lossy}
    high_lat = {(r["srcip"], r["dstip"], r["srcport"], r["dstport"],
                 r["proto"]) for r in worst[:max(1, len(worst) // 4)]}
    overlap = lossy_keys & high_lat
    print(f"\n{len(overlap)} of {len(lossy_keys)} lossy flows are also in "
          f"the top-quartile latency set")


if __name__ == "__main__":
    main()
