"""Network-wide deployment tests: per-switch pipelines + combination."""

import pytest

from repro.core.interpreter import run_query
from repro.network.simulator import NetworkSimulator
from repro.network.topology import LinkSpec, leaf_spine, linear_chain
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.deploy import NetworkDeployment

GEOM = CacheGeometry.set_associative(256, ways=8)


@pytest.fixture(scope="module")
def fabric():
    """A 2-leaf/2-spine fabric with a few hundred packets."""
    topo = leaf_spine(2, 2, 2, edge_link=LinkSpec(rate_gbps=5.0))
    sim = NetworkSimulator(topo)
    hosts = sorted(topo.hosts())
    t = 0
    for i in range(600):
        t += 2000
        src = hosts[i % len(hosts)]
        dst = hosts[(i + 1 + i // 7) % len(hosts)]
        if src == dst:
            continue
        sim.inject(time_ns=t, src=src, dst=dst, pkt_len=400 + (i % 900),
                   srcport=2000 + i % 5, dstport=80)
    table = sim.run()
    return sim, table


class TestAdditiveCombination:
    def test_network_wide_counts_exact(self, fabric):
        sim, table = fabric
        deploy = NetworkDeployment("SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple",
                                   sim, geometry=GEOM)
        report = deploy.run(table)
        name = deploy.compiled.result
        assert report.combinable[name]
        truth = run_query("SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple",
                          table)
        got = report.result(name).by_key()
        want = truth.by_key()
        assert got.keys() == want.keys()
        for key, row in want.items():
            assert got[key]["COUNT"] == row["COUNT"]
            assert got[key]["SUM(pkt_len)"] == row["SUM(pkt_len)"]

    def test_per_switch_tables_partition_the_traffic(self, fabric):
        sim, table = fabric
        deploy = NetworkDeployment("SELECT COUNT GROUPBY qid", sim,
                                   geometry=GEOM)
        report = deploy.run(table)
        name = deploy.compiled.result
        # Each qid is observed by exactly one switch.
        for switch, tables in report.per_switch.items():
            for row in tables[name].rows:
                owner = sim.topology.qid_name(int(row["qid"]))[0]
                assert owner == switch
        # Combined per-queue counts cover every observation.
        total = sum(row["COUNT"] for row in report.result(name).rows)
        assert total == len(table)


class TestOrderDependentStaysPerSwitch:
    def test_ewma_reported_per_switch(self, fabric):
        sim, table = fabric
        source = (
            "def ewma (e, (tin, tout)): e = (1 - alpha) * e + alpha * (tout - tin)\n"
            "SELECT 5tuple, ewma GROUPBY 5tuple"
        )
        deploy = NetworkDeployment(source, sim, params={"alpha": 0.2},
                                   geometry=GEOM)
        report = deploy.run(table)
        name = deploy.compiled.result
        assert not report.combinable[name]
        rows = report.result(name).rows
        assert rows and all("switch" in row for row in rows)
        switches = {row["switch"] for row in rows}
        assert switches <= set(sim.topology.switches())
        assert len(switches) > 1   # traffic crossed multiple switches

    def test_nonlinear_not_combined(self, fabric):
        sim, table = fabric
        deploy = NetworkDeployment("SELECT MAX(pkt_len) GROUPBY srcip", sim,
                                   geometry=GEOM)
        report = deploy.run(table)
        assert not report.combinable[deploy.compiled.result]


class TestMultiHopConsistency:
    def test_chain_counts_each_hop_once_per_switch(self):
        topo = linear_chain(3)
        sim = NetworkSimulator(topo)
        for i in range(50):
            sim.inject(time_ns=i * 100_000, src="h0", dst="h1", pkt_len=500)
        table = sim.run()
        deploy = NetworkDeployment("SELECT COUNT GROUPBY 5tuple", sim,
                                   geometry=GEOM)
        report = deploy.run(table)
        name = deploy.compiled.result
        row = report.result(name).rows[0]
        # One record per queue per packet: 3 switches x 50 packets.
        assert row["COUNT"] == 150
        for switch, tables in report.per_switch.items():
            local = tables[name].rows
            assert len(local) == 1 and local[0]["COUNT"] == 50
