"""End-to-end scenario tests: simulate a network, run operator queries,
and check the diagnosis is right — the workflow the paper motivates.
"""


import pytest

from repro.queries.catalog import get
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.runtime import QueryEngine
from repro.traffic.incast import IncastConfig, generate_incast

GEOM = CacheGeometry.set_associative(256, ways=8)


@pytest.fixture(scope="module")
def incast():
    return generate_incast(IncastConfig(n_senders=16, rounds=4))


class TestIncastDiagnosis:
    """§5: 'using TPP/INT it is hard to track which applications
    contribute to TCP incast at a particular queue' — our per-queue
    observations make it one GROUPBY."""

    def test_p99_query_flags_hotspot_queue(self, incast):
        entry = get("high_p99_queue_size")
        engine = QueryEngine(entry.source, params={"K": 16}, geometry=GEOM)
        report = engine.run(incast.table)
        flagged = [row["qid"] for row in report.result]
        assert incast.hotspot_qid in flagged

    def test_contributors_identified_at_hotspot(self, incast):
        source = ("SELECT COUNT GROUPBY srcip, qid "
                  "WHERE qid == HOT and qin > D")
        engine = QueryEngine(
            source, params={"HOT": incast.hotspot_qid, "D": 16}, geometry=GEOM)
        report = engine.run(incast.table)
        # Background hosts can legitimately appear (their packets also
        # sat behind the deep queue), but the *dominant* contributors
        # by packet count must be the incast senders.
        ranked = sorted(report.result.rows, key=lambda r: -r["COUNT"])
        senders = set(incast.sender_ips)
        top = [row["srcip"] for row in ranked[:len(senders)]]
        assert set(top) <= senders
        assert senders <= {row["srcip"] for row in ranked}

    def test_loss_localised_to_hotspot(self, incast):
        source = "SELECT COUNT GROUPBY qid WHERE tout == infinity"
        engine = QueryEngine(source, geometry=GEOM)
        report = engine.run(incast.table)
        assert [row["qid"] for row in report.result] == [incast.hotspot_qid]
        assert report.result.rows[0]["COUNT"] == incast.drops


class TestLossRateScenario:
    def test_loss_rates_match_simulator_stats(self, incast):
        entry = get("per_flow_loss_rate")
        engine = QueryEngine(entry.source, geometry=GEOM)
        report = engine.run(incast.table)
        # Recompute from raw observations.
        totals: dict[tuple, int] = {}
        drops: dict[tuple, int] = {}
        for record in incast.table:
            key = record.five_tuple()
            totals[key] = totals.get(key, 0) + 1
            if record.dropped:
                drops[key] = drops.get(key, 0) + 1
        for row in report.result:
            key = (row["srcip"], row["dstip"], row["srcport"],
                   row["dstport"], row["proto"])
            assert row["loss_rate"] == pytest.approx(drops[key] / totals[key])


class TestLatencyScenario:
    def test_ewma_reflects_queueing(self, incast):
        entry = get("latency_ewma")
        engine = QueryEngine(
            "def ewma (lat_est, (tin, tout)):\n"
            "    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)\n"
            "SELECT 5tuple, ewma GROUPBY 5tuple WHERE tout != infinity",
            params={"alpha": 0.2}, geometry=GEOM)
        report = engine.run(incast.table)
        estimates = [row["lat_est"] for row in report.result]
        assert all(e > 0 for e in estimates)
        # Incast senders queue behind each other: some flows must see
        # much worse latency than the best flow.
        assert max(estimates) > 5 * min(estimates)

    def test_per_packet_latency_tap(self, incast):
        engine = QueryEngine(
            "SELECT srcip, qid FROM T WHERE tout - tin > 100us",
            geometry=GEOM)
        report = engine.run(incast.table)
        assert len(report.result) > 0
        for row in report.result.rows:
            assert row["qid"] == incast.hotspot_qid


class TestExactnessThroughRuntime:
    def test_merged_counts_equal_raw_counts(self, incast):
        engine = QueryEngine("SELECT COUNT GROUPBY srcip",
                             geometry=CacheGeometry.set_associative(8, ways=2))
        report = engine.run(incast.table)
        raw: dict[int, int] = {}
        for record in incast.table:
            raw[record.srcip] = raw.get(record.srcip, 0) + 1
        reported = {row["srcip"]: row["COUNT"] for row in report.result}
        assert reported == raw
