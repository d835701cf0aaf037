"""Catalog tests: every Fig. 2 query compiles, runs, and matches the
paper's linearity column; planted conditions are detected."""

import pytest

from repro.queries.catalog import ALL_QUERIES, FIG2_QUERIES, get
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.results import compare_tables
from repro.telemetry.runtime import QueryEngine

from tests.conftest import oracle_tables, synthetic_trace

GEOM = CacheGeometry.set_associative(64, ways=8)


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(n_packets=4000, n_flows=40, drop_rate=0.03)


class TestEveryEntry:
    @pytest.mark.parametrize("entry", ALL_QUERIES.values(),
                             ids=lambda e: e.name)
    def test_compiles(self, entry):
        engine = QueryEngine(entry.source, params=entry.default_params,
                             geometry=GEOM)
        assert engine.compiled is not None

    @pytest.mark.parametrize("entry", ALL_QUERIES.values(),
                             ids=lambda e: e.name)
    def test_linearity_matches_fig2_column(self, entry):
        engine = QueryEngine(entry.source, params=entry.default_params,
                             geometry=GEOM)
        assert engine.info().fully_linear == entry.linear_in_state

    @pytest.mark.parametrize("entry", ALL_QUERIES.values(),
                             ids=lambda e: e.name)
    def test_runs_end_to_end(self, entry, trace):
        engine = QueryEngine(entry.source, params=entry.default_params,
                             geometry=GEOM)
        report = engine.run(trace)
        result = report.result
        for column in entry.result_columns:
            assert result.schema.resolve(column) is not None, column

    @pytest.mark.parametrize(
        "entry", [e for e in FIG2_QUERIES if e.linear_in_state],
        ids=lambda e: e.name)
    def test_linear_queries_match_ground_truth(self, entry, trace):
        engine = QueryEngine(entry.source, params=entry.default_params,
                             geometry=CacheGeometry.set_associative(16, ways=4),
                             exact_history=True)
        report = engine.run(trace)
        truth = oracle_tables(engine, trace)[report.result_name]
        if report.result.schema.keyed:
            diff = compare_tables(report.result, truth, rel_tol=1e-6)
            assert diff.exact, f"{entry.name}: {diff.describe()}"
        else:
            assert len(report.result) == len(truth)


class TestDetection:
    def test_loss_rate_finds_lossy_flows(self, trace):
        entry = get("per_flow_loss_rate")
        engine = QueryEngine(entry.source, geometry=GEOM)
        report = engine.run(trace)
        dropped_flows = {
            (r.srcip, r.dstip, r.srcport, r.dstport, r.proto)
            for r in trace if r.dropped
        }
        reported = {
            (row["srcip"], row["dstip"], row["srcport"], row["dstport"],
             row["proto"]) for row in report.result
        }
        assert reported == dropped_flows
        for row in report.result:
            assert 0 < row["loss_rate"] <= 1

    def test_high_p99_finds_deep_queues(self):
        # Queue 0 sees depths of 50, queue 1 stays shallow.
        from tests.conftest import make_record
        records = []
        for i in range(1000):
            records.append(make_record(pkt_id=i, qid=0, tin=i,
                                       qin=50 if i % 50 else 55))
            records.append(make_record(pkt_id=i + 1000, qid=1, tin=i, qin=1))
        entry = get("high_p99_queue_size")
        engine = QueryEngine(entry.source, params={"K": 20}, geometry=GEOM)
        report = engine.run(records)
        assert [row["qid"] for row in report.result] == [0]

    def test_high_latency_counts(self, trace):
        entry = get("per_flow_high_latency")
        engine = QueryEngine(entry.source, params={"L": 1_000_000},
                             geometry=GEOM)
        report = engine.run(trace)
        diff = compare_tables(report.result,
                              oracle_tables(engine, trace)[report.result_name])
        assert diff.exact, diff.describe()
