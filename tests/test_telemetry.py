"""Telemetry-runtime tests: end-to-end compile/run/collect."""

import pytest

from repro.core.errors import InterpreterError
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.results import compare_tables
from repro.telemetry.runtime import QueryEngine, run

from tests.conftest import oracle_tables, synthetic_trace

GEOM = CacheGeometry.set_associative(64, ways=8)


class TestEngineBasics:
    def test_one_shot_run(self, trace):
        report = run("SELECT COUNT GROUPBY srcip", trace, geometry=GEOM)
        assert len(report.result) == trace.unique_keys(("srcip",))

    def test_engine_reusable_across_traces(self):
        engine = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM)
        a = engine.run(synthetic_trace(n_packets=500, seed=1))
        b = engine.run(synthetic_trace(n_packets=500, seed=2))
        assert a.result.rows != b.result.rows  # fresh pipeline per run

    def test_missing_params_raise(self, tiny_trace):
        engine = QueryEngine("SELECT srcip FROM T WHERE pkt_len > L")
        with pytest.raises(InterpreterError):
            engine.run(tiny_trace)

    def test_ground_truth_attached(self, tiny_trace):
        engine = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM)
        report = engine.run(tiny_trace, with_ground_truth=True)
        truth = oracle_tables(engine, tiny_trace)
        assert {q: t.rows for q, t in report.ground_truth.items()} == \
            {q: t.rows for q, t in truth.items()}
        diff = compare_tables(report.result, truth[report.result_name])
        assert diff.exact


class TestCompareTables:
    def test_ints_past_float_range_difference_exactly(self, tiny_trace):
        """Exact-int folds can pass float range; two such ints are
        subtracted as ints, never cast (which raised OverflowError)."""
        from repro.core.interpreter import ResultTable

        truth = QueryEngine("SELECT COUNT GROUPBY srcip",
                            geometry=GEOM).run(tiny_trace).result
        big = 10 ** 400
        want = [dict(row, COUNT=big + row["COUNT"]) for row in truth.rows]
        got = [dict(row) for row in want]
        got[0]["COUNT"] += 1            # off by one at 10^400: within rel_tol
        got[1]["COUNT"] = 1             # off by 10^400: past float range
        diff = compare_tables(ResultTable(truth.schema, got),
                              ResultTable(truth.schema, want))
        assert diff.compared_cells == len(want)
        assert diff.exact_cells == len(want) - 1
        assert diff.max_abs_error == float("inf")
        assert "cells exact" in diff.describe()
        same = compare_tables(ResultTable(truth.schema, want),
                              ResultTable(truth.schema, want))
        assert same.exact and same.max_abs_error == 0.0


class TestStats:
    def test_cache_stats_exposed(self, trace):
        engine = QueryEngine("SELECT COUNT GROUPBY srcip",
                             geometry=CacheGeometry.set_associative(8, ways=2))
        report = engine.run(trace)
        stats = report.cache_stats["__result__"]
        assert stats.accesses == len(trace)
        assert stats.evictions > 0
        assert report.eviction_fractions()["__result__"] == \
            stats.eviction_fraction

    def test_backing_writes_counted(self, trace):
        engine = QueryEngine("SELECT COUNT GROUPBY srcip",
                             geometry=CacheGeometry.set_associative(8, ways=2))
        report = engine.run(trace)
        stats = report.cache_stats["__result__"]
        # writes = capacity evictions + final flush of residents.
        assert report.backing_writes["__result__"] == \
            stats.evictions + (stats.insertions - stats.evictions)

    def test_accuracy_reported_per_stage(self, trace):
        engine = QueryEngine("SELECT MAX(tcpseq) GROUPBY srcip",
                             geometry=CacheGeometry.hash_table(8))
        report = engine.run(trace)
        assert 0.0 <= report.accuracy["__result__"] <= 1.0


class TestSoftwareStages:
    LOSS = (
        "R1 = SELECT COUNT GROUPBY 5tuple\n"
        "R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity\n"
        "R3 = SELECT R2.COUNT/R1.COUNT AS loss FROM R1 JOIN R2 ON 5tuple\n"
    )

    def test_join_over_hardware_tables(self, trace):
        engine = QueryEngine(self.LOSS, geometry=GEOM)
        report = engine.run(trace)
        diff = compare_tables(report.result,
                              oracle_tables(engine, trace)["R3"],
                              rel_tol=1e-9)
        assert diff.exact, diff.describe()

    def test_intermediate_tables_visible(self, trace):
        engine = QueryEngine(self.LOSS, geometry=GEOM)
        report = engine.run(trace)
        assert set(report.tables) == {"R1", "R2", "R3"}

    def test_composed_downstream_stage(self, trace):
        source = (
            "R1 = SELECT COUNT GROUPBY srcip\n"
            "R2 = SELECT * FROM R1 WHERE COUNT > 50\n"
        )
        engine = QueryEngine(source, geometry=GEOM)
        report = engine.run(trace)
        diff = compare_tables(report.result, oracle_tables(engine, trace)["R2"])
        assert diff.exact


class TestInfo:
    def test_info_summarises_plan(self):
        engine = QueryEngine(self.__class__.LOSS_SOURCE, geometry=GEOM)
        info = engine.info()
        assert set(info.on_switch_stages) == {"R1", "R2"}
        assert info.software_stages == ("R3",)
        assert info.fully_linear
        assert info.pair_bits["R1"] == 128  # 104b 5-tuple + 24b counter

    LOSS_SOURCE = (
        "R1 = SELECT COUNT GROUPBY 5tuple\n"
        "R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity\n"
        "R3 = SELECT R2.COUNT/R1.COUNT FROM R1 JOIN R2 ON 5tuple\n"
    )

    def test_describe_plan_is_text(self):
        engine = QueryEngine("SELECT COUNT GROUPBY srcip")
        assert "switch groupby" in engine.describe_plan()


class TestCachePlanning:
    """Deploy-time cache sizing: plan_cache's predicted counters must
    equal what a real run with that geometry reports."""

    def test_plan_matches_actual_run(self, trace):
        engine = QueryEngine("SELECT COUNT GROUPBY srcip", seed=5)
        plans = engine.plan_cache(trace, capacities=[16, 64, 256], ways=8)
        (name, points), = plans.items()
        assert [p.geometry.capacity for p in points] == [16, 64, 256]
        for point in points:
            report = QueryEngine("SELECT COUNT GROUPBY srcip", seed=5,
                                 geometry=point.geometry).run(trace)
            actual = report.cache_stats[name]
            assert (actual.accesses, actual.hits, actual.misses,
                    actual.evictions) == \
                (point.stats.accesses, point.stats.hits, point.stats.misses,
                 point.stats.evictions)

    def test_plan_respects_where_filter(self, trace):
        engine = QueryEngine("SELECT COUNT GROUPBY srcip WHERE proto == 6",
                             seed=5)
        plans = engine.plan_cache(trace, capacities=[64])
        point = plans["__result__"][0]
        report = QueryEngine("SELECT COUNT GROUPBY srcip WHERE proto == 6",
                             seed=5, geometry=point.geometry).run(trace)
        actual = report.cache_stats["__result__"]
        assert actual.accesses == point.stats.accesses < len(trace)
        assert actual.evictions == point.stats.evictions

    def test_plan_engines_agree(self, trace):
        for ways in (0, 1, 8):
            vec = QueryEngine("SELECT COUNT GROUPBY 5tuple", seed=2,
                              engine="vector").plan_cache(
                trace, capacities=[64], ways=ways)["__result__"][0]
            row = QueryEngine("SELECT COUNT GROUPBY 5tuple", seed=2,
                              engine="row").plan_cache(
                trace, capacities=[64], ways=ways)["__result__"][0]
            assert (vec.stats.hits, vec.stats.evictions) == \
                (row.stats.hits, row.stats.evictions)

    def test_plan_point_reporting_fields(self, trace):
        engine = QueryEngine("SELECT COUNT GROUPBY 5tuple")
        point = engine.plan_cache(trace, capacities=[64])["__result__"][0]
        assert point.pair_bits == 128
        assert point.mbits == pytest.approx(64 * 128 / (1 << 20))
        assert point.writes_per_second() >= 0
        assert 0.0 <= point.eviction_fraction <= 1.0

    def test_plan_on_record_list(self, tiny_trace):
        engine = QueryEngine("SELECT COUNT GROUPBY srcip")
        records = list(tiny_trace)
        plans = engine.plan_cache(records, capacities=[8])
        assert plans["__result__"][0].stats.accesses == len(records)
