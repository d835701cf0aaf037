"""Differential property tests: the schedule-driven vectorized split
store (:mod:`repro.switch.kvstore.windowed_store`, unbounded here — one
window per read, the ``run()`` schedule) must be bit-identical
to the per-packet reference store on every observable — result tables
(valid-only and ``include_invalid``), cache counters, backing-store
writes, accuracy, refresh counts, and per-key segment structure — over
the full query catalog, every eviction policy and geometry class, and
adversarial key streams."""

import numpy as np
import pytest

from repro.core.compiler import CompileOptions, compile_program
from repro.core.errors import HardwareError
from repro.core.vector_exec import VectorizationError
from repro.core.parser import parse_program
from repro.core.semantics import resolve_program
from repro.network.records import ObservationTable
from repro.queries.catalog import ALL_QUERIES
from repro.switch.alu import compile_key_extractor, compile_predicate
from repro.switch.kvstore.cache import CacheGeometry
from repro.switch.kvstore.split import SplitKeyValueStore
from repro.switch.kvstore import windowed_store
from repro.switch.kvstore.windowed_store import WindowedVectorStore
from repro.switch.pipeline import SwitchPipeline
from repro.telemetry.runtime import QueryEngine

from tests.conftest import synthetic_trace

EWMA = ("def ewma (e, (tin, tout)): e = (1 - alpha) * e + alpha * (tout - tin)\n"
        "SELECT srcip, ewma GROUPBY srcip")
OOS = ("def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):\n"
       "    if lastseq + 1 != tcpseq:\n"
       "        oos_count = oos_count + 1\n"
       "    lastseq = tcpseq + payload_len\n\n"
       "SELECT 5tuple, outofseq GROUPBY 5tuple WHERE proto == TCP")
NONMT = ("def nonmt ((maxseq, nm_count), tcpseq):\n"
         "    if maxseq > tcpseq:\n"
         "        nm_count = nm_count + 1\n"
         "    maxseq = max(maxseq, tcpseq)\n\n"
         "SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == TCP")
COUNT = "SELECT COUNT GROUPBY srcip"

GEOMETRIES = {
    "hash_table": CacheGeometry.hash_table(16),
    "fully_associative": CacheGeometry.fully_associative(8),
    "8way": CacheGeometry.set_associative(16, ways=4),
}


def compile_stage(source, exact_history=False):
    rp = resolve_program(parse_program(source))
    return compile_program(rp, CompileOptions(exact_history=exact_history)) \
        .groupby_stages[0]


def run_both(stage, trace, geometry, params=None, policy="lru", seed=0,
             refresh_interval=None):
    """Feed one trace through both store engines; return the pair."""
    params = dict(params or {})
    row = SplitKeyValueStore(stage, geometry, params=params, policy=policy,
                             seed=seed, refresh_interval=refresh_interval)
    vec = WindowedVectorStore(stage, geometry, params=params, policy=policy,
                              seed=seed, refresh_interval=refresh_interval)
    predicate = compile_predicate(stage.where, params)
    extract = compile_key_extractor(stage.key.fields)
    for record in trace:
        if predicate(record):
            row.process_keyed(extract(record), record)
    columns = trace.columns()
    mask = np.asarray([bool(predicate(r)) for r in trace], dtype=bool)
    keys = np.column_stack([
        columns[f].astype(np.int64) for f in stage.key.fields
    ])[mask]
    vec.add_batch(keys, {f: columns[f][mask] for f in vec.needed_fields})
    return row, vec


def assert_identical(row, vec):
    assert row.result_table(include_invalid=True).rows == \
        vec.result_table(include_invalid=True).rows
    assert row.result_table().rows == vec.result_table().rows
    assert row.stats == vec.stats
    assert row.backing_writes == vec.backing_writes
    assert row.accuracy() == vec.accuracy()
    assert row.refreshes == vec.refreshes


class TestCatalog:
    """Every catalog query, hardware path end to end, row vs vector."""

    @pytest.fixture(scope="class")
    def trace(self):
        rows = synthetic_trace(n_packets=6000, n_flows=64, seed=11)
        return ObservationTable.from_arrays(rows.columns())

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    @pytest.mark.parametrize("exact_history", [False, True])
    def test_engine_reports_identical(self, name, exact_history, trace):
        entry = ALL_QUERIES[name]
        kwargs = dict(params=entry.default_params,
                      geometry=CacheGeometry.set_associative(64, ways=8),
                      exact_history=exact_history)
        row = QueryEngine(entry.source, engine="row", **kwargs) \
            .run(trace, include_invalid=True, with_ground_truth=True)
        vec = QueryEngine(entry.source, engine="vector", **kwargs) \
            .run(trace, include_invalid=True, with_ground_truth=True)
        for q in row.tables:
            assert row.tables[q].rows == vec.tables[q].rows, q
        assert row.cache_stats == vec.cache_stats
        assert row.backing_writes == vec.backing_writes
        assert row.accuracy == vec.accuracy
        for q in row.ground_truth:
            assert row.ground_truth[q].rows == vec.ground_truth[q].rows, q


class TestPoliciesAndGeometries:
    @pytest.fixture(scope="class")
    def trace(self):
        return synthetic_trace(n_packets=3000, n_flows=60, seed=5)

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @pytest.mark.parametrize("source", [COUNT, EWMA, NONMT],
                             ids=["count", "ewma", "nonmt"])
    def test_policy_geometry_grid(self, source, policy, geometry, trace):
        params = {"alpha": 0.25} if source is EWMA else None
        stage = compile_stage(source)
        row, vec = run_both(stage, trace, GEOMETRIES[geometry],
                            params=params, policy=policy, seed=3)
        assert_identical(row, vec)
        assert row.stats.evictions > 0   # the grid must exercise merging

    def test_multi_fold_stage(self, trace):
        stage = compile_stage("SELECT COUNT, SUM(pkt_len), AVG(qin) "
                              "GROUPBY srcip, dstip")
        row, vec = run_both(stage, trace,
                            CacheGeometry.set_associative(8, ways=2))
        assert_identical(row, vec)


class TestAdversarialStreams:
    """Hand-built key streams that stress the schedule machinery."""

    def make_trace(self, srcips, seed=0):
        n = len(srcips)
        rng = np.random.default_rng(seed)
        return ObservationTable.from_arrays({
            "srcip": np.asarray(srcips, dtype=np.int64),
            "tin": np.arange(n, dtype=np.int64),
            "tout": np.arange(n, dtype=np.int64) + 50.0,
            "pkt_len": rng.integers(40, 1500, size=n),
            "tcpseq": rng.integers(0, 1 << 20, size=n),
        })

    def check(self, srcips, source=COUNT, geometry=None, policy="lru",
              refresh_interval=None, params=None):
        stage = compile_stage(source)
        trace = self.make_trace(srcips)
        row, vec = run_both(stage, trace,
                            geometry or CacheGeometry.set_associative(8, ways=2),
                            policy=policy, refresh_interval=refresh_interval,
                            params=params)
        assert_identical(row, vec)

    def test_empty_stream(self):
        self.check([])

    def test_single_access(self):
        self.check([7])

    def test_single_key_repeated(self):
        self.check([42] * 500, source=EWMA, params={"alpha": 0.5})

    def test_all_unique_keys(self):
        self.check(list(range(500)))
        self.check(list(range(500)), source=NONMT)

    def test_eviction_ping_pong(self):
        # Keys cycling through a tiny fully associative cache: every
        # access past warm-up evicts.
        keys = [i % 5 for i in range(400)]
        self.check(keys, geometry=CacheGeometry.fully_associative(2))
        self.check(keys, geometry=CacheGeometry.fully_associative(2),
                   policy="fifo")

    def test_zipf_skew(self):
        rng = np.random.default_rng(8)
        keys = (rng.zipf(1.2, size=4000) % 300).tolist()
        self.check(keys)
        self.check(keys, source=NONMT, geometry=CacheGeometry.hash_table(32))

    def test_negative_key_values(self):
        self.check([-5, -1, 3, -5, -5, 2, -1] * 40)

    def test_refresh_on_adversarial_stream(self):
        keys = [i % 5 for i in range(400)]
        self.check(keys, geometry=CacheGeometry.fully_associative(2),
                   refresh_interval=7)
        self.check(keys, source=NONMT,
                   geometry=CacheGeometry.fully_associative(2),
                   refresh_interval=13)


class TestRefreshBatch:
    """Batch-path coverage for ``refresh_interval`` (§3.2 freshness):
    refresh counts, write inflation, per-key segment validity, and
    ``result_table(include_invalid=True)`` must match the row store."""

    @pytest.fixture(scope="class")
    def trace(self):
        return synthetic_trace(n_packets=2000, n_flows=24, seed=7)

    @pytest.mark.parametrize("interval", [1, 37, 100, 5000])
    def test_mergeable_refresh_identity(self, interval, trace):
        stage = compile_stage(COUNT)
        row, vec = run_both(stage, trace, CacheGeometry.fully_associative(64),
                            refresh_interval=interval)
        assert_identical(row, vec)

    def test_refresh_counts_exact(self, trace):
        stage = compile_stage(COUNT)
        row, vec = run_both(stage, trace, CacheGeometry.fully_associative(64),
                            refresh_interval=50)
        vec.finalize()                  # unbounded window: run the schedule
        assert vec.refreshes == row.refreshes == row.stats.accesses // 50

    def test_nonmergeable_segment_structure(self, trace):
        """Refresh trades validity for freshness on non-mergeable folds:
        the vector store must reproduce the exact per-key segment
        lists, not just the summary accuracy."""
        stage = compile_stage("SELECT MAX(tcpseq) GROUPBY srcip")
        row, vec = run_both(stage, trace, CacheGeometry.fully_associative(64),
                            refresh_interval=100)
        assert_identical(row, vec)
        assert row.accuracy() < 1.0     # refresh must invalidate keys
        for key in row.backing.keys():
            assert row.backing.segments_of(key, "MAX(tcpseq)") == \
                vec.backing.segments_of(key, "MAX(tcpseq)")
            assert row.backing.is_valid(key) == vec.backing.is_valid(key)

    def test_refresh_with_scale_and_history(self, trace):
        stage = compile_stage(EWMA)
        row, vec = run_both(stage, trace, CacheGeometry.set_associative(8, ways=2),
                            params={"alpha": 0.125}, refresh_interval=61)
        assert_identical(row, vec)
        stage = compile_stage(OOS, exact_history=True)
        row, vec = run_both(stage, trace, CacheGeometry.set_associative(8, ways=2),
                            refresh_interval=61)
        assert_identical(row, vec)
        assert row.backing_writes > 0


class TestStoreSurface:
    def test_bulk_and_materialised_results_agree(self):
        """The columnar bulk result path and the generic backing-store
        builder must produce identical tables."""
        stage = compile_stage(COUNT)
        trace = synthetic_trace(n_packets=1500, n_flows=40, seed=2)
        _, vec_bulk = run_both(stage, trace, CacheGeometry.set_associative(8, ways=2))
        _, vec_mat = run_both(stage, trace, CacheGeometry.set_associative(8, ways=2))
        vec_mat.finalize()
        _ = vec_mat.backing            # force materialisation first
        assert vec_bulk.result_table().rows == vec_mat.result_table().rows
        assert vec_bulk.accuracy() == vec_mat.accuracy()
        assert vec_bulk.backing_writes == vec_mat.backing.writes

    def test_derived_column_table_fallback(self, monkeypatch):
        """A derived column the array evaluator cannot express falls back
        to the backing-store table builder — in run(), in a windowed
        mid-stream read and after the shard combine alike."""
        calls = []

        def refuse(expr, ctx):
            calls.append(expr)
            raise VectorizationError("forced")

        monkeypatch.setattr(windowed_store, "eval_array", refuse)
        source = "SELECT AVG(pkt_len) GROUPBY srcip"
        kwargs = dict(geometry=CacheGeometry.set_associative(16, ways=4))
        columns = synthetic_trace(n_packets=1500, n_flows=40,
                                  seed=5).columns()
        trace = ObservationTable.from_arrays(columns)
        prefix = ObservationTable.from_arrays(
            {name: col[:700] for name, col in columns.items()})
        row = QueryEngine(source, engine="row", **kwargs)
        vec = QueryEngine(source, **kwargs)

        def observed(report):
            return (report.result.rows, report.cache_stats,
                    report.backing_writes, report.accuracy)

        assert observed(vec.run(trace)) == observed(row.run(trace))
        assert calls
        calls.clear()
        session = vec.open(window=257)
        session.ingest(prefix)
        assert observed(session.results()) == observed(row.run(prefix))
        assert calls
        session.close()
        calls.clear()
        sharded = vec.open(shards=2)
        sharded.ingest(trace)
        assert observed(sharded.close()) == observed(row.run(trace))
        assert calls

    def test_batch_after_finalize_rejected(self):
        stage = compile_stage(COUNT)
        vec = WindowedVectorStore(stage,
                                  CacheGeometry.set_associative(8, ways=2))
        vec.finalize()
        with pytest.raises(HardwareError):
            vec.add_batch(np.zeros((1, 1), dtype=np.int64), {})

    def test_per_record_processing_rejected(self):
        stage = compile_stage(COUNT)
        vec = WindowedVectorStore(stage,
                                  CacheGeometry.set_associative(8, ways=2))
        with pytest.raises(HardwareError):
            vec.process(object())

    def test_invalid_refresh_interval_rejected(self):
        stage = compile_stage(COUNT)
        with pytest.raises(HardwareError):
            WindowedVectorStore(stage,
                                CacheGeometry.set_associative(8, ways=2),
                                refresh_interval=0)


class TestPipelineEngineKnob:
    def test_vector_mode_uses_vector_store(self):
        rp = resolve_program(parse_program(COUNT))
        program = compile_program(rp)
        trace = ObservationTable.from_arrays(
            synthetic_trace(n_packets=500, n_flows=10).columns())
        pipeline = SwitchPipeline(program,
                                  geometry=CacheGeometry.set_associative(8, ways=2),
                                  engine="vector")
        pipeline.run(trace)
        assert isinstance(pipeline.store_for(rp.result), WindowedVectorStore)

    def test_row_mode_keeps_row_store(self):
        rp = resolve_program(parse_program(COUNT))
        program = compile_program(rp)
        trace = ObservationTable.from_arrays(
            synthetic_trace(n_packets=500, n_flows=10).columns())
        pipeline = SwitchPipeline(program,
                                  geometry=CacheGeometry.set_associative(8, ways=2),
                                  engine="row")
        pipeline.run(trace)
        assert isinstance(pipeline.store_for(rp.result), SplitKeyValueStore)

    def test_invalid_engine_rejected(self):
        program = compile_program(resolve_program(parse_program(COUNT)))
        with pytest.raises(HardwareError):
            SwitchPipeline(program, engine="warp")

    def test_mixing_batch_then_record_rejected(self):
        rp = resolve_program(parse_program(COUNT))
        program = compile_program(rp)
        trace = ObservationTable.from_arrays(
            synthetic_trace(n_packets=200, n_flows=5).columns())
        pipeline = SwitchPipeline(program,
                                  geometry=CacheGeometry.set_associative(8, ways=2),
                                  engine="vector")
        pipeline.run(trace)
        with pytest.raises(HardwareError):
            pipeline.process(trace[0])

    def test_vector_engine_columnizes_row_input(self):
        trace = synthetic_trace(n_packets=800, n_flows=20, seed=4)
        kwargs = dict(geometry=CacheGeometry.set_associative(16, ways=4))
        row = QueryEngine(COUNT, engine="row", **kwargs).run(trace.records)
        vec = QueryEngine(COUNT, engine="vector", **kwargs).run(trace.records)
        assert row.result.rows == vec.result.rows
        assert row.cache_stats == vec.cache_stats
