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
from repro.switch.pipeline import SessionConfig, SwitchPipeline
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
LOSS = ("R1 = SELECT COUNT GROUPBY srcip\n"
        "R2 = SELECT COUNT GROUPBY srcip WHERE tout == infinity\n"
        "R3 = SELECT R2.COUNT/R1.COUNT FROM R1 JOIN R2 ON srcip")

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
        return synthetic_trace(n_packets=6000, n_flows=64, seed=11)

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
        """The columnar result path and the materialised backing store
        must agree."""
        stage = compile_stage(COUNT)
        trace = synthetic_trace(n_packets=1500, n_flows=40, seed=2)
        _, vec_bulk = run_both(stage, trace, CacheGeometry.set_associative(8, ways=2))
        _, vec_mat = run_both(stage, trace, CacheGeometry.set_associative(8, ways=2))
        vec_mat.finalize()
        _ = vec_mat.backing            # force materialisation first
        assert vec_bulk.result_table().rows == vec_mat.result_table().rows
        assert vec_bulk.accuracy() == vec_mat.accuracy()
        assert vec_bulk.backing_writes == vec_mat.backing.writes

    def test_general_path_tables_are_columnar(self, trace):
        """List-fold tables come back with column authority — typed
        arrays read off the segment log — and the row store's exact
        rows, invalid keys included."""
        stage = compile_stage(NONMT)
        row, vec = run_both(stage, trace, CacheGeometry.set_associative(8, ways=2))
        assert vec.accuracy() < 1.0
        table = vec.result_table(include_invalid=True)
        assert table.is_columnar
        assert all(isinstance(col, np.ndarray) and col.dtype.kind in "if"
                   for col in table.columns().values())
        assert table.rows == row.result_table(include_invalid=True).rows

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
        pipeline = SwitchPipeline(program, config=SessionConfig(
            geometry=CacheGeometry.set_associative(8, ways=2)))
        pipeline.run(trace)
        assert isinstance(pipeline.store_for(rp.result), WindowedVectorStore)

    def test_invalid_engine_rejected(self):
        with pytest.raises(HardwareError):
            QueryEngine(COUNT, engine="warp")

    @pytest.mark.parametrize("engine", ["auto", "vector"])
    def test_vector_engine_columnizes_row_input(self, engine):
        """Every public door columnizes row input: a list or a
        generator gives results bit-identical to the table and to the
        ``engine="row"`` oracle, and runs the vector store."""
        trace = synthetic_trace(n_packets=800, n_flows=20, seed=4)
        records = list(trace)
        kwargs = dict(geometry=CacheGeometry.set_associative(16, ways=4))
        qe = QueryEngine(LOSS, engine=engine, **kwargs)
        oracle = QueryEngine(LOSS, engine="row", **kwargs)

        def observed(report):
            return ({name: t.rows for name, t in report.tables.items()},
                    report.cache_stats, report.backing_writes,
                    report.accuracy)

        want = observed(oracle.run(trace))
        assert observed(oracle.run(records)) == want
        for batch in (records, iter(records), trace):
            assert observed(qe.run(batch)) == want
        for split in ((records[:300], records[300:]),
                      (iter(records[:300]), iter(records[300:]))):
            session = qe.open()
            for part in split:
                session.ingest(part)
            assert observed(session.close()) == want
        session = qe.open()
        session.ingest(records)
        assert isinstance(session._pipeline.store_for("R1"),
                          WindowedVectorStore)
        session.close()

        def exact(tables):
            return {name: t.rows for name, t in tables.items()}

        want_exact = exact(oracle.run_exact(trace))
        assert exact(qe.run_exact(records)) == want_exact
        assert exact(qe.run_exact(trace)) == want_exact

        def planned(plans):
            return {name: [p.stats for p in points]
                    for name, points in plans.items()}

        want_plan = planned(oracle.plan_cache(trace, [8, 16]))
        assert planned(qe.plan_cache(records, [8, 16])) == want_plan
        assert planned(qe.plan_cache(trace, [8, 16])) == want_plan

        def piped(batch):
            pipeline = SwitchPipeline(qe.compiled, params=qe.params,
                                      config=qe.config).run(batch)
            return ({name: t.rows for name, t in
                     pipeline.results().items()}, pipeline.cache_stats())

        on_switch = [s.query_name for s in
                     qe.compiled.select_stages + qe.compiled.groupby_stages]
        want_piped = ({name: want[0][name] for name in on_switch}, want[1])
        assert piped(records) == want_piped
        assert piped(trace) == want_piped

    def test_network_session_columnizes_row_input(self):
        """A deployment columnizes row input at the door, and each
        switch's tables are the row reference's ``run()`` over that
        switch's own queues."""
        from repro.network.simulator import NetworkSimulator
        from repro.network.topology import LinkSpec, leaf_spine
        from repro.telemetry.deploy import NetworkDeployment

        topo = leaf_spine(2, 2, 2, edge_link=LinkSpec(rate_gbps=5.0))
        sim = NetworkSimulator(topo)
        hosts = sorted(topo.hosts())
        for i in range(300):
            src, dst = hosts[i % len(hosts)], hosts[(i + 3) % len(hosts)]
            sim.inject(time_ns=2000 * i, src=src, dst=dst,
                       pkt_len=400 + i % 900, srcport=2000 + i % 5,
                       dstport=80)
        columnar = sim.run()
        records = list(columnar)
        geometry = CacheGeometry.set_associative(16, ways=4)

        deploy = NetworkDeployment(LOSS, sim, geometry=geometry)

        def observed(batch):
            session = deploy.open()
            session.ingest(batch)
            report = session.close()
            return ({name: t.rows for name, t in report.combined.items()},
                    {switch: {name: t.rows for name, t in tables.items()}
                     for switch, tables in report.per_switch.items()})

        want = observed(columnar)
        assert observed(records) == want
        assert observed(iter(records)) == want
        oracle = QueryEngine(LOSS, geometry=geometry, engine="row")
        columns = columnar.columns()
        for switch, tables in want[1].items():
            owned = [qid for qid, owner in deploy._queue_owner.items()
                     if owner == switch]
            mask = np.isin(columns["qid"], owned)
            report = oracle.run(ObservationTable.from_arrays(
                {name: col[mask] for name, col in columns.items()}))
            assert {name: report.tables[name].rows
                    for name in tables} == tables


# -- every merge class against the row store ---------------------------------

MATRIX = ("def mix ((a, b), (tin, pkt_len)):\n"
          "    a = 0.5 * a + 0.25 * b + tin\n"
          "    b = 0.75 * b + pkt_len\n\n"
          "SELECT srcip, mix GROUPBY srcip")
HIST_SCALE = ("def hewma ((last, e), (tin, pkt_len)):\n"
              "    if last > tin - 100:\n"
              "        e = 0.5 * e + pkt_len\n"
              "    else:\n"
              "        e = 0.875 * e + 1\n"
              "    last = tin\n\n"
              "SELECT srcip, hewma GROUPBY srcip")
AVG = "SELECT AVG(pkt_len) GROUPBY srcip"
#: Per-epoch values fit int64; a key's merged sum of a few epochs does not.
BIG_SUM = ("def big (s, tcpseq):\n"
           "    s = s + 2305843009213693952\n\n"
           "SELECT srcip, big GROUPBY srcip")
BIG_HIST = ("def bigh ((last, s), tcpseq):\n"
            "    if last != tcpseq:\n"
            "        s = s + 2305843009213693952\n"
            "    last = tcpseq\n\n"
            "SELECT srcip, bigh GROUPBY srcip")
#: History depth 2: a one-packet epoch ends inside its replay prefix, so
#: its merged value is the replayed state alone.
BIG_HIST2 = ("def bigh2 ((p1, p2, s), tcpseq):\n"
             "    if p2 != tcpseq:\n"
             "        s = s + 2305843009213693952\n"
             "    p2 = p1\n"
             "    p1 = tcpseq\n\n"
             "SELECT srcip, bigh2 GROUPBY srcip")


def as_list_fold(stage):
    """``stage`` with every fold forced onto the ``list`` merge class
    (the language has no non-linear fold with a derived column: this
    puts AVG's derived column over a list fold)."""
    from dataclasses import replace
    folds = tuple(replace(f, merge=replace(f.merge, strategy="list"))
                  for f in stage.folds)
    return replace(stage, folds=folds)


def with_inits(stage, inits):
    """``stage`` with nonzero initial fold state (no query syntax sets
    one for a linear fold; the merge then subtracts ``init``).
    ``inits`` maps state variables to values, or lists the values in
    each fold's ``state_vars`` order."""
    from dataclasses import replace

    def keyed(fold):
        if isinstance(inits, dict):
            return inits
        return dict(zip(fold.instance.state_vars, inits))
    folds = tuple(replace(f, instance=replace(f.instance, inits=keyed(f)))
                  for f in stage.folds)
    for fold in folds:       # an unknown key would fall back to zero init
        assert all(fold.instance.initial_state().values()), fold.column
    return replace(stage, folds=folds)


MERGE_CLASSES = {
    "matrix": lambda: compile_stage(MATRIX),
    "hist_scale": lambda: compile_stage(HIST_SCALE, exact_history=True),
    "hist_additive": lambda: compile_stage(OOS, exact_history=True),
    "list": lambda: compile_stage(NONMT),
    "list_derived": lambda: as_list_fold(compile_stage(AVG)),
    "additive_init": lambda: with_inits(compile_stage(AVG), [0.5, 3]),
    "scale": lambda: compile_stage(EWMA),
}


class TestEveryMergeClass:
    """Every merge class — including the ``matrix`` and exact-history
    ``scale`` folds no catalog query exercises — absorbed into the
    vector store's per-key arrays and segment logs, against the row
    store: tables, counters, writes, accuracy and the per-key backing
    surface (value, segments, validity)."""

    PARAMS = {"alpha": 0.25}
    GEOM = CacheGeometry.set_associative(16, ways=4)

    @pytest.fixture(scope="class")
    def trace(self):
        return synthetic_trace(n_packets=1200, n_flows=40, seed=13)

    def streams(self, stage, trace):
        predicate = compile_predicate(stage.where, self.PARAMS)
        mask = np.asarray([bool(predicate(r)) for r in trace], dtype=bool)
        columns = trace.columns()
        keys = np.column_stack([columns[f].astype(np.int64)
                                for f in stage.key.fields])[mask]
        return keys, {f: col[mask] for f, col in columns.items()}

    def row_store(self, stage, trace, geometry, **kwargs):
        row = SplitKeyValueStore(stage, geometry, params=self.PARAMS,
                                 **kwargs)
        predicate = compile_predicate(stage.where, self.PARAMS)
        extract = compile_key_extractor(stage.key.fields)
        for record in trace:
            if predicate(record):
                row.process_keyed(extract(record), record)
        return row

    def feed(self, vec, keys, columns, lo, hi, chunk):
        for start in range(lo, hi, chunk):
            end = min(start + chunk, hi)
            vec.add_batch(keys[start:end],
                          {f: columns[f][start:end] for f in vec.needed_fields})

    def assert_same(self, row, vec, stage):
        assert_identical(row, vec)
        assert vec.result_table(include_invalid=True).rows == \
            row.result_table(include_invalid=True).rows
        assert set(vec.backing.keys()) == set(row.backing.keys())
        for key in row.backing.keys():
            assert vec.backing.is_valid(key) == row.backing.is_valid(key)
            for fold in stage.folds:
                assert vec.backing.value_of(key, fold.column) == \
                    row.backing.value_of(key, fold.column)
                assert vec.backing.segments_of(key, fold.column) == \
                    row.backing.segments_of(key, fold.column)

    @pytest.mark.parametrize("window", [1, 7, 257, None])
    @pytest.mark.parametrize("name", sorted(MERGE_CLASSES))
    def test_windows(self, name, window, trace):
        stage = MERGE_CLASSES[name]()
        row = self.row_store(stage, trace, self.GEOM)
        vec = WindowedVectorStore(stage, self.GEOM, params=self.PARAMS,
                                  window=window)
        keys, columns = self.streams(stage, trace)
        self.feed(vec, keys, columns, 0, len(keys), min(window or 100, 100))
        assert row.stats.evictions > 0
        self.assert_same(row, vec, stage)

    @pytest.mark.parametrize("name", sorted(MERGE_CLASSES))
    def test_refresh_cuts_mid_window(self, name, trace):
        stage = MERGE_CLASSES[name]()
        row = self.row_store(stage, trace, self.GEOM, refresh_interval=90)
        vec = WindowedVectorStore(stage, self.GEOM, params=self.PARAMS,
                                  window=257, refresh_interval=90)
        keys, columns = self.streams(stage, trace)
        self.feed(vec, keys, columns, 0, len(keys), 64)
        self.assert_same(row, vec, stage)

    @pytest.mark.parametrize("cut, chunk", [(514, 257), (400, 100)],
                             ids=["boundary", "mid_window"])
    @pytest.mark.parametrize("name", sorted(MERGE_CLASSES))
    def test_checkpoint_resume(self, name, cut, chunk, trace):
        from repro.telemetry.checkpoint import (pack_checkpoint,
                                                unpack_checkpoint)
        stage = MERGE_CLASSES[name]()
        row = self.row_store(stage, trace, self.GEOM)
        keys, columns = self.streams(stage, trace)
        first = WindowedVectorStore(stage, self.GEOM, params=self.PARAMS,
                                    window=257)
        self.feed(first, keys, columns, 0, cut, chunk)
        assert (first._buffered == 0) == (chunk == 257)
        mid = first.snapshot(include_invalid=True)
        state = unpack_checkpoint(pack_checkpoint(first.checkpoint_state()))
        vec = WindowedVectorStore(stage, self.GEOM, params=self.PARAMS,
                                  window=257)
        vec.restore_state(state)
        self.feed(first, keys, columns, cut, len(keys), chunk)
        self.feed(vec, keys, columns, cut, len(keys), chunk)
        self.assert_same(row, vec, stage)
        self.assert_same(row, first, stage)
        prefix = self.row_store(
            stage, ObservationTable.from_arrays(
                {f: col[:cut] for f, col in columns.items()}), self.GEOM) \
            if stage.where is None else None
        if prefix is not None:
            # A mid-stream snapshot reads as if the stream ended at the
            # cut: the finalized reference store over the prefix.
            assert mid.table.rows == \
                prefix.result_table(include_invalid=True).rows
            assert (mid.stats, mid.backing_writes, mid.accuracy) == \
                (prefix.stats, prefix.backing_writes, prefix.accuracy())

    @pytest.mark.parametrize("name", sorted(MERGE_CLASSES))
    def test_scalar_tail(self, name):
        """One set, one way, two alternating keys: every access evicts,
        each key has one closed epoch per window round — fewer than the
        vectorized rounds take, so the scalar tail merges them all."""
        stage = MERGE_CLASSES[name]()
        n = 400
        rng = np.random.default_rng(3)
        trace = ObservationTable.from_arrays({
            "srcip": np.tile(np.array([5, 9], dtype=np.int64), n // 2),
            "dstip": np.zeros(n, dtype=np.int64),
            "srcport": np.full(n, 1024, dtype=np.int64),
            "dstport": np.full(n, 80, dtype=np.int64),
            "proto": np.full(n, 6, dtype=np.int64),
            "tin": np.cumsum(rng.integers(10, 200, size=n)),
            "tout": np.cumsum(rng.integers(10, 200, size=n)) + 5000.0,
            "pkt_len": rng.integers(40, 1500, size=n),
            "payload_len": rng.integers(0, 1460, size=n),
            "tcpseq": rng.integers(0, 1 << 20, size=n),
        })
        geometry = CacheGeometry.set_associative(1, ways=1)
        row = self.row_store(stage, trace, geometry)
        keys, columns = self.streams(stage, trace)
        for window in (None, 57):
            vec = WindowedVectorStore(stage, geometry, params=self.PARAMS,
                                      window=window)
            self.feed(vec, keys, columns, 0, len(keys), 50)
            assert row.stats.evictions == n - 1
            self.assert_same(row, vec, stage)

    @pytest.mark.parametrize("source, exact", [
        (MATRIX, False), (HIST_SCALE, True), (OOS, True), (EWMA, False)],
        ids=["matrix", "hist_scale", "hist_additive", "scale"])
    def test_shards(self, source, exact, trace):
        kwargs = dict(params=self.PARAMS, geometry=self.GEOM,
                      exact_history=exact)
        want = QueryEngine(source, engine="row", **kwargs).run(
            trace, include_invalid=True)
        session = QueryEngine(source, **kwargs).open(window=257, shards=2)
        session.ingest(trace)
        mid = session.results(include_invalid=True)
        got = session.close(include_invalid=True)
        for report in (mid, got):
            assert {q: t.rows for q, t in report.tables.items()} == \
                {q: t.rows for q, t in want.tables.items()}
            assert report.cache_stats == want.cache_stats
            assert report.backing_writes == want.backing_writes
            assert report.accuracy == want.accuracy


class TestMergeInt64Guard:
    """Merged integers beyond int64 promote to exact Python ints (with
    a RuntimeWarning) and match the row store's unbounded ints."""

    @pytest.mark.parametrize("source, exact, inits", [
        (BIG_SUM, False, None), (BIG_SUM, False, {"s": 1}),
        (BIG_HIST, True, None), (BIG_HIST2, True, None)],
        ids=["additive", "additive_init", "hist_compose", "hist_replay"])
    @pytest.mark.parametrize("window", [None, 64])
    def test_merged_ints_pass_2_63(self, source, exact, inits, window):
        stage = compile_stage(source, exact_history=exact)
        if inits:
            stage = with_inits(stage, inits)
        n = 480                   # 40 keys x 12 one-packet epochs
        trace = ObservationTable.from_arrays({
            "srcip": np.tile(np.arange(40, dtype=np.int64), n // 40),
            "tcpseq": np.arange(n, dtype=np.int64) * 7,
            "tin": np.arange(n, dtype=np.int64),
        })
        geometry = CacheGeometry.set_associative(1, ways=1)
        row = SplitKeyValueStore(stage, geometry)
        extract = compile_key_extractor(stage.key.fields)
        for record in trace:
            row.process_keyed(extract(record), record)
        vec = WindowedVectorStore(stage, geometry, window=window)
        columns = trace.columns()
        with pytest.warns(RuntimeWarning, match="backing-store merge"):
            for lo in range(0, n, 48):
                vec.add_batch(columns["srcip"][lo:lo + 48, None],
                              {f: columns[f][lo:lo + 48]
                               for f in vec.needed_fields})
            table = vec.result_table()
        rows = row.result_table().rows
        assert max(v for r in rows for k, v in r.items()
                   if k != "srcip") > 2 ** 63
        assert table.rows == rows
        assert vec.backing_writes == row.backing_writes
