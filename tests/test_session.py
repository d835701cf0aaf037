"""Streaming TelemetrySession tests.

The differential core of the PR's acceptance criteria: windowed
sessions must be **bit-identical** to the ``run()`` path — all
tables, ``CacheStats`` counters, accuracy, backing writes, refresh
counts — across the full query catalog, both engines, and multiple
window sizes (including windows far smaller and far larger than the
ingest chunks, so schedule windows and ingest boundaries interleave
every way).  Plus: refresh boundaries falling mid-chunk, mid-stream
snapshots, session lifecycle errors, the windowed
store's carried-state internals, network-wide sessions, and the lazy
columnar ``ResultTable``.
"""

import numpy as np
import pytest

from repro.core.errors import SessionClosedError
from repro.core.interpreter import ResultTable
from repro.core.vector_exec import VectorizationError
from repro.network.records import ObservationTable
from repro.queries.catalog import CATALOG, FIG2_QUERIES
from repro.switch.kvstore import windowed_store
from repro.switch.kvstore.cache import CacheGeometry
from repro.switch.kvstore.vector_store import VectorSplitStore
from repro.switch.kvstore.windowed_store import WindowedVectorStore
from repro.telemetry import QueryEngine, compare_tables

from tests.conftest import synthetic_trace

GEOM = CacheGeometry.set_associative(128, ways=4)


def observables(report):
    """Everything a run produced, in comparable form."""
    return (
        {q: t.rows for q, t in report.tables.items()},
        {q: (s.accesses, s.hits, s.misses, s.insertions, s.evictions)
         for q, s in report.cache_stats.items()},
        report.backing_writes,
        report.accuracy,
    )


def chunked(table: ObservationTable, size: int):
    columns = table.columns()
    for lo in range(0, len(table), size):
        yield ObservationTable.from_arrays(
            {name: arr[lo:lo + size] for name, arr in columns.items()})


def session_report(engine, table, window, chunk=777, include_invalid=True):
    session = engine.open(window=window)
    for batch in chunked(table, chunk):
        session.ingest(batch)
    return session.close(include_invalid=include_invalid)


class TestWindowedBitIdentity:
    """Windowed sessions == one-shot run() on either engine, full
    catalog × window sizes."""

    @pytest.fixture(scope="class")
    def small_trace(self):
        return synthetic_trace(2500, seed=20)

    @pytest.mark.parametrize("entry", FIG2_QUERIES, ids=lambda e: e.name)
    @pytest.mark.parametrize("engine", ["row", "vector"])
    def test_catalog_windows_match_one_shot(self, entry, engine,
                                            small_trace):
        """Vector windows == ``engine``'s run(): the row reference keeps
        covering windowed sessions."""
        knobs = dict(params=entry.default_params, geometry=GEOM,
                     exact_history=True)
        base = observables(QueryEngine(entry.source, engine=engine, **knobs)
                           .run(small_trace, include_invalid=True))
        qe = QueryEngine(entry.source, **knobs)
        for window in (193, 1024, 10 ** 6):
            report = session_report(qe, small_trace, window)
            assert observables(report) == base, \
                f"{entry.name}/{engine} diverged at window={window}"

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @pytest.mark.parametrize("ways", [2, 8])
    def test_eviction_policies_match_one_shot(self, policy, ways,
                                              small_trace):
        """The carried FIFO/random replay (per-set rings + counter-based
        RNG) and the LRU phantom-prefix path all match the per-packet
        row engine's run() across window cuts, unbounded included."""
        geometry = CacheGeometry.set_associative(32 * ways // 2, ways=ways)
        query = "SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip"
        base = observables(QueryEngine(
            query, geometry=geometry, policy=policy,
            engine="row").run(small_trace, include_invalid=True))
        qe = QueryEngine(query, geometry=geometry, policy=policy,
                         engine="vector")
        for window in (167, 1024, 10 ** 6):
            report = session_report(qe, small_trace, window, chunk=409)
            assert observables(report) == base, (policy, window)

    def test_single_ingest_equals_chunked_ingest(self, small_trace):
        qe = QueryEngine("SELECT COUNT, SUM(pkt_len) GROUPBY srcip",
                         geometry=GEOM)
        one = qe.open(window=300).ingest(small_trace).close()
        many = session_report(qe, small_trace, 300, chunk=211,
                              include_invalid=False)
        assert observables(one) == observables(many)


class TestRefreshMidChunk:
    """Refresh-period boundaries that fall mid-chunk (and mid-window):
    epochs must cut at exactly the same global positions as the
    per-packet store's counter."""

    @pytest.mark.parametrize("refresh,window,chunk", [
        (97, 256, 111),      # refresh < chunk < window
        (250, 97, 111),      # window < chunk, refresh lands mid-chunk
        (1000, 256, 256),    # refresh spans several windows
        (100, 100, 100),     # aligned everywhere
        (333, 10 ** 6, 97),  # window larger than the trace
    ])
    def test_refresh_boundaries(self, refresh, window, chunk):
        trace = synthetic_trace(1500, seed=5)
        qe = QueryEngine("SELECT COUNT, MAX(qsize) GROUPBY srcip",
                         geometry=CacheGeometry.set_associative(32, ways=4),
                         refresh_interval=refresh)
        base = observables(qe.run(trace, include_invalid=True))
        report = session_report(qe, trace, window, chunk=chunk)
        assert observables(report) == base

    def test_refresh_counts_carried_across_windows(self):
        trace = synthetic_trace(1000, seed=6)
        qe = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM,
                         refresh_interval=77)
        session = qe.open(window=123)
        for batch in chunked(trace, 89):
            session.ingest(batch)
        session.close()
        pipeline = session._pipeline
        store = pipeline.store_for(
            qe.compiled.groupby_stages[0].query_name)
        assert store.refreshes == len(trace) // 77


class TestSessionLifecycle:
    def test_ingest_after_close_raises(self, tiny_trace):
        qe = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM)
        session = qe.open(window=64)
        session.ingest(tiny_trace)
        session.close()
        with pytest.raises(SessionClosedError):
            session.ingest(tiny_trace)

    def test_double_close_raises(self, tiny_trace):
        session = QueryEngine("SELECT COUNT GROUPBY srcip",
                              geometry=GEOM).open(window=64)
        session.ingest(tiny_trace)
        session.close()
        with pytest.raises(SessionClosedError):
            session.close()

    def test_session_errors_are_importable_from_errors(self):
        from repro.core import errors
        assert issubclass(errors.SessionClosedError, errors.SessionError)

    def test_results_after_close_raises(self, tiny_trace):
        """The final report is close()'s return value; every post-close
        read raises — results() included, matching ingest()/close()."""
        qe = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM)
        session = qe.open(window=64)
        session.ingest(tiny_trace)
        report = session.close()
        assert report.result.rows
        with pytest.raises(SessionClosedError):
            session.results()

    def test_cache_stats_after_close_raises(self, tiny_trace):
        qe = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM)
        session = qe.open(window=64)
        session.ingest(tiny_trace)
        assert session.cache_stats()           # open: fine
        report = session.close()
        assert report.cache_stats              # final counters live here
        with pytest.raises(SessionClosedError):
            session.cache_stats()

    def test_snapshot_with_zero_matching_records(self, tiny_trace):
        """A WHERE that filters everything: mid-stream snapshots and
        close both return empty tables (no carry arrays ever exist)."""
        qe = QueryEngine(
            "SELECT COUNT, SUM(pkt_len) GROUPBY srcip "
            "WHERE pkt_len > 999999999",
            geometry=GEOM, engine="vector")
        session = qe.open(window=64)
        session.ingest(tiny_trace)
        assert session.results().result.rows == []
        assert session.close().result.rows == []

    def test_context_manager_closes(self, tiny_trace):
        qe = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM)
        with qe.open(window=64) as session:
            session.ingest(tiny_trace)
        assert session.closed

    def test_context_manager_propagates_body_errors(self, tiny_trace):
        """__exit__ must never swallow an in-flight error — and with
        one in flight it leaves the session open rather than risking a
        close() failure masking the original."""
        qe = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM)
        with pytest.raises(RuntimeError, match="boom"):
            with qe.open(window=64) as session:
                session.ingest(tiny_trace)
                raise RuntimeError("boom")
        assert not session.closed
        assert session.close().result.rows     # still usable

    def test_network_context_manager_propagates_body_errors(self):
        from repro.network.simulator import NetworkSimulator
        from repro.network.topology import linear_chain

        sim = NetworkSimulator(linear_chain(2))
        from repro.telemetry.deploy import NetworkDeployment
        deploy = NetworkDeployment("SELECT COUNT GROUPBY srcip", sim,
                                   geometry=GEOM)
        with pytest.raises(RuntimeError, match="boom"):
            with deploy.open(window=64) as session:
                raise RuntimeError("boom")
        assert not session._closed
        session.close()

    def test_empty_session_close(self):
        qe = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM)
        report = qe.open(window=64).close()
        assert report.result.rows == []

    def test_store_window_must_be_positive(self):
        with pytest.raises(Exception):
            WindowedVectorStore(
                QueryEngine("SELECT COUNT GROUPBY srcip")
                .compiled.groupby_stages[0], GEOM, window=0)

    @pytest.mark.parametrize("engine", ["auto", "vector"])
    @pytest.mark.parametrize("window", [0, -1, -64])
    def test_open_rejects_nonpositive_window(self, engine, window):
        """Regression: open(window<=0) must raise up front — the vector
        engine used to defer the failure into the store."""
        qe = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM,
                         engine=engine)
        with pytest.raises(ValueError, match="window must be a positive"):
            qe.open(window=window)

    def test_network_open_rejects_nonpositive_window(self):
        """The network gate runs before any switch session opens."""
        import multiprocessing

        from repro.network.simulator import NetworkSimulator
        from repro.network.topology import linear_chain
        from repro.telemetry.deploy import NetworkDeployment
        from repro.telemetry.diagnostics import diagnostic_code

        deploy = NetworkDeployment(
            "SELECT COUNT GROUPBY srcip",
            NetworkSimulator(linear_chain(2)), geometry=GEOM)
        with pytest.raises(ValueError, match="window must be a positive") as err:
            deploy.open(window=0)
        assert diagnostic_code(err.value) == "RPR-E004"
        assert deploy._session is None
        assert multiprocessing.active_children() == []


class TestMidStreamSnapshots:
    """results() and cache_stats() mid-stream == a fresh run() over the
    prefix, with or without a window, and never perturb the continuing
    stream."""

    @pytest.mark.parametrize("engine,window", [
        ("row", None), ("auto", None), ("vector", None), ("auto", 177),
        ("vector", 512),
    ])
    def test_snapshot_equals_prefix_run(self, engine, window):
        """The prefix run()s are on ``engine``; the session is on the
        vector store, the only session engine (the row reference is
        one-shot, so it is the oracle only)."""
        trace = synthetic_trace(1200, seed=9)
        source = ("def ewma (e, (tin, tout)): e = (1 - alpha) * e + alpha * (tout - tin)\n"
                  "SELECT srcip, ewma GROUPBY srcip")
        qe = QueryEngine(source, params={"alpha": 0.2}, geometry=GEOM,
                         engine=engine)
        columns = trace.columns()
        session = QueryEngine(
            source, params={"alpha": 0.2}, geometry=GEOM,
            engine="auto" if engine == "row" else engine).open(window=window)
        seen = 0
        for batch in chunked(trace, 289):
            session.ingest(batch)
            seen += len(batch)
            prefix = ObservationTable.from_arrays(
                {name: arr[:seen] for name, arr in columns.items()})
            base = qe.run(prefix, include_invalid=True)
            assert session.cache_stats() == base.cache_stats, f"at {seen}"
            snap = session.results(include_invalid=True)
            assert observables(snap) == observables(base), f"at {seen}"
        final = session.close(include_invalid=True)
        assert observables(final) == observables(
            qe.run(trace, include_invalid=True))


class TestCarriedStateInternals:
    """Windowed-store internals the differential tests rely on."""

    def test_memory_state_bounded_by_capacity(self):
        """Open-epoch carry must track cache residency, not the key
        universe: after many windows of all-unique keys, the carried
        open set stays within the cache capacity."""
        geometry = CacheGeometry.set_associative(16, ways=4)
        stage = QueryEngine("SELECT COUNT GROUPBY srcip") \
            .compiled.groupby_stages[0]
        store = WindowedVectorStore(stage, geometry, window=500)
        keys = np.arange(20_000, dtype=np.int64).reshape(-1, 1)
        for lo in range(0, len(keys), 400):
            store.add_batch(keys[lo:lo + 400], {})
        open_now = int(np.count_nonzero(store._open_mask[:store._nkeys]))
        assert open_now <= geometry.capacity
        assert store.result_table().rows[0]["COUNT"] == 1

    def test_buffer_drains_at_window_boundary(self):
        stage = QueryEngine("SELECT COUNT GROUPBY srcip") \
            .compiled.groupby_stages[0]
        store = WindowedVectorStore(stage, GEOM, window=100)
        keys = np.ones((60, 1), dtype=np.int64)
        store.add_batch(keys, {})
        assert store._buffered == 60          # below window: buffered
        store.add_batch(keys, {})
        assert store._buffered == 0           # crossed window: executed
        assert store._total == 120

    def test_key_index_built_on_first_lookup(self):
        """The hash-sorted key index serves window-to-window lookups
        only: a run that is one window never builds it; later windows
        build it once and merge new keys in, for one- and multi-field
        keys."""
        for source, n_fields in (("SELECT COUNT GROUPBY srcip", 1),
                                 ("SELECT COUNT GROUPBY srcip, dstip", 2)):
            stage = QueryEngine(source).compiled.groupby_stages[0]
            keys = np.arange(300 * n_fields, dtype=np.int64) \
                .reshape(-1, n_fields) % 211
            unbounded = WindowedVectorStore(stage, GEOM)
            unbounded.add_batch(keys, {})
            unbounded.finalize()
            assert unbounded._index_hash is None
            windowed = WindowedVectorStore(stage, GEOM, window=100)
            for lo in range(0, len(keys), 100):
                windowed.add_batch(keys[lo:lo + 100], {})
            windowed.finalize()
            assert len(windowed._index_hash) == windowed._nkeys
            assert windowed.result_table().rows == \
                unbounded.result_table().rows

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_window_rows_hashed_once(self, policy, monkeypatch):
        """One row hash per window serves the factorization, the key
        index and the cache sets; besides it, only the key index's
        first build hashes (the keys known by then)."""
        from repro.core import vector_exec

        calls = []
        mix = vector_exec._mix_columns

        def counted(columns, seed=0):
            calls.append(len(columns[0]))
            return mix(columns, seed)

        monkeypatch.setattr(vector_exec, "_mix_columns", counted)
        stage = QueryEngine("SELECT COUNT GROUPBY srcip, dstip") \
            .compiled.groupby_stages[0]
        store = WindowedVectorStore(stage, GEOM, policy=policy, window=100)
        keys = np.arange(2000, dtype=np.int64).reshape(-1, 2) % 50
        for lo in range(0, len(keys), 50):
            store.add_batch(keys[lo:lo + 50], {})
        store.finalize()
        assert len(store._all_keys[:store._nkeys]) == 25
        assert calls == [100, 100, 25] + [100] * 8

    def test_lru_resume_carries_phantom_hashes(self):
        """A checkpoint carries the LRU phantom prefix's key ids and
        hashes, not its key rows: the resumed store restores them as
        they were and then schedules exactly as the uninterrupted
        one."""
        from repro.telemetry.checkpoint import (pack_checkpoint,
                                                unpack_checkpoint)
        stage = QueryEngine("SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip") \
            .compiled.groupby_stages[0]
        trace = synthetic_trace(3000, n_flows=400, seed=43)
        columns = trace.columns()
        keys = np.column_stack([columns[f].astype(np.int64)
                                for f in stage.key.fields])
        fields = {"pkt_len": columns["pkt_len"]}
        whole = WindowedVectorStore(stage, GEOM, window=300)
        first = WindowedVectorStore(stage, GEOM, window=300)
        for store in (whole, first):
            store.add_batch(keys[:1200], {f: c[:1200] for f, c in fields.items()})
        state = first.checkpoint_state()
        assert set(state["sched"]) == {"kind", "res_gids", "res_hashes"}
        resumed = WindowedVectorStore(stage, GEOM, window=300)
        resumed.restore_state(unpack_checkpoint(pack_checkpoint(state)))
        assert len(resumed._sched._res_hashes) > 0
        assert np.array_equal(resumed._sched._res_hashes,
                              whole._sched._res_hashes)
        for store in (whole, resumed):
            store.add_batch(keys[1200:], {f: c[1200:] for f, c in fields.items()})
            store.finalize()
        assert resumed.stats == whole.stats and whole.stats.evictions > 0
        assert resumed.result_table().rows == whole.result_table().rows

    def test_add_batch_after_finalize_rejected(self):
        from repro.core.errors import HardwareError
        stage = QueryEngine("SELECT COUNT GROUPBY srcip") \
            .compiled.groupby_stages[0]
        store = WindowedVectorStore(stage, GEOM, window=100)
        store.add_batch(np.ones((10, 1), dtype=np.int64), {})
        store.finalize()
        with pytest.raises(HardwareError):
            store.add_batch(np.ones((10, 1), dtype=np.int64), {})


class TestExactHistoryContinuation:
    """Exact-history additive folds continue an open epoch across
    window cuts by per-epoch offsets (packet log, post-prefix snapshot,
    ``seen``): every cut — including cuts inside an epoch's first ``k``
    packets — must match the per-packet row oracle."""

    D2 = ("def d2 ((a, b, c), (tcpseq)):\n"
          "    if b + 2 > tcpseq:\n"
          "        c = c + 1\n"
          "    b = a\n"
          "    a = tcpseq\n\n"
          "SELECT 5tuple, d2 GROUPBY 5tuple")
    FOLDS = {"tcp_out_of_sequence": CATALOG["tcp_out_of_sequence"].source,
             "d2": D2}

    @pytest.fixture(scope="class")
    def trace(self):
        # Small, jittered sequence numbers make the history-dependent
        # conditions flip, so a wrongly resumed log or snapshot shows.
        columns = synthetic_trace(400, n_flows=40, seed=33).columns()
        rng = np.random.default_rng(7)
        columns["tcpseq"] = rng.integers(0, 8, len(columns["tcpseq"]))
        columns["payload_len"] = rng.integers(0, 3, len(columns["tcpseq"]))
        return ObservationTable.from_arrays(columns)

    def engines(self, fold, ways, refresh=None):
        geometry = CacheGeometry.set_associative(16 * ways, ways=ways)
        return [QueryEngine(self.FOLDS[fold], geometry=geometry,
                            exact_history=True, refresh_interval=refresh,
                            engine=engine) for engine in ("row", "vector")]

    def test_d2_is_a_depth_two_exact_history_fold(self):
        merge = self.engines("d2", 2)[1].compiled.groupby_stages[0] \
            .folds[0].merge
        assert (merge.strategy, merge.exact_history) == ("additive", True)
        assert merge.history_depth == 2
        assert merge.packet_fields == ("tcpseq",)

    @pytest.mark.parametrize("window", [1, 2, 3, 7, 193, None])
    @pytest.mark.parametrize("ways", [2, 4])
    @pytest.mark.parametrize("fold", sorted(FOLDS))
    def test_every_cut_matches_row_oracle(self, fold, ways, window, trace):
        row, vec = self.engines(fold, ways)
        base = observables(row.run(trace, include_invalid=True))
        for chunk in (1, 5, 777):
            report = session_report(vec, trace, window, chunk=chunk)
            assert observables(report) == base, (chunk, window)

    @pytest.mark.parametrize("fold", sorted(FOLDS))
    def test_refresh_cuts_match_row_oracle(self, fold, trace):
        row, vec = self.engines(fold, 2, refresh=97)
        base = observables(row.run(trace, include_invalid=True))
        for window in (3, 193):
            report = session_report(vec, trace, window, chunk=5)
            assert observables(report) == base, window

    @pytest.mark.parametrize("fold", sorted(FOLDS))
    def test_replay_fallback_windows_interleave(self, fold, trace,
                                                monkeypatch):
        """Every other window falls back to the scalar replay: the
        registers it leaves behind must continue on the vectorized path
        and the other way round."""
        calls = []
        vectorized = VectorSplitStore._eval_additive

        def alternate(self, *args, **kwargs):
            calls.append(None)
            if len(calls) % 2:
                raise VectorizationError("forced")
            return vectorized(self, *args, **kwargs)

        monkeypatch.setattr(VectorSplitStore, "_eval_additive", alternate)
        row, vec = self.engines(fold, 2)
        base = observables(row.run(trace, include_invalid=True))
        for window in (1, 3, 7):
            report = session_report(vec, trace, window, chunk=5)
            assert observables(report) == base, window
        assert len(calls) > 2

    def test_resume_inside_the_log_prefix(self, trace):
        """Checkpoint where an open epoch has logged 1 of its k = 2
        packets: the resumed stream closes bit-identical."""
        _, vec = self.engines("d2", 2)
        stage = vec.compiled.groupby_stages[0]
        batches = list(chunked(trace, 1))
        session = vec.open(window=3)
        cut = None
        for i, batch in enumerate(batches, 1):
            session.ingest(batch)
            store = session._pipeline.store_for(stage.query_name)
            nk = store._nkeys
            seen = store._open_aux[stage.folds[0].column].get(("seen",))
            if seen is not None and i > len(batches) // 3 and np.any(
                    (seen[:nk] == 1) & store._open_mask[:nk]):
                cut = i
                break
        assert cut is not None
        resumed = vec.resume(session.checkpoint())
        for batch in batches[cut:]:
            session.ingest(batch)
            resumed.ingest(batch)
        want = observables(session.close(include_invalid=True))
        assert observables(resumed.close(include_invalid=True)) == want
        assert want == observables(
            self.engines("d2", 2)[0].run(trace, include_invalid=True))


class TestCatalogNeverReplays:
    """The vectorized fold paths cover the whole catalog with exact
    history on: no window, continuing or not, falls back to the scalar
    replay."""

    @pytest.mark.parametrize("window", [193, 1024])
    @pytest.mark.parametrize("entry", FIG2_QUERIES, ids=lambda e: e.name)
    def test_no_scalar_replay(self, entry, window, monkeypatch):
        calls = []
        replay = VectorSplitStore._replay_fold

        def counted(self, *args, **kwargs):
            calls.append(args[0].column)
            return replay(self, *args, **kwargs)

        monkeypatch.setattr(VectorSplitStore, "_replay_fold", counted)
        qe = QueryEngine(entry.source, params=entry.default_params,
                         geometry=GEOM, exact_history=True)
        session = qe.open(window=window)
        for batch in chunked(synthetic_trace(2500, seed=20), 300):
            session.ingest(batch)
            session.results()
        session.close()
        assert calls == []


class TestKeyIndexCollisions:
    """The global key index and the window factorization order keys by
    the 64-bit row hash and verify every match against the full row: a
    degenerate hash (every key in one of four values) must change
    nothing.  The row store's cache hashes with the same planted
    function, so both engines see the same (four) cache sets."""

    @pytest.mark.parametrize("window", [7, 193])
    @pytest.mark.parametrize("key", ["srcip", "srcip, dstip", "pkt_uniq"])
    def test_degenerate_hash_is_exact(self, key, window, monkeypatch):
        from repro.switch.kvstore import cache, vector_cache

        mix_key, mix_key_array = cache.mix_key, vector_cache.mix_key_array
        monkeypatch.setattr(cache, "mix_key",
                            lambda key, seed=0: mix_key(key, seed) & 3)
        for module in (windowed_store, vector_cache):
            monkeypatch.setattr(
                module, "mix_key_array",
                lambda keys, seed=0: mix_key_array(keys, seed) & np.uint64(3))
        source = f"SELECT COUNT, SUM(pkt_len) GROUPBY {key}"
        trace = synthetic_trace(900, n_flows=60, seed=41)
        base = observables(QueryEngine(source, geometry=GEOM, engine="row")
                           .run(trace, include_invalid=True))
        qe = QueryEngine(source, geometry=GEOM)
        stage = qe.compiled.groupby_stages[0]
        batches = list(chunked(trace, 100))
        session = qe.open(window=window)
        for i, batch in enumerate(batches, 1):
            session.ingest(batch)
            if i == len(batches) // 2:      # the index is rebuilt
                session = qe.resume(session.checkpoint())
        session.results()
        store = session._pipeline.store_for(stage.query_name)
        columns = trace.columns()
        rows = np.column_stack([columns[f].astype(np.int64)
                                for f in stage.key.fields])
        _, first = np.unique(rows, axis=0, return_index=True)
        assert np.array_equal(store._all_keys[:store._nkeys],
                              rows[np.sort(first)])
        assert observables(session.close(include_invalid=True)) == base


class TestNetworkSessions:
    @pytest.fixture(scope="class")
    def fabric(self):
        from repro.network.simulator import NetworkSimulator
        from repro.network.topology import LinkSpec, leaf_spine

        topo = leaf_spine(2, 2, 2, edge_link=LinkSpec(rate_gbps=5.0))
        sim = NetworkSimulator(topo)
        hosts = sorted(topo.hosts())
        t = 0
        for i in range(500):
            t += 2000
            src = hosts[i % len(hosts)]
            dst = hosts[(i + 1 + i // 7) % len(hosts)]
            if src != dst:
                sim.inject(time_ns=t, src=src, dst=dst,
                           pkt_len=400 + (i % 900), srcport=2000 + i % 5)
        return sim, sim.run()

    def network_observables(self, report):
        return (
            {q: sorted(map(tuple, (sorted(r.items()) for r in t.rows)))
             for q, t in report.combined.items()},
            {sw: {q: t.rows for q, t in tables.items()}
             for sw, tables in report.per_switch.items()},
            report.combinable,
        )

    def test_streaming_deployment_matches_one_shot(self, fabric):
        from repro.telemetry.deploy import NetworkDeployment

        sim, table = fabric
        source = "SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple"
        one_shot = NetworkDeployment(source, sim, geometry=GEOM) \
            .run(table)
        deploy = NetworkDeployment(source, sim, geometry=GEOM)
        session = deploy.open(window=333)
        for batch in chunked(table, 441):
            session.ingest(batch)
        mid = session.results()                # streaming snapshot
        report = session.close()
        assert self.network_observables(mid) == \
            self.network_observables(one_shot)
        assert self.network_observables(report) == \
            self.network_observables(one_shot)

    def test_single_pass_routing_matches_per_switch_masks(self, fabric):
        """The argsort(owner) batch split must hand every switch
        exactly the rows `owner == i` masking would, in arrival
        order."""
        import numpy as np

        from repro.telemetry.deploy import NetworkDeployment

        sim, table = fabric
        deploy = NetworkDeployment("SELECT COUNT GROUPBY qid", sim,
                                   geometry=GEOM)
        session = deploy.open(window=128)

        routed: dict[str, list] = {}
        originals = {name: sess.ingest
                     for name, sess in session.sessions.items()}

        def capture(name):
            def _ingest(batch):
                routed.setdefault(name, []).append(batch)
                return originals[name](batch)
            return _ingest

        for name, sess in session.sessions.items():
            sess.ingest = capture(name)
        session.ingest(table)
        session.close()

        columns = table.columns()
        qid = columns["qid"]
        owner_of = deploy._queue_owner
        for name in session.sessions:
            want = np.array([i for i, q in enumerate(qid.tolist())
                             if owner_of.get(q) == name], dtype=np.int64)
            got = routed.get(name, [])
            if not len(want):
                assert not got
                continue
            merged = {
                col: np.concatenate([b.columns()[col] for b in got])
                for col in columns
            }
            for col, arr in columns.items():
                assert np.array_equal(merged[col], arr[want]), (name, col)

    def test_network_close_retryable_after_partial_failure(self, fabric):
        """If one switch's close() fails, the switches that already
        finalized must not wedge the session: a retry resumes with the
        remaining sessions and still produces the combined report."""
        from repro.telemetry.deploy import NetworkDeployment

        sim, table = fabric
        deploy = NetworkDeployment("SELECT COUNT GROUPBY qid", sim,
                                   geometry=GEOM)
        session = deploy.open(window=256)
        session.ingest(table)
        victim = list(session.sessions)[-1]
        real_close = session.sessions[victim].close
        calls = {"n": 0}

        def flaky_close(*args, **kwargs):
            if calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("transient close failure")
            return real_close(*args, **kwargs)

        session.sessions[victim].close = flaky_close
        with pytest.raises(RuntimeError, match="transient"):
            session.close()
        assert not session._closed
        # Half-closed window: reads stay coherent (finalized switches
        # answer from their stored reports), ingest is refused clearly.
        mid = session.results()
        assert set(mid.per_switch) == set(session.sessions)
        stats = session.cache_stats()
        assert set(stats) == set(session.sessions)
        with pytest.raises(SessionClosedError, match="partially closed"):
            session.ingest(table)
        report = session.close()               # retry resumes
        assert victim in report.per_switch
        total = sum(r["COUNT"] for r in
                    report.combined[deploy.compiled.result].rows)
        assert total == len(table)

    def test_network_session_close_is_final(self, fabric):
        from repro.telemetry.deploy import NetworkDeployment

        sim, table = fabric
        deploy = NetworkDeployment("SELECT COUNT GROUPBY qid", sim,
                                   geometry=GEOM)
        session = deploy.open(window=256)
        session.ingest(table)
        assert session.cache_stats()           # open: fine
        session.close()
        with pytest.raises(SessionClosedError):
            session.ingest(table)
        with pytest.raises(SessionClosedError):
            session.results()
        with pytest.raises(SessionClosedError):
            session.cache_stats()
        with pytest.raises(SessionClosedError):
            session.close()
        with pytest.raises(SessionClosedError):
            deploy.cache_stats()               # proxies the closed session

    def test_simulator_streams_into_session(self, fabric):
        """stream_into() batches concatenate to run()'s table exactly,
        and drive a session to the same results."""
        from repro.network.simulator import NetworkSimulator
        from repro.network.topology import linear_chain

        def build():
            topo = linear_chain(3)
            sim = NetworkSimulator(topo)
            for i in range(300):
                sim.inject(time_ns=i * 50_000, src="h0", dst="h1",
                           pkt_len=500 + i % 700)
            return sim

        table = build().run()
        qe = QueryEngine("SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple",
                         geometry=GEOM)
        base = observables(qe.run(table))

        class Collecting:
            def __init__(self, session):
                self.session = session
                self.batches = []

            def ingest(self, batch):
                self.batches.append(batch)
                self.session.ingest(batch)

        session = qe.open(window=128)
        collector = Collecting(session)
        streamed = build().stream_into(collector, chunk_size=100)
        assert streamed == len(table)
        merged = {
            name: np.concatenate([b.columns()[name]
                                  for b in collector.batches])
            for name in table.columns()
        }
        for name, arr in table.columns().items():
            assert np.array_equal(merged[name], arr), name
        assert observables(session.close()) == base


class TestLazyColumnarResultTable:
    def schema(self):
        return QueryEngine("SELECT COUNT GROUPBY srcip") \
            .compiled.groupby_stages[0].output

    def test_from_columns_is_columnar_until_rows_touched(self):
        table = ResultTable.from_columns(self.schema(), {
            "srcip": np.array([3, 1, 2]), "COUNT": np.array([7, 8, 9])})
        assert table.is_columnar
        assert len(table) == 3
        assert table.column("COUNT") == [7, 8, 9]      # still columnar
        assert table.is_columnar
        rows = table.rows                              # materialises
        assert rows == [{"srcip": 3, "COUNT": 7}, {"srcip": 1, "COUNT": 8},
                        {"srcip": 2, "COUNT": 9}]
        assert not table.is_columnar
        assert all(isinstance(r["COUNT"], int) for r in rows)

    def test_sort_key_columnar_matches_row_sort(self):
        columns = {"srcip": np.array([3, 1, 2]), "COUNT": np.array([7, 8, 9])}
        a = ResultTable.from_columns(self.schema(), dict(columns))
        b = ResultTable.from_columns(self.schema(), dict(columns))
        _ = b.rows                                     # force row authority
        assert a.sort_key().rows == b.sort_key().rows
        assert a.rows[0] == {"srcip": 1, "COUNT": 8}

    def test_rows_setter_drops_columns(self):
        table = ResultTable.from_columns(self.schema(), {
            "srcip": np.array([1]), "COUNT": np.array([2])})
        table.rows = [{"srcip": 5, "COUNT": 6}]
        assert not table.is_columnar and len(table) == 1

    def test_compare_tables_columnar_equals_row_path(self):
        schema = self.schema()
        h_cols = {"srcip": np.array([1, 2, 3]),
                  "COUNT": np.array([1.0, np.inf, 5.0])}
        t_cols = {"srcip": np.array([1, 2, 4]),
                  "COUNT": np.array([1.0 + 5e-10, np.inf, 7.0])}
        columnar = compare_tables(
            ResultTable.from_columns(schema, h_cols),
            ResultTable.from_columns(schema, t_cols))
        h_rows = ResultTable.from_columns(schema, h_cols)
        t_rows = ResultTable.from_columns(schema, t_cols)
        _ = h_rows.rows, t_rows.rows
        assert columnar == compare_tables(h_rows, t_rows)

    def test_engine_result_tables_are_columnar_on_vector_path(self, trace):
        qe = QueryEngine("SELECT COUNT, SUM(pkt_len) GROUPBY srcip",
                         geometry=GEOM, engine="vector")
        report = qe.run(trace)
        assert report.result.is_columnar
