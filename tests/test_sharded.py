"""Sharded parallel session fabric tests.

The acceptance criterion of the sharding PR: ``shards=N`` sessions must
be **bit-identical** to ``shards=1``, to the single-process vector
engine, and to the row interpreter — tables, ``CacheStats`` counters, backing
writes, accuracy — across the Fig. 2 catalog, eviction policies,
window partitionings, and shard counts, including mid-stream
``results()`` snapshots.  Plus: the mergeable/non-mergeable contract
(non-mergeable folds route whole-stream to one shard), session error
contracts, the int64 overflow guard on the vector fold path, and the
shared-memory worker-pool lifecycle (ack-bounded segments, crash propagation, unlink on every
failure path).
"""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import HardwareError
from repro.network.records import ObservationTable
from repro.queries.catalog import FIG2_QUERIES
from repro.switch.kvstore.cache import CacheGeometry
from repro.switch.kvstore.sharded import _StoreShardRole
from repro.switch.kvstore.vector_cache import mix_key_array
from repro.switch.pipeline import SessionConfig
from repro.telemetry import QueryEngine

from tests.conftest import make_record, synthetic_trace

GEOM = CacheGeometry.set_associative(128, ways=4)

CATALOG = {entry.name: entry for entry in FIG2_QUERIES}


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


def sharded_report(engine, table, window, shards, chunk=777,
                   include_invalid=True):
    session = engine.open(window=window, shards=shards)
    for batch in chunked(table, chunk):
        session.ingest(batch)
    return session.close(include_invalid=include_invalid)


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(2500, n_flows=60, seed=11)


class TestShardedBitIdentity:
    """shards=N == shards=1 == single-process vector == row
    interpreter."""

    @pytest.mark.parametrize("entry", FIG2_QUERIES, ids=lambda e: e.name)
    def test_catalog_matches_one_shot_and_row(self, entry, trace):
        qe = QueryEngine(entry.source, params=entry.default_params,
                         geometry=GEOM)
        base = observables(qe.run(trace, include_invalid=True))
        row = QueryEngine(entry.source, params=entry.default_params,
                          geometry=GEOM, engine="row")
        assert observables(row.run(trace, include_invalid=True)) == base
        for window in (None, 193, 1024, 10 ** 6):
            report = sharded_report(qe, trace, window, shards=2)
            assert observables(report) == base, \
                f"{entry.name} diverged at window={window}"

    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_shard_counts(self, shards, trace):
        entry = CATALOG["per_flow_counters"]
        qe = QueryEngine(entry.source, params=entry.default_params,
                         geometry=GEOM)
        base = observables(qe.run(trace, include_invalid=True))
        for window in (None, 257):
            report = sharded_report(qe, trace, window, shards=shards)
            assert observables(report) == base

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_eviction_policies(self, policy, trace):
        entry = CATALOG["latency_ewma"]
        qe = QueryEngine(entry.source, params=entry.default_params,
                         geometry=CacheGeometry.set_associative(64, ways=2),
                         policy=policy)
        base = observables(qe.run(trace, include_invalid=True))
        for window in (None, 193):
            report = sharded_report(qe, trace, window, shards=3)
            assert observables(report) == base

    def test_fully_associative_routes_to_one_shard(self, trace):
        """n_buckets == 1 means one cache set: there is nothing to
        partition, so the proxy degrades to single-shard routing and
        stays bit-identical."""
        entry = CATALOG["per_flow_counters"]
        qe = QueryEngine(entry.source, params=entry.default_params,
                         geometry=CacheGeometry.fully_associative(64))
        base = observables(qe.run(trace, include_invalid=True))
        session = qe.open(window=301, shards=4)
        for stage in qe.compiled.groupby_stages:
            proxy = session._pipeline.store_for(stage.query_name)
            assert proxy._single
        session.ingest(trace)
        assert observables(session.close(include_invalid=True)) == base

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        name=st.sampled_from(["per_flow_counters", "latency_ewma",
                              "per_flow_loss_rate", "tcp_non_monotonic"]),
        policy=st.sampled_from(["lru", "fifo", "random"]),
        shards=st.sampled_from([2, 3, 8]),
        window=st.sampled_from([None, 67, 193, 1024]),
        chunk=st.sampled_from([311, 900]),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_differential(self, name, policy, shards, window, chunk, seed):
        entry = CATALOG[name]
        small = synthetic_trace(900, n_flows=30, seed=seed)
        qe = QueryEngine(entry.source, params=entry.default_params,
                         geometry=GEOM, policy=policy)
        base = observables(qe.run(small, include_invalid=True))
        row = QueryEngine(entry.source, params=entry.default_params,
                          geometry=GEOM, policy=policy, engine="row")
        assert observables(row.run(small, include_invalid=True)) == base
        report = sharded_report(qe, small, window, shards, chunk=chunk)
        assert observables(report) == base


class TestMidStreamSnapshots:
    @pytest.mark.parametrize("name", ["per_flow_counters", "latency_ewma",
                                      "tcp_non_monotonic"])
    def test_windowed_snapshots_match_single_process(self, name, trace):
        """Per-key-array combine (per_flow_counters), backing-store
        combine (latency_ewma: scale merges) and the non-mergeable
        single-shard route (tcp_non_monotonic)."""
        entry = CATALOG[name]
        qe = QueryEngine(entry.source, params=entry.default_params,
                         geometry=GEOM)
        single = qe.open(window=257)
        sharded = qe.open(window=257, shards=3)
        for batch in chunked(trace, 700):
            single.ingest(batch)
            sharded.ingest(batch)
            assert observables(sharded.results()) == \
                observables(single.results())
        assert observables(sharded.close()) == observables(single.close())

    def test_unwindowed_snapshots_match_prefix_run(self, trace):
        """Without a window each worker runs its buffered slice as one
        window per read: mid-stream results() and cache_stats() equal
        run() over the prefix, and the stream continues to run()'s
        final report."""
        entry = CATALOG["per_flow_counters"]
        qe = QueryEngine(entry.source, params=entry.default_params,
                         geometry=GEOM)
        columns = trace.columns()
        session = qe.open(shards=2)
        seen = 0
        for batch in chunked(trace, 700):
            session.ingest(batch)
            seen += len(batch)
            base = qe.run(ObservationTable.from_arrays(
                {name: col[:seen] for name, col in columns.items()}),
                include_invalid=True)
            assert session.cache_stats() == base.cache_stats, seen
            assert observables(session.results(include_invalid=True)) == \
                observables(base), seen
        assert observables(session.close(include_invalid=True)) == \
            observables(qe.run(trace, include_invalid=True))


class TestMergeableContract:
    """Non-mergeable folds cannot be combined across shards, so their
    stage routes the whole stream to one shard (documented fallback)
    and stays bit-identical."""

    def test_non_mergeable_routes_single(self, trace):
        entry = CATALOG["tcp_non_monotonic"]
        qe = QueryEngine(entry.source, params=entry.default_params,
                         geometry=GEOM)
        session = qe.open(window=257, shards=4)
        routed_single = []
        for stage in qe.compiled.groupby_stages:
            proxy = session._pipeline.store_for(stage.query_name)
            if not proxy.mergeable:
                assert proxy._single
                routed_single.append(stage.query_name)
        assert routed_single                   # the catalog entry has one
        session.ingest(trace)
        report = session.close(include_invalid=True)
        base = qe.run(trace, include_invalid=True)
        assert observables(report) == observables(base)

    def test_combine_permutes_segment_logs(self, trace):
        """Forced to fan out anyway, a list-fold stage's shard payloads
        interleave in first-access order; the combine moves each key's
        segments with it, so the table matches the one-process run."""
        entry = CATALOG["tcp_non_monotonic"]
        qe = QueryEngine(entry.source, params=entry.default_params,
                         geometry=GEOM)
        session = qe.open(window=257, shards=2)
        for stage in qe.compiled.groupby_stages:
            session._pipeline.store_for(stage.query_name)._single = False
        session.ingest(trace)
        report = session.close(include_invalid=True)
        base = qe.run(trace, include_invalid=True)
        assert min(base.accuracy.values()) < 1.0
        assert observables(report) == observables(base)

    def test_mergeable_stage_actually_fans_out(self, trace):
        entry = CATALOG["per_flow_counters"]
        qe = QueryEngine(entry.source, params=entry.default_params,
                         geometry=GEOM)
        session = qe.open(window=257, shards=2)
        for stage in qe.compiled.groupby_stages:
            proxy = session._pipeline.store_for(stage.query_name)
            assert proxy.mergeable and not proxy._single
        session.ingest(trace)
        session.close()


KEY_STAGES = [QueryEngine(f"SELECT COUNT GROUPBY {fields}")
              .compiled.groupby_stages[0]
              for fields in ("srcip", "srcip, dstip", "srcip, dstip, proto")]


@st.composite
def key_batches(draw):
    """A stage with 1-3 key columns and its stream cut into batches:
    key rows with negative values (few distinct, so keys repeat within
    and across batches) and ascending global positions with gaps."""
    stage = draw(st.sampled_from(KEY_STAGES))
    width = len(stage.key.fields)
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    values = draw(st.lists(st.integers(-4, 3), min_size=sum(sizes) * width,
                           max_size=sum(sizes) * width))
    gaps = draw(st.lists(st.integers(1, 5), min_size=sum(sizes),
                         max_size=sum(sizes)))
    keys = np.array(values, dtype=np.int64).reshape(-1, width)
    pos = np.cumsum(gaps, dtype=np.int64)
    bounds = np.cumsum([0] + sizes)
    return stage, [(keys[lo:hi], pos[lo:hi])
                   for lo, hi in zip(bounds[:-1], bounds[1:])]


class TestFirstAccessOrder:
    """A shard worker takes each key's global first-access position
    from its store's key index; the combine orders keys by it."""

    @settings(max_examples=40, deadline=None)
    @given(drawn=key_batches(), window=st.sampled_from([3, 17, 10 ** 6]),
           cut=st.integers(0, 5))
    def test_role_first_pos_matches_dict_oracle(self, drawn, window, cut):
        """Role ``first_pos`` equals a ``{key row: first position}``
        oracle, across a ``checkpoint()`` → fresh role ``restore()``
        between batches (input still pending when the window is larger
        than the stream)."""
        stage, batches = drawn
        config = SessionConfig(window=window, shards=1, seed=5)
        specs = [(stage, CacheGeometry.set_associative(8, ways=2))]
        role = _StoreShardRole(specs, {}, config)
        firsts: dict[tuple, int] = {}
        for i, (keys, pos) in enumerate(batches):
            if i == cut:
                state = pickle.loads(pickle.dumps(role.checkpoint()))
                role = _StoreShardRole(specs, {}, config)
                role.restore(state)
            for row, p in zip(keys.tolist(), pos.tolist()):
                firsts.setdefault(tuple(row), p)
            role.handle("add_batch", {"stage": 0},
                        {"__keys__": keys, "__pos__": pos})
        payload = role.handle("snapshot", {"stage": 0}, {})
        rows = [tuple(row) for row in payload["state"].keys.tolist()]
        assert sorted(rows) == sorted(firsts)
        assert payload["first_pos"].tolist() == [firsts[r] for r in rows]

    def test_checkpoint_with_pending_input_keeps_row_order(self):
        """Keys first seen on both shards inside one batch, a checkpoint
        while input is pending (``window`` > batch), resume, close:
        equal to the unsharded ``run()`` in row order, counters and
        writes."""
        table = synthetic_trace(1500, n_flows=400, seed=7)
        entry = CATALOG["per_flow_counters"]
        qe = QueryEngine(entry.source, params=entry.default_params,
                         geometry=GEOM)
        stage = qe.compiled.groupby_stages[0]
        columns = table.columns()
        keys = np.column_stack([columns[f] for f in stage.key.fields]) \
            .astype(np.int64)
        shard = mix_key_array(keys, 0) % np.uint64(GEOM.n_buckets) % 2
        _, first = np.unique(keys, axis=0, return_index=True)
        second = first[(first >= 300) & (first < 600)]
        assert set(shard[second].tolist()) == {0, 1}

        session = qe.open(window=1000, shards=2)
        for batch in chunked(_rows(table, 0, 900), 300):
            session.ingest(batch)
        snapshot = session.checkpoint()
        session.close()
        resumed = qe.resume(snapshot)
        for batch in chunked(_rows(table, 900, len(table)), 300):
            resumed.ingest(batch)
        assert observables(resumed.close(include_invalid=True)) == \
            observables(qe.run(table, include_invalid=True))


def _rows(table: ObservationTable, lo: int, hi: int) -> ObservationTable:
    return ObservationTable.from_arrays(
        {name: col[lo:hi] for name, col in table.columns().items()})


class TestErrorContracts:
    def test_row_engine_cannot_shard(self):
        qe = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM,
                         engine="row")
        with pytest.raises(HardwareError, match="row"):
            qe.open(shards=2)

    def test_refresh_interval_cannot_shard(self):
        qe = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM,
                         refresh_interval=100)
        with pytest.raises(HardwareError, match="refresh_interval"):
            qe.open(shards=2)

    def test_shards_must_be_positive(self):
        qe = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                qe.open(shards=bad)

    def test_sharded_sessions_are_batch_only(self, trace):
        """Sharded stores take column batches only: every batch reaches
        them columnized at the door."""
        qe = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM)
        session = qe.open(window=257, shards=2)
        session.ingest(trace)
        session.close()


def big_sum_trace(n, value, flows=3):
    records = [make_record(srcip=10 + i % flows, pkt_len=value,
                           tin=1000 * i, tout=1000 * i + 100.0, pkt_id=i)
               for i in range(n)]
    return ObservationTable(records)


class TestInt64OverflowGuard:
    """SUM accumulators that could exceed int64 fall back (with a
    warning) to exact arithmetic instead of silently wrapping."""

    SOURCE = "SELECT COUNT, SUM(pkt_len) GROUPBY srcip"

    def exact_rows(self, table):
        return QueryEngine(self.SOURCE, geometry=GEOM,
                           engine="row").run(table).result.rows

    def test_one_shot_vector_falls_back_exactly(self):
        table = big_sum_trace(300, 2 ** 61)
        want = self.exact_rows(table)
        assert any(row["SUM(pkt_len)"] >= 2 ** 63 for row in want)
        qe = QueryEngine(self.SOURCE, geometry=GEOM, engine="vector")
        with pytest.warns(RuntimeWarning, match="int64"):
            report = qe.run(table)
        assert report.result.rows == want

    def test_windowed_promotes_cross_window_accumulators(self):
        # Per-window sums stay inside int64 (64 * 2**55 < 2**63); only
        # the *cross-window* merged accumulator overflows, exercising
        # the windowed store's object-dtype promotion.
        table = big_sum_trace(2000, 2 ** 55, flows=4)
        want = self.exact_rows(table)
        assert any(row["SUM(pkt_len)"] >= 2 ** 63 for row in want)
        qe = QueryEngine(self.SOURCE, geometry=GEOM)
        session = qe.open(window=64)
        with pytest.warns(RuntimeWarning, match="int64"):
            for batch in chunked(table, 500):
                session.ingest(batch)
            report = session.close()
        assert report.result.rows == want

    def test_sharded_overflow_stays_exact(self):
        # The warning fires inside the worker processes and is
        # re-issued in the parent, which also gets the exact
        # (object-dtype) accumulators back.
        table = big_sum_trace(2000, 2 ** 55, flows=4)
        want = self.exact_rows(table)
        qe = QueryEngine(self.SOURCE, geometry=GEOM)
        session = qe.open(window=64, shards=2)
        with pytest.warns(RuntimeWarning, match="may exceed int64"):
            session.ingest(table)
            rows = session.close().result.rows
        assert rows == want


# -- worker-pool transport -----------------------------------------------------


class EchoRole:
    def handle(self, op, meta, arrays):
        if op == "boom":
            raise ValueError("kaboom")
        if op == "warn":
            warnings.warn(meta, RuntimeWarning)
            return meta
        if op == "sum":
            return {name: arr.sum().item() for name, arr in arrays.items()}
        if op == "meta":
            return meta
        return None


class TestShardWorkerPool:
    def test_round_trip_and_ack_drain(self):
        from repro.telemetry.shard_exec import ShardWorkerPool

        with ShardWorkerPool([EchoRole(), EchoRole()]) as pool:
            arrays = {"a": np.arange(100, dtype=np.int64),
                      "b": np.linspace(0.0, 1.0, 7)}
            assert pool.call(0, "sum", arrays=arrays) == {
                "a": int(np.arange(100).sum()),
                "b": pytest.approx(np.linspace(0.0, 1.0, 7).sum()),
            }
            for _ in range(20):                # posts stream fire-and-forget
                pool.post(1, "sum", arrays=arrays)
            assert pool.call(1, "meta", meta={"k": 3}) == {"k": 3}
            # Every segment was acked and unlinked by the time the
            # synchronous call returned (FIFO pipe ordering).
            assert not pool._workers[1].pending

    def test_worker_warnings_reach_the_caller(self):
        from repro.telemetry.shard_exec import ShardWorkerPool

        with ShardWorkerPool([EchoRole()]) as pool:
            with pytest.warns(RuntimeWarning, match="from the worker"):
                assert pool.call(0, "warn", meta="from the worker") == \
                    "from the worker"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(RuntimeWarning, match="escalated"):
                    pool.call(0, "warn", meta="escalated")

    def test_worker_exception_propagates_and_poisons(self):
        from repro.telemetry.shard_exec import ShardError, ShardWorkerPool

        with ShardWorkerPool([EchoRole()]) as pool:
            with pytest.raises(ShardError, match="kaboom"):
                pool.call(0, "boom")
            with pytest.raises(ShardError, match="already failed"):
                pool.call(0, "meta", meta=1)

    def test_object_dtype_rejected(self):
        from repro.telemetry.shard_exec import ShardError, ShardWorkerPool

        with ShardWorkerPool([EchoRole()]) as pool:
            bad = np.array([{"nope": 1}], dtype=object)
            with pytest.raises(ShardError, match="object-dtype"):
                pool.post(0, "sum", arrays={"x": bad})

    def test_close_is_idempotent_and_final(self):
        from repro.telemetry.shard_exec import ShardError, ShardWorkerPool

        pool = ShardWorkerPool([EchoRole()])
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(ShardError, match="closed"):
            pool.call(0, "meta", meta=1)

    def test_empty_pool_rejected(self):
        from repro.telemetry.shard_exec import ShardError, ShardWorkerPool

        with pytest.raises(ShardError, match="at least one"):
            ShardWorkerPool([])


class TestSharedMemoryLifecycle:
    def test_release_shared_memory_idempotent(self):
        from multiprocessing import shared_memory

        from repro.telemetry.shard_exec import release_shared_memory

        shm = shared_memory.SharedMemory(create=True, size=64)
        name = shm.name
        release_shared_memory(shm)
        release_shared_memory(shm)             # second release: no-op
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_release_tolerates_live_view(self):
        from multiprocessing import shared_memory

        from repro.telemetry.shard_exec import release_shared_memory

        shm = shared_memory.SharedMemory(create=True, size=64)
        name = shm.name
        view = np.ndarray(8, dtype=np.int64, buffer=shm.buf)
        release_shared_memory(shm)             # close() hits BufferError
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        del view

    def test_sweep_fan_unlinks_on_worker_failure(self, monkeypatch):
        """A worker crash mid-sweep must not leak the shared key-stream
        segment (regression for the close()-raises-skips-unlink
        ordering in _fan)."""
        from multiprocessing import shared_memory

        from repro.analysis import sweep_exec

        created = []
        real = shared_memory.SharedMemory

        def spy(*args, **kwargs):
            shm = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(shm.name)
            return shm

        monkeypatch.setattr(sweep_exec.shared_memory, "SharedMemory", spy)
        with pytest.raises(KeyError):
            sweep_exec.run_eviction_sweep_parallel(
                scale=1.0 / 4096.0, geometries=("no_such_geometry",),
                workers=2)
        assert created
        for name in created:
            with pytest.raises(FileNotFoundError):
                real(name=name)


class TestShardedCLI:
    def test_run_with_shards(self, tmp_path, capsys):
        from repro.cli import main
        from repro.traffic.trace_io import write_npz

        path = tmp_path / "trace.npz"
        write_npz(synthetic_trace(n_packets=1200, n_flows=20), path)
        code = main(["run", "--query", "SELECT COUNT GROUPBY srcip",
                     "--trace", str(path), "--shards", "2",
                     "--window", "257"])
        assert code == 0
        assert "COUNT" in capsys.readouterr().out

    def test_shards_must_be_positive(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "--query", "SELECT COUNT GROUPBY srcip",
                  "--trace", "unused.npz", "--shards", "0"])


class _NapRole:
    """Role whose handler can wedge: alive, healthy pipe, no reply."""

    def handle(self, op, meta, arrays):
        if op == "nap":
            import time
            time.sleep(meta)
        return op

    def checkpoint(self):
        return None

    def restore(self, state):
        pass


class TestAckTimeout:
    def test_wedged_worker_raises_named_shard_error(self):
        """A wedged-but-alive worker (handler stuck, process healthy)
        no longer hangs the parent forever: the ack timeout turns it
        into a ShardError naming the worker."""
        from repro.telemetry.shard_exec import ShardError, ShardWorkerPool

        pool = ShardWorkerPool([_NapRole()], ack_timeout=0.3)
        try:
            with pytest.raises(ShardError, match="worker 0 .*wedged"):
                pool.call(0, "nap", meta=30.0)
            # the worker really was alive the whole time — this was a
            # wedge, not a crash
            assert pool._workers[0].proc.is_alive()
            with pytest.raises(ShardError, match="already failed"):
                pool.call(0, "nap", meta=0.0)
        finally:
            # unwedge teardown: the worker would nap through the stop
            pool._workers[0].proc.kill()
            pool.close()

    def test_timeout_does_not_trip_on_slow_but_live_replies(self):
        from repro.telemetry.shard_exec import ShardWorkerPool

        with ShardWorkerPool([_NapRole()], ack_timeout=2.0) as pool:
            assert pool.call(0, "nap", meta=0.2) == "nap"

    def test_ack_timeout_validated(self):
        from repro.telemetry.shard_exec import ShardError, ShardWorkerPool

        with pytest.raises(ShardError, match="ack_timeout"):
            ShardWorkerPool([_NapRole()], ack_timeout=0.0)


class TestRestartJitter:
    def test_restart_backoff_is_jittered_and_seedable(self, monkeypatch):
        """Worker-restart backoff draws U(0, base * 2**k) from a
        seedable RNG: same seed, same delays (reproducible tests); the
        draw stays under the exponential cap (no synchronized storms)."""
        import random as random_mod

        from repro.telemetry import shard_exec
        from repro.telemetry.faults import FaultInjector, FaultPlan

        slept = []
        real_sleep = shard_exec.time.sleep
        monkeypatch.setattr(
            shard_exec.time, "sleep",
            lambda s: (slept.append(s), real_sleep(min(s, 0.01)))[1])

        def restart_delays(seed):
            slept.clear()
            injector = FaultInjector(FaultPlan(kill_posts={0: {2}}))
            with shard_exec.ShardWorkerPool(
                    [_NapRole()], checkpoint_every=4,
                    restart_backoff=0.5, restart_jitter=seed,
                    faults=injector) as pool:
                for _ in range(3):
                    pool.post(0, "echo")
                assert pool.call(0, "ping") == "ping"
            return list(slept)

        first = restart_delays(7)
        again = restart_delays(7)
        other = restart_delays(8)
        assert first, "no restart happened"
        assert first == again                      # seedable
        assert first != other                      # actually random
        expect = random_mod.Random(7).uniform(0.0, 0.5)
        assert first[0] == expect                  # full jitter, U(0, base)
        assert all(0.0 <= s <= 0.5 for s in first)
