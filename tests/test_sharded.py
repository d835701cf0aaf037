"""Sharded parallel session fabric tests.

The acceptance criterion of the sharding PR: ``shards=N`` sessions must
be **bit-identical** to ``shards=1``, to the single-process vector
engine, and to the row interpreter — tables, ``CacheStats`` counters, backing
writes, accuracy — across the Fig. 2 catalog, eviction policies,
window partitionings, and shard counts, including mid-stream
``results()`` snapshots.  Plus: the mergeable/non-mergeable contract
(non-mergeable folds route whole-stream to one shard), session error
contracts, the network-wide sharded deployment, the int64 overflow
guard on the vector fold path, and the shared-memory worker-pool
lifecycle (ack-bounded segments, crash propagation, unlink on every
failure path).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import HardwareError
from repro.network.records import ObservationTable
from repro.queries.catalog import FIG2_QUERIES
from repro.switch.kvstore.cache import CacheGeometry
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

    def test_exact_sessions_cannot_shard(self):
        qe = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM)
        with pytest.raises(ValueError, match="exact"):
            qe.open(exact=True, shards=2)

    def test_sharded_sessions_are_batch_only(self, trace):
        """The per-record path raises with guidance instead of silently
        serialising through one worker."""
        qe = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM)
        session = qe.open(window=257, shards=2)
        proxy = session._pipeline.store_for(qe.compiled.result)
        with pytest.raises(HardwareError, match="batch-only"):
            proxy.process(make_record())
        session.ingest(trace)
        session.close()


class TestNetworkSharded:
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

    def test_sharded_deployment_matches_unsharded(self, fabric):
        from repro.telemetry.deploy import NetworkDeployment

        sim, table = fabric
        source = "SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple"
        plain = NetworkDeployment(source, sim, geometry=GEOM)
        base_session = plain.open(window=333)
        deploy = NetworkDeployment(source, sim, geometry=GEOM)
        session = deploy.open(window=333, shards=2)
        assert session._pool is not None
        for batch in chunked(table, 441):
            base_session.ingest(batch)
            session.ingest(batch)
        assert self.network_observables(session.results()) == \
            self.network_observables(base_session.results())
        stats = session.cache_stats()
        base_stats = base_session.cache_stats()
        assert set(stats) == set(base_stats)
        assert self.network_observables(session.close()) == \
            self.network_observables(base_session.close())

    def test_shards_capped_at_switch_count(self, fabric):
        from repro.telemetry.deploy import NetworkDeployment

        sim, table = fabric
        deploy = NetworkDeployment("SELECT COUNT GROUPBY qid", sim,
                                   geometry=GEOM)
        one_shot = NetworkDeployment("SELECT COUNT GROUPBY qid", sim,
                                     geometry=GEOM).run(table.records)
        session = deploy.open(window=256, shards=64)
        n_switches = len(session.sessions)
        assert session._pool.n_workers == min(64, n_switches)
        session.ingest(table)
        report = session.close()
        assert self.network_observables(report) == \
            self.network_observables(one_shot)

    def test_sharded_close_retryable(self, fabric):
        """A transient close failure on one remote switch must not
        wedge the pool: workers cache their reports, so the retried
        close is served idempotently."""
        from repro.telemetry.deploy import NetworkDeployment

        sim, table = fabric
        deploy = NetworkDeployment("SELECT COUNT GROUPBY qid", sim,
                                   geometry=GEOM)
        session = deploy.open(window=256, shards=2)
        session.ingest(table)
        victim = list(session.sessions)[-1]
        real_submit = session.sessions[victim].submit_close
        calls = {"n": 0}

        def flaky_submit(*args, **kwargs):
            if calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("transient close failure")
            return real_submit(*args, **kwargs)

        session.sessions[victim].submit_close = flaky_submit
        with pytest.raises(RuntimeError, match="transient"):
            session.close()
        assert not session._closed
        report = session.close()               # retry resumes
        total = sum(r["COUNT"] for r in
                    report.combined[deploy.compiled.result].rows)
        assert total == len(table)


def big_sum_trace(n, value, flows=3):
    records = [make_record(srcip=10 + i % flows, pkt_len=value,
                           tin=1000 * i, tout=1000 * i + 100.0, pkt_id=i)
               for i in range(n)]
    return ObservationTable.from_arrays(ObservationTable(records).columns())


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
        # The warning fires inside the worker processes; the parent
        # still gets the exact (object-dtype) accumulators back.
        table = big_sum_trace(2000, 2 ** 55, flows=4)
        want = self.exact_rows(table)
        qe = QueryEngine(self.SOURCE, geometry=GEOM)
        session = qe.open(window=64, shards=2)
        session.ingest(table)
        assert session.close().result.rows == want


# -- worker-pool transport -----------------------------------------------------


class EchoRole:
    def handle(self, op, meta, arrays):
        if op == "boom":
            raise ValueError("kaboom")
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
