"""Durable-session tests: checkpoint format, mid-stream bit-identity,
shard-worker crash recovery, fault injection, and session poisoning.

The differential acceptance criterion: ``checkpoint()`` mid-stream and
``QueryEngine.resume()`` must be **bit-identical** to an uninterrupted
run — for every eviction policy × window partitioning × engine
(hypothesis-driven cut points), for shards ∈ {1, 2, 4}, and after an
injected shard-worker crash.  Plus: the versioned/checksummed wire
format rejects truncated, corrupted, and wrong-version snapshots with
:class:`CheckpointError`; an exception mid-``ingest`` poisons the
session (fail-fast :class:`SessionError` afterwards); worker pools
survive SIGKILLed workers via journal replay and shut down cleanly on
SIGTERM without leaking ``/dev/shm`` segments.
"""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (CheckpointError, SessionClosedError,
                               SessionError)
from repro.network.simulator import NetworkSimulator
from repro.network.topology import LinkSpec, leaf_spine, linear_chain
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.checkpoint import (MAGIC, VERSION, _HEADER,
                                        describe_checkpoint,
                                        pack_checkpoint, unpack_checkpoint)
from repro.telemetry.deploy import NetworkDeployment
from repro.telemetry.faults import FaultInjector, FaultPlan, InjectedFault
from repro.telemetry.runtime import QueryEngine
from repro.telemetry.shard_exec import ShardError, ShardWorkerPool

from tests.conftest import synthetic_trace
from tests.test_session import chunked, observables

GEOM = CacheGeometry.set_associative(64, ways=4)
QUERY = "SELECT COUNT, SUM(pkt_len) GROUPBY srcip"
CHUNK = 217


def make_engine(policy="lru"):
    return QueryEngine(QUERY, geometry=GEOM, policy=policy)


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(1200, seed=31)


def uninterrupted(engine, table, window, shards=None):
    session = engine.open(window=window, shards=shards)
    for batch in chunked(table, CHUNK):
        session.ingest(batch)
    return observables(session.close(include_invalid=True))


def ingest_upto(session, table, cut):
    """Feed trace rows [packets_ingested, cut) in CHUNK-sized batches —
    resumed sessions continue from where the snapshot stopped."""
    from repro.network.records import ObservationTable
    columns = table.columns()
    lo = session.packets_ingested
    while lo < cut:
        hi = min(lo + CHUNK, cut)
        session.ingest(ObservationTable.from_arrays(
            {name: col[lo:hi] for name, col in columns.items()}))
        lo = hi
    return session


def _head(batch, n):
    from repro.network.records import ObservationTable
    return ObservationTable.from_arrays(
        {name: col[:n] for name, col in batch.columns().items()})


def finish_from(session, table, include_invalid=True):
    """Feed the trace suffix the session has not seen yet, close."""
    skip = session.packets_ingested
    from repro.network.records import ObservationTable
    columns = table.columns()
    rest = ObservationTable.from_arrays(
        {name: col[skip:] for name, col in columns.items()})
    for batch in chunked(rest, CHUNK):
        session.ingest(batch)
    return observables(session.close(include_invalid=include_invalid))


# -- wire format -------------------------------------------------------------


class TestCheckpointFormat:
    def test_roundtrip(self):
        payload = {"kind": "session", "x": np.arange(4), "n": 7}
        out = unpack_checkpoint(pack_checkpoint(payload))
        assert out["kind"] == "session" and out["n"] == 7
        assert np.array_equal(out["x"], np.arange(4))

    def test_not_bytes(self):
        with pytest.raises(CheckpointError, match="must be bytes"):
            unpack_checkpoint({"kind": "session"})

    @pytest.mark.parametrize("n", [0, 5, _HEADER.size - 1])
    def test_shorter_than_header(self, n):
        with pytest.raises(CheckpointError, match="truncated"):
            unpack_checkpoint(b"\x00" * n)

    def test_bad_magic(self):
        data = bytearray(pack_checkpoint({"kind": "session"}))
        data[:8] = b"NOTACKPT"
        with pytest.raises(CheckpointError, match="bad magic"):
            unpack_checkpoint(bytes(data))

    def test_wrong_version(self):
        body = pack_checkpoint({"kind": "session"})[_HEADER.size:]
        data = _HEADER.pack(MAGIC, VERSION + 1, len(body),
                            zlib.crc32(body)) + body
        with pytest.raises(CheckpointError,
                           match=f"unsupported checkpoint version {VERSION + 1}"):
            unpack_checkpoint(data)

    def test_version_2_blob_names_both_versions(self, trace):
        """A version-2 checkpoint (pickled backing-store entries) is
        refused by the version-9 reader, which names both versions."""
        assert VERSION == 9
        session = ingest_upto(make_engine().open(window=128), trace, 300)
        body = session.checkpoint()[_HEADER.size:]
        session.close()
        data = _HEADER.pack(MAGIC, 2, len(body), zlib.crc32(body)) + body
        with pytest.raises(CheckpointError,
                           match=r"version 2 \(this build reads version 9\)"):
            make_engine().resume(data)

    def test_truncated_payload(self):
        data = pack_checkpoint({"kind": "session", "pad": list(range(64))})
        with pytest.raises(CheckpointError, match="header promises"):
            unpack_checkpoint(data[:-9])

    def test_corrupted_payload(self):
        data = bytearray(pack_checkpoint({"kind": "session",
                                          "pad": list(range(64))}))
        data[-3] ^= 0xFF
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            unpack_checkpoint(bytes(data))

    def test_payload_not_a_dict(self):
        body = pickle.dumps([1, 2, 3])
        data = _HEADER.pack(MAGIC, VERSION, len(body),
                            zlib.crc32(body)) + body
        with pytest.raises(CheckpointError, match="expected a state dict"):
            unpack_checkpoint(data)

    def test_describe(self, trace):
        engine = make_engine()
        session = ingest_upto(engine.open(window=128), trace, 500)
        info = describe_checkpoint(session.checkpoint())
        session.close()
        assert info["kind"] == "session"
        assert info["window"] == 128
        assert info["packets_ingested"] == 500
        assert info["policy"] == "lru"
        assert info["version"] == VERSION
        assert "exact" not in info


# -- differential property: mid-stream checkpoint ≡ uninterrupted ------------


_BASELINES: dict[tuple, tuple] = {}


def baseline(policy, window, table, oracle="vector"):
    """The uninterrupted windowed session, or with ``oracle="row"`` the
    row reference's one-shot ``run()`` it must equal."""
    key = (policy, window, oracle)
    if key not in _BASELINES:
        if oracle == "row":
            _BASELINES[key] = observables(
                QueryEngine(QUERY, geometry=GEOM, policy=policy,
                            engine="row").run(table, include_invalid=True))
        else:
            _BASELINES[key] = uninterrupted(
                make_engine(policy), table, window)
    return _BASELINES[key]


class TestMidStreamBitIdentity:
    """checkpoint()/resume() at a hypothesis-chosen cut point matches
    the uninterrupted run for every policy × window, and the row
    reference's one-shot run()."""

    @pytest.mark.parametrize("window", [97, 256, 701])
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @pytest.mark.parametrize("oracle", ["vector", "row"])
    @settings(deadline=None, max_examples=4)
    @given(cut=st.integers(min_value=1, max_value=1199))
    def test_cut_matches_uninterrupted(self, oracle, policy, window,
                                       cut, trace):
        base = baseline(policy, window, trace, oracle)
        engine = make_engine(policy)
        original = ingest_upto(engine.open(window=window), trace, cut)
        snapshot = original.checkpoint()
        # checkpoint() is non-destructive: the original session keeps
        # streaming and still matches.
        assert finish_from(original, trace) == base
        resumed = engine.resume(snapshot)
        assert resumed.packets_ingested == cut
        assert finish_from(resumed, trace) == base

    def test_double_resume(self, trace):
        engine = make_engine()
        base = baseline("lru", 256, trace)
        session = ingest_upto(engine.open(window=256), trace, 500)
        snapshot = session.checkpoint()
        session.close()
        for _ in range(2):
            assert finish_from(engine.resume(snapshot), trace) == base

    def test_checkpoint_chain(self, trace):
        """resume → stream → checkpoint again → resume again."""
        engine = make_engine()
        base = baseline("lru", 97, trace)
        first = ingest_upto(engine.open(window=97), trace, 300)
        snap1 = first.checkpoint()
        first.close()
        second = ingest_upto(engine.resume(snap1), trace, 800)
        snap2 = second.checkpoint()
        second.close()
        assert finish_from(engine.resume(snap2), trace) == base

    def test_unwindowed_cut_matches_uninterrupted(self, trace):
        """Without a window the checkpoint carries the buffered input
        as-is; the resumed session runs it to the same report."""
        engine = make_engine()
        base = uninterrupted(engine, trace, None)
        snapshot = ingest_upto(engine.open(), trace, 500).checkpoint()
        assert finish_from(engine.resume(snapshot), trace) == base

    def test_retired_oneshot_store_kind_rejected(self, trace):
        """Checkpoints of the retired deferred vector store carry the
        store kind ``"oneshot"``; resuming one raises CheckpointError
        rather than misreading it."""
        engine = make_engine()
        session = ingest_upto(engine.open(), trace, 300)
        payload = unpack_checkpoint(session.checkpoint())
        session.close()
        stores = payload["pipeline"]["stores"]
        stores[0] = {"kind": "oneshot",
                     "pending_keys": stores[0]["pending_keys"],
                     "pending_cols": stores[0]["pending_cols"]}
        with pytest.raises(CheckpointError, match="oneshot"):
            engine.resume(pack_checkpoint(payload))

    def test_retired_exact_session_payload_rejected(self, trace):
        """Version 3 could checkpoint an exact-mode session as its
        buffered input (``exact`` / ``buffered``, no ``pipeline``);
        exact evaluation is a never-evicting session now, and resuming
        such a payload (framed as a version-4 blob) raises CheckpointError rather than
        misreading it."""

        engine = make_engine()
        session = ingest_upto(engine.open(), trace, 300)
        payload = unpack_checkpoint(session.checkpoint())
        session.close()
        columns = trace.columns()
        del payload["pipeline"]
        payload.update(exact=True, buffered=[
            ("cols", {f: col[:300] for f, col in columns.items()})])
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        data = _HEADER.pack(MAGIC, 4, len(body), zlib.crc32(body)) + body
        with pytest.raises(CheckpointError,
                           match=r"version 4 \(this build reads version 9\)"):
            engine.resume(data)

    def test_retired_row_store_payload_rejected(self, trace):
        """Version 5 could checkpoint a row-engine session: per-stage
        ``modes`` and the row store's Python-object buckets (kind
        ``"row"``).  Sessions run the vector store only now; such a
        blob is refused by its version, and the same payload framed as
        the current version by its store kind."""
        engine = make_engine()
        session = ingest_upto(engine.open(), trace, 300)
        payload = unpack_checkpoint(session.checkpoint())
        session.close()
        payload["pipeline"]["modes"] = ["row"]
        payload["pipeline"]["stores"] = [{
            "kind": "row", "buckets": [(0, [((1,), {}, {}, True)])]}]
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        data = _HEADER.pack(MAGIC, 5, len(body), zlib.crc32(body)) + body
        with pytest.raises(CheckpointError,
                           match=r"version 5 \(this build reads version 9\)"):
            engine.resume(data)
        with pytest.raises(CheckpointError, match="'row'"):
            engine.resume(pack_checkpoint(payload))

    def test_retired_lru_key_rows_payload_rejected(self, trace):
        """Version 6 carried the LRU schedule's resident key rows
        (``res_keys``) and a float merge product; version 7 carries the
        residents' ids and hashes, so a version-6 blob is refused by
        its version."""
        engine = make_engine()
        session = ingest_upto(engine.open(window=128), trace, 300)
        payload = unpack_checkpoint(session.checkpoint())
        session.close()
        sched = payload["pipeline"]["stores"][0]["sched"]
        assert set(sched) == {"kind", "res_gids", "res_hashes"}
        sched["res_keys"] = np.zeros((len(sched.pop("res_hashes")), 1),
                                     dtype=np.int64)
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        data = _HEADER.pack(MAGIC, 6, len(body), zlib.crc32(body)) + body
        with pytest.raises(CheckpointError,
                           match=r"version 6 \(this build reads version 9\)"):
            engine.resume(data)

    @pytest.mark.parametrize("retired", [
        {"kind": "replay", "buckets": {}, "evict_counts": {}},
        {"kind": "packed", "head": [], "in_cache": [], "width": 8},
    ], ids=lambda state: state["kind"])
    def test_retired_scheduler_kind_rejected(self, trace, retired):
        """FIFO/random stores used to checkpoint a per-access scheduler
        as ``"replay"`` (few-set geometries) and then the round-major
        replay as ``"packed"``; every FIFO/random geometry now carries
        the ring schedule, which refuses both kinds."""
        engine = QueryEngine(QUERY, policy="fifo",
                             geometry=CacheGeometry.fully_associative(8))
        session = ingest_upto(engine.open(window=128), trace, 300)
        payload = unpack_checkpoint(session.checkpoint())
        session.close()
        assert payload["pipeline"]["stores"][0]["sched"]["kind"] == "ring"
        payload["pipeline"]["stores"][0]["sched"] = retired
        with pytest.raises(CheckpointError, match=retired["kind"]):
            engine.resume(pack_checkpoint(payload))

    def test_closed_session_cannot_checkpoint(self, trace):
        engine = make_engine()
        session = ingest_upto(engine.open(window=128), trace, 300)
        session.close()
        with pytest.raises(SessionClosedError):
            session.checkpoint()

    def test_config_mismatch_rejected(self, trace):
        session = ingest_upto(make_engine("lru").open(window=128), trace, 300)
        snapshot = session.checkpoint()
        session.close()
        with pytest.raises(CheckpointError,
                           match="differently configured engine"):
            make_engine("fifo").resume(snapshot)


# -- sharded sessions: checkpoint, crash recovery, fault injection -----------


class TestShardedDurability:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_cut_matches_uninterrupted(self, shards, trace):
        base = baseline("lru", 256, trace)
        engine = make_engine()
        assert uninterrupted(engine, trace, 256, shards=shards) == base
        for cut in (333, 901):
            session = ingest_upto(
                engine.open(window=256, shards=shards), trace, cut)
            snapshot = session.checkpoint()
            session.close()
            assert finish_from(engine.resume(snapshot), trace) == base

    def test_version_8_sharded_blob_names_both_versions(self, trace):
        """Version 8 carried each shard role's first-access positions
        as ``{key tuple: position}`` dicts (``"firsts"``); version 9
        carries int64 arrays indexed by key id.  The version-9 reader
        refuses a version-8 sharded blob by its header, naming both
        versions, before any worker sees the payload."""
        engine = make_engine()
        session = ingest_upto(engine.open(window=1024, shards=2), trace, 300)
        payload = unpack_checkpoint(session.checkpoint())
        session.close()
        for worker in payload["pipeline"]["workers"]:
            first_pos = worker.pop("first_pos")
            worker["firsts"] = {
                idx: dict(zip(map(tuple, worker["stores"][idx]["keys"]
                                  .tolist()), pos.tolist()))
                for idx, pos in first_pos.items()}
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        data = _HEADER.pack(MAGIC, 8, len(body), zlib.crc32(body)) + body
        with pytest.raises(CheckpointError,
                           match=r"version 8 \(this build reads version 9\)"):
            engine.resume(data)
        assert multiprocessing.active_children() == []

    def test_crash_recovery_is_bit_identical(self, trace):
        """A SIGKILLed shard worker is respawned, restored from its
        periodic checkpoint, and replayed — same results as a run with
        no faults, and a session checkpoint taken *after* the crash
        still resumes bit-identically."""
        base = baseline("lru", 256, trace)
        engine = make_engine()
        injector = FaultInjector(FaultPlan(kill_posts={0: {3}},
                                           drop_acks={5}, dup_acks={8}))
        session = engine.open(window=256, shards=2, checkpoint_every=4,
                              faults=injector)
        session = ingest_upto(session, trace, 700)
        kinds = {e[0] for e in injector.events}
        assert "kill" in kinds, "scheduled worker kill never fired"
        snapshot = session.checkpoint()
        assert finish_from(session, trace) == base
        resumed = engine.resume(snapshot, checkpoint_every=4)
        assert finish_from(resumed, trace) == base

    def test_worker_death_during_pool_internal_calls(self, trace,
                                                     monkeypatch):
        """A worker that dies before a pool-internal round trip — the
        session checkpoint's ``__checkpoint__``, the resume's
        ``__restore__`` — is respawned, restored and replayed inside
        that call: both sessions still finish equal to run(), and no
        shared-memory segment is left behind."""
        before = set(os.listdir("/dev/shm"))
        engine = make_engine()
        base = observables(engine.run(trace, include_invalid=True))
        session = ingest_upto(
            engine.open(shards=2, checkpoint_every=3), trace, 600)
        pool = session._pipeline._shard_pool
        victim = pool._workers[0]
        os.kill(victim.proc.pid, signal.SIGKILL)
        victim.proc.join(timeout=5.0)
        snapshot = session.checkpoint()
        assert victim.restarts == 1
        assert finish_from(session, trace) == base

        send_direct = ShardWorkerPool._send_direct
        killed = []

        def kill_before_first_restore(self, w, op, meta, reply):
            if op == "__restore__" and w.index == 0 and not killed:
                killed.append(w)
                w.proc.kill()
                w.proc.join(timeout=5.0)
            return send_direct(self, w, op, meta, reply)

        monkeypatch.setattr(ShardWorkerPool, "_send_direct",
                            kill_before_first_restore)
        resumed = engine.resume(snapshot, checkpoint_every=3)
        assert killed and killed[0].restarts == 1
        assert finish_from(resumed, trace) == base
        leaked = {n for n in set(os.listdir("/dev/shm")) - before
                  if n.startswith("psm_")}
        assert not leaked, sorted(leaked)

    def test_worker_death_without_recovery_fails_fast(self, trace):
        engine = make_engine()
        injector = FaultInjector(FaultPlan(kill_posts={0: {1}}))
        session = engine.open(window=128, shards=2, faults=injector)
        with pytest.raises(ShardError, match="died"):
            for batch in chunked(trace, CHUNK):
                session.ingest(batch)
        assert session.broken
        with pytest.raises(SessionError, match="broken"):
            session.close()

    def test_restart_budget_exhaustion_is_terminal(self, trace):
        """Killing the same worker on every post exhausts the restart
        budget; the pool gives up with a clear terminal error instead
        of spinning."""
        engine = make_engine()
        injector = FaultInjector(
            FaultPlan(kill_posts={0: set(range(1, 40))}))
        session = engine.open(window=64, shards=2, checkpoint_every=4,
                              faults=injector)
        with pytest.raises(ShardError, match="giving up"):
            for batch in chunked(trace, CHUNK):
                session.ingest(batch)
        assert session.broken
        with pytest.raises(SessionError, match="broken"):
            session.results()


# -- direct pool-level recovery ----------------------------------------------


class _CounterRole:
    """Minimal picklable role: counts batches and sums their payloads
    (order-insensitive state, so exactly-once replay is observable)."""

    def __init__(self):
        self.n = 0
        self.total = 0.0

    def handle(self, op, meta, arrays):
        if op == "add":
            self.n += 1
            self.total += float(arrays["x"].sum())
            return None
        if op == "get":
            return (self.n, self.total)
        raise ValueError(op)

    def checkpoint(self):
        return {"n": self.n, "total": self.total}

    def restore(self, state):
        self.n = state["n"]
        self.total = state["total"]


class TestWorkerPool:
    def test_journal_replay_is_exactly_once(self):
        injector = FaultInjector(FaultPlan(kill_posts={0: {4}}))
        with ShardWorkerPool([_CounterRole()], checkpoint_every=3,
                             restart_backoff=0.001,
                             faults=injector) as pool:
            expect = 0.0
            for i in range(9):
                arr = np.arange(i + 1, dtype=np.float64)
                expect += float(arr.sum())
                pool.post(0, "add", None, {"x": arr})
            assert pool.call(0, "get") == (9, expect)
        assert [e[0] for e in injector.events] == ["kill"]

    def test_restart_budget_terminal(self):
        injector = FaultInjector(FaultPlan(kill_posts={0: {1, 2, 3}}))
        pool = ShardWorkerPool([_CounterRole()], checkpoint_every=2,
                               max_restarts=2, restart_backoff=0.001,
                               faults=injector)
        try:
            with pytest.raises(ShardError, match="giving up"):
                for i in range(4):
                    pool.post(0, "add", None,
                              {"x": np.ones(2, dtype=np.float64)})
                pool.call(0, "get")
        finally:
            pool.close()

    def test_restore_shard_count_mismatch(self):
        with ShardWorkerPool([_CounterRole(), _CounterRole()],
                             checkpoint_every=8) as pool:
            states = pool.checkpoint_workers()
        with ShardWorkerPool([_CounterRole()], checkpoint_every=8) as pool:
            with pytest.raises(CheckpointError, match="same shard count"):
                pool.restore_workers(states)


# -- session poisoning -------------------------------------------------------


class TestSessionPoisoning:
    def test_ingest_fault_poisons_session(self, trace):
        engine = make_engine()
        injector = FaultInjector(FaultPlan(abort_ingests={2}))
        session = engine.open(window=128, faults=injector)
        batches = list(chunked(trace, CHUNK))
        session.ingest(batches[0])
        with pytest.raises(InjectedFault):
            session.ingest(batches[1])
        assert session.broken
        with pytest.raises(SessionError, match="broken"):
            session.ingest(batches[2])
        with pytest.raises(SessionError, match="broken"):
            session.results()
        with pytest.raises(SessionError, match="broken"):
            session.checkpoint()
        with pytest.raises(SessionError, match="discarded"):
            session.close()
        # After the (raising) close the session is closed for good.
        with pytest.raises(SessionClosedError):
            session.results()

    def test_broken_error_names_recovery_paths(self, trace):
        engine = make_engine()
        injector = FaultInjector(FaultPlan(abort_ingests={1}))
        session = engine.open(window=128, faults=injector)
        with pytest.raises(InjectedFault):
            session.ingest(next(chunked(trace, CHUNK)))
        with pytest.raises(SessionError, match="resume"):
            session.results()

    def test_broken_error_chains_original_cause(self, trace):
        """Regression: the SessionError raised by a poisoned session
        carries the original ingest exception as __cause__ — not just
        its stringified name — on every surface (results, checkpoint,
        ingest, close)."""
        engine = make_engine()
        injector = FaultInjector(FaultPlan(abort_ingests={2}))
        session = engine.open(window=128, faults=injector)
        batches = list(chunked(trace, CHUNK))
        session.ingest(batches[0])
        with pytest.raises(InjectedFault) as first:
            session.ingest(batches[1])
        original = first.value
        for poke in (session.results, session.checkpoint,
                     lambda: session.ingest(batches[2])):
            with pytest.raises(SessionError) as err:
                poke()
            assert err.value.__cause__ is original
        with pytest.raises(SessionError) as closing:
            session.close()
        assert closing.value.__cause__ is original


# -- zero-ingest edge cases ---------------------------------------------------


class TestZeroIngest:
    def test_checkpoint_resume_of_never_ingested_session(self, trace):
        """A checkpoint taken before any ingest restores to a fresh
        session: feeding it the whole trace matches an uninterrupted
        run exactly."""
        engine = make_engine()
        session = engine.open(window=128)
        snapshot = session.checkpoint()
        session.close()
        resumed = engine.resume(snapshot)
        assert resumed.packets_ingested == 0
        for batch in chunked(trace, CHUNK):
            resumed.ingest(batch)
        assert observables(resumed.close(include_invalid=True)) == \
            uninterrupted(make_engine(), trace, window=128)

    def test_zero_ingest_results_and_close(self):
        engine = make_engine()
        session = engine.open(window=128)
        snap = session.results(include_invalid=True)
        assert len(snap.result) == 0
        report = session.close(include_invalid=True)
        assert len(report.result) == 0
        assert all(s.accesses == 0 for s in report.cache_stats.values())

    def test_zero_ingest_sharded_checkpoint_resume(self, trace):
        """Same, across the shard fabric: the checkpoint captures the
        pristine worker roles."""
        engine = make_engine()
        session = engine.open(window=128, shards=2)
        snapshot = session.checkpoint()
        session.close()
        resumed = engine.resume(snapshot)
        for batch in chunked(trace, CHUNK):
            resumed.ingest(batch)
        assert observables(resumed.close(include_invalid=True)) == \
            uninterrupted(make_engine(), trace, window=128)


# -- network deployments -----------------------------------------------------


def net_observables(report):
    return (
        {q: t.rows for q, t in report.combined.items()},
        {sw: {q: t.rows for q, t in tabs.items()}
         for sw, tabs in report.per_switch.items()},
        report.combinable,
    )


@pytest.fixture(scope="module")
def fabric():
    topo = leaf_spine(2, 2, 2, edge_link=LinkSpec(rate_gbps=5.0))
    sim = NetworkSimulator(topo)
    hosts = sorted(topo.hosts())
    t = 0
    for i in range(300):
        t += 2000
        src = hosts[i % len(hosts)]
        dst = hosts[(i + 1 + i // 7) % len(hosts)]
        if src == dst:
            continue
        sim.inject(time_ns=t, src=src, dst=dst, pkt_len=400 + (i % 900),
                   srcport=2000 + i % 5, dstport=80)
    table = sim.run()
    return sim, table


NET_GEOM = CacheGeometry.set_associative(256, ways=8)
NET_QUERY = "SELECT COUNT, SUM(pkt_len) GROUPBY srcip"


class TestNetworkCheckpoint:
    def test_resume_matches_uninterrupted(self, fabric):
        """Every switch session lives in the caller's process: no child
        process is alive after open, checkpoint, resume or close."""
        sim, table = fabric
        deploy = NetworkDeployment(NET_QUERY, sim, geometry=NET_GEOM)
        full = deploy.open(window=32)
        full.ingest(table)
        base = net_observables(full.close())

        partial = deploy.open(window=32)
        assert multiprocessing.active_children() == []
        half = len(table) // 2
        partial.ingest(_head(table, half))
        snapshot = partial.checkpoint()
        assert multiprocessing.active_children() == []
        partial.close()

        resumed = deploy.resume(snapshot)
        assert multiprocessing.active_children() == []
        from repro.network.records import ObservationTable
        rest = ObservationTable.from_arrays(
            {name: col[half:] for name, col in table.columns().items()})
        resumed.ingest(rest)
        assert net_observables(resumed.close()) == base
        assert multiprocessing.active_children() == []

    def test_version_7_sharded_blob_names_both_versions(self, fabric):
        """Version 7 could carry a sharded deployment's worker states
        instead of per-switch sessions; the version-9 reader refuses
        such a blob by its version, naming both."""
        sim, table = fabric
        deploy = NetworkDeployment(NET_QUERY, sim, geometry=NET_GEOM)
        session = deploy.open(window=32)
        session.ingest(_head(table, 100))
        payload = unpack_checkpoint(session.checkpoint())
        session.close()
        assert set(payload) == {"kind", "config", "window", "switches",
                                "sessions"}
        del payload["sessions"]
        payload.update(shards=2, sharded=True, workers=[{}, {}])
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        data = _HEADER.pack(MAGIC, 7, len(body), zlib.crc32(body)) + body
        with pytest.raises(CheckpointError,
                           match=r"version 7 \(this build reads version 9\)"):
            deploy.resume(data)

    def test_session_kind_rejected_by_engine_resume(self, fabric, trace):
        sim, _ = fabric
        deploy = NetworkDeployment(NET_QUERY, sim, geometry=NET_GEOM)
        session = deploy.open(window=32)
        session.ingest(_head(fabric[1], 100))
        snapshot = session.checkpoint()
        session.close()
        with pytest.raises(CheckpointError, match="NetworkDeployment"):
            QueryEngine(NET_QUERY, geometry=NET_GEOM).resume(snapshot)
        # And the reverse: a plain session checkpoint is not a network one.
        plain = ingest_upto(make_engine().open(window=128), trace, 200)
        plain_snap = plain.checkpoint()
        plain.close()
        with pytest.raises(CheckpointError):
            deploy.resume(plain_snap)

    def test_topology_mismatch_rejected(self, fabric):
        sim, table = fabric
        deploy = NetworkDeployment(NET_QUERY, sim, geometry=NET_GEOM)
        session = deploy.open(window=32)
        session.ingest(_head(table, 100))
        snapshot = session.checkpoint()
        session.close()
        other = NetworkDeployment(
            NET_QUERY, NetworkSimulator(linear_chain(3)), geometry=NET_GEOM)
        with pytest.raises(CheckpointError, match="topology"):
            other.resume(snapshot)


# -- graceful shutdown: no /dev/shm leaks after SIGTERM ----------------------


_SHM_CHILD = """
import sys, time
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.runtime import QueryEngine
from repro.traffic.datacenter import DatacenterConfig, DatacenterWorkload

table = DatacenterWorkload(DatacenterConfig(
    n_flows=30, duration_ns=5_000_000, seed=5)).observation_table()
engine = QueryEngine("SELECT COUNT GROUPBY srcip",
                     geometry=CacheGeometry.set_associative(128, ways=4))
session = engine.open(window=64, shards=2)
session.ingest(table)
print("READY", flush=True)
time.sleep(30)
"""


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="no /dev/shm on this platform")
def test_sigterm_releases_shared_memory():
    """SIGTERM mid-session drains the pool and unlinks every shared-
    memory segment instead of stranding them in /dev/shm."""
    before = set(os.listdir("/dev/shm"))
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(root / "src"), env.get("PYTHONPATH")] if p)
    proc = subprocess.Popen([sys.executable, "-c", _SHM_CHILD],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        assert proc.stdout.readline().strip() == "READY"
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked = {n for n in set(os.listdir("/dev/shm")) - before
                  if n.startswith("psm_")}
        if not leaked:
            break
        time.sleep(0.1)
    else:
        pytest.fail(f"stray shared-memory segments: {sorted(leaked)}")
