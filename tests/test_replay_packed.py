"""Differential property tests for the packed FIFO/random replay.

The packed per-set array replay (`vector_cache._replay_segments`), its
scalar loop (`vector_cache._finish_tails`) and the carried
`CacheSchedule` built on them must be **bit-identical** — per access,
not just in aggregate — to the per-access reference
(:class:`KeyValueCache`), across:

* both ablation policies (FIFO, random) and its counter-based RNG;
* randomized geometries (bucket counts, associativities, seeds);
* at least three window partitionings per stream, so carried ring
  state, occupancy, and RNG counters are exercised at every cut;
* adversarial streams (single key, all-unique, cyclic working sets at
  the capacity boundary, hot/cold interleaves, sparse 32-bit keys).

Seed plumbing is audited here too: the one-shot row loop, the one-shot
vector engine, the sweep runner's `stats_fn` closure, and the carried
schedule must all derive the random policy's replay state from the
same seed — equal counters for equal seeds, different draws for
different seeds.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.switch.kvstore.vector_cache as vector_cache
from repro.switch.kvstore.cache import (
    CacheGeometry,
    KeyValueCache,
    replay_victim,
    simulate_eviction_count,
)
from repro.switch.kvstore.vector_cache import (
    CacheSchedule,
    VectorCacheSim,
    mix_key_array,
    replay_victim_array,
)

POLICIES = ("fifo", "random")


def counters(stats):
    return (stats.accesses, stats.hits, stats.misses,
            stats.insertions, stats.evictions)


def reference_schedule(keys, geometry, policy, seed):
    """Per-access miss flags and stats from the per-access reference
    cache — the ground truth every replay engine must reproduce."""
    cache = KeyValueCache(geometry, policy=policy, seed=seed)
    miss = np.zeros(len(keys), dtype=bool)
    for i, key in enumerate(keys):
        before = cache.stats.misses
        cache.access(key, lambda: None)
        miss[i] = cache.stats.misses != before
    return miss, cache.stats


@pytest.fixture
def force_packed(monkeypatch):
    """Force the vectorized round loop of the packed replay, which
    would otherwise hand tiny geometries straight to the scalar tail
    finisher, even on tiny streams."""
    monkeypatch.setattr(vector_cache, "_PACKED_MIN_ACTIVE", 0)


class TestVictimRng:
    @given(seed=st.integers(min_value=0, max_value=2**63),
           buckets=st.lists(st.integers(min_value=0, max_value=2**40),
                            min_size=1, max_size=50),
           count=st.integers(min_value=0, max_value=2**32),
           size=st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_array_matches_scalar(self, seed, buckets, count, size):
        arr = np.asarray(buckets, dtype=np.int64)
        cnt = np.full(len(arr), count, dtype=np.uint64)
        got = replay_victim_array(seed, arr, cnt, size)
        for b, v in zip(buckets, got.tolist()):
            assert replay_victim(seed, b, count, size) == v

    def test_draws_depend_on_seed_bucket_and_counter(self):
        draws = {(s, b, c): replay_victim(s, b, c, 1 << 20)
                 for s in (0, 1) for b in (0, 1) for c in (0, 1)}
        assert len(set(draws.values())) == len(draws)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    keys=st.lists(st.integers(min_value=-3, max_value=40), max_size=300),
    n_buckets=st.integers(min_value=1, max_value=9),
    m_slots=st.integers(min_value=2, max_value=11),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(min_value=0, max_value=4),
)
def test_packed_replay_matches_reference(force_packed, keys, n_buckets,
                                         m_slots, policy, seed):
    """Core property: forced-packed one-shot replay == per-access
    reference cache, counters and per-access miss flags both."""
    geometry = CacheGeometry(n_buckets, m_slots)
    ref_miss, ref_stats = reference_schedule(keys, geometry, policy, seed)
    sim = VectorCacheSim(np.asarray(keys, dtype=np.int64), seed=seed)
    stats, sched = sim.stats_and_schedule(geometry, policy=policy)
    assert counters(stats) == counters(ref_stats)
    assert np.array_equal(sched, ref_miss)


@pytest.mark.parametrize("policy, direct", [
    ("lru", False), ("fifo", False), ("random", False), ("fifo", True)])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    keys=st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                  max_size=250),
    n_buckets=st.integers(min_value=1, max_value=7),
    m_slots=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=3),
    cuts=st.lists(st.integers(min_value=1, max_value=249), max_size=6),
)
def test_windowed_schedulers_match_for_every_partitioning(
        force_packed, monkeypatch, policy, direct, keys, n_buckets, m_slots,
        seed, cuts):
    """A :class:`CacheSchedule`'s carried state — both carries: the
    stack-distance phantom prefix (LRU, and a direct-mapped geometry)
    and the ring replay, driven through the vectorized rounds and
    through the scalar loop alone — fed arbitrary window partitionings
    of the same stream, must reproduce the reference cache's schedule,
    eviction count and residency exactly — plus three fixed
    partitionings (per-access, small, whole stream)."""
    geometry = CacheGeometry(n_buckets, 1 if direct else m_slots)
    arr = np.asarray(keys, dtype=np.int64)
    keys2d = arr.reshape(-1, 1)
    # Window key ids: dense first-occurrence ids, like the store's
    # factorization.  The scheduler is handed the rows' hash, so the
    # reference uses 1-tuples (mix_key of a 1-tuple == 1-column array).
    _, first_idx = np.unique(arr, return_index=True)
    order = np.argsort(first_idx)
    gid_of = {int(arr[first_idx[o]]): g for g, o in enumerate(order)}
    gid = np.asarray([gid_of[int(k)] for k in keys], dtype=np.int64)
    ref_miss, ref_stats = reference_schedule(
        [(int(k),) for k in keys], geometry, policy, seed)

    n = len(keys)
    partitionings = [
        [1] * n,                                   # one window per access
        [7] * (n // 7) + ([n % 7] if n % 7 else []),
        [n],                                       # single window
    ]
    if cuts:
        bounds = sorted({c for c in cuts if c < n})
        sizes = np.diff([0, *bounds, n]).tolist()
        partitionings.append([s for s in sizes if s])
    cache = KeyValueCache(geometry, policy=policy, seed=seed)
    for k in keys:
        cache.access((int(k),), lambda: None)
    want = {gid_of[int(e.key[0])] for e in cache.entries()}
    hashes = mix_key_array(keys2d, seed)
    for sizes in partitionings:
        for min_active in (0, 1 << 30):            # rounds / scalar loop
            monkeypatch.setattr(vector_cache, "_PACKED_MIN_ACTIVE",
                                min_active)
            sched = CacheSchedule(geometry, policy, seed)
            miss_parts, evictions = [], 0
            lo = 0
            for size in sizes:
                hi = lo + size
                miss, ev = sched.schedule(keys2d[lo:hi], gid[lo:hi],
                                          hashes[lo:hi])
                miss_parts.append(miss)
                evictions += ev
                lo = hi
            got = np.concatenate(miss_parts)
            assert np.array_equal(got, ref_miss), (min_active, sizes)
            assert evictions == ref_stats.evictions, (min_active, sizes)
            # Final residency must match the reference cache's content;
            # the state rows never outnumber the sets.
            resident = sched.resident(np.arange(len(gid_of)))
            assert set(np.flatnonzero(resident).tolist()) == want
            assert len(sched._ring) <= n_buckets


class TestAdversarialStreams:
    GEOMETRIES = (
        CacheGeometry.set_associative(64, ways=4),
        CacheGeometry.set_associative(32, ways=8),
        CacheGeometry(5, 3),                       # odd bucket count
        CacheGeometry.fully_associative(512),      # one long row
        CacheGeometry(3, 64),
    )

    def assert_match(self, keys):
        for geometry in self.GEOMETRIES:
            for policy in POLICIES:
                ref_miss, ref_stats = reference_schedule(
                    keys.tolist(), geometry, policy, 1)
                sim = VectorCacheSim(keys, seed=1)
                stats, sched = sim.stats_and_schedule(geometry,
                                                      policy=policy)
                assert counters(stats) == counters(ref_stats), \
                    (geometry, policy)
                assert np.array_equal(sched, ref_miss), (geometry, policy)

    def test_single_key(self, force_packed):
        self.assert_match(np.zeros(3000, dtype=np.int64))

    def test_all_unique(self, force_packed):
        self.assert_match(np.arange(3000, dtype=np.int64))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_cyclic_at_capacity_boundary(self, force_packed, extra):
        keys = np.tile(np.arange(64 + extra, dtype=np.int64), 40)
        self.assert_match(keys)

    def test_hot_cold_interleave(self, force_packed):
        rng = np.random.default_rng(7)
        keys = np.empty(6000, dtype=np.int64)
        keys[0::2] = rng.integers(0, 6, 3000)
        keys[1::2] = rng.integers(6, 3000, 3000)
        self.assert_match(keys)

    def test_sparse_32bit_keys(self, force_packed):
        """Raw keys whose range is far too wide for a residency flag
        per value: the simulator densifies them before the replay."""
        rng = np.random.default_rng(5)
        self.assert_match(0x0A000000 + 97 * rng.integers(0, 1 << 12, 3000))

    def test_round_to_tail_handover(self, monkeypatch):
        """A skewed stream drops below the active-set cutoff while the
        hot sets still have long tails: the vectorized rounds must hand
        their mid-segment ring state to the scalar finisher exactly."""
        monkeypatch.setattr(vector_cache, "_PACKED_MIN_ACTIVE", 16)
        rng = np.random.default_rng(13)
        keys = np.where(rng.random(20_000) < 0.8,
                        rng.integers(0, 3, 20_000),          # 2-3 hot sets
                        rng.integers(3, 2_000, 20_000)).astype(np.int64)
        geometry = CacheGeometry.set_associative(512, ways=8)  # 64 sets
        for policy in POLICIES:
            ref_miss, ref_stats = reference_schedule(
                keys.tolist(), geometry, policy, 2)
            stats, sched = VectorCacheSim(keys, seed=2).stats_and_schedule(
                geometry, policy=policy)
            assert counters(stats) == counters(ref_stats), policy
            assert np.array_equal(sched, ref_miss), policy

    def test_packed_equals_scalar_paths(self, monkeypatch):
        """The round-to-scalar handover is an implementation detail: the
        vectorized rounds and the scalar loop must produce the same
        schedule on the same stream (a working set ~4x the capacity,
        so every set evicts — including the long rows of few-set
        geometries)."""
        rng = np.random.default_rng(9)
        for geometry in (CacheGeometry.set_associative(128, ways=4),
                         CacheGeometry.fully_associative(512),
                         CacheGeometry(3, 64)):
            keys = rng.integers(0, 4 * geometry.capacity, 4000)
            for policy in POLICIES:
                monkeypatch.setattr(vector_cache, "_PACKED_MIN_ACTIVE", 0)
                packed = VectorCacheSim(keys, seed=3).stats_and_schedule(
                    geometry, policy=policy)
                monkeypatch.setattr(vector_cache, "_PACKED_MIN_ACTIVE",
                                    10**9)
                scalar = VectorCacheSim(keys, seed=3).stats_and_schedule(
                    geometry, policy=policy)
                assert counters(packed[0]) == counters(scalar[0]), geometry
                assert np.array_equal(packed[1], scalar[1]), geometry


class TestSeedPlumbing:
    """The random policy's replay state must be a function of the seed
    alone — identical draws from every entry point."""

    def stream(self):
        rng = np.random.default_rng(11)
        return rng.integers(0, 400, 20_000).astype(np.int64)

    def test_every_entry_point_agrees_per_seed(self):
        from repro.analysis.sweep_exec import stats_fn

        keys = self.stream()
        geometry = CacheGeometry.set_associative(256, ways=4)
        per_seed = []
        for seed in (0, 7, 2016_04):
            row = simulate_eviction_count(keys.tolist(), geometry,
                                          policy="random", seed=seed,
                                          engine="row")
            vec = VectorCacheSim(keys, seed=seed).stats(geometry,
                                                        policy="random")
            swept = stats_fn(keys, seed, "auto")(geometry, "random")
            assert counters(vec) == counters(row) == counters(swept), seed
            per_seed.append(counters(row))
        # Different seeds change placement and draws: the counters
        # should not all collapse to one value on a contended cache.
        assert len(set(per_seed)) > 1

    def test_windowed_replay_state_derives_from_seed(self):
        """Windowed scheduling with the same seed reproduces the
        one-shot schedule; a different seed diverges (the carried RNG
        counters really are seeded, not global state)."""
        keys = self.stream()[:5000]
        keys2d = keys.reshape(-1, 1)
        geometry = CacheGeometry.set_associative(64, ways=4)
        sim = VectorCacheSim(keys2d, seed=5)
        _, base = sim.stats_and_schedule(geometry, policy="random")
        _, first_idx = np.unique(keys, return_index=True)
        order = np.argsort(first_idx)
        gid_of = {int(keys[first_idx[o]]): g for g, o in enumerate(order)}
        gid = np.asarray([gid_of[int(k)] for k in keys], dtype=np.int64)

        def windowed(seed):
            sched = CacheSchedule(geometry, "random", seed)
            hashes = mix_key_array(keys2d, seed)
            parts = []
            for lo in range(0, len(keys), 611):
                miss, _ = sched.schedule(keys2d[lo:lo + 611],
                                         gid[lo:lo + 611],
                                         hashes[lo:lo + 611])
                parts.append(miss)
            return np.concatenate(parts)

        assert np.array_equal(windowed(5), base)
        assert not np.array_equal(windowed(6), base)
