"""Differential property tests for the FIFO/random ring replay.

The per-set ring replay (`vector_cache._replay_segments`) and the
carried `CacheSchedule` built on it must be **bit-identical** — per
access, not just in aggregate — to the per-access reference
(:class:`KeyValueCache`), across:

* both ablation policies (FIFO, random) and its counter-based RNG;
* randomized geometries (bucket counts, associativities, seeds), and
  many-set geometries (hundreds of sets);
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
from hypothesis import given, settings
from hypothesis import strategies as st

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


def dense_gids(keys):
    """Dense first-occurrence key ids, like the store's factorization:
    ``(gid per access, {key: gid})``."""
    arr = np.asarray(keys, dtype=np.int64)
    _, first_idx = np.unique(arr, return_index=True)
    order = np.argsort(first_idx)
    gid_of = {int(arr[first_idx[o]]): g for g, o in enumerate(order)}
    gid = np.asarray([gid_of[int(k)] for k in keys], dtype=np.int64)
    return gid, gid_of


def run_windows(geometry, policy, seed, keys2d, gid, sizes):
    """Feed a :class:`CacheSchedule` the stream in windows of ``sizes``:
    ``(schedule, miss flags, eviction count)``."""
    hashes = mix_key_array(keys2d, seed)
    sched = CacheSchedule(geometry, policy, seed)
    miss_parts, evictions = [], 0
    lo = 0
    for size in sizes:
        hi = lo + size
        miss, ev = sched.schedule(gid[lo:hi], hashes[lo:hi])
        miss_parts.append(miss)
        evictions += ev
        lo = hi
    return sched, np.concatenate(miss_parts), evictions


def reference_residents(keys, geometry, policy, seed, gid_of):
    """Key ids the reference cache holds after ``keys`` (as 1-tuples,
    whose hash equals a 1-column key array's)."""
    cache = KeyValueCache(geometry, policy=policy, seed=seed)
    for k in keys:
        cache.access((int(k),), lambda: None)
    return {gid_of[int(e.key[0])] for e in cache.entries()}


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


@settings(max_examples=120, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=-3, max_value=40), max_size=300),
    n_buckets=st.integers(min_value=1, max_value=9),
    m_slots=st.integers(min_value=2, max_value=11),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(min_value=0, max_value=4),
)
def test_ring_replay_matches_reference(keys, n_buckets, m_slots, policy,
                                       seed):
    """Core property: one-shot ring replay == per-access reference
    cache, counters and per-access miss flags both."""
    geometry = CacheGeometry(n_buckets, m_slots)
    ref_miss, ref_stats = reference_schedule(keys, geometry, policy, seed)
    sim = VectorCacheSim(np.asarray(keys, dtype=np.int64), seed=seed)
    stats, sched = sim.stats_and_schedule(geometry, policy=policy)
    assert counters(stats) == counters(ref_stats)
    assert np.array_equal(sched, ref_miss)


@pytest.mark.parametrize("policy, direct", [
    ("lru", False), ("fifo", False), ("random", False), ("fifo", True)])
@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                  max_size=250),
    n_buckets=st.integers(min_value=1, max_value=7),
    m_slots=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=3),
    cuts=st.lists(st.integers(min_value=1, max_value=249), max_size=6),
)
def test_windowed_schedulers_match_for_every_partitioning(
        policy, direct, keys, n_buckets, m_slots, seed, cuts):
    """A :class:`CacheSchedule`'s carried state — both carries: the
    stack-distance phantom prefix (LRU, and a direct-mapped geometry)
    and the ring replay — fed arbitrary window partitionings of the
    same stream, must reproduce the reference cache's schedule,
    eviction count and residency exactly — plus three fixed
    partitionings (per-access, small, whole stream)."""
    geometry = CacheGeometry(n_buckets, 1 if direct else m_slots)
    keys2d = np.asarray(keys, dtype=np.int64).reshape(-1, 1)
    gid, gid_of = dense_gids(keys)
    # The scheduler is handed the rows' hash, so the reference uses
    # 1-tuples (mix_key of a 1-tuple == 1-column array).
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
    want = reference_residents(keys, geometry, policy, seed, gid_of)
    for sizes in partitionings:
        sched, got, evictions = run_windows(geometry, policy, seed, keys2d,
                                            gid, sizes)
        assert np.array_equal(got, ref_miss), sizes
        assert evictions == ref_stats.evictions, sizes
        # Final residency must match the reference cache's content;
        # the state rows never outnumber the sets.
        resident = sched.resident(np.arange(len(gid_of)))
        assert set(np.flatnonzero(resident).tolist()) == want
        assert len(sched._ring) <= n_buckets


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("geometry", [
    CacheGeometry.set_associative(1024, ways=8),   # 128 sets
    CacheGeometry(257, 4),                         # odd, many sets
], ids=str)
def test_many_set_geometries_match_reference(policy, geometry):
    """Hundreds of sets, a working set ~3x the capacity: the one-shot
    replay and the carried schedule over three window partitionings
    reproduce the reference cache's per-access schedule, evictions and
    final residency."""
    rng = np.random.default_rng(17)
    keys = rng.integers(0, 3 * geometry.capacity, 6000)
    keys[::3] = rng.integers(0, 64, 2000)          # a hot subset
    ref_miss, ref_stats = reference_schedule(
        [(int(k),) for k in keys], geometry, policy, 4)
    keys2d = keys.reshape(-1, 1)
    stats, once = VectorCacheSim(keys2d, seed=4).stats_and_schedule(
        geometry, policy=policy)
    assert counters(stats) == counters(ref_stats)
    assert np.array_equal(once, ref_miss)

    gid, gid_of = dense_gids(keys)
    want = reference_residents(keys, geometry, policy, 4, gid_of)
    n = len(keys)
    for sizes in ([n], [997] * (n // 997) + [n % 997], [1] * 50 + [n - 50]):
        sched, got, evictions = run_windows(geometry, policy, 4, keys2d,
                                            gid, sizes)
        assert np.array_equal(got, ref_miss), sizes[:2]
        assert evictions == ref_stats.evictions, sizes[:2]
        resident = sched.resident(np.arange(len(gid_of)))
        assert set(np.flatnonzero(resident).tolist()) == want


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

    def test_single_key(self):
        self.assert_match(np.zeros(3000, dtype=np.int64))

    def test_all_unique(self):
        self.assert_match(np.arange(3000, dtype=np.int64))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_cyclic_at_capacity_boundary(self, extra):
        keys = np.tile(np.arange(64 + extra, dtype=np.int64), 40)
        self.assert_match(keys)

    def test_hot_cold_interleave(self):
        rng = np.random.default_rng(7)
        keys = np.empty(6000, dtype=np.int64)
        keys[0::2] = rng.integers(0, 6, 3000)
        keys[1::2] = rng.integers(6, 3000, 3000)
        self.assert_match(keys)

    def test_sparse_32bit_keys(self):
        """Raw keys spread sparsely over a 32-bit range: the replay
        reads them as key ids as they come."""
        rng = np.random.default_rng(5)
        self.assert_match(0x0A000000 + 97 * rng.integers(0, 1 << 12, 3000))


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
                miss, _ = sched.schedule(gid[lo:lo + 611],
                                         hashes[lo:lo + 611])
                parts.append(miss)
            return np.concatenate(parts)

        assert np.array_equal(windowed(5), base)
        assert not np.array_equal(windowed(6), base)
