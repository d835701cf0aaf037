"""Differential tests: the array-native cache simulator vs the
reference per-access cache, across randomized geometries, policies,
seeds, and adversarial key streams.  All five counters must be
bit-identical everywhere — the vector engine is exact, not a model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import HardwareError
from repro.analysis.accuracy import _window_validity
from repro.switch.kvstore.cache import (
    CacheGeometry,
    mix_key,
    simulate_eviction_count,
)
from repro.switch.kvstore.vector_cache import (
    VectorCacheSim,
    _count_prev_greater,
    mix_key_array,
    simulate_eviction_count_vector,
    splitmix64_array,
    window_validity_vector,
)


def counters(stats):
    return (stats.accesses, stats.hits, stats.misses,
            stats.insertions, stats.evictions)


def assert_match(keys, geometry, policy="lru", seed=0):
    row = simulate_eviction_count(list(keys), geometry, policy=policy,
                                  seed=seed, engine="row")
    vec = simulate_eviction_count_vector(np.asarray(keys, dtype=np.int64),
                                         geometry, policy=policy, seed=seed)
    assert counters(vec) == counters(row)


class TestHashing:
    def test_splitmix64_array_matches_scalar(self):
        values = np.array([0, 1, 12345, 2**63 - 1, 2**64 - 1], dtype=np.uint64)
        from repro.switch.kvstore.cache import splitmix64

        got = splitmix64_array(values)
        for v, g in zip(values.tolist(), got.tolist()):
            assert splitmix64(v) == g

    @given(st.lists(st.integers(min_value=-2**62, max_value=2**62), max_size=30),
           st.integers(min_value=0, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_mix_key_array_matches_scalar(self, values, seed):
        arr = np.array(values, dtype=np.int64)
        got = mix_key_array(arr, seed=seed)
        for v, g in zip(values, got.tolist()):
            assert mix_key(v, seed=seed) == g

    def test_mix_key_array_tuples(self):
        rows = np.array([[1, 2, 3], [4, 5, 6], [1, 2, 3]], dtype=np.int64)
        got = mix_key_array(rows, seed=9)
        for row, g in zip(rows.tolist(), got.tolist()):
            assert mix_key(tuple(row), seed=9) == g

    def test_rejects_3d(self):
        with pytest.raises(HardwareError):
            mix_key_array(np.zeros((2, 2, 2), dtype=np.int64))


class TestMergeCounter:
    @given(st.lists(st.integers(min_value=0, max_value=1_000_000), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_matches_quadratic_reference(self, values):
        v = np.array(values, dtype=np.int64)
        ref = np.array([(v[:i] > v[i]).sum() for i in range(len(v))],
                       dtype=np.int64)
        assert np.array_equal(_count_prev_greater(v), ref)

    def test_crosses_block_boundaries(self):
        v = np.arange(1000, dtype=np.int64)[::-1].copy()
        got = _count_prev_greater(v)
        assert np.array_equal(got, np.arange(1000))


@settings(max_examples=120, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=40), max_size=300),
    n_buckets=st.integers(min_value=1, max_value=9),
    m_slots=st.integers(min_value=1, max_value=11),
    policy=st.sampled_from(["lru", "fifo", "random"]),
    seed=st.integers(min_value=0, max_value=4),
)
def test_counters_bit_identical(keys, n_buckets, m_slots, policy, seed):
    """The core differential property, over randomized geometries
    (including n=1, m=1, non-power-of-two bucket counts), all three
    policies, and several hash seeds."""
    assert_match(keys, CacheGeometry(n_buckets, m_slots),
                 policy=policy, seed=seed)


class TestAdversarialStreams:
    def test_all_same_key(self):
        keys = np.zeros(5000, dtype=np.int64)
        for geometry in (CacheGeometry.hash_table(8),
                         CacheGeometry.set_associative(16, 4),
                         CacheGeometry.fully_associative(4)):
            assert_match(keys, geometry)

    def test_all_unique_keys(self):
        keys = np.arange(5000, dtype=np.int64)
        for geometry in (CacheGeometry.hash_table(64),
                         CacheGeometry.set_associative(64, 8),
                         CacheGeometry.fully_associative(64)):
            assert_match(keys, geometry)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_working_set_at_capacity_boundary(self, extra):
        """Cyclic working set exactly at capacity, one below, one
        above — LRU's pathological corner (capacity+1 cycling thrashes
        a full LRU to a 0% hit rate)."""
        capacity = 64
        distinct = capacity + extra
        keys = np.tile(np.arange(distinct, dtype=np.int64), 200)
        assert_match(keys, CacheGeometry.fully_associative(capacity))
        assert_match(keys, CacheGeometry.set_associative(capacity, 8))

    def test_cyclic_beats_sparse_shortcut(self):
        """A long cycle defeats the short-window shortcut: every reuse
        window is huge, exercising the kept-subset merge path."""
        keys = np.tile(np.arange(500, dtype=np.int64), 50)
        assert_match(keys, CacheGeometry.set_associative(256, 8))
        assert_match(keys, CacheGeometry.fully_associative(256))

    def test_interleaved_hot_cold(self):
        rng = np.random.default_rng(5)
        hot = rng.integers(0, 8, 20_000)
        cold = rng.integers(8, 10_000, 20_000)
        keys = np.empty(40_000, dtype=np.int64)
        keys[0::2] = hot
        keys[1::2] = cold
        assert_match(keys, CacheGeometry.set_associative(512, 8), seed=3)

    def test_negative_and_wide_keys(self):
        rng = np.random.default_rng(6)
        keys = (rng.integers(-500, 500, 8000) * (1 << 40)).astype(np.int64)
        assert_match(keys, CacheGeometry.set_associative(64, 8))

    def test_empty_stream(self):
        stats = simulate_eviction_count_vector(
            np.zeros(0, dtype=np.int64), CacheGeometry.set_associative(16, 4))
        assert counters(stats) == (0, 0, 0, 0, 0)


class TestSimSharing:
    def test_capacity_sweep_shares_state(self):
        """One sim instance answering many geometries must equal
        one-shot runs (memoized layouts/inversion tables)."""
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 3000, 60_000).astype(np.int64)
        sim = VectorCacheSim(keys, seed=11)
        grid = [CacheGeometry.fully_associative(m) for m in (256, 512, 1024)]
        grid += [CacheGeometry.set_associative(c, 8) for c in (64, 256, 1024)]
        grid += [CacheGeometry.hash_table(c) for c in (64, 1024)]
        # descending-m re-query forces an inversion-table rebuild
        grid.append(CacheGeometry.fully_associative(32))
        for geometry in grid:
            one_shot = simulate_eviction_count_vector(keys, geometry, seed=11)
            assert counters(sim.stats(geometry)) == counters(one_shot)
            row = simulate_eviction_count(keys, geometry, seed=11, engine="row")
            assert counters(sim.stats(geometry)) == counters(row)

    def test_tuple_keys_match_row_tuples(self):
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 30, (5000, 3)).astype(np.int64)
        geometry = CacheGeometry.set_associative(32, 4)
        row = simulate_eviction_count([tuple(r) for r in rows.tolist()],
                                      geometry, seed=7, engine="row")
        vec = simulate_eviction_count_vector(rows, geometry, seed=7)
        assert counters(vec) == counters(row)


class TestHandedHashes:
    """A simulator handed the stream's hashes (as the windowed store
    hands over its one row hash) equals one that hashes for itself."""

    @pytest.mark.parametrize("geometry, policy", [
        (CacheGeometry.hash_table(64), "lru"),                 # direct
        (CacheGeometry.set_associative(64, 4), "lru"),
        (CacheGeometry.set_associative(64, 4), "fifo"),
        (CacheGeometry.set_associative(64, 4), "random"),
        (CacheGeometry.fully_associative(16), "random"),
    ], ids=["direct", "lru", "fifo", "random", "random-full"])
    @pytest.mark.parametrize("shape", [(3000,), (3000, 2)],
                             ids=["scalar", "tuple"])
    def test_matches_self_hashing(self, geometry, policy, shape):
        rng = np.random.default_rng(5)
        keys = rng.integers(-40, 200, shape).astype(np.int64)
        keys[::7] += 2**40                     # wide ids: factorized
        own = VectorCacheSim(keys, seed=3)
        handed = VectorCacheSim(keys, seed=3,
                                hashes=mix_key_array(keys, seed=3))
        got = handed.stats_and_schedule(geometry, policy)
        want = own.stats_and_schedule(geometry, policy)
        assert counters(got[0]) == counters(want[0])
        assert np.array_equal(got[1], want[1])
        assert handed.validity(geometry, policy) == \
            own.validity(geometry, policy)
        row = simulate_eviction_count(
            [tuple(r) for r in keys.tolist()] if keys.ndim == 2
            else keys.tolist(), geometry, policy=policy, seed=3,
            engine="row")
        assert counters(got[0]) == counters(row)


class TestWindowValidity:
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=30), max_size=250),
        n_buckets=st.integers(min_value=1, max_value=6),
        m_slots=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_epochs(self, keys, n_buckets, m_slots, seed):
        geometry = CacheGeometry(n_buckets, m_slots)
        ref = _window_validity(list(keys), geometry, seed, engine="row")
        vec = window_validity_vector(np.asarray(keys, dtype=np.int64),
                                     geometry, seed=seed)
        assert vec == ref

    def test_policy_replays_report_validity(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 200, 5000).astype(np.int64)
        geometry = CacheGeometry.set_associative(64, 4)
        for policy in ("fifo", "random"):
            valid, total = window_validity_vector(keys, geometry, seed=1,
                                                  policy=policy)
            assert total == len(np.unique(keys))
            assert 0 <= valid <= total


class TestEngineDispatch:
    def test_auto_picks_vector_for_arrays(self):
        keys = np.arange(100, dtype=np.int64)
        geometry = CacheGeometry.set_associative(16, 4)
        auto = simulate_eviction_count(keys, geometry)
        row = simulate_eviction_count(keys.tolist(), geometry, engine="row")
        assert counters(auto) == counters(row)

    def test_row_engine_accepts_arrays(self):
        keys = np.arange(100, dtype=np.int64)
        geometry = CacheGeometry.hash_table(16)
        assert counters(simulate_eviction_count(keys, geometry, engine="row")) \
            == counters(simulate_eviction_count(keys, geometry, engine="vector"))

    @pytest.mark.parametrize("form", ["array", "ints", "tuples",
                                      "generator", "empty"])
    def test_auto_is_vector_for_every_integer_stream(self, form):
        rng = np.random.default_rng(11)
        flat = rng.integers(0, 40, 600)
        pairs = rng.integers(0, 8, (600, 2))
        streams = {
            "array": lambda: flat.astype(np.int64),
            "ints": lambda: flat.tolist(),
            "tuples": lambda: [tuple(r) for r in pairs.tolist()],
            "generator": lambda: (k for k in flat.tolist()),
            "empty": lambda: [],
        }
        geometry = CacheGeometry.set_associative(16, 4)
        auto = simulate_eviction_count(streams[form](), geometry, engine="auto")
        vec = simulate_eviction_count(streams[form](), geometry,
                                      engine="vector")
        row = simulate_eviction_count(streams[form](), geometry, engine="row")
        assert auto == vec == row

    @pytest.mark.parametrize("engine", ["auto", "vector"])
    @pytest.mark.parametrize("keys", [
        [("a", 1), ("b", 2), ("a", 1)],
        [1.5, 2.5],
        [(1, 2), (3,)],
        [1 << 70],
    ])
    def test_non_integer_keys_name_the_row_engine(self, engine, keys):
        with pytest.raises(HardwareError, match='engine="row"'):
            simulate_eviction_count(keys, CacheGeometry.fully_associative(8),
                                    engine=engine)

    def test_row_engine_accepts_hashables(self):
        keys = [("a", 1), ("b", 2), ("a", 1), 2.5, "x", 2.5]
        stats = simulate_eviction_count(keys, CacheGeometry.fully_associative(8),
                                        engine="row")
        assert (stats.accesses, stats.hits) == (6, 2)

    def test_row_engine_accepts_tuple_key_arrays(self):
        rows = np.random.default_rng(4).integers(0, 20, (2000, 2))
        geometry = CacheGeometry.set_associative(16, 4)
        row = simulate_eviction_count(rows, geometry, engine="row")
        vec = simulate_eviction_count(rows, geometry, engine="vector")
        assert counters(row) == counters(vec)

    def test_unknown_engine_rejected(self):
        with pytest.raises(HardwareError):
            simulate_eviction_count([1], CacheGeometry.hash_table(4),
                                    engine="warp")


class TestEmptyStreams:
    """The cache-sim door types an empty stream as int64, so every
    engine agrees on it whatever container it arrives in."""

    EMPTY = {"list": lambda: [],
             "int64": lambda: np.zeros(0, dtype=np.int64),
             "pairs": lambda: np.zeros((0, 2))}

    @pytest.mark.parametrize("form", sorted(EMPTY))
    @pytest.mark.parametrize("engine", ["auto", "vector", "row"])
    def test_empty_streams_agree_across_engines(self, form, engine):
        geometry = CacheGeometry.set_associative(16, 4)
        keys = self.EMPTY[form]()
        stats = simulate_eviction_count(keys, geometry, engine=engine)
        assert counters(stats) == (0, 0, 0, 0, 0)
        assert _window_validity(keys, geometry, seed=3, engine=engine) == (0, 0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(HardwareError):
            simulate_eviction_count_vector(np.arange(4),
                                           CacheGeometry.hash_table(4),
                                           policy="mru")
