"""Parallel sweep runner tests: engine equivalence and parallel ==
serial determinism for the Fig. 5/6 grids (tiny trace scales)."""

import numpy as np
import pytest

from repro.core.errors import HardwareError
from repro.analysis.accuracy import _window_validity, run_accuracy_sweep
from repro.analysis.eviction import run_eviction_sweep, scaled_capacity
from repro.analysis.sweep_exec import (
    run_eviction_sweep_parallel,
    stats_fn,
)
from repro.switch.kvstore.cache import CacheGeometry

SCALE = 1.0 / 16384.0   # ~9.6k packets: fast enough for process fan-out


def eviction_tuples(sweep):
    return [(p.geometry, p.paper_pairs, p.capacity_pairs,
             p.eviction_fraction, p.packets, p.flows) for p in sweep.points]


def accuracy_tuples(sweep):
    return [(p.window, p.paper_pairs, p.capacity_pairs,
             p.valid_keys, p.total_keys) for p in sweep.points]


class TestEngines:
    def test_eviction_vector_equals_row(self):
        vec = run_eviction_sweep(scale=SCALE, engine="vector")
        row = run_eviction_sweep(scale=SCALE, engine="row")
        assert eviction_tuples(vec) == eviction_tuples(row)

    def test_accuracy_vector_equals_row(self):
        vec = run_accuracy_sweep(scale=SCALE, engine="vector")
        row = run_accuracy_sweep(scale=SCALE, engine="row")
        assert accuracy_tuples(vec) == accuracy_tuples(row)

    def test_auto_runs_vector_for_every_stream(self):
        flat = np.tile(np.arange(50, dtype=np.int64), 8)
        geometry = CacheGeometry.set_associative(16, 4)
        for stream in (flat, flat.tolist(),
                       [(k, k % 3) for k in flat.tolist()], []):
            assert (stats_fn(stream, 5, "auto")(geometry)
                    == stats_fn(stream, 5, "vector")(geometry))
            assert (_window_validity(stream, geometry, 5, engine="auto")
                    == _window_validity(stream, geometry, 5, engine="vector"))
        for engine in ("auto", "vector"):
            with pytest.raises(HardwareError, match='engine="row"'):
                stats_fn(["x", "y"], 5, engine)
            with pytest.raises(HardwareError, match='engine="row"'):
                _window_validity(["x", "y"], geometry, 5, engine=engine)
        fully = CacheGeometry.fully_associative(8)
        assert stats_fn(["x", "y", "x"], 5, "row")(fully).hits == 1

    def test_invalid_engine_rejected(self):
        with pytest.raises(HardwareError):
            run_eviction_sweep(scale=SCALE, engine="warp")
        with pytest.raises(HardwareError):
            run_accuracy_sweep(scale=SCALE, engine="warp")

    def test_stats_fn_shares_sim(self):
        keys = np.tile(np.arange(100, dtype=np.int64), 20)
        stats_for = stats_fn(keys, 3, "vector")
        a = stats_for(CacheGeometry.fully_associative(64))
        b = stats_for(CacheGeometry.fully_associative(128))
        assert a.accesses == b.accesses == len(keys)
        assert a.evictions >= b.evictions


class TestParallel:
    def test_eviction_parallel_equals_serial(self):
        serial = run_eviction_sweep(scale=SCALE, engine="vector")
        fanned = run_eviction_sweep(scale=SCALE, engine="vector", workers=2)
        assert eviction_tuples(fanned) == eviction_tuples(serial)

    def test_eviction_parallel_row_engine(self):
        serial = run_eviction_sweep(scale=SCALE, engine="row",
                                    capacities=(1 << 16, 1 << 18))
        fanned = run_eviction_sweep_parallel(scale=SCALE, engine="row",
                                             capacities=(1 << 16, 1 << 18),
                                             workers=2)
        assert eviction_tuples(fanned) == eviction_tuples(serial)

    def test_accuracy_parallel_equals_serial(self):
        serial = run_accuracy_sweep(scale=SCALE, engine="vector")
        fanned = run_accuracy_sweep(scale=SCALE, engine="vector", workers=2)
        assert accuracy_tuples(fanned) == accuracy_tuples(serial)

    def test_workers_one_stays_serial(self):
        a = run_eviction_sweep_parallel(scale=SCALE, workers=1)
        b = run_eviction_sweep(scale=SCALE)
        assert eviction_tuples(a) == eviction_tuples(b)


class TestScaledCapacity:
    def test_rounding(self):
        assert scaled_capacity(1 << 16, 1 / 256) == 256
        assert scaled_capacity(1 << 16, 1e-9) == 8     # floor
        assert scaled_capacity(1 << 21, 1 / 256) == 8192
