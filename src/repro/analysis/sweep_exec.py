"""Parallel execution of the Fig. 5/6 hardware-design sweeps.

The eviction study (Fig. 5) and the accuracy study (Fig. 6) are grids
of independent cache simulations over one shared key stream: (geometry,
capacity) cells for Fig. 5, (capacity, window) cells for Fig. 6.  This
module fans those cells across worker processes with
:mod:`concurrent.futures`, generating the stream **once** in the parent
and publishing it through :mod:`multiprocessing.shared_memory`: every
worker maps the same physical pages at initialisation, so a full-scale
(1/1) sweep costs one stream's worth of RAM total instead of one
pickled copy per worker.

Two knobs, mirrored on :func:`repro.analysis.eviction.run_eviction_sweep`,
:func:`repro.analysis.accuracy.run_accuracy_sweep`, and the CLI:

* ``engine="auto"|"vector"|"row"`` — which cache simulator runs each
  cell: the vector engine
  (:class:`repro.switch.kvstore.vector_cache.VectorCacheSim`,
  bit-identical counters, all four eviction policies — LRU and
  direct-mapped on arrays via stack distances, FIFO/random via one
  scalar loop per set over the same memoized layout; ``"auto"`` is
  the same engine) or the per-access row reference.  Mirrors
  :class:`repro.telemetry.runtime.QueryEngine`'s knob.  The key stream
  is columnized once, at the simulator's door
  (:func:`repro.switch.kvstore.vector_cache.key_array`).  Replay state
  derives from the cell's ``seed`` alone, so row, vector, and
  windowed-session runs of the same cell agree exactly
  (``tests/test_replay_packed.py``).
* ``workers`` (CLI: ``--sweep-workers``) — number of worker processes;
  ``None``/``0``/``1`` runs serially in-process.

Workers keep one :class:`VectorCacheSim` per (stream, seed), so cells
that share a bucketing also share its layout/chain computations, the
same memoization the serial path enjoys.  Results are reassembled in
grid order, so parallel sweeps are deterministic and bit-identical to
serial ones (asserted in ``tests/test_sweep_exec.py``).

When to fan out: the vector engine is usually fastest *serial* (one
process shares all memoized state and grid cells are sub-second);
``workers`` pays off for the row engine, for very large grids, and for
multi-10M-access streams — on multi-core machines.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from repro.core.errors import HardwareError
from repro.switch.kvstore.cache import ENGINES, CacheStats, simulate_eviction_count
from repro.switch.kvstore.vector_cache import VectorCacheSim
from repro.telemetry.shard_exec import release_shared_memory

#: Per-worker shared state, installed by the pool initializer.
_WORKER_KEYS: np.ndarray | None = None
_WORKER_SHM: shared_memory.SharedMemory | None = None
_WORKER_SIMS: dict[tuple[int, int], VectorCacheSim] = {}
_WORKER_ROW_KEYS: dict[int, list] = {}


def check_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise HardwareError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


def stats_fn(keys, seed: int, engine: str):
    """A ``(geometry, policy) -> CacheStats`` closure over one stream,
    sharing state across calls: the vector engine keeps one
    :class:`VectorCacheSim` (memoized layouts/chains), the row engine
    materialises the Python key list once for all cells."""
    if check_engine(engine) == "row":
        key_list = keys.tolist() if isinstance(keys, np.ndarray) else keys
        return lambda geometry, policy="lru": simulate_eviction_count(
            key_list, geometry, policy=policy, seed=seed, engine="row")
    sim = VectorCacheSim(keys, seed=seed)
    return lambda geometry, policy="lru": sim.stats(geometry, policy)


def _init_worker(shm_name: str, shape: tuple[int, ...], dtype: str) -> None:
    """Attach this worker to the parent's shared key stream.

    The array is mapped read-only from the shared segment — no pickle,
    no copy.  The segment handle is kept alive for the worker's
    lifetime; the parent owns unlinking.
    """
    global _WORKER_KEYS, _WORKER_SHM
    _WORKER_SHM = shared_memory.SharedMemory(name=shm_name)
    # Pool workers share the parent's resource tracker, so the attach
    # above dedupes against the parent's own registration — cleanup
    # stays with the parent's unlink in _fan().
    keys = np.ndarray(shape, dtype=np.dtype(dtype), buffer=_WORKER_SHM.buf)
    keys.flags.writeable = False
    _WORKER_KEYS = keys
    _WORKER_SIMS.clear()
    _WORKER_ROW_KEYS.clear()


def _worker_sim(seed: int, length: int) -> VectorCacheSim:
    """Memoized per-worker sim over a prefix of the shared stream."""
    sim = _WORKER_SIMS.get((seed, length))
    if sim is None:
        sim = VectorCacheSim(_WORKER_KEYS[:length], seed=seed)
        _WORKER_SIMS[(seed, length)] = sim
    return sim


def _eviction_cell(args) -> tuple[int, int, int, int, int]:
    """One (geometry, capacity) cell: returns the CacheStats counters."""
    geometry_name, scaled, seed, policy, engine = args
    from repro.analysis.eviction import GEOMETRIES

    geometry = GEOMETRIES[geometry_name](scaled)
    if engine == "row":
        s = simulate_eviction_count(_worker_row_keys(len(_WORKER_KEYS)),
                                    geometry, policy=policy,
                                    seed=seed, engine="row")
    else:
        s = _worker_sim(seed, len(_WORKER_KEYS)).stats(geometry, policy)
    return (s.accesses, s.hits, s.misses, s.insertions, s.evictions)


def _worker_row_keys(length: int) -> list:
    """Memoized Python key list for a worker's row-engine cells."""
    lst = _WORKER_ROW_KEYS.get(length)
    if lst is None:
        lst = _WORKER_KEYS[:length].tolist()
        _WORKER_ROW_KEYS[length] = lst
    return lst


def _accuracy_cell(args) -> tuple[int, int]:
    """One (capacity, window) cell: returns (valid, total) keys."""
    scaled, window_len, seed, engine = args
    from repro.analysis.accuracy import _window_validity
    from repro.switch.kvstore.cache import CacheGeometry

    geometry = CacheGeometry.set_associative(scaled, ways=8)
    if engine == "row":
        return _window_validity(_worker_row_keys(window_len), geometry,
                                seed, engine="row")
    return _worker_sim(seed, window_len).validity(geometry)


def _fan(keys: np.ndarray, worker, tasks: Sequence[tuple], workers: int):
    """Run ``worker`` over ``tasks`` in a process pool sharing ``keys``
    via one shared-memory segment; results come back in task order."""
    keys = np.ascontiguousarray(keys)
    shm = shared_memory.SharedMemory(create=True, size=max(1, keys.nbytes))
    try:
        view = np.ndarray(keys.shape, dtype=keys.dtype, buffer=shm.buf)
        view[...] = keys
        del view       # drop the buffer export so close() cannot fail
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(shm.name, keys.shape, keys.dtype.str)) as pool:
            return list(pool.map(worker, tasks))
    finally:
        # Idempotent teardown shared with the session shard pool: the
        # segment is unlinked even when a worker raised (pool.map
        # re-raises here) or close() hits a live buffer export.
        release_shared_memory(shm)


def run_eviction_sweep_parallel(
    scale: float = 1.0 / 256.0,
    capacities: tuple[int, ...] | None = None,
    geometries: tuple[str, ...] = ("hash_table", "8way", "fully_associative"),
    seed: int = 2016_04,
    engine: str = "auto",
    workers: int | None = None,
    policy: str = "lru",
):
    """Fig. 5 sweep with the (geometry, capacity) grid fanned across
    ``workers`` processes.  Bit-identical to the serial sweep."""
    from repro.analysis.eviction import (
        PAPER_CAPACITIES,
        EvictionPoint,
        EvictionSweep,
        scaled_capacity,
    )
    from repro.traffic.caida import CaidaTraceConfig, generate_key_stream

    check_engine(engine)
    capacities = capacities or PAPER_CAPACITIES
    if not workers or workers <= 1:
        from repro.analysis.eviction import run_eviction_sweep

        return run_eviction_sweep(scale=scale, capacities=capacities,
                                  geometries=geometries, seed=seed,
                                  engine=engine, policy=policy)
    keys = generate_key_stream(CaidaTraceConfig(scale=scale, seed=seed))
    flows = int(len(np.unique(keys)))
    grid = [(name, scaled_capacity(paper_pairs, scale))
            for paper_pairs in capacities for name in geometries]
    tasks = [(name, scaled, seed, policy, engine) for name, scaled in grid]
    counters = _fan(keys, _eviction_cell, tasks, workers)
    sweep = EvictionSweep(scale=scale)
    for (name, scaled), paper_pairs, cell in zip(
            grid, (p for p in capacities for _ in geometries), counters):
        stats = CacheStats(*cell)
        sweep.points.append(EvictionPoint(
            geometry=name, capacity_pairs=scaled, paper_pairs=paper_pairs,
            eviction_fraction=stats.eviction_fraction,
            packets=len(keys), flows=flows,
        ))
    return sweep


def run_accuracy_sweep_parallel(
    scale: float = 1.0 / 256.0,
    capacities: tuple[int, ...] | None = None,
    windows: dict[str, float] | None = None,
    seed: int = 2016_04,
    engine: str = "auto",
    workers: int | None = None,
):
    """Fig. 6 sweep with the (capacity, window) grid fanned across
    ``workers`` processes.  Bit-identical to the serial sweep."""
    from repro.analysis.accuracy import (
        FIG6_CAPACITIES,
        WINDOW_FRACTIONS,
        AccuracyPoint,
        AccuracySweep,
        run_accuracy_sweep,
    )
    from repro.analysis.eviction import scaled_capacity
    from repro.traffic.caida import CaidaTraceConfig, generate_key_stream

    check_engine(engine)
    capacities = capacities or FIG6_CAPACITIES
    windows = windows or WINDOW_FRACTIONS
    if not workers or workers <= 1:
        return run_accuracy_sweep(scale=scale, capacities=capacities,
                                  windows=windows, seed=seed, engine=engine)
    keys = generate_key_stream(CaidaTraceConfig(scale=scale, seed=seed))
    n = len(keys)
    grid = [(paper_pairs, window_name, fraction)
            for paper_pairs in capacities
            for window_name, fraction in windows.items()]
    tasks = [(scaled_capacity(paper_pairs, scale), max(1, int(n * fraction)),
              seed, engine) for paper_pairs, _, fraction in grid]
    results = _fan(keys, _accuracy_cell, tasks, workers)
    sweep = AccuracySweep(scale=scale)
    for (paper_pairs, window_name, _), (valid, total) in zip(grid, results):
        sweep.points.append(AccuracyPoint(
            window=window_name, paper_pairs=paper_pairs,
            capacity_pairs=scaled_capacity(paper_pairs, scale),
            valid_keys=valid, total_keys=total,
        ))
    return sweep
