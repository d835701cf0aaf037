"""Eviction-rate study — reproduces Fig. 5.

The paper simulates ``SELECT COUNT GROUPBY 5tuple`` over the CAIDA
trace for three cache geometries (hash table, 8-way associative, fully
associative) across cache capacities of 2¹⁶–2²¹ pairs, reporting

* the eviction rate as a **fraction of packets** (left plot), and
* the implied **backing-store write rate** under typical datacenter
  conditions (right plot; 22.6 M average packets/s).

This module runs the same sweep at a configurable scale: the synthetic
trace and the cache capacities are scaled together so the
working-set-to-cache ratio — which determines the eviction fraction —
matches the paper's operating points.

Execution knobs (see :mod:`repro.analysis.sweep_exec`): ``engine``
selects the cache simulator per grid cell (``"vector"`` — array-native,
bit-identical, ~an order of magnitude faster, and what ``"auto"``
runs; ``"row"`` — the per-access reference), and ``workers`` fans the grid across
processes sharing one generated key stream, which makes multi-10M-access
sweeps (scale 1/64 and up) practical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.switch.area import (
    cache_bits,
    evictions_per_second,
)
from repro.switch.kvstore.cache import CacheGeometry
from repro.traffic.caida import CaidaTraceConfig, generate_key_stream

#: Fig. 5 key-value pair width: 104-bit 5-tuple key + 24-bit counter.
PAIR_BITS = 128

#: The paper's cache capacities, in pairs (2^16 .. 2^21 = 8..256 Mbit).
PAPER_CAPACITIES: tuple[int, ...] = tuple(1 << e for e in range(16, 22))

#: Geometry constructors keyed by the paper's three configurations.
GEOMETRIES = {
    "hash_table": CacheGeometry.hash_table,
    "8way": lambda capacity: CacheGeometry.set_associative(capacity, ways=8),
    "fully_associative": CacheGeometry.fully_associative,
}


@dataclass(frozen=True)
class EvictionPoint:
    """One (geometry, capacity) measurement."""

    geometry: str
    capacity_pairs: int            # scaled capacity actually simulated
    paper_pairs: int               # the paper-scale capacity it models
    eviction_fraction: float
    packets: int
    flows: int

    @property
    def paper_mbits(self) -> float:
        return cache_bits(self.paper_pairs, PAIR_BITS) / (1 << 20)

    @property
    def evictions_per_sec(self) -> float:
        """Backing-store write rate under §4 datacenter conditions."""
        return evictions_per_second(self.eviction_fraction)


@dataclass
class EvictionSweep:
    """Full Fig. 5 dataset."""

    scale: float
    points: list[EvictionPoint] = field(default_factory=list)

    def series(self, geometry: str) -> list[EvictionPoint]:
        return sorted((p for p in self.points if p.geometry == geometry),
                      key=lambda p: p.capacity_pairs)

    def point(self, geometry: str, paper_pairs: int) -> EvictionPoint:
        for p in self.points:
            if p.geometry == geometry and p.paper_pairs == paper_pairs:
                return p
        raise KeyError((geometry, paper_pairs))


def scaled_capacity(paper_pairs: int, scale: float) -> int:
    """Paper-scale pair count -> simulated capacity (8-divisible)."""
    return max(8, int(paper_pairs * scale) // 8 * 8)


def run_eviction_sweep(
    scale: float = 1.0 / 256.0,
    capacities: tuple[int, ...] = PAPER_CAPACITIES,
    geometries: tuple[str, ...] = ("hash_table", "8way", "fully_associative"),
    seed: int = 2016_04,
    engine: str = "auto",
    workers: int | None = None,
    policy: str = "lru",
) -> EvictionSweep:
    """Run the Fig. 5 sweep at ``scale``.

    ``capacities`` are paper-scale pair counts; each is multiplied by
    ``scale`` (rounded to an 8-divisible value) before simulation, so
    the returned points can be plotted against the paper's axes.

    ``engine`` picks the cache simulator per cell (``"vector"`` — the
    array-native engine, bit-identical counters and an order of
    magnitude faster, and what ``"auto"`` runs; ``"row"`` — the
    per-access reference); ``workers`` > 1
    fans the (geometry, capacity) grid across processes via
    :mod:`repro.analysis.sweep_exec`, sharing one generated key stream.
    """
    if workers and workers > 1:
        from repro.analysis.sweep_exec import run_eviction_sweep_parallel

        return run_eviction_sweep_parallel(
            scale=scale, capacities=capacities, geometries=geometries,
            seed=seed, engine=engine, workers=workers, policy=policy)
    from repro.analysis.sweep_exec import stats_fn

    keys = generate_key_stream(CaidaTraceConfig(scale=scale, seed=seed))
    stats_for = stats_fn(keys, seed, engine)
    flows = int(len(np.unique(keys)))
    sweep = EvictionSweep(scale=scale)
    for paper_pairs in capacities:
        scaled = scaled_capacity(paper_pairs, scale)
        for name in geometries:
            geometry = GEOMETRIES[name](scaled)
            stats = stats_for(geometry, policy)
            sweep.points.append(EvictionPoint(
                geometry=name,
                capacity_pairs=scaled,
                paper_pairs=paper_pairs,
                eviction_fraction=stats.eviction_fraction,
                packets=len(keys),
                flows=flows,
            ))
    return sweep


def shape_checks(sweep: EvictionSweep) -> list[str]:
    """The qualitative claims Fig. 5 makes; returns violated claims.

    1. fully associative ≤ 8-way ≤ hash table, per capacity (within a
       small tolerance);
    2. eviction fraction decreases with capacity, per geometry;
    3. the 8-way cache is within a few percentage points of fully
       associative (the paper: "within 2% of this optimum").
    """
    problems: list[str] = []
    capacities = sorted({p.paper_pairs for p in sweep.points})
    tol = 0.002
    for capacity in capacities:
        try:
            full = sweep.point("fully_associative", capacity).eviction_fraction
            eight = sweep.point("8way", capacity).eviction_fraction
            hash_t = sweep.point("hash_table", capacity).eviction_fraction
        except KeyError:
            continue
        if not (full <= eight + tol):
            problems.append(f"{capacity}: fully associative worse than 8-way")
        if not (eight <= hash_t + tol):
            problems.append(f"{capacity}: 8-way worse than hash table")
        if eight - full > 0.05:
            problems.append(f"{capacity}: 8-way more than 5pp above optimum")
    for name in ("hash_table", "8way", "fully_associative"):
        series = sweep.series(name)
        for a, b in zip(series, series[1:]):
            if b.eviction_fraction > a.eviction_fraction + tol:
                problems.append(
                    f"{name}: eviction fraction rises from {a.paper_pairs} "
                    f"to {b.paper_pairs} pairs"
                )
    return problems
