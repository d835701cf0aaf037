"""Accuracy study for non-linear queries — reproduces Fig. 6.

For folds that are not linear in state, evicted values cannot be
merged; a key evicted more than once accumulates multiple value
segments and is marked *invalid*.  Fig. 6 plots accuracy — the percent
of valid keys — against cache size for 8-way caches, for three query
window lengths (1, 3, 5 minutes): shorter windows see fewer evictions
per key and are therefore more accurate.

Implementation: Fig. 6 is "the accuracy-time tradeoff" — the query is
*run over a shorter time interval*: accuracy over the first 1/3/5
minutes of the trace (fresh store per run, flush at window end).
Shorter runs see fewer evict-and-reappear events per key, hence more
valid keys.  Windows are expressed as fractions of the paper's
5-minute trace so the scaled trace reproduces the 1/3/5-minute series.

Execution knobs (see :mod:`repro.analysis.sweep_exec`): ``engine``
selects the per-cell cache simulator (vector — which ``auto`` is — or
row, identical results) and ``workers`` fans the (capacity, window) grid across
processes sharing one generated key stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.switch.kvstore.cache import CacheGeometry
from repro.analysis.eviction import scaled_capacity
from repro.traffic.caida import CaidaTraceConfig, generate_key_stream

#: Fig. 6 window lengths as fractions of the full (5-minute) trace.
WINDOW_FRACTIONS: dict[str, float] = {"1min": 1 / 5, "3min": 3 / 5, "5min": 1.0}

#: The Fig. 6 x-axis: the paper's cache capacities in pairs (2^16..2^21).
FIG6_CAPACITIES: tuple[int, ...] = tuple(1 << e for e in range(16, 22))


@dataclass(frozen=True)
class AccuracyPoint:
    """One (cache size, window) measurement."""

    window: str
    paper_pairs: int
    capacity_pairs: int
    valid_keys: int
    total_keys: int

    @property
    def accuracy(self) -> float:
        return self.valid_keys / self.total_keys if self.total_keys else 1.0


@dataclass
class AccuracySweep:
    scale: float
    points: list[AccuracyPoint] = field(default_factory=list)

    def series(self, window: str) -> list[AccuracyPoint]:
        return sorted((p for p in self.points if p.window == window),
                      key=lambda p: p.capacity_pairs)


def _window_validity(keys, geometry: CacheGeometry, seed: int,
                     engine: str = "auto") -> tuple[int, int]:
    """(valid, total) keys for one window under a non-mergeable fold.

    A key is valid unless evicted and later re-inserted (≥ 2 epochs by
    the end-of-window flush).  Only eviction *events* matter, not the
    fold's values, so this tracks epoch counts directly — semantically
    identical to running the full split store with a non-linear fold.

    ``engine="vector"`` (and ``"auto"``, the same engine) runs the
    array-native simulator (a key's epoch count equals its miss count,
    so per-key miss tallies suffice), whose door takes any integer key
    stream — an empty one included — and rejects anything else;
    ``"row"`` replays the reference cache over any hashable keys.  Both
    produce identical numbers.
    """
    from repro.analysis.sweep_exec import check_engine

    if check_engine(engine) != "row":
        from repro.switch.kvstore.vector_cache import window_validity_vector

        return window_validity_vector(keys, geometry, seed=seed)
    from repro.switch.kvstore.cache import KeyValueCache

    cache: KeyValueCache[None] = KeyValueCache(geometry, seed=seed)
    epochs: dict[int, int] = {}
    make_none = lambda: None  # noqa: E731
    for key in (keys.tolist() if isinstance(keys, np.ndarray) else keys):
        _entry, evicted = cache.access(key, make_none)
        if evicted is not None:
            epochs[evicted.key] = epochs.get(evicted.key, 0) + 1
    for entry in cache.flush():
        epochs[entry.key] = epochs.get(entry.key, 0) + 1
    total = len(epochs)
    valid = sum(1 for count in epochs.values() if count <= 1)
    return valid, total


def run_accuracy_sweep(
    scale: float = 1.0 / 256.0,
    capacities: tuple[int, ...] = FIG6_CAPACITIES,
    windows: dict[str, float] | None = None,
    seed: int = 2016_04,
    engine: str = "auto",
    workers: int | None = None,
) -> AccuracySweep:
    """Run the Fig. 6 sweep at ``scale`` (8-way caches).

    Windowing operates on the packet stream by position (the synthetic
    trace has uniform arrival intensity, so position ≈ time).

    ``engine`` selects the cache simulator per (capacity, window) cell
    and ``workers`` > 1 fans the grid across processes via
    :mod:`repro.analysis.sweep_exec` (one shared key stream, results
    bit-identical to the serial sweep).
    """
    if workers and workers > 1:
        from repro.analysis.sweep_exec import run_accuracy_sweep_parallel

        return run_accuracy_sweep_parallel(
            scale=scale, capacities=capacities, windows=windows,
            seed=seed, engine=engine, workers=workers)
    from repro.analysis.sweep_exec import check_engine

    windows = windows or WINDOW_FRACTIONS
    keys = generate_key_stream(CaidaTraceConfig(scale=scale, seed=seed))
    n = len(keys)
    # One validity oracle per window prefix: on the vector engine each
    # prefix gets one shared simulator, so the capacity sweep reuses
    # its hashing/layout work; on the row engine, one Python key list.
    use_vector = check_engine(engine) != "row"
    oracles: dict[int, object] = {}
    for fraction in windows.values():
        window_len = max(1, int(n * fraction))
        if window_len in oracles:
            continue
        if use_vector:
            from repro.switch.kvstore.vector_cache import VectorCacheSim

            sim = VectorCacheSim(keys[:window_len], seed=seed)
            oracles[window_len] = sim.validity
        else:
            prefix = keys[:window_len].tolist()
            oracles[window_len] = (
                lambda geometry, _p=prefix: _window_validity(
                    _p, geometry, seed, engine="row"))
    sweep = AccuracySweep(scale=scale)
    for paper_pairs in capacities:
        scaled = scaled_capacity(paper_pairs, scale)
        geometry = CacheGeometry.set_associative(scaled, ways=8)
        for window_name, fraction in windows.items():
            window_len = max(1, int(n * fraction))
            valid, total = oracles[window_len](geometry)
            sweep.points.append(AccuracyPoint(
                window=window_name, paper_pairs=paper_pairs,
                capacity_pairs=scaled, valid_keys=valid, total_keys=total,
            ))
    return sweep


def shape_checks(sweep: AccuracySweep,
                 ordering_from_pairs: int = 1 << 18) -> list[str]:
    """Fig. 6's qualitative claims; returns violated claims.

    1. accuracy rises with cache size, per window;
    2. the shortest window is at least as accurate as the longest at
       every capacity ≥ ``ordering_from_pairs`` (default: the paper's
       32-Mbit operating point, where it quotes 74% → 84%).

    The ordering is only asserted from the operating point up: in a
    short *prefix* of a synthetic trace the key population is
    length-biased toward long-lived, churn-heavy flows, which can
    depress small-cache short-window accuracy by a few points — an
    artifact of the trace substitution, not of the store (see
    EXPERIMENTS.md).
    """
    problems: list[str] = []
    tol = 0.01
    for window in {p.window for p in sweep.points}:
        series = sweep.series(window)
        for a, b in zip(series, series[1:]):
            if b.accuracy < a.accuracy - tol:
                problems.append(
                    f"{window}: accuracy falls from {a.paper_pairs} to "
                    f"{b.paper_pairs} pairs"
                )
    ordered = sorted(WINDOW_FRACTIONS, key=WINDOW_FRACTIONS.get)
    shortest, longest = ordered[0], ordered[-1]
    for capacity in sorted({p.paper_pairs for p in sweep.points}):
        if capacity < ordering_from_pairs:
            continue
        accs = {}
        for window in (shortest, longest):
            match = [p for p in sweep.points
                     if p.window == window and p.paper_pairs == capacity]
            if match:
                accs[window] = match[0].accuracy
        if len(accs) == 2 and accs[shortest] < accs[longest] - tol:
            problems.append(
                f"{capacity}: {shortest} window less accurate than {longest}"
            )
    return problems
