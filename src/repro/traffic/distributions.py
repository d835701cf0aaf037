"""Random distributions used by the workload generators.

All samplers take an explicit :class:`numpy.random.Generator` so every
trace is reproducible from a seed.  The generators model the well-known
shape of Internet/datacenter traffic:

* flow sizes are heavy-tailed — most flows are mice, most packets
  belong to elephants (bounded Zipf / discrete Pareto);
* packet sizes are bimodal (small ACK-ish packets and near-MTU data
  packets), parameterised to hit a target mean such as the 850 B
  average of Benson et al. [16];
* inter-arrivals are exponential (Poisson process) within a flow.
"""

from __future__ import annotations

import numpy as np


def bounded_zipf(rng: np.random.Generator, n: int, alpha: float,
                 low: int, high: int) -> np.ndarray:
    """``n`` samples from a Zipf-like power law truncated to
    ``[low, high]`` via inverse-CDF sampling.

    ``alpha`` is the tail exponent (larger ⇒ lighter tail).  Used for
    flow sizes in packets.
    """
    if low < 1 or high < low:
        raise ValueError(f"invalid support [{low}, {high}]")
    support = np.arange(low, high + 1, dtype=np.float64)
    weights = support ** (-alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    u = rng.random(n)
    idx = np.searchsorted(cdf, u)
    return (idx + low).astype(np.int64)


def bimodal_packet_sizes(rng: np.random.Generator, n: int,
                         small: int = 64, large: int = 1500,
                         mean: float = 850.0) -> np.ndarray:
    """Bimodal packet sizes with a target mean.

    A fraction ``p`` of packets are ``large`` and the rest ``small``,
    with ``p`` chosen so the expectation equals ``mean``.
    """
    if not small <= mean <= large:
        raise ValueError(f"mean {mean} outside [{small}, {large}]")
    p_large = (mean - small) / (large - small)
    is_large = rng.random(n) < p_large
    sizes = np.where(is_large, large, small)
    return sizes.astype(np.int64)


def exponential_gaps(rng: np.random.Generator, n: int, mean_ns: float) -> np.ndarray:
    """``n`` exponential inter-arrival gaps (integer ns, ≥ 1)."""
    gaps = rng.exponential(mean_ns, n)
    return np.maximum(1, np.round(gaps)).astype(np.int64)
