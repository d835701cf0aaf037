"""Flow-level traffic modelling.

A *flow* is a transport 5-tuple plus its packet schedule.  The
generators in this package first draw a flow population (sizes, start
times, durations), then expand flows into per-packet arrays and merge
them into a single time-ordered packet sequence — the interleaving is
what drives cache behaviour in the Fig. 5/6 experiments, so it is
modelled explicitly rather than by shuffling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FlowSpec:
    """One flow's identity and schedule."""

    srcip: int
    dstip: int
    srcport: int
    dstport: int
    proto: int
    n_packets: int
    start_ns: int
    mean_gap_ns: float


def synth_flow_ids(rng: np.random.Generator, n_flows: int,
                   proto: int = 6) -> dict[str, np.ndarray]:
    """Random distinct 5-tuples as parallel arrays.

    Addresses are drawn from a /8-style space, ports from the ephemeral
    range; collisions are retried so all 5-tuples are distinct.
    """
    collected: list[np.ndarray] = []
    count = 0
    while count < n_flows:
        batch = max(1024, n_flows - count)
        a = rng.integers(0x0A000000, 0x0AFFFFFF, batch)
        b = rng.integers(0x0A000000, 0x0AFFFFFF, batch)
        sp = rng.integers(1024, 65535, batch)
        dp = rng.choice(np.array([80, 443, 8080, 5001, 6379, 9092]), batch)
        quad = np.stack([a, b, sp, dp], axis=1)
        quad = np.unique(quad, axis=0)
        rng.shuffle(quad, axis=0)
        collected.append(quad)
        count += len(quad)
    quads = np.concatenate(collected)[:n_flows]
    # Deduplicate across batches (collisions are astronomically rare in
    # this space; top up if any were removed).
    quads = np.unique(quads, axis=0)
    while len(quads) < n_flows:
        extra = rng.integers(0x0A000000, 0x0AFFFFFF, (n_flows - len(quads), 4))
        extra[:, 2] = rng.integers(1024, 65535, len(extra))
        extra[:, 3] = 443
        quads = np.unique(np.concatenate([quads, extra]), axis=0)
    quads = quads[:n_flows]
    protos = np.full(n_flows, proto, dtype=np.int64)
    return {"srcip": quads[:, 0], "dstip": quads[:, 1], "srcport": quads[:, 2],
            "dstport": quads[:, 3], "proto": protos}


def per_flow_prefix(flow_of: np.ndarray, increments: np.ndarray,
                    start: int = 0) -> np.ndarray:
    """Per-flow *exclusive* prefix sums in stream order.

    ``out[i] = start + Σ increments[j]`` over earlier packets ``j`` of
    packet ``i``'s flow — the vectorized form of the classic
    ``next_value[flow] += increment`` loop used for TCP sequence
    progressions.  Stable sort by flow keeps stream order within each
    flow, so results match the sequential loop exactly (integer
    arithmetic throughout).
    """
    n = len(flow_of)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(flow_of, kind="stable")
    inc_sorted = increments[order].astype(np.int64)
    exclusive = np.cumsum(inc_sorted) - inc_sorted
    flow_sorted = flow_of[order]
    starts = np.zeros(n, dtype=bool)
    starts[0] = True
    starts[1:] = flow_sorted[1:] != flow_sorted[:-1]
    base = exclusive[starts]
    segment = np.cumsum(starts) - 1
    out = np.empty(n, dtype=np.int64)
    out[order] = start + exclusive - base[segment]
    return out


def expand_flows_to_packets(
    rng: np.random.Generator,
    flow_sizes: np.ndarray,
    flow_starts: np.ndarray,
    mean_gaps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-flow schedules into a merged packet sequence.

    Args:
        flow_sizes: Packets per flow.
        flow_starts: Flow start times (ns).
        mean_gaps: Mean in-flow packet gap (ns) per flow.

    Returns:
        ``(flow_index, time_ns)`` arrays sorted by time: for each
        packet, which flow it belongs to and when it arrives.
    """
    n_packets = int(flow_sizes.sum())
    flow_index = np.repeat(np.arange(len(flow_sizes), dtype=np.int64), flow_sizes)
    # Exponential gaps per packet, scaled by the owning flow's mean gap.
    gaps = rng.exponential(1.0, n_packets) * mean_gaps[flow_index]
    gaps = np.maximum(1.0, gaps)
    # Per-flow cumulative sums: global cumsum minus the offset at each
    # flow boundary (standard segmented-cumsum trick).
    csum = np.cumsum(gaps)
    boundaries = np.zeros(len(flow_sizes) + 1, dtype=np.int64)
    np.cumsum(flow_sizes, out=boundaries[1:])
    # Offset per flow: csum value just before the flow's first packet.
    starts_idx = boundaries[:-1]
    offsets = np.where(starts_idx > 0, csum[starts_idx - 1], 0.0)
    per_flow_elapsed = csum - np.repeat(offsets, flow_sizes)
    times = np.repeat(flow_starts.astype(np.float64), flow_sizes) + per_flow_elapsed
    order = np.argsort(times, kind="stable")
    return flow_index[order], times[order].astype(np.int64)
