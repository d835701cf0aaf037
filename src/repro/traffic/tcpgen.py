"""TCP sequence-number dynamics: loss, retransmission, reordering.

The Fig. 2 queries ``TCP out of sequence`` and ``TCP non-monotonic``
observe sequence-number anomalies.  This module perturbs a clean
per-flow sequence progression with the three classic anomaly sources:

* *drops + retransmissions* — a lost segment is re-sent later with its
  original (lower-than-maximum) sequence number → non-monotonic;
* *reordering* — adjacent segments swap in the observation stream →
  both out-of-sequence and non-monotonic;
* *duplicates* — a segment appears twice (spurious retransmit).

Both functions here rewrite a table's ``tcpseq`` / ``payload_len``
columns in place, so any generator's output can be "TCP-ified" for the
catalog queries.  A TCP flow is the set of ``proto == 6`` rows sharing
a five-tuple, taken in stream order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.schema import FIVE_TUPLE
from repro.core.vector_exec import factorize
from repro.network.records import ObservationTable

from .flows import per_flow_prefix


@dataclass(frozen=True)
class TcpAnomalyConfig:
    """Anomaly injection rates (per packet)."""

    retransmit_rate: float = 0.01
    reorder_rate: float = 0.01
    duplicate_rate: float = 0.002
    seed: int = 7


def inject_tcp_anomalies(table: ObservationTable,
                         config: TcpAnomalyConfig | None = None) -> dict[str, int]:
    """Inject sequence anomalies into the TCP flows of ``table``.

    Returns counters of injected events, useful for asserting that the
    catalog queries detect what was planted.

    Flows are visited in order of first appearance; each flow of three
    or more packets draws one uniform per packet, and every packet but
    the first and last may become (rates from ``config``, tried in this
    order):

    * *retransmit*: its sequence number and payload repeat the segment
      two packets back in its flow (models a re-sent loss);
    * *reorder*: it swaps sequence number and payload with its flow's
      next packet;
    * *duplicate*: its sequence number and payload are replayed on its
      flow's next packet.

    Later packets see earlier rewrites, so the pass is sequential over
    Python lists, written back to the columns at the end.
    """
    config = config or TcpAnomalyConfig()
    rng = np.random.default_rng(config.seed)
    columns = table.columns()
    tcp = np.flatnonzero(columns["proto"] == 6)
    gid, _, n_flows = factorize([columns[f][tcp] for f in FIVE_TUPLE])
    # Each flow's row indices in stream order, flow after flow.
    rows = tcp[np.argsort(gid, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(gid, minlength=n_flows)).tolist()
    seq = columns["tcpseq"].tolist()
    pay = columns["payload_len"].tolist()

    counts = {"retransmit": 0, "reorder": 0, "duplicate": 0}
    start = 0
    for end in ends:
        indices, start = rows[start:end], end
        if len(indices) < 3:
            continue
        u = rng.random(len(indices))
        for pos in range(1, len(indices) - 1):
            idx = indices[pos]
            next_idx = indices[pos + 1]
            roll = u[pos]
            if roll < config.retransmit_rate:
                # Re-send an *older* segment: by now the flow's maximum
                # sequence is the previous packet's, so replaying the
                # segment before it lands strictly below the maximum
                # (what the paper's ``nonmt`` fold detects).
                older_idx = indices[max(pos - 2, 0)]
                seq[idx], pay[idx] = seq[older_idx], pay[older_idx]
                counts["retransmit"] += 1
            elif roll < config.retransmit_rate + config.reorder_rate:
                seq[idx], seq[next_idx] = seq[next_idx], seq[idx]
                pay[idx], pay[next_idx] = pay[next_idx], pay[idx]
                counts["reorder"] += 1
            elif roll < (config.retransmit_rate + config.reorder_rate
                         + config.duplicate_rate):
                seq[next_idx], pay[next_idx] = seq[idx], pay[idx]
                counts["duplicate"] += 1
    columns["tcpseq"][:] = seq
    columns["payload_len"][:] = pay
    return counts


def clean_sequence_table(table: ObservationTable) -> None:
    """Rewrite every TCP flow's sequence numbers to the paper's
    "consecutive" convention (``tcpseq == lastseq + 1`` where
    ``lastseq = prev.tcpseq + prev.payload_len``), so that the
    ``outofseq`` query reports 0 on an anomaly-free trace.

    The Fig. 2 fold defines in-sequence as ``lastseq + 1 == tcpseq``;
    generators that emit standard cumulative TCP numbering (next seq ==
    prev seq + payload) would register every packet as out-of-sequence
    under that convention, so catalog tests normalise with this helper
    before injecting anomalies.  Each flow's first packet gets 1000;
    the rewrite is one segmented prefix sum over the ``tcpseq`` column.
    """
    columns = table.columns()
    tcp = np.flatnonzero(columns["proto"] == 6)
    if len(tcp) == 0:
        return
    gid, _, _ = factorize([columns[f][tcp] for f in FIVE_TUPLE])
    increments = columns["payload_len"][tcp] + 1
    columns["tcpseq"][tcp] = per_flow_prefix(gid, increments, start=1000)
