#!/usr/bin/env python
"""Incast diagnosis — the paper's motivating scenario (§1, §5).

"Using TPP/INT, it is hard to track which applications contribute to
TCP incast at a particular queue" — with per-queue observations and the
query language it takes three declarative queries:

1. find queues with persistently high occupancy (Fig. 2, last row);
2. find which sources contribute packets while that queue is deep;
3. localise the resulting loss.

The scenario: 24 synchronized senders answer one aggregator through a
single switch; their bursts collide at the aggregator's egress queue.

Run:  python examples/incast_diagnosis.py
"""

from repro import CacheGeometry, QueryEngine
from repro.traffic.incast import IncastConfig, generate_incast

GEOMETRY = CacheGeometry.set_associative(512, ways=8)

FIND_HOT_QUEUES = """
def perc ((tot, high), qin):
    if qin > K:
        high = high + 1
    tot = tot + 1

R1 = SELECT qid, perc GROUPBY qid
R2 = SELECT * FROM R1 WHERE perc.high/perc.tot > 0.01
"""

FIND_CONTRIBUTORS = """
SELECT COUNT GROUPBY srcip, qid WHERE qid == HOT and qin > D
"""

LOCALISE_LOSS = """
SELECT COUNT GROUPBY qid WHERE tout == infinity
"""


def main() -> None:
    scenario = generate_incast(IncastConfig(n_senders=24, rounds=5))
    table = scenario.table
    print(f"simulated {len(table)} packet observations; "
          f"{scenario.drops} drops; peak queue depth {scenario.peak_depth}\n")

    # Step 1: which queues are persistently deep?
    hot = QueryEngine(FIND_HOT_QUEUES, params={"K": 16},
                      geometry=GEOMETRY).run(table)
    hot_queues = [int(row["qid"]) for row in hot.result]
    print(f"queues with p99 depth over threshold: {hot_queues}")
    assert scenario.hotspot_qid in hot_queues
    hotspot = scenario.hotspot_qid

    # Step 2: who is filling that queue?
    contributors = QueryEngine(
        FIND_CONTRIBUTORS, params={"HOT": hotspot, "D": 16},
        geometry=GEOMETRY).run(table)
    ranked = sorted(contributors.result.rows, key=lambda r: -r["COUNT"])
    print(f"\ntop contributors at queue {hotspot} while deep:")
    for row in ranked[:8]:
        tag = "incast sender" if row["srcip"] in scenario.sender_ips else "background"
        print(f"  srcip={row['srcip']:#x}  pkts={row['COUNT']:<5} ({tag})")

    # Step 3: where did the loss happen?
    loss = QueryEngine(LOCALISE_LOSS, geometry=GEOMETRY).run(table)
    print("\ndrops by queue:")
    for row in loss.result.sort_key():
        print(f"  qid={int(row['qid'])}  drops={row['COUNT']}")
    assert [int(r["qid"]) for r in loss.result] == [hotspot]
    print(f"\ndiagnosis: incast at queue {hotspot}, "
          f"driven by {len(scenario.sender_ips)} synchronized senders.")


if __name__ == "__main__":
    main()
