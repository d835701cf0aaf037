"""A-2 — merge-strategy ablation and overhead.

Quantifies what each §3.2 merge strategy costs in the data path and
what it buys in the backing store:

* **additive** (counters): no aux state, exact;
* **scale** (EWMA): one product register per variable, exact;
* **matrix** (cross-coupled states): k² product registers, exact;
* **list** (non-linear): no merge — valid keys only;
* **exact-history** (outofseq with replay log): small per-entry log,
  upgrades a bounded-error fold to exact.

The table reports per-packet processing time through the full split
store and result fidelity vs ground truth at high eviction pressure.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.core.compiler import CompileOptions, compile_program
from repro.core.interpreter import Interpreter
from repro.core.parser import parse_program
from repro.core.semantics import resolve_program
from repro.switch.kvstore.cache import CacheGeometry
from repro.switch.pipeline import SessionConfig, SwitchPipeline
from repro.telemetry.results import compare_tables

GEOMETRY = CacheGeometry.set_associative(16, ways=4)   # heavy eviction


def interleaved_trace(n_packets: int = 20_000, n_flows: int = 60,
                      seed: int = 11):
    """Adversarially interleaved flows: every flow stays active for the
    whole trace, so a 16-pair cache must constantly evict — the regime
    that stresses the merge machinery."""
    import random

    from repro.network.records import ObservationTable, PacketRecord

    rng = random.Random(seed)
    records = []
    seqs = {}
    t = 0
    for i in range(n_packets):
        flow = rng.randrange(n_flows)
        t += rng.randrange(5, 50)
        payload = rng.choice([0, 100, 1460])
        seq = seqs.get(flow, 1000)
        seqs[flow] = seq + payload + 1
        records.append(PacketRecord(
            srcip=flow, dstip=1, srcport=flow, dstport=80, proto=6,
            pkt_len=payload + 40, payload_len=payload, tcpseq=seq,
            pkt_id=i, qid=0, tin=t, tout=float(t + rng.randrange(50, 5000)),
            qin=rng.randrange(0, 32), qout=0, qsize=0, pkt_path=0))
    return ObservationTable(records)

CASES = {
    "additive (COUNT+SUM)": (
        "SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple", {}, False),
    "scale (EWMA)": (
        "def ewma (e, (tin, tout)): e = (1 - alpha) * e + alpha * (tout - tin)\n"
        "SELECT 5tuple, ewma GROUPBY 5tuple", {"alpha": 0.2}, False),
    "matrix (coupled)": (
        "def f ((a, b), pkt_len):\n"
        "    a = a + b\n"
        "    b = b + pkt_len\n"
        "SELECT 5tuple, f GROUPBY 5tuple", {}, False),
    "list (nonmt)": (
        "def nonmt ((maxseq, nm), tcpseq):\n"
        "    if maxseq > tcpseq: nm = nm + 1\n"
        "    maxseq = max(maxseq, tcpseq)\n"
        "SELECT 5tuple, nonmt GROUPBY 5tuple", {}, False),
    "exact-history (outofseq)": (
        "def outofseq ((lastseq, oos), (tcpseq, payload_len)):\n"
        "    if lastseq + 1 != tcpseq: oos = oos + 1\n"
        "    lastseq = tcpseq + payload_len\n"
        "SELECT 5tuple, outofseq GROUPBY 5tuple", {}, True),
}


def run_case(source, params, exact_history, records):
    rp = resolve_program(parse_program(source))
    program = compile_program(rp, CompileOptions(exact_history=exact_history))
    pipeline = SwitchPipeline(program, params=params,
                              config=SessionConfig(geometry=GEOMETRY))
    pipeline.run(records)
    return rp, program, pipeline


@pytest.fixture(scope="module")
def ablation(report):
    records = interleaved_trace()
    rows = []
    for label, (source, params, exact_history) in CASES.items():
        import time
        rp, program, pipeline = None, None, None
        start = time.perf_counter()
        rp, program, pipeline = run_case(source, params, exact_history, records)
        elapsed = time.perf_counter() - start
        stage = program.groupby_stages[0]
        store = pipeline.store_for(rp.result)
        truth = Interpreter(rp, params=params).run_result(records)
        hardware = pipeline.results()[rp.result]
        diff = compare_tables(hardware, truth, rel_tol=1e-6)
        if stage.mergeable:
            fidelity = "exact" if diff.exact else f"{diff.cell_accuracy:.1%}"
        else:
            fidelity = f"{store.accuracy():.1%} keys valid"
        rows.append([
            label,
            stage.folds[0].merge.strategy,
            stage.value.aux_bits,
            f"{1e9 * elapsed / len(records):,.0f}",
            f"{100 * store.stats.eviction_fraction:.1f}%",
            fidelity,
        ])
    text = format_table(
        ["fold", "strategy", "aux bits", "ns/pkt", "evict%", "fidelity"],
        rows,
        title=f"A-2 — merge strategies at heavy eviction "
              f"({GEOMETRY.describe()}, {len(records)} pkts)",
    )
    report("A-2: merge-strategy ablation", text)
    return rows


def test_all_mergeable_strategies_exact(ablation):
    for row in ablation:
        if row[1] in ("additive", "scale", "matrix"):
            assert row[5] == "exact", row
        if row[0].startswith("exact-history"):
            assert row[5] == "exact", row


def test_aux_cost_ordering(ablation):
    by_label = {row[0]: row for row in ablation}
    assert by_label["additive (COUNT+SUM)"][2] == 0
    assert by_label["scale (EWMA)"][2] > 0
    assert by_label["matrix (coupled)"][2] > by_label["scale (EWMA)"][2]


@pytest.mark.parametrize("label", list(CASES), ids=list(CASES))
def test_strategy_throughput(benchmark, small_trace, label, ablation):
    source, params, exact_history = CASES[label]
    records = small_trace[:5000]

    def run():
        return run_case(source, params, exact_history, records)

    rp, _program, pipeline = benchmark.pedantic(run, rounds=3, iterations=1)
    assert pipeline.packets_seen == len(records)
