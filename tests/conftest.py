"""Shared fixtures: deterministic small traces and query helpers."""

from __future__ import annotations

import random

import pytest

from repro.network.records import ObservationTable, PacketRecord, as_table


def make_record(**kwargs) -> PacketRecord:
    """A record with sane defaults, overridable per test."""
    defaults = dict(
        srcip=0x0A000001, dstip=0x0A000002, srcport=1234, dstport=80,
        proto=6, pkt_len=100, payload_len=60, tcpseq=1000, pkt_id=0,
        qid=0, tin=0, tout=100.0, qin=0, qout=0, qsize=0, pkt_path=0,
    )
    defaults.update(kwargs)
    return PacketRecord(**defaults)


def synthetic_trace(n_packets: int = 5000, n_flows: int = 50,
                    seed: int = 1, drop_rate: float = 0.01,
                    n_queues: int = 2) -> ObservationTable:
    """A deterministic multi-flow trace with drops and latency spread."""
    rng = random.Random(seed)
    records = []
    t = 0
    seqs: dict[int, int] = {}
    for i in range(n_packets):
        flow = rng.randrange(n_flows)
        t += rng.randrange(10, 200)
        payload = rng.choice([0, 100, 1460])
        seq = seqs.get(flow, 1000)
        seqs[flow] = seq + payload + 1
        dropped = rng.random() < drop_rate
        delay = rng.randrange(100, 2_000_000)
        records.append(PacketRecord(
            srcip=0x0A000000 + flow,
            dstip=0x0B000000 + (flow % 7),
            srcport=1024 + flow,
            dstport=80 if flow % 3 else 443,
            proto=6 if flow % 5 else 17,
            pkt_len=payload + 40,
            payload_len=payload,
            tcpseq=seq,
            pkt_id=i,
            qid=flow % n_queues,
            tin=t,
            tout=float("inf") if dropped else float(t + delay),
            qin=rng.randrange(0, 40),
            qout=rng.randrange(0, 40),
            qsize=rng.randrange(0, 40),
            pkt_path=flow % 3,
        ))
    return ObservationTable(records)


def oracle_tables(engine, records) -> dict:
    """Exact evaluation of ``engine``'s program by the executor its
    ``engine`` knob picks — the interpreter on ``"row"``, the
    vectorized executor otherwise — with no store involved: the oracle
    that both the hardware path and ``run_exact`` are held to."""
    return engine._executor().run(as_table(records))


@pytest.fixture(scope="session")
def trace() -> ObservationTable:
    """Session-wide deterministic trace (5 k packets, 50 flows)."""
    return synthetic_trace()


@pytest.fixture(scope="session")
def tiny_trace() -> ObservationTable:
    """A very small trace for quick structural tests."""
    return synthetic_trace(n_packets=200, n_flows=8, seed=3)
