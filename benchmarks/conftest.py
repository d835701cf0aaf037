"""Benchmark harness plumbing.

Each bench module regenerates one of the paper's tables/figures and
registers a formatted report via the ``report`` fixture; the reports
are printed in the terminal summary so they survive pytest's output
capture and land in ``bench_output.txt``.

Shared workload fixtures are session-scoped: trace generation dominates
wall-clock otherwise.
"""

from __future__ import annotations

import pytest

from repro.traffic.datacenter import DatacenterConfig, DatacenterWorkload
from repro.traffic.tcpgen import TcpAnomalyConfig, clean_sequence_table, inject_tcp_anomalies

_REPORTS: list[tuple[str, str]] = []


@pytest.fixture(scope="session")
def report():
    """Register a named report to print after the benchmark table."""

    def _record(title: str, text: str) -> None:
        _REPORTS.append((title, text))

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 78)
    terminalreporter.write_line("PAPER ARTIFACT REPRODUCTIONS")
    terminalreporter.write_line("=" * 78)
    for title, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {title} ---")
        for line in text.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def dc_trace():
    """Datacenter trace with planted TCP anomalies and drops
    (~90 k records) — every Fig. 2 query has something to find."""
    workload = DatacenterWorkload(DatacenterConfig(
        n_flows=400, duration_ns=200_000_000, seed=16))
    table = workload.observation_table()
    clean_sequence_table(table)
    inject_tcp_anomalies(table, TcpAnomalyConfig(
        retransmit_rate=0.01, reorder_rate=0.01, duplicate_rate=0.002))
    # Plant ~0.5% drops (tout = +inf) so the loss-rate and high-latency
    # queries return non-empty results.
    table.columns()["tout"][199::200] = float("inf")
    return table


@pytest.fixture(scope="session")
def small_trace():
    """A small trace for per-run benchmark timings (~12 k records)."""
    workload = DatacenterWorkload(DatacenterConfig(
        n_flows=80, duration_ns=30_000_000, seed=7))
    table = workload.observation_table()
    clean_sequence_table(table)
    return table
