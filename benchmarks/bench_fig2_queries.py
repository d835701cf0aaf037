"""FIG2 — the Fig. 2 example-query table.

Regenerates the paper's query table end-to-end: every query is
compiled, run through the switch hardware model on a datacenter trace
with planted anomalies, checked against ``run_exact`` (the same
pipeline on a cache that never evicts, exact for every fold), and
its linear-in-state verdict compared with the paper's column.

Benchmark timings measure the full telemetry run (compile once, stream
the small trace through cache + backing store).
"""

from __future__ import annotations

import pytest

from repro.analysis.report import deployability_table, format_table
from repro.queries.catalog import FIG2_QUERIES, get
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.results import compare_tables
from repro.telemetry.runtime import QueryEngine

GEOMETRY = CacheGeometry.set_associative(512, ways=8)


@pytest.fixture(scope="module", autouse=True)
def fig2_table(report, dc_trace):
    """Build and register the Fig. 2 reproduction table."""
    rows = []
    for entry in FIG2_QUERIES:
        engine = QueryEngine(entry.source, params=entry.default_params,
                             geometry=GEOMETRY, exact_history=True)
        info = engine.info()
        run = engine.run(dc_trace, with_ground_truth=True)
        truth = run.ground_truth[run.result_name]
        if run.result.schema.keyed and truth.schema.keyed:
            diff = compare_tables(run.result, truth, rel_tol=1e-6)
            fidelity = "exact" if diff.exact else f"{diff.cell_accuracy:.1%} cells"
        else:
            fidelity = "exact" if len(run.result) == len(truth) else "rows differ"
        rows.append([
            entry.name,
            "Yes" if entry.linear_in_state else "No",
            "Yes" if info.fully_linear else "No",
            "OK" if info.fully_linear == entry.linear_in_state else "MISMATCH",
            len(run.result),
            fidelity,
        ])
    text = format_table(
        ["query", "paper linear?", "ours", "verdict", "rows", "vs ground truth"],
        rows,
        title="Fig. 2 — example performance queries (hardware path vs exact)",
    )
    report("FIG2: query table", text)
    return rows


@pytest.fixture(scope="module", autouse=True)
def fig2_deployability(report):
    """The static analyzer's verdicts over the same catalog: the
    deployability table must be error-free and its mergeability column
    must reproduce the paper's linear-in-state column."""
    analyses = {}
    for entry in FIG2_QUERIES:
        engine = QueryEngine(entry.source, params=entry.default_params,
                             geometry=GEOMETRY)
        analysis = engine.analyze()
        assert not analysis.report.has_errors, entry.name
        mergeable = all(s.mergeable for s in analysis.stages)
        assert mergeable == entry.linear_in_state, entry.name
        analyses[entry.name] = analysis
    report("FIG2: compile-time deployability (repro lint)",
           deployability_table(analyses))
    return analyses


def _bench_entry(benchmark, small_trace, name, **engine_kwargs):
    entry = get(name)
    engine = QueryEngine(entry.source, params=entry.default_params,
                         geometry=GEOMETRY, **engine_kwargs)

    def run():
        return engine.run(small_trace)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result.result) >= 0


def test_fig2_per_flow_counters(benchmark, small_trace):
    _bench_entry(benchmark, small_trace, "per_flow_counters")


def test_fig2_latency_ewma(benchmark, small_trace):
    _bench_entry(benchmark, small_trace, "latency_ewma")


def test_fig2_tcp_out_of_sequence(benchmark, small_trace):
    _bench_entry(benchmark, small_trace, "tcp_out_of_sequence")


def test_fig2_tcp_non_monotonic(benchmark, small_trace):
    _bench_entry(benchmark, small_trace, "tcp_non_monotonic")


def test_fig2_per_flow_high_latency(benchmark, small_trace):
    _bench_entry(benchmark, small_trace, "per_flow_high_latency")


def test_fig2_per_flow_loss_rate(benchmark, small_trace):
    _bench_entry(benchmark, small_trace, "per_flow_loss_rate")


def test_fig2_high_p99_queue_size(benchmark, small_trace):
    _bench_entry(benchmark, small_trace, "high_p99_queue_size")
