"""Compile-time deployability analyzer tests.

The analyzer PR's acceptance criteria: every hard diagnostic
(``RPR-E*``) is raised at compile/open time — before a shard worker
forks or a served session admits — with a test per code; and the
static verdicts must *agree with the runtime*:

* the stages the analyzer calls non-shardable are exactly those
  :class:`~repro.switch.kvstore.sharded.ShardedStoreProxy` routes
  whole-stream to one worker (catalog x policies differential);
* traces over the inferred int64 bound trigger the vector engine's
  scalar-replay fallback, and none below it do (overflow
  differential at the exact boundary).

Plus: the registry's internal consistency, warning/info emission
(W101/W102/W103/W401/I402), report plumbing onto engines, sessions
and servers, and the served ``REJECT`` frame carrying the code.
"""

import time
import warnings

import numpy as np
import pytest

from repro.core.analyze import (
    DEFAULT_AREA_BUDGET,
    TraceBounds,
    session_diagnostics,
)
from repro.core.errors import HardwareError
from repro.network.records import ObservationTable
from repro.queries.catalog import ALL_QUERIES, FIG2_QUERIES
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry import QueryEngine
from repro.telemetry.diagnostics import (
    CODES,
    DiagnosticsReport,
    diagnostic_code,
    exc_message,
    make,
    render,
)

from tests.conftest import oracle_tables, synthetic_trace

GEOM = CacheGeometry.set_associative(128, ways=4)
QUERY = "SELECT COUNT, SUM(pkt_len) GROUPBY srcip"

#: 8 Mi pairs at the 5-tuple+COUNT layout = 1 Gbit, ~77% of the die —
#: §4's "hold all flows on-chip" rejection, well over the 25% budget.
HUGE_GEOM = CacheGeometry.set_associative(8_388_608, ways=8)


def codes_of(report):
    return [d.code for d in report]


# -- registry consistency -----------------------------------------------------


class TestRegistry:
    def test_severity_matches_code_letter(self):
        family = {"E": "error", "W": "warning", "I": "info", "C": "error"}
        for code, info in CODES.items():
            assert info.severity == family[code[4]], code

    def test_slugs_unique(self):
        slugs = [info.slug for info in CODES.values()]
        assert len(slugs) == len(set(slugs))

    def test_when_is_known_phase(self):
        assert all(info.when in ("open", "compile", "runtime", "check")
                   for info in CODES.values())

    def test_errors_and_warnings_carry_fix_hints(self):
        for info in CODES.values():
            if info.severity in ("error", "warning"):
                assert info.fix, f"{info.code} has no fix hint"

    def test_exc_message_roundtrips_through_diagnostic_code(self):
        msg = exc_message("RPR-E004", window=-3)
        assert msg.startswith("[RPR-E004] ")
        assert diagnostic_code(msg) == "RPR-E004"
        assert diagnostic_code("no code here") is None

    def test_render_interpolates_context(self):
        assert "-3" in render("RPR-E004", window=-3)
        assert "'gpu'" in render("RPR-E008", engines=("auto",), engine="gpu")

    def test_make_carries_stage_into_template(self):
        diag = make("RPR-W102", stage="__result__")
        assert diag.stage == "__result__"
        assert "'__result__'" in diag.message
        assert diag.fix_hint == CODES["RPR-W102"].fix

    def test_report_partitions_and_formats(self):
        report = DiagnosticsReport((
            make("RPR-I301", stage="s", pairs=1, pair_bits=2, mbit=0.1,
                 pct=0.1, chip=200.0),
            make("RPR-E001"),
            make("RPR-W102", stage="s"),
        ))
        assert report.has_errors
        assert report.first_error.code == "RPR-E001"
        assert codes_of(report.errors) == ["RPR-E001"]
        assert codes_of(report.warnings) == ["RPR-W102"]
        assert codes_of(report.infos) == ["RPR-I301"]
        text = report.format()
        assert text.splitlines()[0].startswith("RPR-E001")  # errors first
        assert "1 error(s), 1 warning(s), 1 info(s)" in text
        assert report.to_json()["errors"] == 1

    def test_every_code_is_documented(self):
        """DIAGNOSTICS.md is the operator-facing table; a code missing
        from it is a code nobody can look up."""
        from pathlib import Path

        doc = (Path(__file__).resolve().parent.parent
               / "DIAGNOSTICS.md").read_text()
        for code in CODES:
            assert f"`{code}`" in doc, f"{code} missing from DIAGNOSTICS.md"

    def test_empty_report_is_deployable(self):
        report = DiagnosticsReport()
        assert not report.has_errors
        assert report.first_error is None
        assert "deployable" in report.format()


# -- the session/engine compatibility matrix ----------------------------------


#: One bad session-knob combination per row, with the code it draws.
BAD_KNOBS = [
    (dict(engine="gpu"), "RPR-E008"),
    (dict(window=0), "RPR-E004"),
    (dict(window=-7), "RPR-E004"),
    (dict(shards=0), "RPR-E005"),
    (dict(engine="row", shards=2), "RPR-E001"),
    (dict(shards=2, refresh_interval=100), "RPR-E002"),
]

#: The knobs of BAD_KNOBS that QueryEngine(...) takes; open()/serve()
#: take the rest.
ENGINE_KNOBS = ("engine", "refresh_interval")

#: The rows the session checker owns; QueryEngine itself checks its
#: engine knob (E008) and refuses sessions on the row reference (E001).
SESSION_BAD_KNOBS = [(knobs, code) for knobs, code in BAD_KNOBS
                     if "engine" not in knobs]


class TestSessionMatrix:
    def test_valid_combinations_are_clean(self):
        assert session_diagnostics() == []
        assert session_diagnostics(window=100) == []
        assert session_diagnostics(window=100, shards=4) == []
        assert session_diagnostics(window=100, refresh_interval=50) == []

    @pytest.mark.parametrize("knobs, expected", SESSION_BAD_KNOBS,
                             ids=lambda v: str(v))
    def test_bad_combination_yields_code(self, knobs, expected):
        diags = session_diagnostics(**knobs)
        assert expected in [d.code for d in diags]

    def test_unwindowed_sessions_are_clean(self):
        """Without a window a session still answers mid-stream
        results(), so no knob combination draws a caveat."""
        assert session_diagnostics(shards=2) == []
        assert session_diagnostics(refresh_interval=50) == []


# -- hard errors gate open()/construction (one test per RPR-E code) -----------


class TestOpenTimeGates:
    @pytest.mark.parametrize("entry, knobs, expected", [
        (entry, knobs, expected)
        for entry in ("open", "serve") for knobs, expected in BAD_KNOBS
    ], ids=lambda v: str(v))
    def test_runtime_agrees_with_analyzer(self, entry, knobs, expected):
        """Every runtime entry point raises the analyzer's code for
        every bad row, as the type it raised before the codes shared
        one checker: HardwareError for E001/E002, ValueError else."""
        engine_knobs = {k: v for k, v in knobs.items() if k in ENGINE_KNOBS}
        session_knobs = {k: v for k, v in knobs.items()
                         if k not in ENGINE_KNOBS}
        legacy = (HardwareError if expected in ("RPR-E001", "RPR-E002")
                  else ValueError)
        with pytest.raises(legacy) as err:
            engine = QueryEngine(QUERY, geometry=GEOM, **engine_knobs)
            getattr(engine, entry)(**session_knobs)
        assert diagnostic_code(err.value) == expected

    def test_e008_unknown_engine_at_construction(self):
        with pytest.raises(ValueError) as err:
            QueryEngine(QUERY, geometry=GEOM, engine="gpu")
        assert diagnostic_code(err.value) == "RPR-E008"

    def test_e004_invalid_window(self):
        engine = QueryEngine(QUERY, geometry=GEOM)
        for window in (0, -1):
            with pytest.raises(ValueError, match="window must be a positive") as err:
                engine.open(window=window)
            assert diagnostic_code(err.value) == "RPR-E004"

    def test_e005_invalid_shards(self):
        engine = QueryEngine(QUERY, geometry=GEOM)
        with pytest.raises(ValueError, match="shards must be a positive") as err:
            engine.open(shards=0)
        assert diagnostic_code(err.value) == "RPR-E005"

    def test_e001_row_engine_is_one_shot(self):
        engine = QueryEngine(QUERY, geometry=GEOM, engine="row")
        with pytest.raises(HardwareError, match="one-shot") as err:
            engine.open()
        assert diagnostic_code(err.value) == "RPR-E001"

    def test_e002_refresh_cannot_shard(self):
        engine = QueryEngine(QUERY, geometry=GEOM, refresh_interval=100)
        with pytest.raises(HardwareError) as err:
            engine.open(shards=2)
        assert diagnostic_code(err.value) == "RPR-E002"

    def test_e301_oversized_cache_rejected_at_open(self):
        engine = QueryEngine("SELECT COUNT GROUPBY 5tuple",
                             geometry=HUGE_GEOM)
        # Construction only records the verdict; open() enforces it.
        assert "RPR-E301" in codes_of(engine.diagnostics_report.errors)
        with pytest.raises(HardwareError, match="will not fit") as err:
            engine.open()
        assert diagnostic_code(err.value) == "RPR-E301"

    def test_e301_does_not_gate_run_exact(self):
        """run_exact's never-evicting cache is never deployed, so the
        engine's oversized geometry does not stop it."""
        engine = QueryEngine("SELECT COUNT GROUPBY 5tuple",
                             geometry=HUGE_GEOM)
        trace = synthetic_trace(50, seed=3)
        assert engine.run_exact(trace)["__result__"].rows == \
            oracle_tables(engine, trace)["__result__"].rows

    def test_gate_fires_before_any_session_state(self):
        """A rejected open leaves the engine reusable."""
        engine = QueryEngine(QUERY, geometry=GEOM)
        with pytest.raises(ValueError):
            engine.open(window=-1)
        session = engine.open(window=100)
        session.ingest(synthetic_trace(50, seed=3))
        report = session.close()
        assert report.result.rows


# -- warning / info emission --------------------------------------------------


class TestEmission:
    def test_w101_non_mergeable_fold(self):
        entry = ALL_QUERIES["tcp_non_monotonic"]
        engine = QueryEngine(entry.source, params=entry.default_params,
                             geometry=GEOM)
        report = engine.diagnostics_report
        w101 = report.by_code("RPR-W101")
        assert len(w101) == 1
        assert "not linear in state" in w101[0].message
        assert not engine.analyze().stage(w101[0].stage).mergeable

    def test_w103_inexact_history_merge(self):
        entry = ALL_QUERIES["tcp_out_of_sequence"]
        engine = QueryEngine(entry.source, params=entry.default_params,
                             geometry=GEOM)
        w103 = engine.diagnostics_report.by_code("RPR-W103")
        assert len(w103) == 1
        assert "depth 1" in w103[0].message
        # exact_history repairs it
        exact = QueryEngine(entry.source, params=entry.default_params,
                            geometry=GEOM, exact_history=True)
        assert not exact.diagnostics_report.by_code("RPR-W103")

    def test_w102_single_bucket_geometry(self):
        engine = QueryEngine(QUERY,
                             geometry=CacheGeometry.fully_associative(64))
        session = engine.open(window=100, shards=2)
        try:
            assert session.diagnostics.by_code("RPR-W102")
            assert session._pipeline.store_for("__result__")._single
        finally:
            session.close()

    def test_w401_dead_stage(self):
        engine = QueryEngine(
            "R1 = SELECT COUNT GROUPBY srcip\n"
            "R2 = SELECT COUNT GROUPBY dstip",
            geometry=GEOM)
        analysis = engine.analyze()
        assert analysis.dead_stages == ("R1",)
        w401 = analysis.report.by_code("RPR-W401")
        assert len(w401) == 1 and "'R1'" in w401[0].message

    def test_i402_unused_fields(self):
        engine = QueryEngine(QUERY, geometry=GEOM)
        analysis = engine.analyze()
        i402 = analysis.report.by_code("RPR-I402")
        assert len(i402) == 1
        assert "tcpseq" in analysis.unused_fields
        assert "srcip" not in analysis.unused_fields
        assert "pkt_len" not in analysis.unused_fields

    def test_i301_budget_line_per_stage(self):
        entry = ALL_QUERIES["per_flow_loss_rate"]
        engine = QueryEngine(entry.source, geometry=GEOM)
        i301 = engine.diagnostics_report.by_code("RPR-I301")
        assert {d.stage for d in i301} == {"R1", "R2"}


# -- differential: shardability verdict vs the live sharded store -------------


class TestShardabilityDifferential:
    """`StageAnalysis.shardable` must equal `not ShardedStoreProxy._single`
    (and `.mergeable` must match) for every catalog query and policy."""

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @pytest.mark.parametrize("entry", list(ALL_QUERIES.values()),
                             ids=lambda e: e.name)
    def test_catalog_verdicts_match_runtime_routing(self, entry, policy):
        engine = QueryEngine(entry.source, params=entry.default_params,
                             geometry=GEOM, policy=policy)
        analysis = engine.analyze(shards=2)
        stages = engine.compiled.groupby_stages
        if not stages:
            assert analysis.stages == ()
            return
        session = engine.open(shards=2)
        try:
            for stage in stages:
                store = session._pipeline.store_for(stage.query_name)
                static = analysis.stage(stage.query_name)
                assert static.mergeable == store.mergeable, stage.query_name
                assert static.shardable == (not store._single), \
                    stage.query_name
                if not static.shardable:
                    assert static.serialize_cause is not None
        finally:
            session.close()

    def test_fig2_verdicts_match_paper_linearity_column(self):
        for entry in FIG2_QUERIES:
            engine = QueryEngine(entry.source, params=entry.default_params,
                                 geometry=GEOM)
            analysis = engine.analyze()
            mergeable = all(s.mergeable for s in analysis.stages)
            assert mergeable == entry.linear_in_state, entry.name


# -- differential: static overflow bound vs the runtime guard -----------------


class TestOverflowDifferential:
    """The analyzer and the runtime bound integers with one walker
    (`core/intbound.py`): for a sum, `|init| + N * max|B| >= 2^63`,
    the formula the runtime evaluates per batch.  On a trace of N
    constant-magnitude records the two must agree exactly."""

    QUERY = "SELECT SUM(pkt_len) GROUPBY srcip"

    @staticmethod
    def trace(records, magnitude):
        return ObservationTable.from_arrays({
            "srcip": np.zeros(records, dtype=np.int64),
            "pkt_len": np.full(records, magnitude, dtype=np.int64),
        })

    def verdict(self, engine, records, magnitude):
        analysis = engine.analyze(trace_bounds=TraceBounds(
            records=records, field_magnitude={"pkt_len": magnitude}))
        fold = analysis.stage("__result__").folds[0]
        assert fold.column == "SUM(pkt_len)"
        assert len(fold.overflow) == 1
        return fold.overflow[0]

    @pytest.mark.parametrize("records, magnitude, overflows", [
        (1, 2 ** 62, False),         # one record below the bound
        (2, 2 ** 62, True),          # exactly 2^63: guard uses >=
        (2, 2 ** 62 - 1, False),     # 2^63 - 2: largest safe total
        (3, 2 ** 62, True),
    ])
    def test_static_verdict_matches_runtime_fallback(
            self, records, magnitude, overflows):
        engine = QueryEngine(self.QUERY, geometry=GEOM)
        bound = self.verdict(engine, records, magnitude)
        assert bound.overflows == overflows
        assert bound.total_bound == records * magnitude

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = engine.run(self.trace(records, magnitude))
        warned = any("may exceed int64" in str(w.message) for w in caught)
        assert warned == overflows
        # Either path stays exact: the fallback replays in Python ints.
        assert report.result.rows[0]["SUM(pkt_len)"] == records * magnitude

    @staticmethod
    def nonzero_init():
        from repro.core.builder import field, fold, program, query
        f = fold("f", ["s"], ["pkt_len"]).init(s=3).let(
            "s", field("s") + field("pkt_len"))
        return program(folds=[f],
                       result=query().select("srcip", "f").groupby("srcip"))

    #: One fold per merge class — plain sum, nonzero init (the merge
    #: composes ``evicted + (backing - init)``), exact history, scale,
    #: round-major, and float state behind an integer predicate:
    #: (source, exact history, merge strategy, field magnitudes, the
    #: fewest records whose bound reaches 2^63 — ``None``: three records
    #: at any count, the magnitudes are the boundary).
    CLASSES = {
        "plain_sum": (
            "def ps (s, (pkt_len, qin)): s = s + pkt_len * qin\n"
            "SELECT srcip, ps GROUPBY srcip", False, "additive",
            {"pkt_len": 2 ** 31, "qin": 2 ** 30}, 4),
        "nonzero_init": (
            None, False, "additive", {"pkt_len": 2 ** 61}, 4),
        "exact_history": (
            "def h ((last, s), (tcpseq, pkt_len)):\n"
            "    if last != tcpseq: s = s + pkt_len\n"
            "    last = tcpseq\n"
            "SELECT srcip, h GROUPBY srcip", True, "additive",
            {"tcpseq": 7, "pkt_len": 2 ** 61}, 4),
        "scale": (
            "def sc (s, pkt_len): s = 2 * s + pkt_len\n"
            "SELECT srcip, sc GROUPBY srcip", False, "scale",
            {"pkt_len": 2 ** 58}, 6),
        "round_major": (
            "def rm (s, pkt_len):\n"
            "    if s >= 0 then s = s + pkt_len else s = s - pkt_len\n"
            "SELECT srcip, rm GROUPBY srcip", False, "list",
            {"pkt_len": 2 ** 61}, 4),
        "predicate_float": (
            "def pf (s, pkt_len):\n"
            "    if pkt_len * pkt_len > 5: s = s + 1.5\n"
            "SELECT srcip, pf GROUPBY srcip", False, "additive",
            {"pkt_len": 3037000500}, None),   # ceil(sqrt(2^63))
    }

    @pytest.mark.parametrize("below", [0, 1], ids=["boundary", "below"])
    @pytest.mark.parametrize("cls", sorted(CLASSES))
    def test_every_fold_class_agrees_at_the_boundary(self, cls, below):
        """W201 fires exactly when the runtime warns — through run(),
        run_exact() and a two-record window alike; one record (or one
        unit of magnitude) below the boundary both stay silent."""
        source, exact_history, strategy, magnitudes, boundary = \
            self.CLASSES[cls]
        if boundary is None:
            records = 3
            magnitudes = {name: m - below for name, m in magnitudes.items()}
        else:
            records = boundary - below
        engine = QueryEngine(source or self.nonzero_init(), geometry=GEOM,
                             exact_history=exact_history)
        analysis = engine.analyze(trace_bounds=TraceBounds(
            records=records, field_magnitude=magnitudes))
        fold = analysis.stage("__result__").folds[0]
        assert fold.strategy == strategy
        static = bool(analysis.report.by_code("RPR-W201"))
        assert static == (not below)
        trace = ObservationTable.from_arrays({
            "srcip": np.zeros(records, dtype=np.int64),
            **{name: np.full(records, m, dtype=np.int64)
               for name, m in magnitudes.items()}})
        want = QueryEngine(source or self.nonzero_init(), geometry=GEOM,
                           engine="row").run_exact(trace)["__result__"].rows

        def window():
            session = engine.open(window=2)
            session.ingest(trace)
            return session.close().tables

        for run in (lambda: engine.run(trace).tables,
                    lambda: engine.run_exact(trace), window):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tables = run()
            warned = any("may exceed int64" in str(w.message)
                         for w in caught)
            assert warned == static
            assert tables["__result__"].rows == want

    def test_w201_reports_the_safe_record_count(self):
        engine = QueryEngine(self.QUERY, geometry=GEOM)
        bound = self.verdict(engine, 2, 2 ** 62)
        assert bound.safe_records == 1   # (2^63 - 1) // 2^62
        analysis = engine.analyze(trace_bounds=TraceBounds(
            records=2, field_magnitude={"pkt_len": 2 ** 62}))
        w201 = analysis.report.by_code("RPR-W201")
        assert len(w201) == 1 and "safe up to 1 records" in w201[0].message

    def test_polynomial_growth_is_proven_for_the_iterated_rounds(self):
        """``s`` grows by ``c``, ``c`` by one: neither unit nor geometric
        growth.  The analyzer iterates a bounded number of rounds, not
        one per record, and proves no more than those."""
        source = ("def tri ((c, s), pkt_len):\n"
                  "    c = c + 1\n"
                  "    s = s + c\n"
                  "SELECT srcip, tri GROUPBY srcip")
        engine = QueryEngine(source, geometry=GEOM)
        started = time.perf_counter()
        analysis = engine.analyze(trace_bounds=TraceBounds(records=10 ** 12))
        assert time.perf_counter() - started < 5
        bounds = analysis.stage("__result__").folds[0].overflow
        assert {b.var for b in bounds} == {"c", "s"}
        assert all(b.overflows and b.safe_records == 256 for b in bounds)
        assert len(analysis.report.by_code("RPR-W201")) == 2

    def test_no_bounds_no_overflow_verdicts(self):
        engine = QueryEngine(self.QUERY, geometry=GEOM)
        fold = engine.analyze().stage("__result__").folds[0]
        assert fold.overflow == ()

    def test_count_is_safe_for_any_realistic_trace(self):
        engine = QueryEngine("SELECT COUNT GROUPBY srcip", geometry=GEOM)
        analysis = engine.analyze(trace_bounds=TraceBounds(
            records=10 ** 12, field_magnitude=2 ** 32))
        bound = analysis.stage("__result__").folds[0].overflow[0]
        assert not bound.overflows
        assert bound.per_record_bound == 1
        assert bound.safe_records == 2 ** 63 - 1

    @pytest.mark.parametrize("entry", FIG2_QUERIES, ids=lambda e: e.name)
    def test_catalog_static_safe_implies_no_runtime_fallback(self, entry):
        """Soundness across the catalog: if the analyzer (fed the
        trace's true bounds) predicts no overflow, the run must not
        warn.  The converse need not hold — the bound is conservative."""
        trace = synthetic_trace(800, n_flows=40, seed=23)
        magnitudes = {}
        for name, col in trace.columns().items():
            finite = col[np.isfinite(col)] if col.dtype.kind == "f" else col
            magnitudes[name] = float(np.abs(finite).max()) if finite.size else 0.0
        engine = QueryEngine(entry.source, params=entry.default_params,
                             geometry=GEOM)
        analysis = engine.analyze(trace_bounds=TraceBounds(
            records=len(trace), field_magnitude=magnitudes))
        statically_safe = not analysis.report.by_code("RPR-W201")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.run(trace)
        warned = any("may exceed int64" in str(w.message) for w in caught)
        if statically_safe:
            assert not warned, entry.name


# -- report plumbing ----------------------------------------------------------


class TestReportPlumbing:
    def test_engine_carries_compile_time_report(self):
        engine = QueryEngine(QUERY, geometry=GEOM)
        report = engine.diagnostics_report
        assert isinstance(report, DiagnosticsReport)
        assert not report.has_errors
        assert report.by_code("RPR-I301")

    def test_session_carries_its_knob_report(self):
        engine = QueryEngine(QUERY, geometry=GEOM)
        session = engine.open(window=100)
        try:
            assert isinstance(session.diagnostics, DiagnosticsReport)
            assert not session.diagnostics.has_errors
        finally:
            session.close()

    def test_resumed_session_reattaches_report(self):
        engine = QueryEngine(QUERY, geometry=GEOM)
        session = engine.open(window=100)
        session.ingest(synthetic_trace(150, seed=5))
        snapshot = session.checkpoint()
        session.close()
        resumed = engine.resume(snapshot)
        try:
            assert isinstance(resumed.diagnostics, DiagnosticsReport)
            assert not resumed.diagnostics.has_errors
        finally:
            resumed.close()

    def test_analyze_default_budget(self):
        engine = QueryEngine(QUERY, geometry=GEOM)
        ok = engine.analyze()
        assert not ok.report.has_errors
        tight = engine.analyze(area_budget=1e-9)
        assert codes_of(tight.report.errors) == ["RPR-E301"]
        assert 0 < DEFAULT_AREA_BUDGET < 1
