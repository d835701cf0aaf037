"""Linear-in-state analysis tests (§3.2).

The battery checks (a) the Fig. 2 verdicts, (b) a taxonomy of
constructed folds spanning all matrix kinds and failure reasons, and
(c) the history-variable machinery of footnote 4.
"""

import pytest

from repro.core.ast_nodes import Number
from repro.core.linearity import analyze_fold, history_depths, if_convert
from repro.core.parser import parse_program
from repro.core.semantics import resolve_program
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.results import compare_tables
from repro.telemetry.runtime import QueryEngine

from tests.conftest import oracle_tables


def fold_result(source):
    rp = resolve_program(parse_program(source))
    for query in rp.queries:
        if query.folds:
            return analyze_fold(query.folds[0])
    raise AssertionError("no fold in program")


def make(source_body, state="s", packet="pkt_len"):
    return fold_result(
        f"def f ({state}, {packet}):\n{source_body}\n"
        f"SELECT srcip, f GROUPBY srcip"
    )


class TestFig2Verdicts:
    """The paper's own 'Linear in state?' column."""

    def test_count_is_linear_identity(self):
        rp = resolve_program(parse_program("SELECT COUNT GROUPBY srcip"))
        result = analyze_fold(rp.result_query().folds[0])
        assert result.linear and result.matrix_kind == "identity"

    def test_sum_is_linear_identity(self):
        rp = resolve_program(parse_program("SELECT SUM(pkt_len) GROUPBY srcip"))
        result = analyze_fold(rp.result_query().folds[0])
        assert result.linear and result.matrix_kind == "identity"

    def test_ewma_is_linear_diagonal(self):
        result = fold_result(
            "def ewma (e, (tin, tout)): e = (1 - alpha) * e + alpha * (tout - tin)\n"
            "SELECT 5tuple, ewma GROUPBY 5tuple"
        )
        assert result.linear and result.matrix_kind == "diagonal"
        assert result.history_depth == 0

    def test_outofseq_is_linear_with_history(self):
        result = fold_result(
            "def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):\n"
            "    if lastseq + 1 != tcpseq:\n"
            "        oos_count = oos_count + 1\n"
            "    lastseq = tcpseq + payload_len\n"
            "SELECT 5tuple, outofseq GROUPBY 5tuple"
        )
        assert result.linear
        assert result.history == {"lastseq": 1}
        assert result.history_depth == 1  # A/B read the previous packet

    def test_nonmt_is_not_linear(self):
        result = fold_result(
            "def nonmt ((maxseq, nm_count), tcpseq):\n"
            "    if maxseq > tcpseq:\n"
            "        nm_count = nm_count + 1\n"
            "    maxseq = max(maxseq, tcpseq)\n"
            "SELECT 5tuple, nonmt GROUPBY 5tuple"
        )
        assert not result.linear
        assert result.reason is not None

    def test_perc_is_linear(self):
        result = fold_result(
            "def perc ((tot, high), qin):\n"
            "    if qin > K: high = high + 1\n"
            "    tot = tot + 1\n"
            "SELECT qid, perc GROUPBY qid"
        )
        assert result.linear and result.matrix_kind == "identity"


class TestMatrixKinds:
    def test_constant_scale_is_diagonal(self):
        result = make("    s = 2 * s + pkt_len")
        assert result.linear and result.matrix_kind == "diagonal"

    def test_cross_variable_coupling_is_full(self):
        result = make("    a = a + b\n    b = b + pkt_len",
                      state="(a, b)", packet="pkt_len")
        assert result.linear and result.matrix_kind == "full"

    def test_overwrite_by_other_state_is_full(self):
        result = make("    a = b\n    b = b + pkt_len", state="(a, b)", packet="pkt_len")
        assert result.linear and result.matrix_kind == "full"

    def test_packet_dependent_coefficient(self):
        result = make("    s = s * pkt_len + 1")
        assert result.linear and result.matrix_kind == "diagonal"
        assert result.matrix[("s", "s")] is not None


class TestNonLinearReasons:
    def test_state_times_state(self):
        result = make("    s = s * s")
        assert not result.linear
        assert "product" in result.reason

    def test_division_by_state(self):
        result = make("    s = pkt_len / s")
        assert not result.linear
        assert "division" in result.reason

    def test_max_over_state(self):
        result = make("    s = max(s, pkt_len)")
        assert not result.linear

    def test_predicate_on_state(self):
        result = make("    if s > 10:\n        s = s + 1\n    else:\n        s = s + 2")
        assert not result.linear
        assert "predicate" in result.reason or "state" in result.reason

    def test_comparison_inside_expression(self):
        result = make("    if s == pkt_len then s = s + 1")
        assert not result.linear


class TestHistoryVariables:
    def test_unconditional_packet_assign_is_depth_1(self):
        updates = if_convert_from(
            "def f ((last, acc), pkt_len):\n"
            "    acc = acc + last\n"
            "    last = pkt_len\n"
        )
        assert history_depths(updates) == {"last": 1}

    def test_chained_history_depth_2(self):
        updates = if_convert_from(
            "def f ((a, b, acc), pkt_len):\n"
            "    acc = acc + b\n"
            "    b = a\n"
            "    a = pkt_len\n"
        )
        depths = history_depths(updates)
        assert depths["a"] == 1 and depths["b"] == 2

    def test_self_reference_is_not_history(self):
        updates = if_convert_from("def f (s, pkt_len):\n    s = s + pkt_len\n")
        assert history_depths(updates) == {}

    def test_conditionally_assigned_var_is_not_history(self):
        # If x only sometimes overwrites the var, the old (unbounded
        # history) value survives on the other path.
        updates = if_convert_from(
            "def f ((last, acc), pkt_len):\n"
            "    if pkt_len > 0:\n"
            "        last = pkt_len\n"
            "    acc = acc + last\n"
        )
        assert "last" not in history_depths(updates)

    def test_history_depth_used_by_coefficients(self):
        result = make(
            "    if last > 0:\n        s = s + 1\n    last = pkt_len",
            state="(s, last)", packet="pkt_len",
        )
        assert result.linear
        assert result.history_depth == 1

    def test_history_unused_by_coefficients_is_depth_0(self):
        result = make(
            "    s = s + pkt_len\n    last = pkt_len",
            state="(s, last)", packet="pkt_len",
        )
        assert result.linear
        assert result.history_depth == 0


class TestIfConversion:
    def test_every_var_has_update_expr(self):
        updates = if_convert_from(
            "def f ((a, b), pkt_len):\n    if pkt_len > 0:\n        a = a + 1\n"
        )
        assert set(updates) == {"a", "b"}

    def test_untouched_var_maps_to_itself(self):
        from repro.core.ast_nodes import StateRef
        updates = if_convert_from(
            "def f ((a, b), pkt_len):\n    a = a + pkt_len\n"
        )
        assert updates["b"] == StateRef("b")

    def test_sequential_substitution(self):
        # b reads a's *updated* value.
        updates = if_convert_from(
            "def f ((a, b), pkt_len):\n    a = pkt_len\n    b = b + a\n"
        )
        from repro.core.ast_nodes import StateRef, walk
        assert StateRef("a") not in list(walk(updates["b"]))

    def test_branch_merge_produces_cond(self):
        from repro.core.ast_nodes import Cond
        updates = if_convert_from(
            "def f (s, pkt_len):\n    if pkt_len > 0:\n        s = s + 1\n"
        )
        assert isinstance(updates["s"], Cond)


class TestOffsetsAndCoefficients:
    def test_count_offset_is_one(self):
        rp = resolve_program(parse_program("SELECT COUNT GROUPBY srcip"))
        result = analyze_fold(rp.result_query().folds[0])
        var = result.order[0]
        assert result.matrix[(var, var)] == Number(1)
        assert result.offset[var] == Number(1)

    def test_ewma_coefficient_structure(self):
        result = fold_result(
            "def ewma (e, (tin, tout)): e = (1 - alpha) * e + alpha * (tout - tin)\n"
            "SELECT 5tuple, ewma GROUPBY 5tuple"
        )
        coeff = result.matrix[("e", "e")]
        from repro.core.ast_nodes import ParamRef, walk
        assert ParamRef("alpha") in list(walk(coeff))


def if_convert_from(fold_source):
    source = fold_source + "SELECT srcip, f GROUPBY srcip"
    rp = resolve_program(parse_program(source))
    fold = rp.result_query().folds[0]
    return if_convert(fold.body, fold.state_vars)


class TestDivisionAndNegation:
    """``/`` by a state-free value and unary minus keep a fold linear
    (``AffineForm.divide`` / ``negate``), and the store's merges of
    such folds match the interpreter under evictions."""

    HALVE = "def f (s, pkt_len):\n    s = (s + pkt_len) / 2\n"
    FLIP = "def f (s, pkt_len):\n    s = -s + pkt_len\n"
    MIRROR = "def f (s, pkt_len):\n    s = pkt_len - s\n"

    @pytest.mark.parametrize("body, coeff", [
        (HALVE, 0.5), (FLIP, -1), (MIRROR, -1)],
        ids=["halve", "flip", "mirror"])
    def test_linearity_class(self, body, coeff):
        result = fold_result(body + "SELECT srcip, f GROUPBY srcip")
        assert result.linear and result.matrix_kind == "diagonal"
        assert result.matrix[("s", "s")] == Number(coeff)

    @pytest.mark.parametrize("engine", ["row", "auto"])
    @pytest.mark.parametrize("body", [HALVE, FLIP, MIRROR],
                             ids=["halve", "flip", "mirror"])
    def test_store_matches_interpreter_under_evictions(self, body, engine,
                                                       trace):
        source = body + "SELECT srcip, f GROUPBY srcip"
        qe = QueryEngine(source, engine=engine,
                         geometry=CacheGeometry.set_associative(8, ways=2))
        report = qe.run(trace)
        assert report.cache_stats["__result__"].evictions > 0
        truth = oracle_tables(qe, trace)["__result__"]
        if body is self.HALVE:
            assert compare_tables(report.result, truth).exact
        else:                           # an integer fold merges exactly
            assert report.result.rows == truth.rows
