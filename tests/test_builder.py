"""Builder-API tests: programmatic construction ≡ parsed text."""

import pytest

from repro.core.builder import (
    agg,
    col,
    count,
    field,
    fmax,
    fold,
    lit,
    param,
    program,
    query,
)
from repro.core.errors import SemanticError
from repro.core.interpreter import Interpreter
from repro.core.parser import parse_program
from repro.core.semantics import resolve_program

from tests.conftest import oracle_tables, synthetic_trace


def run_built(prog, records, params=None):
    return Interpreter(resolve_program(prog), params=params).run_result(records)


def run_text(source, records, params=None):
    return Interpreter(resolve_program(parse_program(source)),
                       params=params).run_result(records)


class TestEquivalenceWithText:
    """Built programs produce identical results to parsed text."""

    @pytest.fixture(scope="class")
    def records(self):
        return synthetic_trace(n_packets=1500, n_flows=25)

    def test_simple_groupby(self, records):
        built = program(
            result=query().select(count(), agg("SUM", field("pkt_len")))
                          .groupby("srcip", "dstip"))
        text = "SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip"
        assert run_built(built, records).rows == run_text(text, records).rows

    def test_where_predicate(self, records):
        built = program(
            result=query().select("srcip", "qid")
                          .where((field("tout") - field("tin")) > lit(500_000)))
        text = "SELECT srcip, qid WHERE tout - tin > 500000"
        assert run_built(built, records).rows == run_text(text, records).rows

    def test_fold_with_branch(self, records):
        perc = (
            fold("perc", state=["tot", "high"], packet=["qin"])
            .when(field("qin") > param("K"),
                  then=[*fold("perc", ["tot", "high"], ["qin"])
                        .let("high", field("high") + 1).body])
            .let("tot", field("tot") + 1)
        )
        built = program(
            result=query().select("qid", "perc").groupby("qid"),
            folds=[perc])
        text = (
            "def perc ((tot, high), qin):\n"
            "    if qin > K: high = high + 1\n"
            "    tot = tot + 1\n"
            "SELECT qid, perc GROUPBY qid"
        )
        params = {"K": 20}
        assert (run_built(built, records, params).sort_key().rows ==
                run_text(text, records, params).sort_key().rows)

    def test_ewma_fold(self, records):
        ewma = fold("ewma", state=["lat_est"], packet=["tin", "tout"]).let(
            "lat_est",
            (lit(1) - param("alpha")) * field("lat_est")
            + param("alpha") * (field("tout") - field("tin")))
        built = program(
            result=query().select("5tuple", "ewma").groupby("5tuple")
                          .where(field("tout") != field("infinity")),
            folds=[ewma])
        text = (
            "def ewma (lat_est, (tin, tout)):\n"
            "    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)\n"
            "SELECT 5tuple, ewma GROUPBY 5tuple WHERE tout != infinity"
        )
        params = {"alpha": 0.25}
        assert (run_built(built, records, params).sort_key().rows ==
                run_text(text, records, params).sort_key().rows)

    def test_join_program(self, records):
        built = program(
            named={
                "R1": query().select(count()).groupby("5tuple"),
                "R2": query().select(count()).groupby("5tuple")
                             .where(field("tout") == field("infinity")),
            },
            result=query()
            .select((col("R2", "COUNT") / col("R1", "COUNT"), "loss"))
            .join("R1", "R2", on=["5tuple"]),
        )
        text = (
            "R1 = SELECT COUNT GROUPBY 5tuple\n"
            "R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity\n"
            "R3 = SELECT R2.COUNT/R1.COUNT AS loss FROM R1 JOIN R2 ON 5tuple"
        )
        assert (run_built(built, records).sort_key().rows ==
                run_text(text, records).sort_key().rows)


class TestExpressionAlgebra:
    def test_operators_build_nodes(self):
        from repro.core.ast_nodes import BinOp
        expr = (field("a") + 1) * 2 - field("b") / 4
        assert isinstance(expr.node, BinOp)

    def test_right_hand_operators(self):
        from repro.core.ast_nodes import Number
        expr = 10 - field("a")
        assert expr.node.left == Number(10)

    def test_comparison_builds_predicate(self):
        expr = field("a") == 5
        assert expr.node.op == "=="

    def test_boolean_connectives(self):
        expr = (field("a") > 1).and_(field("b") < 2).or_((field("c") == 3).not_())
        assert expr.node.op == "or"

    def test_max_min(self):
        assert fmax(field("a"), 3).node.func == "max"

    def test_invalid_operand_rejected(self):
        with pytest.raises(TypeError):
            field("a") + "nonsense"  # type: ignore[operator]


class TestBuilderValidation:
    def test_let_unknown_state_rejected(self):
        with pytest.raises(SemanticError):
            fold("f", ["s"], ["pkt_len"]).let("t", lit(1))

    def test_empty_fold_rejected(self):
        with pytest.raises(SemanticError):
            fold("f", ["s"], []).build()

    def test_init_unknown_var_rejected(self):
        with pytest.raises(SemanticError):
            fold("f", ["s"], []).init(t=5)

    def test_init_values_applied(self):
        built = fold("f", ["s"], ["pkt_len"]).init(s=7).let(
            "s", fmax(field("s"), field("pkt_len"))).build()
        assert built.initial_state() == {"s": 7}

    def test_query_without_select_rejected(self):
        with pytest.raises(SemanticError):
            query().groupby("srcip").build()

    def test_join_with_groupby_rejected(self):
        with pytest.raises(SemanticError):
            (query().select("srcip").join("R1", "R2", on=["srcip"])
                    .groupby("srcip").build())

    def test_duplicate_fold_rejected(self):
        f1 = fold("f", ["s"], ["pkt_len"]).let("s", field("s") + 1)
        f2 = fold("f", ["s"], ["pkt_len"]).let("s", field("s") + 2)
        with pytest.raises(SemanticError):
            program(result=query().select("srcip", "f").groupby("srcip"),
                    folds=[f1, f2])


class TestBuilderThroughHardware:
    def test_built_program_compiles_and_runs(self):
        from repro.switch.kvstore.cache import CacheGeometry
        from repro.telemetry.runtime import QueryEngine

        built = program(
            result=query().select(count()).groupby("srcip"))
        engine = QueryEngine(built,
                             geometry=CacheGeometry.set_associative(8, ways=2))
        records = synthetic_trace(n_packets=800, n_flows=30)
        report = engine.run(records)
        truth = oracle_tables(engine, records)[report.result_name]
        assert report.result.by_key() == truth.by_key()
