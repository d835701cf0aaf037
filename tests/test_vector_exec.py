"""Differential tests: the vectorized executor vs the reference
interpreter.

The vectorized engine's contract is *bit-identical results*: every
query — the full Fig. 2 catalog plus randomized linear and non-linear
fold programs — must produce exactly the interpreter's ``ResultTable``
contents (same rows, same values, same order) on randomized traces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ast_nodes import walk
from repro.core.eval_expr import EvalContext, evaluate
from repro.core.interpreter import Interpreter
from repro.core.linearity import analyze_fold
from repro.core.parser import parse_program
from repro.core.semantics import resolve_program
from repro.core.vector_exec import (
    ArrayContext,
    VectorExecutor,
    _FoldVectorizer,
    _GroupLayout,
    factorize,
    mix_key_array,
    run_query_vectorized,
)
from repro.network.records import ObservationTable
from repro.queries.catalog import ALL_QUERIES
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.runtime import QueryEngine
from repro.traffic.datacenter import DatacenterConfig, DatacenterWorkload
from repro.traffic.tcpgen import TcpAnomalyConfig, clean_sequence_table, inject_tcp_anomalies

from tests.conftest import synthetic_trace


def both_engines(source: str, table: ObservationTable, params=None):
    """Run a program through both engines; return (interp, vector)."""
    program = resolve_program(parse_program(source))
    interp = Interpreter(program, params=params).run(list(table))
    vector = VectorExecutor(program, params=params).run(table)
    return interp, vector


def assert_identical(interp, vector):
    assert set(interp) == set(vector)
    for name in interp:
        assert interp[name].rows == vector[name].rows, name


@pytest.fixture(scope="module")
def traces():
    """Randomized traces: two synthetic seeds plus a
    datacenter trace with planted TCP anomalies and drops."""
    out = [synthetic_trace(n_packets=3000, n_flows=35, seed=s) for s in (11, 23)]
    dc = DatacenterWorkload(DatacenterConfig(
        n_flows=120, duration_ns=60_000_000, seed=3)).observation_table()
    clean_sequence_table(dc)
    inject_tcp_anomalies(dc, TcpAnomalyConfig(
        retransmit_rate=0.02, reorder_rate=0.02, duplicate_rate=0.005))
    dc.columns()["tout"][::150] = float("inf")
    out.append(dc)
    return out


class TestCatalogDifferential:
    """Every Fig. 2 (and §2 extra) query, both engines, identical."""

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_catalog_query(self, name, traces):
        entry = ALL_QUERIES[name]
        for table in traces:
            interp, vector = both_engines(
                entry.source, table, params=entry.default_params)
            assert_identical(interp, vector)


#: Randomized fold programs covering every execution strategy: identity
#: linear (segmented reduction), gated/identity with history, diagonal
#: linear with constant and packet-dependent coefficients (rounds),
#: full-matrix linear, and the non-linear class (state predicates,
#: max/min over state).  Coefficients stay in {-1, 0, 1} so int64 and
#: Python-int arithmetic agree.
EWMA_FOLD = ("def f (e, (tin, tout)):\n"
             "    e = (1 - alpha) * e + alpha * (tout - tin)\n\n"
             "SELECT srcip, dstip, f GROUPBY srcip, dstip", {"alpha": 0.3})
NONMT_FOLD = ("def f ((m, c), (tcpseq)):\n"
              "    if m > tcpseq:\n        c = c + 1\n    m = max(m, tcpseq)\n\n"
              "SELECT 5tuple, f GROUPBY 5tuple WHERE proto == TCP", {})
ROTATION_FOLD = ("def f ((a, b, t), (pkt_len)):\n"
                 "    t = a\n    a = b\n    b = t + pkt_len\n\n"
                 "SELECT dstip, f GROUPBY dstip", {})

FOLD_PROGRAMS = [
    # identity: plain sums
    ("def f (s, (pkt_len)):\n    s = s + pkt_len\n\n"
     "SELECT srcip, f GROUPBY srcip", {}),
    # identity with a packet predicate gating B
    ("def f (c, (qin, pkt_len)):\n"
     "    if qin > 5:\n        c = c + pkt_len\n    else:\n        c = c + 1\n\n"
     "SELECT qid, f GROUPBY qid", {}),
    # identity + history variable inside B (out-of-sequence shape)
    ("def f ((last, c), (tcpseq, payload_len)):\n"
     "    if last + 1 != tcpseq:\n        c = c + 1\n"
     "    last = tcpseq + payload_len\n\n"
     "SELECT 5tuple, f GROUPBY 5tuple WHERE proto == TCP", {}),
    # diagonal, constant coefficient (EWMA shape -> rounds)
    EWMA_FOLD,
    # diagonal, packet-dependent 0/1 coefficient (conditional reset)
    ("def f (s, (qin, pkt_len)):\n"
     "    if qin > 10:\n        s = 0\n    else:\n        s = s + pkt_len\n\n"
     "SELECT qid, f GROUPBY qid", {}),
    # full matrix: cross-variable linear coupling
    ("def f ((a, b), (pkt_len)):\n"
     "    a = a + b\n    b = b + pkt_len\n\n"
     "SELECT dstip, f GROUPBY dstip", {}),
    # non-linear: predicate over mergeable state (nonmt shape)
    NONMT_FOLD,
    # non-linear: min over state with arithmetic around it
    ("def f (m, (tin, tout)):\n"
     "    m = min(m + 1, tout - tin)\n\n"
     "SELECT srcip, f GROUPBY srcip", {}),
    # full matrix whose updates are bare state reads (rounds must not
    # write one variable before every new value is computed)
    ROTATION_FOLD,
]


class TestRandomizedFolds:
    @pytest.mark.parametrize("case", range(len(FOLD_PROGRAMS)))
    def test_fold_program(self, case, traces):
        source, params = FOLD_PROGRAMS[case]
        for table in traces:
            interp, vector = both_engines(source, table, params=params)
            assert_identical(interp, vector)

    def test_strategy_coverage(self):
        """The fold corpus exercises reduction AND rounds paths."""
        strategies = set()
        for source, params in FOLD_PROGRAMS:
            program = resolve_program(parse_program(source))
            for query in program.queries:
                for fold in query.folds:
                    vectorizer = _FoldVectorizer(
                        fold, analyze_fold(fold), params)
                    strategies.add(vectorizer.strategy)
        assert strategies == {"reduction", "rounds"}


def _vectorizer(program) -> _FoldVectorizer:
    source, params = program
    (fold,) = resolve_program(parse_program(source)).queries[-1].folds
    return _FoldVectorizer(fold, analyze_fold(fold), params)


def _round_columns(rng, n: int) -> dict[str, np.ndarray]:
    tin = rng.integers(0, 10**9, n)
    return {"tin": tin, "tout": (tin + rng.integers(0, 10**6, n)).astype(float),
            "tcpseq": rng.integers(0, 2**32, n),
            "pkt_len": rng.integers(40, 1500, n)}


def _scalar_rounds(vec, columns, gid, starts):
    """Per-group loop of the scalar evaluator in packet order: each
    group's final state, and the variables that ever held a float."""
    rows = {name: col.tolist() for name, col in columns.items()}
    states = [dict(start) for start in starts]
    floats = {var for start in starts for var, value in start.items()
              if isinstance(value, float)}
    for i, g in enumerate(gid.tolist()):
        ctx = EvalContext(row={name: col[i] for name, col in rows.items()},
                          state=states[g], params=vec.params)
        new = {var: evaluate(expr, ctx)
               for var, expr in vec.update_exprs.items()}
        floats |= {var for var, value in new.items() if isinstance(value, float)}
        states[g].update(new)
    return states, floats


def check_rounds(vec, rng, gid, n_groups, carried=(), carried_float=False):
    """``run_rounds`` equals the scalar loop on every group: values
    exactly, and each state array is float once any of its values is.
    ``carried`` groups resume from random ``init_override`` values."""
    columns = _round_columns(rng, len(gid))
    inits = {var: vec.fold.inits.get(var, 0) for var in vec.fold.state_vars}
    override = None
    if len(carried):
        override = {}
        for var, init in inits.items():
            arr = np.full(n_groups, init, dtype=float if carried_float else np.int64)
            arr[carried] = rng.integers(0, 10**6, len(carried)) + (
                0.5 if carried_float else 0)
            override[var] = arr
    starts = [{var: (override[var][g].item() if override else init)
               for var, init in inits.items()} for g in range(n_groups)]
    got = vec.run_rounds(ArrayContext(columns, vec.params, len(gid)),
                         _GroupLayout(gid, n_groups), override)
    want, floats = _scalar_rounds(vec, columns, gid, starts)
    for var in vec.fold.state_vars:
        assert got[var].dtype == (np.float64 if var in floats else np.int64), var
        assert got[var].tolist() == [state[var] for state in want], var


_ROUND_FOLDS = {"ewma": EWMA_FOLD, "nonmt": NONMT_FOLD, "rotation": ROTATION_FOLD}


class TestRunRounds:
    """The rounds strategy against the scalar evaluator, on the layout a
    heavy-tailed window has: one long group beside many short ones."""

    @given(fold=st.sampled_from(sorted(_ROUND_FOLDS)), seed=st.integers(0, 2**32),
           long=st.integers(200, 2000), short=st.integers(0, 60),
           carried_share=st.sampled_from([0.0, 0.3, 1.0]),
           carried_float=st.booleans())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_matches_scalar_loop(self, fold, seed, long, short,
                                 carried_share, carried_float):
        rng = np.random.default_rng(seed)
        sizes = rng.permutation(np.append(rng.integers(1, 4, short), long))
        gid = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        carried = np.flatnonzero(rng.random(len(sizes)) < carried_share)
        check_rounds(_vectorizer(_ROUND_FOLDS[fold]), rng, gid, len(sizes),
                     carried, carried_float)

    @pytest.mark.parametrize("fold", sorted(_ROUND_FOLDS))
    def test_empty_and_single_group(self, fold):
        vec = _vectorizer(_ROUND_FOLDS[fold])
        rng = np.random.default_rng(7)
        check_rounds(vec, rng, np.zeros(0, dtype=np.int64), 0)
        check_rounds(vec, rng, np.zeros(300, dtype=np.int64), 1)
        check_rounds(vec, rng, np.zeros(300, dtype=np.int64), 1, [0], True)

    def test_proved_call_walks_each_node_once(self, monkeypatch):
        """A proved call evaluates its updates' state-free parts once and
        compiles the rest: tree walks stay bounded by the expression's
        node count, not by the number of rounds (1 000 here)."""
        import repro.core.vector_exec as vx

        vec = _vectorizer(EWMA_FOLD)
        real, calls = vx.eval_array, []

        def counted(expr, ctx, *args):
            calls.append(expr)
            return real(expr, ctx, *args)

        monkeypatch.setattr(vx, "eval_array", counted)
        gid = np.zeros(1000, dtype=np.int64)
        check_rounds(vec, np.random.default_rng(3), gid, 1)
        nodes = sum(len(list(walk(e))) for e in vec.update_exprs.values())
        assert 0 < len(calls) <= nodes


class TestSelectsAndEdges:
    def test_plain_select_where(self, traces):
        source = "SELECT srcip, qid, tout - tin AS lat FROM T WHERE tout - tin > 1000"
        for table in traces:
            interp, vector = both_engines(source, table)
            assert_identical(interp, vector)

    def test_where_matches_nothing(self, traces):
        interp, vector = both_engines(
            "SELECT COUNT GROUPBY srcip WHERE proto == 99", traces[0])
        assert_identical(interp, vector)
        assert len(vector["__result__"].rows) == 0

    def test_empty_trace(self):
        table = ObservationTable()
        interp, vector = both_engines("SELECT COUNT GROUPBY srcip", table)
        assert_identical(interp, vector)

    def test_one_shot_helper(self, traces):
        result = run_query_vectorized("SELECT COUNT GROUPBY qid", traces[0])
        truth = Interpreter(
            resolve_program(parse_program("SELECT COUNT GROUPBY qid"))
        ).run_result(list(traces[0]))
        assert result.rows == truth.rows


def _lexsort_factorize(key_arrays):
    """Reference: the stable k-column lexsort factorization."""
    n = len(key_arrays[0])
    if n == 0:
        return np.zeros(0, dtype=np.int64), [a[:0] for a in key_arrays], 0
    order = np.lexsort(key_arrays[::-1])
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for arr in key_arrays:
        arr_sorted = arr[order]
        change[1:] |= arr_sorted[1:] != arr_sorted[:-1]
    sorted_gid = np.cumsum(change) - 1
    first_idx = order[change]
    rank = np.empty(len(first_idx), dtype=np.int64)
    rank[np.argsort(first_idx, kind="stable")] = np.arange(len(first_idx))
    gid = np.empty(n, dtype=np.int64)
    gid[order] = rank[sorted_gid]
    occurrence = np.sort(first_idx)
    return gid, [arr[occurrence] for arr in key_arrays], len(first_idx)


def assert_same_factorization(got, want):
    gid, unique, n_groups = got
    assert n_groups == want[2]
    assert gid.dtype == np.int64 and np.array_equal(gid, want[0])
    for u, w in zip(unique, want[1], strict=True):
        assert u.dtype == w.dtype
        floats = u.dtype.kind == "f"
        assert np.array_equal(u, w, equal_nan=floats)
        if floats:
            assert np.array_equal(np.signbit(u), np.signbit(w))


_COLUMN_VALUES = {
    "int64": [-2, 0, 1, 3],
    "uint64": [0, 1, 2**63, 2**64 - 1],
    "int32": [-1, 0, 7],
    "bool": [False, True],
    "float64": [0.0, -0.0, 1.5, float("nan")],
    "object": [0, 2**70, -(2**70)],         # exact ints past int64
}


@st.composite
def _key_columns(draw):
    """1-6 columns over tiny value sets (dense repeats), 0-40 rows."""
    n = draw(st.integers(0, 40))
    cols = []
    for _ in range(draw(st.integers(1, 6))):
        dtype = draw(st.sampled_from(sorted(_COLUMN_VALUES)))
        values = _COLUMN_VALUES[dtype]
        idx = draw(st.lists(st.integers(0, len(values) - 1),
                            min_size=n, max_size=n))
        cols.append(np.array([values[i] for i in idx], dtype=dtype))
    return cols


class TestFactorize:
    def test_first_occurrence_order(self):
        keys = [np.array([7, 3, 7, 5, 3, 9])]
        gid, unique, n_groups = factorize(keys)
        assert n_groups == 4
        assert unique[0].tolist() == [7, 3, 5, 9]       # insertion order
        assert gid.tolist() == [0, 1, 0, 2, 1, 3]

    def test_multi_column_exact(self):
        a = np.array([1, 1, 2, 1])
        b = np.array([5, 6, 5, 5])
        gid, unique, n_groups = factorize([a, b])
        assert n_groups == 3
        assert list(zip(unique[0].tolist(), unique[1].tolist())) == [
            (1, 5), (1, 6), (2, 5)]
        assert gid.tolist() == [0, 1, 2, 0]

    def test_empty(self):
        gid, unique, n_groups = factorize([np.zeros(0, dtype=np.int64)])
        assert n_groups == 0 and len(gid) == 0

    @given(_key_columns())
    @settings(max_examples=100, deadline=None)
    def test_matches_lexsort_reference(self, cols):
        want = _lexsort_factorize(cols)
        assert_same_factorization(factorize(cols), want)
        # Planted hashes (equal rows still hash equal): every run
        # collides, so every group comes out of the re-split.
        ints = [a.astype(np.int64) for a in cols if a.dtype.kind in "iub"]
        h = mix_key_array(np.stack(ints, axis=1)) if ints \
            else np.zeros(len(cols[0]), dtype=np.uint64)
        for planted in (np.zeros_like(h), h & np.uint64(3)):
            assert_same_factorization(factorize(cols, planted), want)

    def test_one_row_and_wide_uint64(self):
        top = np.array([2**64 - 1, 2**63, 2**64 - 1, 2**63 + 5],
                       dtype=np.uint64)
        low = np.array([3, 3, 3, 3], dtype=np.uint64)
        cols = [top, low]
        assert_same_factorization(factorize(cols), _lexsort_factorize(cols))
        gid, unique, n_groups = factorize([top[:1]])
        assert gid.tolist() == [0] and n_groups == 1
        assert unique[0].dtype == np.uint64 and unique[0].tolist() == [2**64 - 1]

    def test_float_columns_take_the_exact_path(self):
        # NaN never equals itself (one group per NaN row, as the lexsort
        # gives); -0.0 == 0.0 is one group keeping the first value.
        f = np.array([0.5, np.nan, -0.0, 0.0, np.nan, 0.5, 1.5])
        i = np.array([1, 1, 2, 2, 1, 1, 1])
        for cols in ([f], [i, f], [f, i]):
            assert_same_factorization(factorize(cols),
                                      _lexsort_factorize(cols))


class TestReplayFallback:
    """The per-fold interpreter replay must agree with the vector
    strategies (it is the safety net when an expression cannot run on
    the array path)."""

    @pytest.mark.parametrize("case", range(len(FOLD_PROGRAMS)))
    def test_replay_matches_vector(self, case):
        source, params = FOLD_PROGRAMS[case]
        program = resolve_program(parse_program(source))
        trace = synthetic_trace(n_packets=800, n_flows=12, seed=5)
        columns = trace.columns()
        for query in program.queries:
            if query.kind != "groupby":
                continue
            n = len(trace)
            ctx = ArrayContext(columns, params, n)
            from repro.core.vector_exec import eval_mask
            mask = eval_mask(query.where, ctx)
            sel = np.flatnonzero(mask) if mask is not None else np.arange(n)
            sel_ctx = ArrayContext(
                {name: arr[sel] for name, arr in columns.items()},
                params, len(sel))
            gid, _, n_groups = factorize(
                [sel_ctx.columns[k] for k in query.groupby_keys])
            layout = _GroupLayout(gid, n_groups)
            for fold in query.folds:
                vectorizer = _FoldVectorizer(fold, analyze_fold(fold), params)
                fast = vectorizer.evaluate(sel_ctx, layout)
                replay = vectorizer.replay(sel_ctx, layout)
                for var in fold.state_vars:
                    assert fast[var].tolist() == replay[var].tolist(), (
                        case, query.name, fold.column, var)

    def test_stage_fallback_on_unsupported(self, monkeypatch, traces):
        """If the array evaluator rejects a stage, the executor falls
        back to the interpreter and still returns exact results.  The
        rejection comes from the operator table, which the round kernel
        shares with eval_array."""
        import repro.core.vector_exec as vx

        real = vx._operator

        def broken(expr):
            from repro.core.ast_nodes import Call
            if isinstance(expr, Call):
                raise vx.VectorizationError("forced")
            return real(expr)

        monkeypatch.setattr(vx, "_operator", broken)
        entry = ALL_QUERIES["tcp_non_monotonic"]
        interp, vector = both_engines(entry.source, traces[0])
        assert_identical(interp, vector)


class TestEngineKnob:
    GEOM = CacheGeometry.set_associative(256, ways=8)

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            QueryEngine("SELECT COUNT GROUPBY srcip", engine="warp")

    @pytest.mark.parametrize("name", ["per_flow_loss_rate", "per_flow_high_latency",
                                      "high_p99_queue_size"])
    def test_vector_and_row_reports_identical(self, name, traces):
        entry = ALL_QUERIES[name]
        table = traces[-1]                       # dc trace with drops
        row = QueryEngine(entry.source, params=entry.default_params,
                          geometry=self.GEOM, engine="row").run(
            table, with_ground_truth=True)
        vec = QueryEngine(entry.source, params=entry.default_params,
                          geometry=self.GEOM, engine="vector").run(
            table, with_ground_truth=True)
        for qname in row.tables:
            assert row.tables[qname].rows == vec.tables[qname].rows
        interp, vector = both_engines(entry.source, table,
                                      params=entry.default_params)
        for qname in row.ground_truth:
            assert row.ground_truth[qname].rows == interp[qname].rows
            assert vec.ground_truth[qname].rows == vector[qname].rows
        assert {k: (s.accesses, s.hits, s.evictions)
                for k, s in row.cache_stats.items()} == \
               {k: (s.accesses, s.hits, s.evictions)
                for k, s in vec.cache_stats.items()}

    def test_executor_is_chosen_by_knob(self):
        """Input is columnar below the door, so the knob alone picks
        the executor: the interpreter is the ``"row"`` oracle."""
        from repro.core.interpreter import Interpreter
        from repro.core.vector_exec import VectorExecutor as VX

        for engine, kind in (("auto", VX), ("vector", VX),
                             ("row", Interpreter)):
            qe = QueryEngine("SELECT COUNT GROUPBY srcip",
                             geometry=self.GEOM, engine=engine)
            assert isinstance(qe._executor(), kind)
