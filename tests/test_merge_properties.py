"""Property-based tests (hypothesis): the split store equals ground truth.

The central §3.2 claim — for linear-in-state folds, merging evicted
values preserves exactness regardless of when evictions happen — is
checked here over randomly generated packet streams and randomly tiny
caches (maximising eviction pressure), for a pool of linear fold
programs spanning all three merge strategies.
"""

import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.compiler import CompileOptions, compile_program
from repro.core.interpreter import Interpreter
from repro.core.parser import parse_program
from repro.core.semantics import resolve_program
from repro.switch.kvstore.cache import CacheGeometry
from repro.switch.pipeline import SessionConfig, SwitchPipeline
from repro.telemetry.results import compare_tables
from repro.telemetry.runtime import QueryEngine

from tests.conftest import make_record

#: Linear fold programs: (source, params) — additive, scale, matrix,
#: multi-fold, predicated-increment, and history-coefficient cases.
LINEAR_PROGRAMS = [
    ("SELECT COUNT, SUM(pkt_len) GROUPBY srcip", {}),
    ("def ewma (e, (tin, tout)): e = (1 - alpha) * e + alpha * (tout - tin)\n"
     "SELECT srcip, ewma GROUPBY srcip", {"alpha": 0.3}),
    ("def f ((a, b), pkt_len):\n"
     "    a = a + b\n"
     "    b = b + pkt_len\n"
     "SELECT srcip, f GROUPBY srcip", {}),
    ("def perc ((tot, high), qin):\n"
     "    if qin > K: high = high + 1\n"
     "    tot = tot + 1\n"
     "SELECT srcip, perc GROUPBY srcip", {"K": 10}),
    ("def g (s, (pkt_len, qin)):\n"
     "    if qin > 5 then s = 2 * s + pkt_len else s = s + 1\n"
     "SELECT srcip, g GROUPBY srcip", {}),
]

HISTORY_PROGRAM = (
    "def outofseq ((lastseq, oos), (tcpseq, payload_len)):\n"
    "    if lastseq + 1 != tcpseq: oos = oos + 1\n"
    "    lastseq = tcpseq + payload_len\n"
    "SELECT srcip, outofseq GROUPBY srcip"
)


@st.composite
def packet_streams(draw):
    """A stream of records over a handful of flows, adversarially
    interleaved by hypothesis."""
    n = draw(st.integers(min_value=1, max_value=120))
    n_flows = draw(st.integers(min_value=1, max_value=6))
    records = []
    t = 0
    for i in range(n):
        flow = draw(st.integers(min_value=0, max_value=n_flows - 1))
        t += draw(st.integers(min_value=1, max_value=50))
        records.append(make_record(
            srcip=flow, pkt_id=i, tin=t,
            tout=float(t + draw(st.integers(min_value=1, max_value=1000))),
            pkt_len=draw(st.integers(min_value=40, max_value=1500)),
            payload_len=draw(st.integers(min_value=0, max_value=1460)),
            tcpseq=draw(st.integers(min_value=0, max_value=10_000)),
            qin=draw(st.integers(min_value=0, max_value=30)),
        ))
    return records


def run_both(source, params, records, capacity, ways, exact_history=False):
    rp = resolve_program(parse_program(source))
    truth = Interpreter(rp, params=params).run_result(records)
    program = compile_program(rp, CompileOptions(exact_history=exact_history))
    if ways == 0:
        geometry = CacheGeometry.fully_associative(capacity)
    elif ways == 1:
        geometry = CacheGeometry.hash_table(capacity)
    else:
        capacity = max(ways, capacity // ways * ways)
        geometry = CacheGeometry.set_associative(capacity, ways=ways)
    pipeline = SwitchPipeline(program, params=params,
                              config=SessionConfig(geometry=geometry))
    pipeline.run(records)
    hardware = pipeline.results()[rp.result]
    return hardware, truth


#: The one float fold of :data:`LINEAR_PROGRAMS` (the EWMA); every
#: other program folds integers and must merge to the same ints.
FLOAT_PROGRAM = 1

#: The doubling fold's merge product passing 2^53 and then 2^63 on key
#: 0, whose one epoch before key 1 evicts it is 70 packets long.
DOUBLING_PAST_INT64 = [
    make_record(srcip=key, pkt_id=i, tin=i, tout=float(i + 1), pkt_len=221,
                qin=9)
    for i, key in enumerate([0] * 70 + [1] + [0] * 5)]


@settings(max_examples=40, deadline=None)
@given(
    stream=packet_streams(),
    program_index=st.integers(min_value=0, max_value=len(LINEAR_PROGRAMS) - 1),
    capacity=st.integers(min_value=1, max_value=8),
    ways=st.sampled_from([0, 1, 2]),
)
@example(stream=DOUBLING_PAST_INT64, program_index=4, capacity=1, ways=1)
def test_linear_folds_are_exact_under_any_eviction_schedule(
        stream, program_index, capacity, ways):
    source, params = LINEAR_PROGRAMS[program_index]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hardware, truth = run_both(source, params, stream, capacity, ways)
    # The doubling fold passes 2^63 on some long streams: its state then
    # runs on exact ints, announced by the one int64 warning.
    assert all("may exceed int64" in str(w.message) for w in caught)
    if any(type(v) is int and abs(v) >= 2 ** 63
           for row in truth.rows for v in row.values()):
        assert caught
    if program_index != FLOAT_PROGRAM:
        assert hardware.by_key() == truth.by_key()
        assert all(type(v) is int for row in hardware.rows
                   for v in row.values())
        return
    diff = compare_tables(hardware, truth, rel_tol=1e-9, abs_tol=1e-6)
    assert diff.key_complete, diff.describe()
    assert diff.exact, diff.describe()


#: Integer diagonal (``g``) and full-matrix (``f``) folds on a one-slot
#: cache, where every key switch evicts: the merge product ``P`` starts
#: at the integer identity, so merged values stay ints, and past 2^53 /
#: 2^63 exact.
INT_PRODUCT_CASES = {
    "scale": (LINEAR_PROGRAMS[4][0], [
        make_record(srcip=i % 2, pkt_id=i, pkt_len=10, qin=9 if i % 3 else 0)
        for i in range(8)]),
    "matrix": (LINEAR_PROGRAMS[2][0], [
        make_record(srcip=i % 2, pkt_id=i, pkt_len=10, qin=9 if i % 3 else 0)
        for i in range(8)]),
    "scale_past_int64": (LINEAR_PROGRAMS[4][0], DOUBLING_PAST_INT64),
}


@pytest.mark.parametrize("engine", ["row", "vector"])
@pytest.mark.parametrize("case", sorted(INT_PRODUCT_CASES))
def test_integer_merge_products_stay_exact_ints(case, engine):
    from repro.telemetry.runtime import QueryEngine

    source, stream = INT_PRODUCT_CASES[case]
    want = Interpreter(resolve_program(parse_program(source))) \
        .run_result(stream).rows
    qe = QueryEngine(source, engine=engine,
                     geometry=CacheGeometry.hash_table(1))
    if engine == "vector" and case == "scale_past_int64":
        with pytest.warns(RuntimeWarning, match="may exceed int64"):
            got = qe.run(stream).result.rows
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = qe.run(stream).result.rows
    assert got == want
    assert all(type(v) is int for row in got for v in row.values())
    if case == "scale_past_int64":
        assert want[0]["s"] == 8349143941713532737814307


#: Folds whose integer state passes 2^63: a doubling linear fold (one
#: of the streams the property above draws, pinned) and a non-linear
#: fold that adds one huge field per packet.
OVERFLOWING = [
    (LINEAR_PROGRAMS[4][0], 40),
    ("def h (m, pkt_len): m = max(m, pkt_len) + pkt_len\n"
     "SELECT srcip, h GROUPBY srcip", 2 ** 61),
]


@pytest.mark.parametrize("ways", [0, 2])
@pytest.mark.parametrize("source,pkt_len", OVERFLOWING,
                         ids=["doubling", "max_plus_field"])
def test_round_major_int_state_past_int64_stays_exact(source, pkt_len, ways):
    """Such a fold must run on exact Python ints instead of wrapping."""
    stream = [make_record(srcip=i % 2, pkt_id=i, tin=i, tout=float(i + 1),
                          pkt_len=pkt_len + i, qin=9) for i in range(150)]
    with pytest.warns(RuntimeWarning, match="may exceed int64"):
        hardware, truth = run_both(source, {}, stream, capacity=8,
                                   ways=ways)
    assert max(row[truth.schema.columns[-1].name] for row in truth.rows) \
        > 2 ** 63
    diff = compare_tables(hardware, truth, rel_tol=1e-9, abs_tol=1e-6)
    assert diff.key_complete and diff.exact, diff.describe()


#: Integer values that pass 2^63 where no accumulator does: an offset
#: squared before it is summed, a fold predicate (integer and float
#: state), a WHERE mask and a projection read by a later stage — each
#: over three identical records on one key.
WRAPS = {
    "square_sum": ("SELECT srcip, SUM(pkt_len * pkt_len) GROUPBY srcip",
                   2 ** 32 + 1),
    "predicate": ("def big (s, pkt_len):\n"
                  "    if pkt_len * pkt_len > 5: s = s + 1\n\n"
                  "SELECT srcip, big GROUPBY srcip", 2 ** 32),
    "predicate_float": ("def big (s, pkt_len):\n"
                        "    if pkt_len * pkt_len > 5: s = s + 1.5\n\n"
                        "SELECT srcip, big GROUPBY srcip", 2 ** 32),
    "where": ("SELECT srcip, COUNT GROUPBY srcip WHERE pkt_len * pkt_len > 5",
              2 ** 32),
    "projection": ("R1 = SELECT srcip, pkt_len * pkt_len AS sq FROM T\n"
                   "SELECT srcip, SUM(sq) FROM R1 GROUPBY srcip", 2 ** 32),
    # A filtered SELECT over the same chunk first: its sub-context sees
    # only the rows its WHERE keeps (none), which must not bound the
    # full column the next stage reads.
    "after_filtered_select": (
        "R1 = SELECT srcip, pkt_len AS x FROM T WHERE pkt_len < 10\n"
        "SELECT srcip, COUNT GROUPBY srcip WHERE pkt_len * pkt_len > 5",
        2 ** 32),
}


@pytest.mark.parametrize("engine, entry", [
    (engine, entry) for entry in ("run", "run_exact", "ground_truth", "window")
    for engine in ("row", "auto") if (engine, entry) != ("row", "window")])
@pytest.mark.parametrize("case", sorted(WRAPS))
def test_int64_intermediates_match_interpreter(case, engine, entry):
    """Every array evaluation proves its integer values below 2^63 or
    runs on exact Python ints, with one warning: the result equals the
    interpreter's.  The row reference evaluates only WHERE masks and
    projections on arrays (its folds run on Python ints) and has no
    windowed session; ``run_exact`` is ``run`` on a never-evicting
    cache, so it follows ``run``'s rule, and so does
    ``run(with_ground_truth=True)``, which runs both."""
    from repro.network.records import ObservationTable
    from repro.telemetry.runtime import QueryEngine

    source, pkt_len = WRAPS[case]
    table = ObservationTable([make_record(pkt_len=pkt_len, pkt_id=i)
                              for i in range(3)])
    rp = resolve_program(parse_program(source))
    want = Interpreter(rp).run_result(table).rows
    engine_ = QueryEngine(source, engine=engine)

    def rows():
        if entry == "run_exact":
            return engine_.run_exact(table)[rp.result].rows
        if entry == "run":
            return engine_.run(table).result.rows
        if entry == "ground_truth":
            report = engine_.run(table, with_ground_truth=True)
            assert report.ground_truth[rp.result].rows == report.result.rows
            return report.result.rows
        session = engine_.open(window=2)
        session.ingest(table)
        return session.close().result.rows

    arrays = engine == "auto" or case in (
        "where", "projection", "after_filtered_select")
    if arrays:
        with pytest.warns(RuntimeWarning, match="may exceed int64"):
            got = rows()
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = rows()
    assert got == want and want


@settings(max_examples=25, deadline=None)
@given(stream=packet_streams(), capacity=st.integers(min_value=1, max_value=6))
def test_history_fold_exact_with_replay_extension(stream, capacity):
    hardware, truth = run_both(HISTORY_PROGRAM, {}, stream, capacity, ways=1,
                               exact_history=True)
    diff = compare_tables(hardware, truth, abs_tol=1e-9)
    assert diff.exact, diff.describe()


@settings(max_examples=25, deadline=None)
@given(stream=packet_streams(), capacity=st.integers(min_value=1, max_value=6))
def test_history_fold_error_is_bounded_by_eviction_count(stream, capacity):
    """Without the replay extension the paper's merge may miscount the
    first packet of each epoch: |error| ≤ number of epochs."""
    rp = resolve_program(parse_program(HISTORY_PROGRAM))
    truth = Interpreter(rp).run_result(stream).by_key()
    program = compile_program(rp)
    pipeline = SwitchPipeline(program, config=SessionConfig(
        geometry=CacheGeometry.hash_table(capacity)))
    pipeline.run(stream)
    store = pipeline.store_for(rp.result)
    hardware = store.result_table().by_key()
    for key, hw_row in hardware.items():
        t_row = truth[key]
        error = abs(hw_row["outofseq.oos"] - t_row["outofseq.oos"])
        epochs = store.backing.data[key].epochs
        assert error <= epochs


@settings(max_examples=20, deadline=None)
@given(stream=packet_streams())
def test_nonlinear_valid_keys_report_exact_values(stream):
    """§3.2: for non-linear folds, keys never evicted-and-reinserted
    stay valid and their reported value must equal ground truth."""
    source = (
        "def nonmt ((maxseq, nm), tcpseq):\n"
        "    if maxseq > tcpseq: nm = nm + 1\n"
        "    maxseq = max(maxseq, tcpseq)\n"
        "SELECT srcip, nonmt GROUPBY srcip"
    )
    rp = resolve_program(parse_program(source))
    truth = Interpreter(rp).run_result(stream).by_key()
    pipeline = SwitchPipeline(compile_program(rp), config=SessionConfig(
        geometry=CacheGeometry.hash_table(2)))
    pipeline.run(stream)
    hardware = pipeline.results()[rp.result].by_key()  # valid keys only
    for key, row in hardware.items():
        assert row["nonmt.nm"] == truth[key]["nonmt.nm"]
        assert row["nonmt.maxseq"] == truth[key]["nonmt.maxseq"]


#: Folds whose reported state is a history variable of depth 2 (it
#: holds a value of the packet before the current one), read by no
#: coefficient.  After an eviction the new epoch's first packet sees
#: freshly initialised history, so only the exact-history packet log
#: keeps them exact, and without it the analyzer must say so (W103).
DEPTH_TWO_HISTORY = {
    "gap": "def gap ((last, g), tin):\n"
           "    g = tin - last\n"
           "    last = tin\n"
           "SELECT srcip, gap GROUPBY srcip",
    "product": "def f ((a, b), (qin, tcpseq)):\n"
               "    b = a * qin\n"
               "    a = tcpseq\n"
               "SELECT srcip, f GROUPBY srcip",
    "chain": "def f ((a, b), (qin, pkt_len, tcpseq)):\n"
             "    a = qin - pkt_len + 1 + b\n"
             "    b = tcpseq\n"
             "SELECT srcip, f GROUPBY srcip",
}

#: Key 0, key 1, key 0 on a one-slot cache: key 0's second epoch is its
#: last packet, which reads the history of its first.
EVICT_BETWEEN = [
    make_record(srcip=key, pkt_id=i, tin=tin, tout=float(tin + 1),
                qin=4 + i, tcpseq=5 * (i + 1), pkt_len=40 + i)
    for i, (key, tin) in enumerate([(0, 1), (1, 2), (0, 3)])]

HISTORY_ENGINES = [("auto", None), ("auto", 7), ("row", None)]


def engine_rows(engine, records, window):
    if window is None:
        return engine.run(records).result.by_key()
    session = engine.open(window=window)
    session.ingest(records)
    return session.close().result.by_key()


def interpreted_rows(source, records):
    return Interpreter(resolve_program(parse_program(source))) \
        .run_result(records).by_key()


@pytest.mark.parametrize("engine,window", HISTORY_ENGINES)
@pytest.mark.parametrize("name", sorted(DEPTH_TWO_HISTORY))
def test_depth_two_history_is_exact_with_exact_history(name, engine, window):
    source = DEPTH_TWO_HISTORY[name]
    qe = QueryEngine(source, geometry=CacheGeometry.fully_associative(1),
                     engine=engine, exact_history=True)
    assert not qe.diagnostics_report.by_code("RPR-W103")
    assert engine_rows(qe, EVICT_BETWEEN, window) == \
        interpreted_rows(source, EVICT_BETWEEN)


@pytest.mark.parametrize("engine", ["auto", "row"])
@pytest.mark.parametrize("name", sorted(DEPTH_TWO_HISTORY))
def test_depth_two_history_warns_w103_without_exact_history(name, engine):
    source = DEPTH_TWO_HISTORY[name]
    qe = QueryEngine(source, geometry=CacheGeometry.fully_associative(1),
                     engine=engine)
    w103 = qe.diagnostics_report.by_code("RPR-W103")
    assert len(w103) == 1
    assert "depth 2" in w103[0].message
    assert engine_rows(qe, EVICT_BETWEEN, None) != \
        interpreted_rows(source, EVICT_BETWEEN)


@settings(max_examples=15, deadline=None)
@given(stream=packet_streams(),
       name=st.sampled_from(sorted(DEPTH_TWO_HISTORY)),
       geometry=st.sampled_from([CacheGeometry.fully_associative(1),
                                 CacheGeometry.hash_table(2)]))
def test_depth_two_history_exact_under_any_eviction_schedule(
        stream, name, geometry):
    source = DEPTH_TWO_HISTORY[name]
    want = interpreted_rows(source, stream)
    for engine, window in HISTORY_ENGINES:
        qe = QueryEngine(source, geometry=geometry, engine=engine,
                         exact_history=True)
        assert engine_rows(qe, stream, window) == want, (engine, window)


@settings(max_examples=20, deadline=None)
@given(stream=packet_streams(),
       seed_a=st.integers(min_value=0, max_value=2**32 - 1),
       seed_b=st.integers(min_value=0, max_value=2**32 - 1))
def test_results_independent_of_hash_seed(stream, seed_a, seed_b):
    """Merged results must not depend on cache hash placement."""
    source, params = LINEAR_PROGRAMS[0]
    rp = resolve_program(parse_program(source))
    program = compile_program(rp)
    tables = []
    for seed in (seed_a, seed_b):
        pipeline = SwitchPipeline(
            program, params=params, config=SessionConfig(
                geometry=CacheGeometry.set_associative(8, ways=2),
                seed=seed))
        pipeline.run(stream)
        tables.append(pipeline.results()[rp.result])
    diff = compare_tables(tables[0], tables[1], abs_tol=1e-9)
    assert diff.exact, diff.describe()
