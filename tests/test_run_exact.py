"""``run_exact`` is the hardware session on a cache that never evicts.

The backing store only ever sees evicted values (§3.2), so a key that
is never evicted is exact for every fold, linear or not.  These tests
hold that session to the executors — the interpreter on ``"row"``, the
vectorized executor otherwise — rows in order, on the whole catalog,
the randomized fold programs and one program per merge class, whatever
policy, refresh interval or exact-history setting the engine carries.
"""

from dataclasses import replace

import pytest

from repro.core.builder import field, fold, program, query
from repro.queries.catalog import ALL_QUERIES
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.runtime import QueryEngine

from tests.conftest import oracle_tables, synthetic_trace
from tests.test_vector_exec import FOLD_PROGRAMS
from tests.test_vector_store import (
    AVG,
    EWMA,
    HIST_SCALE,
    MATRIX,
    NONMT,
    OOS,
    as_list_fold,
)


def nonzero_init():
    f = fold("f", ["s"], ["pkt_len"]).init(s=3).let(
        "s", field("s") + field("pkt_len"))
    return program(folds=[f],
                   result=query().select("srcip", "f").groupby("srcip"))


#: name -> (program, params, transform of the compiled GROUPBY stages).
PROGRAMS = {
    **{f"catalog/{name}": (entry.source, entry.default_params, None)
       for name, entry in sorted(ALL_QUERIES.items())},
    **{f"fold/{i}": (source, params, None)
       for i, (source, params) in enumerate(FOLD_PROGRAMS)},
    # One program per merge class (tests/test_vector_store.py's grid;
    # exact history is a knob below).
    "merge/matrix": (MATRIX, {}, None),
    "merge/hist_scale": (HIST_SCALE, {}, None),
    "merge/hist_additive": (OOS, {}, None),
    "merge/list": (NONMT, {}, None),
    "merge/list_derived": (AVG, {}, as_list_fold),
    "merge/additive_init": (nonzero_init(), {}, None),
    "merge/scale": (EWMA, {"alpha": 0.25}, None),
}

#: Engine knobs a never-evicting cache must not see through.
KNOBS = {
    "plain": {},
    "exact_history": {"exact_history": True},
    "random": {"policy": "random"},
    "refresh": {"refresh_interval": 7},
}


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(n_packets=1200, n_flows=40, seed=13)


def rows(tables):
    return {name: table.rows for name, table in tables.items()}


@pytest.mark.parametrize("engine", ["row", "auto"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_run_exact_equals_the_executor(name, engine, trace):
    source, params, transform = PROGRAMS[name]
    want = None
    for knobs in KNOBS.values():
        qe = QueryEngine(source, params=params, engine=engine,
                         geometry=CacheGeometry.set_associative(16, ways=4),
                         **knobs)
        if transform is not None:
            qe.compiled = replace(qe.compiled, groupby_stages=tuple(
                transform(s) for s in qe.compiled.groupby_stages))
        if want is None:
            want = rows(oracle_tables(qe, trace))
        assert rows(qe.run_exact(trace)) == want, knobs


@pytest.mark.parametrize("engine", ["row", "auto"])
@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
def test_never_evicting_run_reads_exact_counters(name, engine, trace):
    """One slot per record: no eviction, every key valid, and each key
    written once, by the final flush."""
    entry = ALL_QUERIES[name]
    qe = QueryEngine(entry.source, params=entry.default_params,
                     engine=engine,
                     geometry=CacheGeometry.fully_associative(len(trace)))
    report = qe.run(trace)
    truth = oracle_tables(qe, trace)
    for stage in qe.compiled.groupby_stages:
        name = stage.query_name
        assert report.cache_stats[name].evictions == 0
        assert report.accuracy[name] == 1.0
        assert report.backing_writes[name] == len(truth[name])
        assert report.tables[name].rows == truth[name].rows
