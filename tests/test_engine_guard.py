"""The ``engine`` knob alone picks the engine: ``"auto"`` is
``"vector"`` in every layer, and the row store and the interpreter
run only under ``engine="row"``, which is one-shot: a session on it
raises ``RPR-E001`` before any store is built.

The guard patches the row engine's entry points to raise and drives
every Fig. 2 query through each entry point under ``"auto"``, so a
silent fallback to the row engine fails here.  A second guard does the
same for the per-epoch backing-store dicts: the vector store absorbs
into per-key arrays for every merge class.  A ``GROUPBY`` on the
float field ``tout`` is rejected with ``RPR-E302`` on every engine
and by ``run_exact``, before any store is built.
"""

import pytest

from repro.cli import main
from repro.core.errors import HardwareError
from repro.core.interpreter import Interpreter
from repro.queries.catalog import FIG2_QUERIES
from repro.switch.kvstore.backing import BackingStore
from repro.switch.kvstore.cache import CacheGeometry
from repro.switch.kvstore.split import SplitKeyValueStore
from repro.switch.kvstore.windowed_store import WindowedVectorStore
from repro.switch.pipeline import SwitchPipeline
from repro.telemetry import QueryEngine

from tests.conftest import synthetic_trace

GEOM = CacheGeometry.set_associative(64, ways=4)

FLOAT_KEY = "SELECT COUNT GROUPBY tout"


def observables(report):
    return (
        {q: t.rows for q, t in report.tables.items()},
        report.cache_stats, report.backing_writes, report.accuracy,
    )


def engine_for(entry, engine="auto"):
    return QueryEngine(entry.source, params=entry.default_params,
                       geometry=GEOM, engine=engine)


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(1500, n_flows=40, seed=5)


@pytest.fixture
def row_engine_refused(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("row engine entered under engine='auto'")

    monkeypatch.setattr(SplitKeyValueStore, "__init__", refuse)
    monkeypatch.setattr(Interpreter, "evaluate_stage", refuse)


@pytest.fixture
def stores_refused(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a store was allocated")

    monkeypatch.setattr(SplitKeyValueStore, "__init__", refuse)
    monkeypatch.setattr(WindowedVectorStore, "__init__", refuse)


class TestStoreFromKnob:
    @pytest.mark.parametrize("engine", ["auto", "vector"])
    @pytest.mark.parametrize("entry", FIG2_QUERIES, ids=lambda e: e.name)
    def test_store_is_built_before_first_ingest(self, entry, engine):
        session = engine_for(entry, engine).open()
        for stage in session._engine.compiled.groupby_stages:
            store = session._pipeline.store_for(stage.query_name)
            assert type(store) is WindowedVectorStore


@pytest.mark.usefixtures("stores_refused")
class TestReferenceIsOneShot:
    def test_sessions_refused_before_any_store(self):
        """open(), resume() and serve() on the row reference raise
        RPR-E001 before a store is built or a worker forked, whatever
        the session knobs."""
        import multiprocessing

        qe = engine_for(FIG2_QUERIES[0], "row")
        calls = [lambda: qe.open(), lambda: qe.open(window=97, shards=2),
                 lambda: qe.resume(b""), lambda: qe.serve(window=97)]
        for call in calls:
            with pytest.raises(HardwareError, match=r"^\[RPR-E001\]"):
                call()
        assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("row_engine_refused")
class TestAutoNeverEntersRowEngine:
    @pytest.mark.parametrize("entry", FIG2_QUERIES, ids=lambda e: e.name)
    def test_every_entry_point(self, entry, trace):
        qe = engine_for(entry)
        base = observables(qe.run(trace, include_invalid=True))

        half = len(trace) // 2
        columns = trace.columns()
        head = {name: col[:half] for name, col in columns.items()}
        tail = {name: col[half:] for name, col in columns.items()}
        session = qe.open(window=997)
        session.ingest(trace.from_arrays(head))
        resumed = engine_for(entry).resume(session.checkpoint())
        session.close()
        resumed.ingest(trace.from_arrays(tail))
        assert observables(resumed.close(include_invalid=True)) == base

        sharded = qe.open(shards=2)
        sharded.ingest(trace)
        assert observables(sharded.close(include_invalid=True)) == base

        plans = qe.plan_cache(trace, [64], ways=4)
        for stage in qe.compiled.groupby_stages:
            (point,) = plans[stage.query_name]
            assert point.stats == base[1][stage.query_name]

        exact = qe.run_exact(trace)
        assert exact[qe.compiled.result].rows


@pytest.fixture
def backing_dicts_refused(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-epoch backing-store dicts under 'auto'")

    monkeypatch.setattr(BackingStore, "absorb", refuse)


@pytest.mark.usefixtures("backing_dicts_refused")
class TestAutoNeverAbsorbsPerEpoch:
    @pytest.mark.parametrize("entry", FIG2_QUERIES, ids=lambda e: e.name)
    def test_every_entry_point(self, entry, trace):
        qe = engine_for(entry)
        base = observables(qe.run(trace, include_invalid=True))

        half = len(trace) // 2
        columns = trace.columns()
        head = {name: col[:half] for name, col in columns.items()}
        tail = {name: col[half:] for name, col in columns.items()}
        session = qe.open(window=997)
        session.ingest(trace.from_arrays(head))
        session.results(include_invalid=True)
        resumed = engine_for(entry).resume(session.checkpoint())
        session.close()
        resumed.ingest(trace.from_arrays(tail))
        assert observables(resumed.close(include_invalid=True)) == base

        sharded = qe.open(shards=2)
        sharded.ingest(trace)
        assert observables(sharded.close(include_invalid=True)) == base


class TestFloatKeyRejected:
    @pytest.mark.usefixtures("stores_refused")
    @pytest.mark.parametrize("engine", ["auto", "vector", "row"])
    def test_run_and_open_raise_before_any_store(self, engine, trace):
        qe = QueryEngine(FLOAT_KEY, geometry=GEOM, engine=engine)
        with pytest.raises(HardwareError, match=r"\[RPR-E302\].*'tout'"):
            qe.run(trace)
        # The reference refuses every session first.
        with pytest.raises(HardwareError, match=r"\[RPR-E001\]"
                           if engine == "row" else r"\[RPR-E302\]"):
            qe.open(window=997)
        # run_exact is the same pipeline on a never-evicting cache.
        with pytest.raises(HardwareError, match=r"\[RPR-E302\].*'tout'"):
            qe.run_exact(trace)

    def test_lint_reports_the_code(self, capsys):
        code = main(["lint", FLOAT_KEY])
        assert code == 1
        assert "RPR-E302" in capsys.readouterr().out

    def test_plan_cache_and_direct_pipelines_raise(self, trace):
        qe = QueryEngine(FLOAT_KEY, geometry=GEOM)
        with pytest.raises(HardwareError, match=r"\[RPR-E302\]"):
            qe.plan_cache(trace, [64])
        with pytest.raises(HardwareError, match=r"\[RPR-E302\]"):
            SwitchPipeline(qe.compiled)
