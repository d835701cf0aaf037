"""Periodic-refresh tests (§3.2: "keys can be periodically evicted to
ensure the backing store is fresh")."""

import pytest

from repro.core.compiler import compile_program
from repro.core.errors import HardwareError
from repro.core.interpreter import Interpreter
from repro.core.parser import parse_program
from repro.core.semantics import resolve_program
from repro.switch.kvstore.cache import CacheGeometry
from repro.switch.kvstore.split import SplitKeyValueStore
from repro.telemetry.results import compare_tables
from repro.telemetry.runtime import QueryEngine

from tests.conftest import oracle_tables, synthetic_trace

COUNT = "SELECT COUNT GROUPBY srcip"
GEOM = CacheGeometry.set_associative(64, ways=8)


def build_store(source=COUNT, refresh_interval=None, geometry=GEOM):
    rp = resolve_program(parse_program(source))
    stage = compile_program(rp).groupby_stages[0]
    return rp, SplitKeyValueStore(stage, geometry,
                                  refresh_interval=refresh_interval)


class TestFreshness:
    def test_backing_store_fresh_mid_run(self):
        """After a refresh, the backing store reflects every processed
        packet — without waiting for end-of-run finalize."""
        trace = synthetic_trace(n_packets=1000, n_flows=20)
        rp, store = build_store(refresh_interval=100)
        counted = {}
        for i, record in enumerate(trace):
            store.process(record)
            counted[record.srcip] = counted.get(record.srcip, 0) + 1
            if (i + 1) % 100 == 0:
                # Freshness invariant: the backing store matches the
                # exact per-key counts at each refresh boundary.
                for key, expected in counted.items():
                    state = store.backing.value_of((key,), "COUNT")
                    assert state is not None and state["COUNT"] == expected

    def test_refresh_counted(self):
        trace = synthetic_trace(n_packets=500, n_flows=10)
        rp, store = build_store(refresh_interval=50)
        for record in trace:
            store.process(record)
        assert store.refreshes == 500 // 50

    def test_final_result_still_exact(self):
        trace = synthetic_trace(n_packets=2000, n_flows=50)
        rp, store = build_store(refresh_interval=37)  # awkward interval
        for record in trace:
            store.process(record)
        truth = Interpreter(rp).run_result(trace)
        diff = compare_tables(store.result_table(), truth)
        assert diff.exact, diff.describe()

    def test_invalid_interval_rejected(self):
        with pytest.raises(HardwareError):
            build_store(refresh_interval=0)


class TestCleanEntrySkipping:
    def test_idle_entries_not_rewritten(self):
        """Entries untouched since the last refresh must not produce
        backing-store writes (or spurious segments)."""
        trace = synthetic_trace(n_packets=300, n_flows=5)
        rp, store = build_store(refresh_interval=None,
                                geometry=CacheGeometry.fully_associative(16))
        for record in trace:
            store.process(record)
        store.refresh()
        writes_after_first = store.backing.writes
        store.refresh()  # nothing processed in between
        assert store.backing.writes == writes_after_first

    def test_nonlinear_validity_not_poisoned_by_idle_refresh(self):
        source = "SELECT MAX(tcpseq) GROUPBY srcip"
        trace = synthetic_trace(n_packets=200, n_flows=4)
        rp, store = build_store(source, refresh_interval=None,
                                geometry=CacheGeometry.fully_associative(16))
        for record in trace:
            store.process(record)
        store.refresh()
        store.refresh()  # idle — must not create a second segment
        store.finalize()
        for key in store.backing.keys():
            assert store.backing.is_valid(key)


class TestNonMergeableTradeoff:
    def test_refresh_invalidates_long_lived_nonlinear_keys(self):
        """For non-mergeable folds, refresh trades validity for
        freshness: keys spanning a refresh boundary become invalid."""
        source = "SELECT MAX(tcpseq) GROUPBY srcip"
        trace = synthetic_trace(n_packets=1000, n_flows=8)
        rp, store = build_store(source, refresh_interval=100,
                                geometry=CacheGeometry.fully_associative(64))
        for record in trace:
            store.process(record)
        store.finalize()
        # Every flow spans many refresh intervals here.
        assert store.backing.accuracy < 0.5
        # ... but each segment is still individually correct (§3.2):
        # segments per key = number of refreshes it was dirty in.
        for key in store.backing.keys():
            segments = store.backing.segments_of(key, "MAX(tcpseq)")
            assert len(segments) >= 2


class TestThroughEngine:
    def test_engine_passes_refresh_interval(self):
        trace = synthetic_trace(n_packets=1000, n_flows=30)
        engine = QueryEngine(COUNT, geometry=GEOM, refresh_interval=100)
        report = engine.run(trace)
        truth = oracle_tables(engine, trace)[report.result_name]
        assert compare_tables(report.result, truth).exact
        # Refresh inflates the write rate — the §3.2 freshness cost.
        plain = QueryEngine(COUNT, geometry=GEOM).run(trace)
        assert (report.backing_writes[report.result_name] >
                plain.backing_writes[plain.result_name])
