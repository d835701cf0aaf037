"""Split key-value store integration tests (Fig. 3 engine)."""

import pytest

from repro.core.compiler import CompileOptions, compile_program
from repro.core.errors import HardwareError
from repro.core.interpreter import Interpreter
from repro.core.parser import parse_program
from repro.core.semantics import resolve_program
from repro.switch.kvstore.cache import CacheGeometry
from repro.switch.kvstore.split import SplitKeyValueStore
from repro.telemetry.results import compare_tables

from tests.conftest import synthetic_trace


def build_store(source, capacity=16, ways=4, params=None, exact_history=False):
    rp = resolve_program(parse_program(source))
    program = compile_program(rp, CompileOptions(exact_history=exact_history))
    stage = program.groupby_stages[0]
    geometry = CacheGeometry.set_associative(capacity, ways=ways)
    return rp, SplitKeyValueStore(stage, geometry, params=params)


class TestLifecycle:
    def test_process_after_finalize_rejected(self):
        rp, store = build_store("SELECT COUNT GROUPBY srcip")
        trace = synthetic_trace(n_packets=100)
        for record in trace:
            store.process(record)
        store.finalize()
        with pytest.raises(HardwareError):
            store.process(trace[0])

    def test_finalize_idempotent(self):
        rp, store = build_store("SELECT COUNT GROUPBY srcip")
        for record in synthetic_trace(n_packets=100):
            store.process(record)
        store.finalize()
        writes = store.backing.writes
        store.finalize()
        assert store.backing.writes == writes

    def test_result_table_triggers_finalize(self):
        rp, store = build_store("SELECT COUNT GROUPBY srcip")
        trace = synthetic_trace(n_packets=500, n_flows=40)
        for record in trace:
            store.process(record)
        table = store.result_table()
        # Every flow reaches the backing store via merge or flush.
        assert len(table) == trace.unique_keys(("srcip",))


class TestCorrectness:
    def test_count_exact_under_pressure(self):
        rp, store = build_store("SELECT COUNT GROUPBY srcip", capacity=8, ways=2)
        trace = synthetic_trace(n_packets=2000, n_flows=50)
        for record in trace:
            store.process(record)
        truth = Interpreter(rp).run_result(trace)
        diff = compare_tables(store.result_table(), truth)
        assert diff.exact, diff.describe()
        assert store.stats.evictions > 0  # the test must exercise merging

    def test_ewma_exact_under_pressure(self):
        source = (
            "def ewma (e, (tin, tout)): e = (1 - alpha) * e + alpha * (tout - tin)\n"
            "SELECT srcip, ewma GROUPBY srcip WHERE tout != infinity"
        )
        params = {"alpha": 0.2}
        rp, store = build_store(source, capacity=8, ways=2, params=params)
        trace = synthetic_trace(n_packets=2000, n_flows=50)
        kept = [r for r in trace if r.tout != float("inf")]
        for record in kept:
            store.process(record)
        truth = Interpreter(rp, params=params).run_result(trace)
        diff = compare_tables(store.result_table(), truth, rel_tol=1e-9)
        assert diff.exact, diff.describe()

    def test_invalid_keys_skipped_by_default(self):
        rp, store = build_store("SELECT MAX(tcpseq) GROUPBY srcip",
                                capacity=4, ways=1)
        trace = synthetic_trace(n_packets=2000, n_flows=50)
        for record in trace:
            store.process(record)
        valid_only = store.result_table()
        with_invalid = store.result_table(include_invalid=True)
        assert len(valid_only) < len(with_invalid)
        assert len(with_invalid) == trace.unique_keys(("srcip",))

    def test_accuracy_matches_backing_stats(self):
        rp, store = build_store("SELECT MAX(tcpseq) GROUPBY srcip",
                                capacity=4, ways=1)
        for record in synthetic_trace(n_packets=2000, n_flows=50):
            store.process(record)
        valid, total = store.backing.validity_stats()
        assert store.accuracy() == pytest.approx(valid / total)


class TestValueLayoutRuntime:
    def test_aux_registers_only_when_needed(self):
        rp, store = build_store("SELECT COUNT GROUPBY srcip")
        trace = synthetic_trace(n_packets=10)
        for record in trace:
            store.process(record)
        entry = next(store.cache.entries())
        assert entry.value.aux["COUNT"] == {}   # additive: no registers

    def test_scale_aux_register_present(self):
        source = (
            "def ewma (e, (tin, tout)): e = (1 - alpha) * e + alpha * (tout - tin)\n"
            "SELECT srcip, ewma GROUPBY srcip"
        )
        rp, store = build_store(source, params={"alpha": 0.5})
        for record in synthetic_trace(n_packets=10):
            store.process(record)
        entry = next(store.cache.entries())
        assert "P" in entry.value.aux["ewma"]
