"""Trace serialisation tests: CSV/NPZ round-trips and validation."""

import math
import threading

import numpy as np

from repro.network.records import ObservationTable
from repro.telemetry.serve import TraceTailer
from repro.traffic.trace_io import (
    read_csv,
    read_npz,
    validate_table,
    write_csv,
    write_npz,
)

from tests.conftest import make_record, synthetic_trace


class TestCsv:
    def test_round_trip(self, tmp_path):
        table = synthetic_trace(n_packets=150, n_flows=10)
        path = tmp_path / "trace.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert len(loaded) == len(table)
        assert loaded[0] == table[0]
        assert loaded[97] == table[97]

    def test_inf_tout_round_trip(self, tmp_path):
        table = ObservationTable([make_record(tout=math.inf)])
        path = tmp_path / "drop.csv"
        write_csv(table, path)
        assert math.isinf(read_csv(path)[0].tout)

    def test_missing_columns_default(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("srcip,dstip\n1,2\n3,4\n")
        loaded = read_csv(path)
        assert len(loaded) == 2
        assert loaded[0].srcip == 1 and loaded[0].proto == 6

    def test_unknown_columns_ignored(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("srcip,mystery\n1,99\n")
        assert read_csv(path)[0].srcip == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert len(read_csv(path)) == 0

    def test_tailer_matches_read_csv(self, tmp_path):
        """One field rule: a tailed file and the offline read give equal
        columns (column subset, unknown column, ``inf`` tout, a blank
        line)."""
        path = tmp_path / "subset.csv"
        path.write_text("srcip,mystery,tout,pkt_len\n1,99,5.0,100\n"
                        "2,98,inf,64\n\n3,97,7.5,1500\n")
        offline = read_csv(path)
        stop = threading.Event()
        stop.set()                          # one catch-up read, then stop
        tailer = TraceTailer(path, batch_size=2, poll_interval=0.01)
        tailed = ObservationTable.concat(list(tailer.batches(stop=stop)))
        assert len(offline) == len(tailed) == 3
        for name, column in offline.columns().items():
            np.testing.assert_array_equal(tailed.columns()[name], column)
        assert math.isinf(offline[1].tout) and offline[0].proto == 6


class TestNpz:
    def test_round_trip(self, tmp_path):
        table = synthetic_trace(n_packets=200, n_flows=8)
        path = tmp_path / "trace.npz"
        write_npz(table, path)
        loaded = read_npz(path)
        assert len(loaded) == len(table)
        assert loaded[13] == table[13]


class TestValidation:
    def test_clean_trace_validates(self):
        assert validate_table(synthetic_trace(n_packets=300)) == []

    def test_tout_before_tin_flagged(self):
        table = ObservationTable([make_record(tin=100, tout=50.0)])
        problems = validate_table(table)
        assert problems and "tout" in problems[0]

    def test_time_regression_within_queue_flagged(self):
        table = ObservationTable([
            make_record(qid=1, tin=100),
            make_record(qid=1, tin=50, tout=60.0),
        ])
        problems = validate_table(table)
        assert any("decreases" in p for p in problems)

    def test_interleaved_queues_ok(self):
        table = ObservationTable([
            make_record(qid=0, tin=100),
            make_record(qid=1, tin=50, tout=60.0),
            make_record(qid=0, tin=200, tout=300.0),
        ])
        assert validate_table(table) == []
