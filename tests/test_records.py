"""Observation-record and table tests: conversion, persistence, keys."""

import math

import numpy as np
import pytest

from repro.network.records import ObservationTable, as_table

from tests.conftest import make_record, synthetic_trace


class TestPacketRecord:
    def test_dropped_property(self):
        assert make_record(tout=math.inf).dropped
        assert not make_record(tout=5.0).dropped

    def test_queueing_delay(self):
        assert make_record(tin=10, tout=35.0).queueing_delay == 25.0
        assert math.isinf(make_record(tout=math.inf).queueing_delay)

    def test_five_tuple(self):
        record = make_record(srcip=1, dstip=2, srcport=3, dstport=4, proto=6)
        assert record.five_tuple() == (1, 2, 3, 4, 6)

    def test_key_extraction(self):
        record = make_record(qid=7, srcip=1)
        assert record.key(("qid", "srcip")) == (7, 1)

    def test_fields_and_column_dtypes_follow_the_schema(self):
        """The door builds columns per record field with the schema's
        carrier type, the table the analyzer's key rule reads."""
        from repro.core.schema import FIELDS
        from repro.network.records import RECORD_FIELDS

        assert RECORD_FIELDS == tuple(f.name for f in FIELDS)
        columns = as_table([make_record()]).columns()
        for spec in FIELDS:
            kind = "f" if spec.dtype == "float" else "i"
            assert columns[spec.name].dtype.kind == kind, spec.name


class TestColumnarConversion:
    def test_round_trip(self):
        table = synthetic_trace(n_packets=200, n_flows=10)
        rebuilt = ObservationTable.from_arrays(table.columns())
        assert len(rebuilt) == len(table)
        assert rebuilt[0] == table[0]
        assert rebuilt[-1] == table[-1]

    def test_inf_tout_survives(self):
        table = ObservationTable([make_record(tout=math.inf)])
        rebuilt = ObservationTable.from_arrays(table.columns())
        assert math.isinf(rebuilt[0].tout)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ObservationTable.from_arrays({
                "srcip": np.zeros(3, dtype=np.int64),
                "dstip": np.zeros(4, dtype=np.int64),
            })

    def test_partial_columns_default(self):
        rebuilt = ObservationTable.from_arrays(
            {"srcip": np.array([5], dtype=np.int64)})
        assert rebuilt[0].srcip == 5
        assert rebuilt[0].proto == 6  # default


class TestPersistence:
    def test_npz_round_trip(self, tmp_path):
        table = synthetic_trace(n_packets=300, n_flows=12)
        path = str(tmp_path / "trace.npz")
        table.save(path)
        loaded = ObservationTable.load(path)
        assert len(loaded) == len(table)
        assert loaded[42] == table[42]


class TestAggregates:
    def test_unique_keys(self):
        table = synthetic_trace(n_packets=500, n_flows=20)
        assert table.unique_keys(("srcip",)) <= 20

    def test_drop_count(self):
        table = ObservationTable([
            make_record(tout=math.inf), make_record(tout=1.0),
            make_record(tout=math.inf),
        ])
        assert table.drop_count() == 2

    def test_duration(self):
        table = ObservationTable([make_record(tin=100), make_record(tin=900)])
        assert table.duration_ns() == 800

    def test_duration_out_of_order(self):
        """Merged multi-queue traces may not end on the latest tin; the
        duration is the tin span, never negative."""
        table = ObservationTable([
            make_record(tin=500), make_record(tin=900), make_record(tin=100),
        ])
        assert table.duration_ns() == 800

    def test_aggregates_match_the_records(self):
        table = synthetic_trace(n_packets=600, n_flows=25, seed=9)
        records = list(table)
        fields = ("srcip", "dstip", "srcport")
        assert table.drop_count() == sum(r.dropped for r in records)
        tins = [r.tin for r in records]
        assert table.duration_ns() == max(tins) - min(tins)
        assert table.unique_keys(fields) == len({r.key(fields) for r in records})


class TestColumnarStorage:
    """One storage form: the column dict.  Rows read out are copies,
    slices are views, and writes go through ``columns()``."""

    def test_records_become_columns_at_construction(self):
        records = [make_record(srcip=i, tout=float(i)) for i in range(5)]
        table = ObservationTable(records)
        assert list(table) == records
        assert table.columns()["srcip"].tolist() == [0, 1, 2, 3, 4]
        records[0].srcip = 99                # the caller's rows are not kept
        assert table[0].srcip == 0

    def test_rows_read_out_are_copies(self):
        table = ObservationTable([make_record(tout=5.0)] * 2)
        next(iter(table)).tout = math.inf
        table[1].tout = math.inf
        assert table.drop_count() == 0

    def test_getitem_negative_and_bounds(self):
        table = synthetic_trace(n_packets=50)
        assert table[-1] == table[49]
        with pytest.raises(IndexError):
            table[50]

    def test_columns_is_the_storage(self):
        table = synthetic_trace(n_packets=20)
        assert table.columns() is table.columns()
        table.columns()["tout"][3] = math.inf   # a write lands
        assert table[3].dropped

    def test_from_arrays_casts_dtypes(self):
        table = ObservationTable.from_arrays({
            "srcip": np.array([1, 2], dtype=np.int32),
            "tout": np.array([5, math.inf]),
        })
        assert table.columns()["srcip"].dtype == np.int64
        assert table.columns()["tout"].dtype == np.float64
        assert table[1].dropped

    def test_slice_is_a_view(self):
        table = synthetic_trace(n_packets=20)
        head = table[0:3]
        assert len(head) == 3
        assert list(head) == list(table)[:3]
        assert np.shares_memory(head.columns()["srcip"],
                                table.columns()["srcip"])

    def test_slices_agree_with_list_slices(self):
        table = synthetic_trace(n_packets=20)
        for index in (slice(0, 3), slice(2, 15, 3), slice(-4, None)):
            assert list(table[index]) == list(table)[index]


class TestDoor:
    """``as_table``: every batch form becomes one table."""

    def test_table_passes_through(self):
        table = synthetic_trace(n_packets=10)
        assert as_table(table) is table

    def test_every_form_columnizes(self):
        table = synthetic_trace(n_packets=40, n_flows=5)
        columns = {name: col.copy() for name, col in table.columns().items()}
        for batch in (list(table), iter(list(table)), columns):
            out = as_table(batch)
            assert isinstance(out, ObservationTable)
            assert list(out) == list(table)

    def test_value_that_does_not_fit_names_field_and_record(self):
        rows = [make_record(), make_record(srcip=2 ** 64)]
        for convert in (lambda: ObservationTable(rows),
                        lambda: as_table(rows)):
            with pytest.raises(ValueError, match=r"record 1: field 'srcip'"):
                convert()
