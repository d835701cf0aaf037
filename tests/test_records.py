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
        arrays = table.to_arrays()
        rebuilt = ObservationTable.from_arrays(arrays)
        assert len(rebuilt) == len(table)
        assert rebuilt[0] == table[0]
        assert rebuilt[-1] == table[-1]

    def test_inf_tout_survives(self):
        table = ObservationTable([make_record(tout=math.inf)])
        rebuilt = ObservationTable.from_arrays(table.to_arrays())
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

    def test_key_array_distinct_flows(self):
        table = synthetic_trace(n_packets=400, n_flows=15)
        keys = table.key_array(("srcip", "dstip"))
        assert len(keys) == 400
        expected = table.unique_keys(("srcip", "dstip"))
        assert len(np.unique(keys)) == expected


class TestColumnarAuthority:
    """The struct-of-arrays core: columnar tables behave identically to
    row tables, and switch authority safely on mutation."""

    def make_columnar(self, **kwargs) -> ObservationTable:
        table = synthetic_trace(**kwargs)
        columnar = ObservationTable.from_arrays(table.to_arrays())
        assert columnar.is_columnar
        return columnar

    def test_row_table_is_not_columnar(self):
        assert not synthetic_trace(n_packets=10).is_columnar

    def test_iteration_yields_equal_records(self):
        table = synthetic_trace(n_packets=150, n_flows=8)
        columnar = ObservationTable.from_arrays(table.to_arrays())
        assert list(columnar) == list(table)
        assert columnar.is_columnar          # iteration keeps authority

    def test_getitem_negative_and_bounds(self):
        columnar = self.make_columnar(n_packets=50)
        assert columnar[-1] == columnar[49]
        with pytest.raises(IndexError):
            columnar[50]

    def test_records_access_switches_to_rows(self):
        columnar = self.make_columnar(n_packets=30)
        records = columnar.records
        assert not columnar.is_columnar
        records[0].tout = math.inf           # mutations stick
        assert columnar.drop_count() >= 1

    def test_append_on_columnar_table(self):
        from tests.conftest import make_record
        columnar = self.make_columnar(n_packets=5)
        columnar.append(make_record(srcip=42))
        assert len(columnar) == 6
        assert columnar[5].srcip == 42

    def test_columnar_aggregates_match_row_path(self):
        table = synthetic_trace(n_packets=600, n_flows=25, seed=9)
        columnar = ObservationTable.from_arrays(table.to_arrays())
        fields = ("srcip", "dstip", "srcport")
        assert columnar.drop_count() == table.drop_count()
        assert columnar.duration_ns() == table.duration_ns()
        assert columnar.unique_keys(fields) == table.unique_keys(fields)
        assert np.array_equal(columnar.key_array(fields), table.key_array(fields))

    def test_columns_returns_canonical_storage(self):
        columnar = self.make_columnar(n_packets=20)
        assert columnar.columns() is columnar.columns()
        copied = columnar.to_arrays()
        copied["srcip"][0] = -1              # copies never alias storage
        assert columnar.columns()["srcip"][0] != -1

    def test_from_arrays_casts_dtypes(self):
        table = ObservationTable.from_arrays({
            "srcip": np.array([1, 2], dtype=np.int32),
            "tout": np.array([5, math.inf]),
        })
        assert table.columns()["srcip"].dtype == np.int64
        assert table.columns()["tout"].dtype == np.float64
        assert table[1].dropped

    def test_columnar_slice_is_a_view(self):
        columnar = self.make_columnar(n_packets=20)
        head = columnar[0:3]
        assert head.is_columnar and len(head) == 3
        assert list(head) == list(columnar)[:3]
        assert np.shares_memory(head.columns()["srcip"],
                                columnar.columns()["srcip"])

    def test_slices_agree_across_authority(self):
        table = synthetic_trace(n_packets=20)
        columnar = ObservationTable.from_arrays(table.to_arrays())
        for index in (slice(0, 3), slice(2, 15, 3), slice(-4, None)):
            assert list(columnar[index]) == list(table[index])


class TestDoor:
    """``as_table``: every batch form becomes one columnar table."""

    def test_columnar_table_passes_through(self):
        columnar = ObservationTable.from_arrays(
            synthetic_trace(n_packets=10).to_arrays())
        assert as_table(columnar) is columnar

    def test_every_form_columnizes(self):
        table = synthetic_trace(n_packets=40, n_flows=5)
        for batch in (table, list(table), iter(list(table)),
                      table.to_arrays()):
            out = as_table(batch)
            assert out.is_columnar
            assert list(out) == list(table)
        assert not table.is_columnar          # the caller's table is kept

    def test_value_that_does_not_fit_names_field_and_record(self):
        rows = [make_record(), make_record(srcip=2 ** 64)]
        for convert in (lambda: ObservationTable(rows).columns(),
                        lambda: as_table(rows)):
            with pytest.raises(ValueError, match=r"record 1: field 'srcip'"):
                convert()

