"""Packet-observation records — the rows of the abstract table ``T``.

The paper's schema (§2)::

    (pkt_hdr, qid, tin, tout, qsize, pkt_path)

Each record describes one packet's transit of one queue; a packet that
traverses multiple queues contributes one record per queue (footnote
2).  A dropped packet has ``tout == +inf`` (§2).

Two representations are provided:

* :class:`PacketRecord` — a slotted per-row object, convenient for the
  interpreter, the switch pipeline, and tests;
* :class:`ObservationTable` — a struct-of-arrays table whose canonical
  storage is one numpy array per schema field.  Row access
  (iteration, indexing, ``.records``) materialises
  :class:`PacketRecord` views lazily, so row-at-a-time consumers keep
  working, while the columnar core gives the vectorized executor
  (:mod:`repro.core.vector_exec`), the trace generators, and the
  ``.npz`` persistence O(1)-per-column operations.

A table is always in exactly one of two authority states:

* *columnar* — ``_columns`` holds the data; built by
  :meth:`from_arrays` / :meth:`load` or by the columnar trace
  generators.  Aggregates (:meth:`key_array`, :meth:`unique_keys`,
  :meth:`drop_count`, :meth:`duration_ns`) and persistence run as
  numpy column operations.
* *row* — ``_rows`` holds a mutable list of :class:`PacketRecord`;
  entered on construction from records, on :meth:`append`, or the
  first time ``.records`` is touched (callers may mutate the list, so
  the columnar copy cannot be kept coherent and is dropped).

Below the public API there is only one form: every entry point passes
its input through :func:`as_table`, which returns a columnar table —
the fixed-width integer fields the switch parser extracts (§3.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.schema import FIELDS

INFINITY = math.inf


@dataclass(slots=True)
class PacketRecord:
    """One packet observation at one queue.

    All times are integer nanoseconds except ``tout`` which is ``+inf``
    for dropped packets.  Field names match :mod:`repro.core.schema`
    exactly — queries access them by name.
    """

    srcip: int = 0
    dstip: int = 0
    srcport: int = 0
    dstport: int = 0
    proto: int = 6
    pkt_len: int = 64
    payload_len: int = 0
    tcpseq: int = 0
    pkt_id: int = 0
    qid: int = 0
    tin: int = 0
    tout: float = 0.0
    qin: int = 0
    qout: int = 0
    qsize: int = 0
    pkt_path: int = 0

    @property
    def dropped(self) -> bool:
        return math.isinf(self.tout)

    @property
    def queueing_delay(self) -> float:
        """``tout - tin``; ``+inf`` for drops."""
        return self.tout - self.tin

    def five_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.srcip, self.dstip, self.srcport, self.dstport, self.proto)

    def key(self, key_fields: Sequence[str]) -> tuple:
        """Aggregation key for ``key_fields`` (hardware key extraction)."""
        return tuple(getattr(self, f) for f in key_fields)


RECORD_FIELDS: tuple[str, ...] = tuple(f.name for f in dc_fields(PacketRecord))


class ColumnRowView:
    """A lazy row view over per-field Python lists (``tolist`` output).

    Presents attribute access like a :class:`PacketRecord`, so compiled
    per-packet functions (ALU updates, predicates, merge replays) run
    unchanged over columnar batches; the underlying values are native
    Python scalars, so arithmetic is bit-identical to the
    row-at-a-time path.  Shared by the row reference
    (:mod:`repro.reference`) and the vectorized split store's replay
    path.
    """

    __slots__ = ("_columns", "_index")

    def __init__(self, columns, index: int):
        self._columns = columns
        self._index = index

    def __getattr__(self, name: str):
        try:
            return self._columns[name][self._index]
        except KeyError:
            raise AttributeError(name) from None

#: numpy dtypes used by the columnar representation: the carrier type
#: of each field in the schema (:data:`repro.core.schema.FIELDS`), the
#: one table the analyzer's key rule also reads.
_COLUMN_DTYPES: dict[str, str] = {
    f.name: "float64" if f.dtype == "float" else "int64" for f in FIELDS
}

#: Per-field default values (the PacketRecord dataclass defaults),
#: used to fill columns absent from ``from_arrays`` input.
_FIELD_DEFAULTS: dict[str, int | float] = {
    f.name: f.default for f in dc_fields(PacketRecord)
}


class ObservationTable:
    """A materialised observation table with native columnar storage.

    Iterating yields :class:`PacketRecord` objects in arrival order
    (the order matters: the language supports order-dependent folds).
    Mutating rows requires going through ``.records``, which switches
    the table to row authority.
    """

    def __init__(self, records: Iterable[PacketRecord] | None = None):
        self._rows: list[PacketRecord] | None = (
            list(records) if records is not None else []
        )
        self._columns: dict[str, np.ndarray] | None = None

    # -- authority management ------------------------------------------------

    @property
    def is_columnar(self) -> bool:
        """True when the canonical storage is the column dict."""
        return self._columns is not None

    @property
    def records(self) -> list[PacketRecord]:
        """The mutable row list; materialised from columns on demand.

        Touching this drops the columnar storage (the caller may mutate
        rows, which cannot be reflected into a retained column copy).
        """
        if self._rows is None:
            self._rows = self._materialize_rows()
            self._columns = None
        return self._rows

    def _materialize_rows(self) -> list[PacketRecord]:
        columns = self._columns
        assert columns is not None
        # tolist() converts to native Python scalars, so the records are
        # indistinguishable from ones built row-at-a-time.
        data = [columns[name].tolist() for name in RECORD_FIELDS]
        return [PacketRecord(*values) for values in zip(*data)]

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self._columns["tin"])

    def __iter__(self) -> Iterator[PacketRecord]:
        if self._rows is not None:
            return iter(self._rows)
        return self._iter_columnar()

    def _iter_columnar(self) -> Iterator[PacketRecord]:
        """Lazy row views: records are built one at a time (consumers
        that stop early never pay for the tail) and the table keeps
        columnar authority.  The yielded records are ephemeral —
        mutating them does not write back; use ``.records`` for that."""
        columns = self._columns
        assert columns is not None
        data = [columns[name].tolist() for name in RECORD_FIELDS]
        for values in zip(*data):
            yield PacketRecord(*values)

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            # A columnar slice is a view: numpy basic slicing, no copy.
            if self._rows is not None:
                return ObservationTable(self._rows[index])
            return ObservationTable._adopt(
                {name: col[index] for name, col in self._columns.items()})
        if self._rows is not None:
            return self._rows[index]
        columns = self._columns
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("table index out of range")
        return PacketRecord(*(columns[name][index].item() for name in RECORD_FIELDS))

    def append(self, record: PacketRecord) -> None:
        self.records.append(record)

    # -- columnar conversion -------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """The full column dict (one array per schema field).

        Columnar tables return their canonical storage — treat it as
        read-only.  Row-authority tables build a fresh columnar copy.
        """
        if self._columns is not None:
            return self._columns
        return _record_columns(self._rows)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Columnar copy: one numpy array per field."""
        if self._columns is not None:
            return {name: array.copy() for name, array in self._columns.items()}
        return self.columns()

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray | Sequence]
                    ) -> "ObservationTable":
        """Build a columnar table from arrays; missing columns default.

        This is the fast path: input arrays are cast to the canonical
        dtypes (int64, float64 for ``tout``) and adopted without any
        per-record work.
        """
        lengths = {len(a) for a in arrays.values()}
        if len(lengths) > 1:
            raise ValueError(f"column length mismatch: {lengths}")
        n = lengths.pop() if lengths else 0
        columns: dict[str, np.ndarray] = {}
        for name in RECORD_FIELDS:
            dtype = _COLUMN_DTYPES[name]
            if name in arrays:
                columns[name] = np.ascontiguousarray(arrays[name], dtype=dtype)
            else:
                columns[name] = np.full(n, _FIELD_DEFAULTS[name], dtype=dtype)
        return cls._adopt(columns)

    @classmethod
    def concat(cls, tables: Sequence["ObservationTable"]
               ) -> "ObservationTable":
        """One columnar table holding ``tables`` in order (one
        ``np.concatenate`` per field; a single table passes through
        :func:`as_table` uncopied)."""
        if not tables:
            return cls.from_arrays({})
        if len(tables) == 1:
            return as_table(tables[0])
        columns = [as_table(t).columns() for t in tables]
        return cls._adopt({name: np.concatenate([c[name] for c in columns])
                           for name in RECORD_FIELDS})

    @classmethod
    def _adopt(cls, columns: dict[str, np.ndarray]) -> "ObservationTable":
        """A columnar table over ``columns`` as given (canonical dtypes,
        every field present): no cast, no copy."""
        table = cls.__new__(cls)
        table._rows = None
        table._columns = columns
        return table

    def key_array(self, key_fields: Sequence[str]) -> np.ndarray:
        """Collapse the per-record key tuples into one int64 array of
        mixed hashes — the fast path used by large cache simulations
        where only key identity matters (e.g. the Fig. 5 sweep)."""
        columns = self.columns()
        mixed = np.zeros(len(self), dtype=np.int64)
        with np.errstate(over="ignore"):
            for name in key_fields:
                mixed = mixed * np.int64(1_000_003) + columns[name].astype(np.int64)
        return mixed

    # -- persistence --------------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.columns())

    @classmethod
    def load(cls, path: str) -> "ObservationTable":
        with np.load(path) as data:
            return cls.from_arrays({k: data[k] for k in data.files})

    # -- conveniences ------------------------------------------------------------

    def unique_keys(self, key_fields: Sequence[str]) -> int:
        columns = self.columns()
        if not len(self):
            return 0
        stacked = np.stack([columns[name] for name in key_fields], axis=1)
        return len(np.unique(stacked, axis=0))

    def duration_ns(self) -> int:
        """Trace span ``max(tin) - min(tin)``.

        Uses the extrema rather than first/last record so out-of-order
        or merged multi-queue traces cannot yield a negative duration.
        """
        if not len(self):
            return 0
        tin = self.columns()["tin"]
        return int(tin.max() - tin.min())

    def drop_count(self) -> int:
        return int(np.isinf(self.columns()["tout"]).sum())


def _record_columns(rows: Sequence[object]) -> dict[str, np.ndarray]:
    """One array per schema field from row objects: a single transpose
    pass, then one ``np.array`` per column.  A value its column cannot
    hold raises :class:`ValueError` naming the field and the record."""
    if rows:
        data = list(zip(*map(attrgetter(*RECORD_FIELDS), rows)))
    else:
        data = [()] * len(RECORD_FIELDS)
    out: dict[str, np.ndarray] = {}
    for name, values in zip(RECORD_FIELDS, data):
        dtype = _COLUMN_DTYPES[name]
        try:
            out[name] = np.array(values, dtype=dtype)
        except (OverflowError, TypeError, ValueError) as exc:
            for index, value in enumerate(values):
                try:
                    np.array(value, dtype=dtype)
                except (OverflowError, TypeError, ValueError):
                    raise ValueError(
                        f"record {index}: field {name!r} value {value!r} "
                        f"does not fit its {dtype} column") from exc
            raise
    return out


def as_table(batch: object) -> ObservationTable:
    """The door below the public API: any batch in, one columnar
    :class:`ObservationTable` out.

    A columnar table passes through as the same object (no copy).  A
    row-authority table, a list or any other iterable of records, or a
    column dict (``from_arrays`` rules: missing fields default) becomes
    a fresh columnar table; the caller's object is left untouched.
    """
    if isinstance(batch, ObservationTable):
        if batch.is_columnar:
            return batch
        return ObservationTable._adopt(batch.columns())
    if isinstance(batch, Mapping):
        return ObservationTable.from_arrays(batch)
    return ObservationTable._adopt(_record_columns(list(batch)))
