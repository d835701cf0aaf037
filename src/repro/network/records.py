"""Packet-observation records — the rows of the abstract table ``T``.

The paper's schema (§2)::

    (pkt_hdr, qid, tin, tout, qsize, pkt_path)

Each record describes one packet's transit of one queue; a packet that
traverses multiple queues contributes one record per queue (footnote
2).  A dropped packet has ``tout == +inf`` (§2).

* :class:`ObservationTable` is the table: one numpy array per schema
  field (int64, float64 for ``tout``) — the fixed-width fields the
  switch parser extracts (§3.1).  The executors, the stores, the trace
  generators and the ``.npz`` persistence all work on these columns.
* :class:`PacketRecord` is one row as a slotted object: what iterating
  or indexing a table yields (a copy), and what callers may hand over
  instead of a table.

Every entry point passes its input through :func:`as_table`, which
returns a table as is and columnizes a record iterable or a column
dict.
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
    """A materialised observation table: one numpy array per schema field.

    Iterating yields :class:`PacketRecord` copies in arrival order (the
    order matters: the language supports order-dependent folds);
    ``table[i]`` is one such copy and ``table[a:b]`` a view.  Writes go
    through :meth:`columns`, the table's own storage.
    """

    def __init__(self, records: Iterable[PacketRecord] = ()):
        self._columns = _record_columns(list(records))

    def __len__(self) -> int:
        return len(self._columns["tin"])

    def __iter__(self) -> Iterator[PacketRecord]:
        # tolist() converts to native Python scalars, so the records are
        # indistinguishable from ones built row-at-a-time.
        data = [self._columns[name].tolist() for name in RECORD_FIELDS]
        for values in zip(*data):
            yield PacketRecord(*values)

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            # numpy basic slicing: a view, no copy.
            return ObservationTable._adopt(
                {name: col[index] for name, col in self._columns.items()})
        return PacketRecord(*(self._columns[name][index].item()
                              for name in RECORD_FIELDS))

    # -- columnar conversion -------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """The column dict (one array per schema field): the table's
        storage itself, so a write to it lands in the table."""
        return self._columns

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray | Sequence]
                    ) -> "ObservationTable":
        """Build a table from arrays; missing columns default.

        Input arrays are cast to the canonical dtypes (int64, float64
        for ``tout``) and adopted without any per-record work.
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
        """One table holding ``tables`` in order (one ``np.concatenate``
        per field; a single table passes through :func:`as_table`
        uncopied)."""
        if not tables:
            return cls.from_arrays({})
        if len(tables) == 1:
            return as_table(tables[0])
        columns = [as_table(t).columns() for t in tables]
        return cls._adopt({name: np.concatenate([c[name] for c in columns])
                           for name in RECORD_FIELDS})

    @classmethod
    def _adopt(cls, columns: dict[str, np.ndarray]) -> "ObservationTable":
        """A table over ``columns`` as given (canonical dtypes, every
        field present): no cast, no copy."""
        table = cls.__new__(cls)
        table._columns = columns
        return table

    # -- persistence --------------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self._columns)

    @classmethod
    def load(cls, path: str) -> "ObservationTable":
        with np.load(path) as data:
            return cls.from_arrays({k: data[k] for k in data.files})

    # -- conveniences ------------------------------------------------------------

    def unique_keys(self, key_fields: Sequence[str]) -> int:
        if not len(self):
            return 0
        stacked = np.stack([self._columns[name] for name in key_fields], axis=1)
        return len(np.unique(stacked, axis=0))

    def duration_ns(self) -> int:
        """Trace span ``max(tin) - min(tin)``.

        Uses the extrema rather than first/last record so out-of-order
        or merged multi-queue traces cannot yield a negative duration.
        """
        if not len(self):
            return 0
        tin = self._columns["tin"]
        return int(tin.max() - tin.min())

    def drop_count(self) -> int:
        return int(np.isinf(self._columns["tout"]).sum())


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
    """The door below the public API: any batch in, one
    :class:`ObservationTable` out.

    A table passes through as the same object (no copy).  A list or
    any other iterable of records, or a column dict (``from_arrays``
    rules: missing fields default) becomes a fresh table.
    """
    if isinstance(batch, ObservationTable):
        return batch
    if isinstance(batch, Mapping):
        return ObservationTable.from_arrays(batch)
    return ObservationTable(batch)
