"""Observation-table serialisation.

Two formats:

* **CSV** — human-inspectable, header row of field names; ``tout`` of a
  dropped packet is written as ``inf``;
* **NPZ** — compressed columnar numpy (via
  :meth:`repro.network.records.ObservationTable.save`), the fast format
  the benches use to cache generated traces between runs.

The CSV reader tolerates column subsets (missing fields default), so
externally produced traces can be imported with whatever fields they
have.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence

from repro.network.records import RECORD_FIELDS, ObservationTable

#: Fields written to CSV, in canonical order.
CSV_FIELDS: tuple[str, ...] = RECORD_FIELDS


def write_csv(table: ObservationTable, path: str | Path) -> None:
    """Write ``table`` to ``path`` in CSV format."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for record in table:
            writer.writerow([getattr(record, f) for f in CSV_FIELDS])


def read_csv(path: str | Path) -> ObservationTable:
    """Read an observation table from CSV, straight into columns.

    Unknown columns are ignored; missing columns take the record
    defaults.  ``tout`` accepts ``inf`` for drops.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return ObservationTable.from_arrays({})
        return csv_table(header, reader)


def csv_table(header: Sequence[str],
              rows: Iterable[Sequence[str]]) -> ObservationTable:
    """The one CSV field rule, shared by :func:`read_csv` and the live
    :class:`~repro.telemetry.serve.TraceTailer`: per-field lists of
    parsed values (``tout`` as float, every other field as
    ``int(float(raw))``; blank lines and unknown columns skipped, the
    last of a duplicated column wins), one columnar table."""
    index = {name: i for i, name in enumerate(header) if name in RECORD_FIELDS}
    values: dict[str, list] = {name: [] for name in index}
    for row in rows:
        if not row:
            continue
        for name, i in index.items():
            raw = row[i]
            values[name].append(float(raw) if name == "tout"
                                else int(float(raw)))
    return ObservationTable.from_arrays(values)


def write_npz(table: ObservationTable, path: str | Path) -> None:
    """Write ``table`` in compressed columnar form."""
    table.save(str(path))


def read_npz(path: str | Path) -> ObservationTable:
    """Read a columnar table written by :func:`write_npz`."""
    return ObservationTable.load(str(path))


def validate_table(table: ObservationTable) -> list[str]:
    """Sanity checks on an (imported) table; returns a list of
    human-readable problems, empty when clean.

    Checks the schema invariants the simulator guarantees:
    ``tout >= tin`` (or ``inf``), nonnegative depths and lengths,
    nondecreasing ``tin`` per queue.
    """
    problems: list[str] = []
    last_tin: dict[int, int] = {}
    for i, record in enumerate(table):
        if not math.isinf(record.tout) and record.tout < record.tin:
            problems.append(f"record {i}: tout {record.tout} < tin {record.tin}")
        if record.qin < 0 or record.pkt_len < 0 or record.payload_len < 0:
            problems.append(f"record {i}: negative qin/pkt_len/payload_len")
        prev = last_tin.get(record.qid)
        if prev is not None and record.tin < prev:
            problems.append(
                f"record {i}: tin decreases within queue {record.qid}"
            )
        last_tin[record.qid] = record.tin
        if len(problems) > 20:
            problems.append("... (truncated)")
            break
    return problems
