"""Result-comparison utilities.

Used by tests and the accuracy benches to compare hardware-path results
(backing store after merges) against reference-interpreter ground
truth, row by row and column by column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.interpreter import ResultTable


@dataclass
class TableDiff:
    """Difference between a hardware table and its ground truth."""

    missing_keys: int = 0          # in truth, absent from hardware
    extra_keys: int = 0            # in hardware, absent from truth
    compared_cells: int = 0
    exact_cells: int = 0
    max_abs_error: float = 0.0
    max_rel_error: float = 0.0
    worst_column: str | None = None

    @property
    def key_complete(self) -> bool:
        return self.missing_keys == 0 and self.extra_keys == 0

    @property
    def exact(self) -> bool:
        return self.key_complete and self.exact_cells == self.compared_cells

    @property
    def cell_accuracy(self) -> float:
        if self.compared_cells == 0:
            return 1.0
        return self.exact_cells / self.compared_cells

    def describe(self) -> str:
        return (
            f"keys: -{self.missing_keys}/+{self.extra_keys}; "
            f"cells exact {self.exact_cells}/{self.compared_cells}; "
            f"max |err| {self.max_abs_error:.3g} "
            f"(rel {self.max_rel_error:.3g}, col {self.worst_column})"
        )


def compare_tables(hardware: ResultTable, truth: ResultTable,
                   rel_tol: float = 1e-9, abs_tol: float = 1e-9) -> TableDiff:
    """Compare two keyed tables cell-by-cell.

    Cells are "exact" when within ``rel_tol``/``abs_tol`` (the EWMA
    merge reassociates floating-point arithmetic, so bitwise equality
    is not expected even for correct merges).

    When both tables are columnar (vector-engine output), the
    comparison runs directly on the numpy columns — no per-row dict
    materialisation; the counters and error extrema are the same the
    row path produces.
    """
    if hardware.is_columnar and truth.is_columnar:
        diff = _compare_columnar(hardware, truth, rel_tol, abs_tol)
        if diff is not None:
            return diff
    diff = TableDiff()
    hw_rows = hardware.by_key()
    truth_rows = truth.by_key()
    diff.missing_keys = sum(1 for k in truth_rows if k not in hw_rows)
    diff.extra_keys = sum(1 for k in hw_rows if k not in truth_rows)

    key_cols = set(truth.schema.key_columns)
    for key, t_row in truth_rows.items():
        h_row = hw_rows.get(key)
        if h_row is None:
            continue
        for column, t_val in t_row.items():
            if column in key_cols or column not in h_row:
                continue
            h_val = h_row[column]
            diff.compared_cells += 1
            err, rel = _cell_error(h_val, t_val)
            if err <= abs_tol or rel <= rel_tol:
                diff.exact_cells += 1
            if err > diff.max_abs_error:
                diff.max_abs_error = err
                diff.worst_column = column
            diff.max_rel_error = max(diff.max_rel_error, rel)
    return diff


def _compare_columnar(hardware: ResultTable, truth: ResultTable,
                      rel_tol: float, abs_tol: float) -> TableDiff | None:
    """Column-wise comparison of two columnar tables; ``None`` when the
    column storage is not plain numeric arrays (caller falls back to
    the row path)."""
    if not truth.schema.keyed or not hardware.schema.keyed:
        return None
    h_cols, t_cols = hardware.columns(), truth.columns()
    key_cols = list(truth.schema.key_columns)
    value_cols = [name for name in t_cols
                  if name not in key_cols and name in h_cols]
    needed = [(h_cols, n) for n in key_cols + value_cols] + \
             [(t_cols, n) for n in key_cols + value_cols]
    for cols, name in needed:
        arr = cols.get(name)
        if not (isinstance(arr, np.ndarray) and arr.dtype.kind in "iuf"):
            return None

    diff = TableDiff()
    # Duplicate keys collapse with the *last* row winning, exactly like
    # the row path's by_key() dict.
    h_index = {key: i for i, key in enumerate(
        zip(*(h_cols[k].tolist() for k in key_cols)))} if len(hardware) \
        else {}
    t_index = {key: i for i, key in enumerate(
        zip(*(t_cols[k].tolist() for k in key_cols)))} if len(truth) \
        else {}
    diff.missing_keys = sum(1 for k in t_index if k not in h_index)
    diff.extra_keys = sum(1 for k in h_index if k not in t_index)
    matched = [(t_i, h_index[k]) for k, t_i in t_index.items()
               if k in h_index]
    if not matched or not value_cols:
        return diff
    t_idx = np.fromiter((m[0] for m in matched), dtype=np.int64,
                        count=len(matched))
    h_idx = np.fromiter((m[1] for m in matched), dtype=np.int64,
                        count=len(matched))
    for name in value_cols:
        t_raw, h_raw = t_cols[name][t_idx], h_cols[name][h_idx]
        if t_raw.dtype.kind in "iu" and h_raw.dtype.kind in "iu":
            # Integer columns difference exactly in int64 — a float64
            # cast would collapse differences beyond 2^53 to "exact".
            # Same-sign pairs can never overflow the subtraction;
            # mixed-sign pairs can, so those fall back to the float
            # estimate (approximate only at magnitudes where the
            # difference dwarfs any tolerance anyway).
            h64 = h_raw.astype(np.int64)
            t64 = t_raw.astype(np.int64)
            with np.errstate(over="ignore"):
                err = np.abs(h64 - t64).astype(np.float64)
            mixed = (h64 < 0) != (t64 < 0)
            if mixed.any():
                err[mixed] = np.abs(h64[mixed].astype(np.float64) -
                                    t64[mixed].astype(np.float64))
            rel = err / np.maximum(np.abs(t64.astype(np.float64)),
                                   1e-300)
        else:
            t_val = t_raw.astype(np.float64, copy=False)
            h_val = h_raw.astype(np.float64, copy=False)
            with np.errstate(invalid="ignore"):
                err = np.abs(h_val - t_val)
                # Matching infinities count as exact (the row path's
                # _cell_error); inf - inf is NaN otherwise.
                same_inf = np.isinf(h_val) & np.isinf(t_val) & \
                    ((h_val > 0) == (t_val > 0))
                err[same_inf] = 0.0
                rel = err / np.maximum(np.abs(t_val), 1e-300)
            rel[np.isnan(err)] = math.inf
        diff.compared_cells += len(err)
        diff.exact_cells += int(np.count_nonzero(
            (err <= abs_tol) | (rel <= rel_tol)))
        finite = err[~np.isnan(err)]
        col_max = float(finite.max()) if len(finite) else 0.0
        if col_max > diff.max_abs_error:
            diff.max_abs_error = col_max
            diff.worst_column = name
        rel_finite = rel[~np.isnan(rel)]
        if len(rel_finite):
            diff.max_rel_error = max(diff.max_rel_error,
                                     float(rel_finite.max()))
    return diff


def _cell_error(h, t) -> tuple[float, float]:
    """``(|h - t|, |h - t| / |t|)`` of one cell against its truth ``t``.

    Two ints difference exactly and are never cast to float: the
    exact-int promotion of folds past int64 makes ints beyond float
    range reachable.  An error or ratio past float range reads as
    ``inf``; matching infinities are exact."""
    try:
        if not (isinstance(h, int) and isinstance(t, int)) and \
                math.isinf(h) and math.isinf(t) and (h > 0) == (t > 0):
            return 0.0, 0.0
        err = abs(h - t)
    except (TypeError, OverflowError):   # no number, or an int vs a float
        return math.inf, math.inf
    if err != err:                       # NaN
        return err, math.inf
    return _div(err, 1), _div(err, max(abs(t), 1e-300))


def _div(num, den) -> float:
    try:
        return num / den
    except OverflowError:                # an int quotient past float range
        return math.inf
