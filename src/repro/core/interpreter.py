"""Reference interpreter for performance queries.

Evaluates a resolved program directly over an observation table (any
iterable of packet records), with no cache, eviction, or merge
machinery.  Its results are exact by construction, which makes it

* the ground truth against which the hardware model's backing-store
  contents are compared (accuracy evaluation, Fig. 6), and
* the software fallback the telemetry runtime uses for query stages
  that run off-switch (downstream stages of composed queries, and the
  relational part of ``JOIN``).

Result representation: a *keyed* query produces a ``ResultTable`` whose
rows are dicts keyed by column name; the key columns identify each row.
A non-keyed ``SELECT`` over the packet stream produces a streaming list
of row dicts in packet order.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from .ast_nodes import Expr
from .errors import InterpreterError
from .eval_expr import EvalContext, Numeric, evaluate, evaluate_predicate
from .linearity import if_convert
from .semantics import (
    FoldInstance,
    ResolvedProgram,
    ResolvedQuery,
    TableSchema,
)

Row = dict[str, Numeric]


class ResultTable:
    """Materialised result of one query.

    Unlike :class:`~repro.network.records.ObservationTable` (columns
    only), the table is in exactly one of two authority states, since
    callers may rewrite its rows:

    * *columnar* — built by :meth:`from_columns` (the vectorized
      executor and the bulk split-store path); per-column numpy arrays
      are the canonical storage and row dicts are materialised only on
      demand.  Column reads (:meth:`columns`, :meth:`to_columns`,
      :meth:`column`) and length are O(1)-per-column.
    * *row* — a mutable list of row dicts; entered on construction from
      rows or the first time :attr:`rows` is touched (callers may
      mutate the list, so a retained columnar copy cannot be kept
      coherent and is dropped).

    Materialised rows hold native Python scalars (numpy arrays convert
    via ``tolist``), so they are indistinguishable from rows the
    row-at-a-time evaluator produces.
    """

    __slots__ = ("schema", "_rows", "_columns", "_n")

    def __init__(self, schema: TableSchema, rows: list[Row] | None = None):
        self.schema = schema
        self._rows: list[Row] | None = rows if rows is not None else []
        self._columns: dict[str, object] | None = None
        self._n = 0

    @property
    def name(self) -> str:
        return self.schema.name

    # -- authority management ------------------------------------------------

    @property
    def is_columnar(self) -> bool:
        """True when the canonical storage is the column dict."""
        return self._columns is not None

    @property
    def rows(self) -> list[Row]:
        """The mutable row list; materialised from columns on demand
        (which drops the columnar storage — the caller may mutate)."""
        if self._rows is None:
            self._rows = self._materialize_rows()
            self._columns = None
        return self._rows

    @rows.setter
    def rows(self, rows: list[Row]) -> None:
        self._rows = rows
        self._columns = None

    def _materialize_rows(self) -> list[Row]:
        columns = self._columns
        assert columns is not None
        names = list(columns)
        data = [
            column.tolist() if hasattr(column, "tolist") else list(column)
            for column in columns.values()
        ]
        return [dict(zip(names, values)) for values in zip(*data)]

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return self._n

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def by_key(self) -> dict[tuple, Row]:
        """Index rows by the table's key columns (keyed tables only)."""
        if not self.schema.keyed:
            raise InterpreterError(f"table {self.name!r} is not keyed")
        return {
            tuple(row[k] for k in self.schema.key_columns): row for row in self.rows
        }

    def column(self, name: str) -> list[Numeric]:
        col = self.schema.resolve(name)
        if col is None:
            raise InterpreterError(f"table {self.name!r} has no column {name!r}")
        if self._columns is not None and col.name in self._columns:
            values = self._columns[col.name]
            return values.tolist() if hasattr(values, "tolist") else list(values)
        return [row[col.name] for row in self.rows]

    def sort_key(self) -> "ResultTable":
        """Rows sorted by key columns — convenient for stable output."""
        if not self.schema.keyed:
            return self
        key_columns = self.schema.key_columns
        if self._columns is not None and all(
                isinstance(self._columns.get(k), np.ndarray)
                for k in key_columns):
            order = np.lexsort([self._columns[k]
                                for k in reversed(key_columns)])
            self._columns = {
                name: col[order] if isinstance(col, np.ndarray)
                else [col[i] for i in order.tolist()]
                for name, col in self._columns.items()
            }
            return self
        self.rows.sort(key=lambda r: tuple(r[k] for k in key_columns))
        return self

    # -- columnar bridge (used by the vectorized executor) -------------------

    @classmethod
    def from_columns(cls, schema: TableSchema, columns: Mapping[str, object]) -> "ResultTable":
        """Build a table with columnar authority from per-column
        arrays/lists; row dicts are built lazily (see class docstring)."""
        table = cls.__new__(cls)
        table.schema = schema
        table._rows = None
        table._columns = dict(columns)
        table._n = max((len(c) for c in table._columns.values()), default=0)
        return table

    def columns(self) -> dict[str, object]:
        """The per-column storage (arrays for columnar tables; built
        from the rows otherwise).  Treat the result as read-only."""
        if self._columns is not None:
            return self._columns
        return self.to_columns()

    def to_columns(self) -> dict[str, list[Numeric]]:
        """Per-column value lists for every schema column present in the
        rows — the input form the vectorized executor consumes."""
        if self._columns is not None:
            return {
                name: (col.tolist() if hasattr(col, "tolist") else list(col))
                for name, col in self._columns.items()
            }
        if not self.rows:
            return {name: [] for name in self.schema.column_names()}
        present = [name for name in self.schema.column_names()
                   if name in self.rows[0]]
        return {name: [row[name] for row in self.rows] for name in present}


class GroupState:
    """Accumulator for one grouping key: per-fold state dicts."""

    __slots__ = ("states",)

    def __init__(self, folds: tuple[FoldInstance, ...]):
        self.states: dict[str, dict[str, Numeric]] = {
            f.column: f.initial_state() for f in folds
        }


class Interpreter:
    """Evaluates a resolved program over an observation stream.

    Args:
        program: Output of :func:`repro.core.semantics.resolve_program`.
        params: Bindings for free query parameters.
    """

    def __init__(self, program: ResolvedProgram, params: Mapping[str, Numeric] | None = None):
        self.program = program
        self.params = dict(params or {})
        missing = set(program.params) - set(self.params)
        if missing:
            raise InterpreterError(
                f"unbound query parameters: {sorted(missing)}"
            )
        # Pre-compute per-fold update expressions (if-converted bodies):
        # evaluating one expression per state variable is both faster
        # and identical to the ALU semantics.
        self._updates: dict[tuple[str, str], dict[str, Expr]] = {}
        for query in program.queries:
            for fold in query.folds:
                self._updates[(query.name, fold.column)] = if_convert(
                    fold.body, fold.state_vars
                )

    # -- public API ---------------------------------------------------------

    def run(self, records: Iterable[object]) -> dict[str, ResultTable]:
        """Evaluate every query; returns tables keyed by query name."""
        tables: dict[str, ResultTable] = {}
        stream = list(records) if not isinstance(records, list) else records
        for query in self.program.queries:
            tables[query.name] = self._eval_query(query, stream, tables)
        return tables

    def run_result(self, records: Iterable[object]) -> ResultTable:
        """Evaluate and return only the program's result table."""
        return self.run(records)[self.program.result]

    def evaluate_stage(self, query_name: str, stream: list[object],
                       tables: dict[str, ResultTable]) -> ResultTable:
        """Evaluate a single named query over already-materialised
        upstream ``tables`` (and ``stream`` for base-table queries).

        Used by the telemetry runtime for software stages: upstream
        tables there come from switch backing stores rather than from
        this interpreter.
        """
        return self._eval_query(self.program.by_name(query_name), stream, tables)

    # -- evaluation ------------------------------------------------------------

    def _input_rows(self, query: ResolvedQuery, stream: list[object],
                    tables: dict[str, ResultTable]) -> Iterable[object]:
        if query.source is None:
            return stream
        return tables[query.source].rows

    def _eval_query(self, query: ResolvedQuery, stream: list[object],
                    tables: dict[str, ResultTable]) -> ResultTable:
        if query.kind == "select":
            return self._eval_select(query, self._input_rows(query, stream, tables))
        if query.kind == "groupby":
            return self._eval_groupby(query, self._input_rows(query, stream, tables))
        if query.kind == "join":
            return self._eval_join(query, tables)
        raise InterpreterError(f"unknown query kind {query.kind!r}")

    def _eval_select(self, query: ResolvedQuery, rows: Iterable[object]) -> ResultTable:
        out = ResultTable(schema=query.output)
        columns = query.output.columns
        for row in rows:
            ctx = EvalContext(row=row, params=self.params)
            if not evaluate_predicate(query.where, ctx):
                continue
            out.rows.append({
                col.name: evaluate(col.expr, ctx) for col in columns if col.expr is not None
            })
        return out

    def _eval_groupby(self, query: ResolvedQuery, rows: Iterable[object]) -> ResultTable:
        groups: dict[tuple, GroupState] = {}
        keys = query.groupby_keys
        for row in rows:
            ctx = EvalContext(row=row, params=self.params)
            if not evaluate_predicate(query.where, ctx):
                continue
            key = tuple(ctx.field(k) for k in keys)
            group = groups.get(key)
            if group is None:
                group = GroupState(query.folds)
                groups[key] = group
            for fold in query.folds:
                state = group.states[fold.column]
                updates = self._updates[(query.name, fold.column)]
                fctx = EvalContext(row=row, state=state, params=self.params)
                new_values = {
                    var: evaluate(expr, fctx) for var, expr in updates.items()
                }
                state.update(new_values)

        out = ResultTable(schema=query.output)
        for key, group in groups.items():
            out.rows.append(self._emit_group_row(query, key, group))
        return out

    def _emit_group_row(self, query: ResolvedQuery, key: tuple,
                        group: GroupState) -> Row:
        row: Row = dict(zip(query.groupby_keys, key))
        for col in query.output.columns:
            if col.kind == "agg":
                row[col.name] = group.states[col.fold][col.state_var]
            elif col.kind == "derived":
                state = group.states[col.fold]
                ctx = EvalContext(state=state, params=self.params)
                row[col.name] = evaluate(col.read_expr, ctx)
        return row

    def _eval_join(self, query: ResolvedQuery,
                   tables: dict[str, ResultTable]) -> ResultTable:
        left = tables[query.join_left]
        right = tables[query.join_right]
        right_index = {
            tuple(row[k] for k in query.join_on): row for row in right.rows
        }
        out = ResultTable(schema=query.output)
        for lrow in left.rows:
            key = tuple(lrow[k] for k in query.join_on)
            rrow = right_index.get(key)
            if rrow is None:
                continue  # inner join
            qualified = {query.join_left: lrow, query.join_right: rrow}
            ctx = EvalContext(row=lrow, params=self.params, qualified_rows=qualified)
            if not evaluate_predicate(query.where, ctx):
                continue
            result_row: Row = dict(zip(query.join_on, key))
            for col in query.output.columns:
                if col.kind == "expr" and col.expr is not None:
                    result_row[col.name] = evaluate(col.expr, ctx)
            out.rows.append(result_row)
        return out


def run_query(source: str, records: Iterable[object],
              params: Mapping[str, Numeric] | None = None) -> ResultTable:
    """One-shot convenience: parse, resolve, and evaluate query text."""
    from .parser import parse_program
    from .semantics import resolve_program

    program = resolve_program(parse_program(source))
    return Interpreter(program, params=params).run_result(records)
