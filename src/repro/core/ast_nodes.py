"""Abstract syntax tree for the performance query language (paper Fig. 1).

The AST is produced by :mod:`repro.core.parser` (from query text) or by
:mod:`repro.core.builder` (programmatically), then resolved and checked
by :mod:`repro.core.semantics`.

Two small languages share these nodes:

* the *query* language proper (``SELECT`` / ``WHERE`` / ``GROUPBY`` /
  ``JOIN`` and named-query composition), and
* the *fold function* mini-language used inside ``GROUPBY``
  aggregations (assignments, ``if``/``else``, arithmetic) — the paper's
  ``agg_fun`` production.

Name resolution levels
----------------------

The parser emits :class:`Name` and :class:`Dotted` nodes for every
identifier; it does not know whether ``lat_est`` is a state variable, a
packet field, or a query parameter.  Semantic analysis rewrites these
into :class:`FieldRef`, :class:`StateRef`, :class:`ParamRef`,
:class:`ColumnRef`, or folds them into :class:`Number` (for built-in
constants such as ``TCP``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for expression nodes."""

    def children(self) -> tuple["Expr", ...]:
        return ()


@dataclass(frozen=True)
class Number(Expr):
    """Numeric literal.  Time-suffixed literals are normalised to
    nanoseconds by the lexer, so ``1ms`` arrives here as ``1000000``."""

    value: Union[int, float]


@dataclass(frozen=True)
class Name(Expr):
    """Unresolved identifier (parser output only)."""

    ident: str


@dataclass(frozen=True)
class Dotted(Expr):
    """Unresolved dotted reference such as ``R1.COUNT`` or ``perc.high``
    (parser output only)."""

    base: str
    attr: str


@dataclass(frozen=True)
class FieldRef(Expr):
    """Resolved reference to a concrete observation-table field."""

    name: str


@dataclass(frozen=True)
class StateRef(Expr):
    """Resolved reference to a fold-function state variable."""

    name: str


@dataclass(frozen=True)
class ParamRef(Expr):
    """Resolved reference to a query parameter (e.g. ``alpha``, ``L``,
    ``K`` in the paper's examples), bound to a value at compile or
    evaluation time."""

    name: str


@dataclass(frozen=True)
class ColumnRef(Expr):
    """Resolved reference to a column of an upstream query's result
    table.  ``table`` is ``None`` for the sole input of a ``SELECT`` and
    names one side of a ``JOIN`` otherwise."""

    name: str
    table: str | None = None


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operation.  ``op`` is one of ``+ - * / == != < <= > >=
    and or``."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operation: ``-`` or ``not``."""

    op: str
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class Call(Expr):
    """Built-in function call.  The fold mini-language supports ``max``,
    ``min`` and ``abs``; the query language additionally uses ``SUM``,
    ``AVG``, ``MAX``, ``MIN`` as aggregation sugar (resolved to built-in
    folds by semantic analysis)."""

    func: str
    args: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.args


@dataclass(frozen=True)
class Cond(Expr):
    """Internal ternary ``pred ? then : orelse``.

    Never produced by the parser; the linearity analysis introduces it
    when merging the two sides of an ``if`` into a single affine
    coefficient, and the select-item resolver uses it for derived
    read-time expressions.
    """

    pred: Expr
    then: Expr
    orelse: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.pred, self.then, self.orelse)


COMPARISON_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})
ARITH_OPS = frozenset({"+", "-", "*", "/"})
BOOL_OPS = frozenset({"and", "or"})


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every descendant, pre-order."""
    yield expr
    for child in expr.children():
        yield from walk(child)


# ---------------------------------------------------------------------------
# Fold-function statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    """Base class for fold-body statements."""


@dataclass(frozen=True)
class Assign(Stmt):
    """``target = expr`` where ``target`` is a state variable."""

    target: str
    value: Expr


@dataclass(frozen=True)
class If(Stmt):
    """``if pred then code else code`` (Fig. 1 ``code`` production).
    ``orelse`` may be empty."""

    pred: Expr
    then: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class FoldDef:
    """A user-defined fold function (Fig. 1 ``agg_fun``).

    ``def name((s1, s2), (f1, f2)): body`` — the first parameter is the
    accumulator state (one identifier or a tuple), the second names the
    packet fields consumed.  ``inits`` supplies initial state values;
    variables without an entry start at 0, matching the hardware's
    zero-initialised value slots.
    """

    name: str
    state_params: tuple[str, ...]
    packet_params: tuple[str, ...]
    body: tuple[Stmt, ...]
    inits: dict[str, Union[int, float]] = field(default_factory=dict)

    def initial_state(self) -> dict[str, Union[int, float]]:
        """Initial value for every state variable (default 0)."""
        return {s: self.inits.get(s, 0) for s in self.state_params}


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One entry of a ``SELECT`` list.

    ``expr`` may be a field reference, arbitrary expression, a
    :class:`Name` that resolves to a fold function, or aggregation sugar
    (``COUNT``, ``SUM(e)``...).  ``alias`` names the output column; when
    omitted a column name is derived from the expression.
    """

    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class Star:
    """``SELECT *`` — pass every input column through."""


@dataclass(frozen=True)
class Query:
    """Base class for query nodes."""


@dataclass(frozen=True)
class SelectQuery(Query):
    """``SELECT items [FROM source] [GROUPBY keys] [WHERE pred]``.

    Covers both the plain ``select_query`` and the ``group_query`` of
    Fig. 1 — ``groupby`` is ``None`` for the former.  ``source`` is
    ``None`` for the root table ``T``.
    """

    items: Union[tuple[SelectItem, ...], Star]
    source: str | None = None
    groupby: tuple[str, ...] | None = None
    where: Expr | None = None


@dataclass(frozen=True)
class JoinQuery(Query):
    """``SELECT items FROM left JOIN right ON keys [WHERE pred]``.

    Per §2 the join key must uniquely identify records in both inputs;
    semantic analysis enforces a sufficient condition (each side is a
    ``GROUPBY`` whose key list equals the join key).
    """

    items: Union[tuple[SelectItem, ...], Star]
    left: str
    right: str
    on: tuple[str, ...]
    where: Expr | None = None


@dataclass(frozen=True)
class Program:
    """A parsed query program: fold definitions, named intermediate
    queries (``R1 = SELECT ...``) and the final (result) query.

    The final query is the last statement; if it was named, ``result``
    holds that name, otherwise the anonymous query itself is stored
    under the reserved name ``"__result__"``.
    """

    folds: dict[str, FoldDef]
    queries: dict[str, Query]
    result: str

    def result_query(self) -> Query:
        return self.queries[self.result]


# ---------------------------------------------------------------------------
# Pretty printing (used for round-trip tests and diagnostics)
# ---------------------------------------------------------------------------

_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5,
}


def format_expr(expr: Expr, parent_prec: int = 0) -> str:
    """Render an expression back to query-language text."""
    if isinstance(expr, Number):
        if isinstance(expr.value, float) and math.isinf(expr.value):
            return "infinity"
        return repr(expr.value)
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, Dotted):
        return f"{expr.base}.{expr.attr}"
    if isinstance(expr, FieldRef):
        return expr.name
    if isinstance(expr, StateRef):
        return expr.name
    if isinstance(expr, ParamRef):
        return expr.name
    if isinstance(expr, ColumnRef):
        return f"{expr.table}.{expr.name}" if expr.table else expr.name
    if isinstance(expr, UnaryOp):
        inner = format_expr(expr.operand, 6)
        return f"not {inner}" if expr.op == "not" else f"-{inner}"
    if isinstance(expr, Call):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"{expr.func}({args})"
    if isinstance(expr, Cond):
        return (f"({format_expr(expr.pred)} ? {format_expr(expr.then)}"
                f" : {format_expr(expr.orelse)})")
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        # Comparisons are non-associative in the grammar, so a
        # comparison operand of a comparison must be parenthesised on
        # either side; other operators left-associate.
        left_prec = prec + 1 if expr.op in COMPARISON_OPS else prec
        left = format_expr(expr.left, left_prec)
        right = format_expr(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"unknown expression node {expr!r}")


def format_stmt(stmt: Stmt, indent: int = 1) -> str:
    pad = "    " * indent
    if isinstance(stmt, Assign):
        return f"{pad}{stmt.target} = {format_expr(stmt.value)}"
    if isinstance(stmt, If):
        lines = [f"{pad}if {format_expr(stmt.pred)}:"]
        lines += [format_stmt(s, indent + 1) for s in stmt.then]
        if stmt.orelse:
            lines.append(f"{pad}else:")
            lines += [format_stmt(s, indent + 1) for s in stmt.orelse]
        return "\n".join(lines)
    raise TypeError(f"unknown statement node {stmt!r}")


def format_fold(fold: FoldDef) -> str:
    state = fold.state_params[0] if len(fold.state_params) == 1 else "(" + ", ".join(fold.state_params) + ")"
    pkts = fold.packet_params[0] if len(fold.packet_params) == 1 else "(" + ", ".join(fold.packet_params) + ")"
    header = f"def {fold.name} ({state}, {pkts}):"
    body = "\n".join(format_stmt(s) for s in fold.body)
    return f"{header}\n{body}"


def format_query(query: Query) -> str:
    """Render a query node back to query-language text."""
    if isinstance(query, SelectQuery):
        if isinstance(query.items, Star):
            items = "*"
        else:
            items = ", ".join(
                format_expr(i.expr) + (f" AS {i.alias}" if i.alias else "")
                for i in query.items
            )
        text = f"SELECT {items}"
        if query.source:
            text += f" FROM {query.source}"
        if query.groupby:
            text += " GROUPBY " + ", ".join(query.groupby)
        if query.where is not None:
            text += f" WHERE {format_expr(query.where)}"
        return text
    if isinstance(query, JoinQuery):
        if isinstance(query.items, Star):
            items = "*"
        else:
            items = ", ".join(
                format_expr(i.expr) + (f" AS {i.alias}" if i.alias else "")
                for i in query.items
            )
        text = f"SELECT {items} FROM {query.left} JOIN {query.right} ON " + ", ".join(query.on)
        if query.where is not None:
            text += f" WHERE {format_expr(query.where)}"
        return text
    raise TypeError(f"unknown query node {query!r}")


def format_program(program: Program) -> str:
    """Render a whole program (folds, named queries, result)."""
    parts = [format_fold(f) for f in program.folds.values()]
    for name, query in program.queries.items():
        if name == "__result__":
            parts.append(format_query(query))
        else:
            parts.append(f"{name} = {format_query(query)}")
    return "\n".join(parts)
