"""Compiled query plans: the configurations handed to the switch model.

The compiler (:mod:`repro.core.compiler`) lowers a resolved program to a
:class:`SwitchProgram`: the set of switch-resident stages (parser
fields, match-action filters, key-value-store aggregations) plus the
queries that must run in the collection software (downstream stages of
composed queries and the relational part of joins, which the paper
reduces to ``GROUPBY`` on-switch plus a read-time join, §2/§3.2).

Everything here is a passive description — execution lives in
:mod:`repro.switch` (hardware) and :mod:`repro.telemetry` (runtime).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast_nodes import Expr, format_expr
from .linearity import LinearityResult
from .merge_synthesis import MergeSpec
from .semantics import Column, FoldInstance, ResolvedQuery, TableSchema


@dataclass(frozen=True)
class KeyLayout:
    """Hardware key: ordered fields and total width."""

    fields: tuple[str, ...]
    bits: int


@dataclass(frozen=True)
class ValueSlot:
    """One register of the hardware value: a state variable or an
    auxiliary merge register."""

    name: str
    bits: int
    kind: str  # "state" | "aux"


@dataclass(frozen=True)
class ValueLayout:
    """Hardware value layout for one key-value store instance."""

    slots: tuple[ValueSlot, ...]

    @property
    def bits(self) -> int:
        return sum(s.bits for s in self.slots)

    @property
    def state_bits(self) -> int:
        return sum(s.bits for s in self.slots if s.kind == "state")

    @property
    def aux_bits(self) -> int:
        return sum(s.bits for s in self.slots if s.kind == "aux")


@dataclass(frozen=True)
class AluProgram:
    """Per-packet state update program for one fold.

    ``update_exprs`` maps each state variable to its (if-converted)
    update expression; the hardware model evaluates all of them against
    the pre-update state, which matches the paper's single-cycle
    read-modify-write discipline.  ``op_count`` and ``depth`` quantify
    the combinational work for the §3.3 feasibility discussion (linear
    updates are fused multiply-adds; others need Domino-style atoms).
    """

    update_exprs: dict[str, Expr]
    op_count: int
    depth: int

    def describe(self) -> str:
        return "; ".join(
            f"{var} = {format_expr(expr)}" for var, expr in self.update_exprs.items()
        )


@dataclass(frozen=True)
class FoldConfig:
    """Everything the hardware needs to run one fold instance."""

    column: str
    instance: FoldInstance
    linearity: LinearityResult
    merge: MergeSpec
    alu: AluProgram
    state_bits: dict[str, int]

    @property
    def mergeable(self) -> bool:
        return self.merge.mergeable


@dataclass(frozen=True)
class GroupByStage:
    """A key-value-store aggregation stage (paper §3.2)."""

    query_name: str
    key: KeyLayout
    folds: tuple[FoldConfig, ...]
    value: ValueLayout
    where: Expr | None  # pre-filter, realised as a match stage (§3.1)
    output: TableSchema

    @property
    def pair_bits(self) -> int:
        """Bits per key-value pair — the unit of the §4 cache sizing."""
        return self.key.bits + self.value.bits

    @property
    def mergeable(self) -> bool:
        return all(f.mergeable for f in self.folds)


@dataclass(frozen=True)
class SelectStage:
    """A per-packet filter/projection stage (paper §3.1: match-action
    pipeline realises ``SELECT ... WHERE``)."""

    query_name: str
    where: Expr | None
    columns: tuple[Column, ...]
    output: TableSchema


@dataclass(frozen=True)
class SoftwareStage:
    """A query stage executed in the collection software over upstream
    result tables (composed queries and JOINs)."""

    query: ResolvedQuery
    reason: str


@dataclass(frozen=True)
class SwitchProgram:
    """A full compiled program.

    Attributes:
        parse_fields: Every observation-table field the programmable
            parser must extract for this program (§3.1).
        select_stages: Per-packet stages that emit matching records.
        groupby_stages: Key-value-store stages (one per on-switch
            ``GROUPBY``).
        software_stages: Stages the runtime evaluates off-switch, in
            dependency order.
        result: Name of the program's result query.
        params: Free parameters that must be bound before running.
    """

    parse_fields: tuple[str, ...]
    select_stages: tuple[SelectStage, ...] = ()
    groupby_stages: tuple[GroupByStage, ...] = ()
    software_stages: tuple[SoftwareStage, ...] = ()
    result: str = ""
    params: frozenset[str] = frozenset()

    def describe(self) -> str:
        """Human-readable plan summary (used by examples and docs)."""
        lines = [f"parse fields: {', '.join(self.parse_fields)}"]
        for stage in self.select_stages:
            where = format_expr(stage.where) if stage.where is not None else "true"
            cols = ", ".join(c.name for c in stage.columns)
            lines.append(f"[switch select {stage.query_name}] match {where} -> emit ({cols})")
        for stage in self.groupby_stages:
            where = format_expr(stage.where) if stage.where is not None else "true"
            lines.append(
                f"[switch groupby {stage.query_name}] match {where}; "
                f"key=({', '.join(stage.key.fields)}) {stage.key.bits}b; "
                f"value={stage.value.bits}b "
                f"({'mergeable' if stage.mergeable else 'value-list'})"
            )
            for fold in stage.folds:
                lines.append(f"    {fold.column}: {fold.alu.describe()} "
                             f"[{fold.merge.strategy}]")
        for stage in self.software_stages:
            lines.append(f"[software {stage.query.kind} {stage.query.name}] ({stage.reason})")
        lines.append(f"result: {self.result}")
        return "\n".join(lines)
