"""Whole-program deployability analysis over compiled query plans.

The paper decides a query's fate statically: §3.2's linear-in-state
analysis says whether evictions merge (and therefore whether the stage
can shard), §3.3/§4's area model says whether the key-value cache fits
the chip.  The runtime already *contains* those verdicts — scattered
across :mod:`repro.core.linearity`, :mod:`repro.core.merge_synthesis`,
:mod:`repro.switch.area`, and ad-hoc constructor checks — but only
surfaces them as runtime errors and mid-run ``RuntimeWarning``s.  This
module lifts them into one compile-time pass:

(a) per-stage **mergeability/shardability** — the verdict
    :class:`~repro.switch.kvstore.sharded.ShardedStoreProxy` computes at
    routing time, derived here from the synthesized merge strategies;
(b) the **session compatibility matrix** (windowed vs sharded vs
    ``refresh_interval``), and the integer-key rule every hardware
    store relies on;
(c) **value-range inference** over every fold's state: given trace
    bounds (record count x max field magnitude), predict where the
    vector engine will switch a fold to exact Python ints mid-run —
    the analyzer and the runtime call one walker
    (:mod:`repro.core.intbound`), fed trace bounds here and data bounds
    there, so the verdicts agree by construction;
(d) **SRAM/area feasibility** per stage via :mod:`repro.switch.area`
    ("won't fit" before deployment, §4's 38%-of-die example);
(e) **unused-field / dead-stage detection** over the resolved program
    (which trace columns need never be scanned).

Everything is reported as :class:`~repro.telemetry.diagnostics.Diagnostic`
records with stable codes; ``QueryEngine`` gates :meth:`open`/
:meth:`serve` on the hard errors and the ``repro lint`` CLI prints the
report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.switch import area
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.diagnostics import Diagnostic, DiagnosticsReport, make

from . import intbound
from .errors import HardwareError
from .eval_expr import Numeric
from .plan import FoldConfig, GroupByStage, SwitchProgram
from .schema import FIELDS
from .semantics import ResolvedProgram

__all__ = [
    "DEFAULT_AREA_BUDGET",
    "DEFAULT_FIELD_MAGNITUDE",
    "FoldVerdict",
    "OverflowBound",
    "ProgramAnalysis",
    "StageAnalysis",
    "TraceBounds",
    "analyze_program",
    "key_diagnostics",
    "require_integer_keys",
    "session_diagnostics",
]

#: Largest fraction of the die the §4 model lets one program's caches
#: claim before the analyzer calls it undeployable.  The paper blesses
#: a 32-Mbit cache (<2.5% of a 200 mm² die) and rejects holding all
#: 3.8 M trace flows on-chip (~486 Mbit ≈ 38%) — the default sits
#: safely between the two.
DEFAULT_AREA_BUDGET = 0.25

#: Default per-field magnitude bound: every schema field is at most 64
#: bits, but absent better knowledge we assume 32-bit payloads.
DEFAULT_FIELD_MAGNITUDE = 2 ** 32

_FIELD_DTYPE = {f.name: f.dtype for f in FIELDS}


@dataclass(frozen=True)
class TraceBounds:
    """What the analyzer may assume about the trace to be ingested.

    ``field_magnitude`` is either one bound for every field or a
    per-field mapping (missing fields fall back to
    :data:`DEFAULT_FIELD_MAGNITUDE`).  Bounds are magnitudes: the field
    value is assumed to lie in ``[-m, +m]``.  Integer magnitudes are
    kept exact — the runtime guard computes its bound in Python ints,
    and agreeing with it at the 2^63 boundary needs more precision
    than float64 carries.
    """

    records: int
    field_magnitude: Numeric | Mapping[str, Numeric] = DEFAULT_FIELD_MAGNITUDE

    def bound_for(self, name: str) -> Numeric:
        if isinstance(self.field_magnitude, Mapping):
            return self.field_magnitude.get(name, DEFAULT_FIELD_MAGNITUDE)
        return self.field_magnitude


@dataclass(frozen=True)
class OverflowBound:
    """Static accumulation bound for one integer state variable."""

    var: str
    per_record_bound: int
    init_magnitude: int
    total_bound: int           # bound on the fold's values over the trace
    overflows: bool            # a value may reach 2^63 within the trace
    safe_records: int | None   # largest N proven safe (None: unbounded)


@dataclass(frozen=True)
class FoldVerdict:
    """Per-fold outcome of the mergeability + range analyses."""

    column: str
    mergeable: bool
    strategy: str
    exact: bool
    reason: str | None
    overflow: tuple[OverflowBound, ...] = ()


@dataclass(frozen=True)
class StageAnalysis:
    """Per-``GROUPBY``-stage deployability facts."""

    query_name: str
    mergeable: bool
    shardable: bool             # mergeable and >1 hash bucket to split
    serialize_cause: str | None
    pair_bits: int
    n_pairs: int
    total_bits: int
    area_fraction: float
    folds: tuple[FoldVerdict, ...]

    @property
    def total_mbit(self) -> float:
        return self.total_bits / area.MBIT


@dataclass(frozen=True)
class ProgramAnalysis:
    """The full analysis: per-stage facts plus the diagnostics report."""

    stages: tuple[StageAnalysis, ...]
    dead_stages: tuple[str, ...]
    unused_fields: tuple[str, ...]
    report: DiagnosticsReport

    def stage(self, query_name: str) -> StageAnalysis:
        for s in self.stages:
            if s.query_name == query_name:
                return s
        raise KeyError(query_name)


# ---------------------------------------------------------------------------
# (b) session compatibility matrix
# ---------------------------------------------------------------------------


def session_diagnostics(
    window: int | None = None,
    shards: int | None = None,
    refresh_interval: int | None = None,
) -> list[Diagnostic]:
    """Statically check one session-knob combination.

    This is the one checker of the session rules: building a
    :class:`~repro.switch.pipeline.SessionConfig` raises the first
    error listed here, and ``repro lint`` / :meth:`QueryEngine.analyze`
    report all of them without raising.
    """
    out: list[Diagnostic] = []
    if window is not None and window <= 0:
        out.append(make("RPR-E004", window=window))
    if shards is not None and shards < 1:
        out.append(make("RPR-E005", shards=shards))
    if shards is not None and refresh_interval is not None:
        out.append(make("RPR-E002"))
    return out


def key_diagnostics(stages: Iterable[GroupByStage]) -> list[Diagnostic]:
    """``RPR-E302`` for every key field of ``stages`` whose schema
    carrier type is not an integer: the switch parser extracts
    fixed-width integer header fields (§3.1), and the vector store
    would truncate a float key."""
    return [make("RPR-E302", stage=stage.query_name, field=name,
                 dtype=_FIELD_DTYPE[name])
            for stage in stages for name in stage.key.fields
            if _FIELD_DTYPE[name] != "int"]


def require_integer_keys(stages: Iterable[GroupByStage]) -> None:
    """Raise the first :func:`key_diagnostics` error as
    :class:`HardwareError` — the guard of the paths that key a cache
    without :meth:`QueryEngine.open`: a directly built
    :class:`~repro.switch.pipeline.SwitchPipeline` (before any store is
    allocated) and :meth:`QueryEngine.plan_cache`."""
    errors = key_diagnostics(stages)
    if errors:
        raise HardwareError(f"[{errors[0].code}] {errors[0].message}")


# ---------------------------------------------------------------------------
# (c) value-range inference over fold accumulators
# ---------------------------------------------------------------------------


def _as_int(value: Numeric) -> int:
    """Round a bound up to an int (bounds only ever over-approximate)."""
    i = int(value)
    return i if i == value else i + 1


def _overflow_bounds(fold: FoldConfig, bounds: TraceBounds,
                     params: Mapping[str, Numeric]) -> tuple[OverflowBound, ...]:
    """Bounds on a fold's integer values over the trace, per state
    variable (a float variable is reported when an integer value of its
    update may wrap).

    The runtime's decision made early, with its walker
    (:mod:`repro.core.intbound`) fed trace bounds — integer fields at
    their magnitudes, ``records`` packets on one key.  Identity-linear
    folds add ``B`` per packet to each variable, so ``|s| <= |init| +
    N * max|B|``, and ``B``'s intermediates (and the history pre-values'
    it reads) must stay below 2^63 on their own; every other fold runs
    in rounds, bounded fold-wide by :func:`~repro.core.intbound.growth`.
    """
    column = {f.name: _as_int(bounds.bound_for(f.name))
              for f in FIELDS if f.dtype == "int"}.get
    lin, records = fold.linearity, bounds.records
    inits = {var: abs(int(init)) for var, init in
             fold.instance.initial_state().items()
             if not isinstance(init, float)}
    if not (lin.linear and lin.matrix_kind == "identity"):
        grown = intbound.growth(lin.update_exprs, column, inits, params,
                                records)
        # Float state cannot wrap, but an integer value inside its
        # update can: then the fold is reported on every variable.
        return tuple(OverflowBound(
            var, grown.step, start, grown.total,
            grown.safe is not None and grown.safe < records, grown.safe)
            for var, start in (inits or dict.fromkeys(
                fold.instance.state_vars, 0)).items())
    history: dict[str, int] = {}
    pre = [0]
    for var in sorted(lin.history, key=lin.history.get):
        post = intbound.bound(lin.update_exprs[var], column, history.get,
                              params, pre)
        pre[0] = max(pre[0], post or 0)
        if post is not None and var in inits:
            history[var] = max(post, inits[var])
    out = []
    for var in lin.order:
        worst = list(pre)
        incr = intbound.bound(lin.offset[var], column, history.get, params,
                              worst)
        if worst[0] >= intbound.LIMIT:      # wraps whatever the state is
            out.append(OverflowBound(var, incr or 0, inits.get(var, 0),
                                     worst[0], True, 0))
            continue
        if incr is None or var not in inits:
            continue
        start = inits[var]
        if max(worst[0], incr, start) >= intbound.LIMIT:
            safe: int | None = 0
        else:
            safe = (intbound.LIMIT - 1 - start) // incr if incr else None
        out.append(OverflowBound(
            var, incr, start, start + records * incr,
            safe is not None and safe < records, safe))
    return tuple(out)


# ---------------------------------------------------------------------------
# (a)+(c)+(d) per-stage analysis
# ---------------------------------------------------------------------------


def _geometry_for(name: str,
                  geometry: CacheGeometry | Mapping[str, CacheGeometry] | None
                  ) -> CacheGeometry | None:
    if geometry is None:
        return None
    if isinstance(geometry, CacheGeometry):
        return geometry
    return geometry.get(name)


def _analyze_stage(
    stage: GroupByStage,
    geom: CacheGeometry | None,
    params: Mapping[str, Numeric],
    trace_bounds: TraceBounds | None,
) -> StageAnalysis:
    verdicts: list[FoldVerdict] = []
    for fold in stage.folds:
        overflow = (_overflow_bounds(fold, trace_bounds, params)
                    if trace_bounds is not None else ())
        verdicts.append(FoldVerdict(
            column=fold.column,
            mergeable=fold.merge.mergeable,
            strategy=fold.merge.strategy,
            exact=fold.merge.exact,
            reason=fold.linearity.reason,
            overflow=overflow,
        ))
    mergeable = all(v.mergeable for v in verdicts)
    n_buckets = geom.n_buckets if geom is not None else 0
    shardable = mergeable and n_buckets > 1
    if not mergeable:
        cause = "non-mergeable fold"
    elif n_buckets == 1:
        cause = "single-bucket geometry"
    else:
        cause = None
    n_pairs = geom.capacity if geom is not None else 0
    total_bits = area.cache_bits(n_pairs, stage.pair_bits)
    return StageAnalysis(
        query_name=stage.query_name,
        mergeable=mergeable,
        shardable=shardable,
        serialize_cause=cause,
        pair_bits=stage.pair_bits,
        n_pairs=n_pairs,
        total_bits=total_bits,
        area_fraction=area.area_fraction(total_bits),
        folds=tuple(verdicts),
    )


# ---------------------------------------------------------------------------
# (e) program hygiene
# ---------------------------------------------------------------------------


def _dead_queries(resolved: ResolvedProgram) -> tuple[str, ...]:
    names = {q.name for q in resolved.queries}
    seen: set[str] = set()
    stack = [resolved.result]
    while stack:
        name = stack.pop()
        if name in seen or name not in names:
            continue
        seen.add(name)
        query = resolved.by_name(name)
        for dep in (query.source, query.join_left, query.join_right):
            if dep:
                stack.append(dep)
    return tuple(q.name for q in resolved.queries if q.name not in seen)


def _unused_fields(compiled: SwitchProgram) -> tuple[str, ...]:
    parsed = set(compiled.parse_fields)
    return tuple(f.name for f in FIELDS if f.name not in parsed)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def analyze_program(
    compiled: SwitchProgram,
    resolved: ResolvedProgram | None = None,
    *,
    params: Mapping[str, Numeric] | None = None,
    geometry: CacheGeometry | Mapping[str, CacheGeometry] | None = None,
    window: int | None = None,
    shards: int | None = None,
    refresh_interval: int | None = None,
    trace_bounds: TraceBounds | None = None,
    area_budget: float = DEFAULT_AREA_BUDGET,
) -> ProgramAnalysis:
    """Run every deployability analysis over one compiled program.

    Session knobs (``window``/``shards``/...) describe the
    *intended* session; pass none of them to lint the program itself.
    ``trace_bounds`` enables the overflow analysis; without it no
    value-range verdicts are produced.
    """
    params = dict(params or {})
    diags: list[Diagnostic] = list(session_diagnostics(
        window=window, shards=shards, refresh_interval=refresh_interval))

    stages: list[StageAnalysis] = []
    for stage in compiled.groupby_stages:
        geom = _geometry_for(stage.query_name, geometry)
        analysis = _analyze_stage(stage, geom, params, trace_bounds)
        stages.append(analysis)

        for verdict in analysis.folds:
            if not verdict.mergeable:
                diags.append(make(
                    "RPR-W101", stage=stage.query_name,
                    column=verdict.column, reason=verdict.reason,
                ))
            elif not verdict.exact:
                fold = next(f for f in stage.folds
                            if f.column == verdict.column)
                diags.append(make(
                    "RPR-W103", stage=stage.query_name,
                    column=verdict.column,
                    depth=fold.merge.history_depth,
                ))
            for bound in verdict.overflow:
                if bound.overflows:
                    diags.append(make(
                        "RPR-W201", stage=stage.query_name,
                        column=verdict.column, var=bound.var,
                        init=bound.init_magnitude,
                        records=trace_bounds.records,
                        bound=bound.per_record_bound,
                        safe=bound.safe_records,
                    ))
        diags.extend(key_diagnostics([stage]))
        if (analysis.mergeable and analysis.serialize_cause
                and shards is not None and shards > 1):
            diags.append(make("RPR-W102", stage=stage.query_name))
        if geom is not None:
            diags.append(make(
                "RPR-I301", stage=stage.query_name,
                pairs=analysis.n_pairs, pair_bits=analysis.pair_bits,
                mbit=analysis.total_mbit,
                pct=100 * analysis.area_fraction,
                chip=area.CHIP_AREA_MM2,
            ))
            if analysis.area_fraction > area_budget:
                diags.append(make(
                    "RPR-E301", stage=stage.query_name,
                    pairs=analysis.n_pairs, pair_bits=analysis.pair_bits,
                    mbit=analysis.total_mbit,
                    pct=100 * analysis.area_fraction,
                    chip=area.CHIP_AREA_MM2,
                    budget_pct=100 * area_budget,
                ))

    dead: tuple[str, ...] = ()
    if resolved is not None:
        dead = _dead_queries(resolved)
        for name in dead:
            diags.append(make("RPR-W401", stage=name, name=name,
                              result=resolved.result))

    unused = _unused_fields(compiled)
    if unused:
        diags.append(make("RPR-I402", fields=", ".join(unused)))

    return ProgramAnalysis(
        stages=tuple(stages),
        dead_stages=dead,
        unused_fields=unused,
        report=DiagnosticsReport(tuple(diags)),
    )
