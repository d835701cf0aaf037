"""Stable diagnostic codes for query deployability (single source).

The paper's central claim is that a query's deployability is decidable
*before* any packet flows: §3.2's linear-in-state analysis decides
mergeability and §3.3/§4's area model decides whether the key-value
cache fits the chip.  This module is the one table every layer of the
reproduction reads when it has to tell an operator "this will not
deploy" or "this will degrade": the static analyzer
(:mod:`repro.core.analyze`), the session/pipeline constructors, the
sharded store, the CLI ``lint`` command, and the ingest server's
``REJECT`` frames all render from the same registry — same code, same
wording, everywhere.

Code families
-------------

``RPR-E0xx``  session/engine configuration errors (hard; raised at
              open time before any shard worker forks)
``RPR-E3xx``  hardware infeasibility (hard; §3.1 key parser, §4 area
              model)
``RPR-W1xx``  mergeability/shardability degradations (§3.2)
``RPR-W2xx``  value-range / overflow risks
``RPR-W4xx``  program hygiene (dead stages)
``RPR-I3xx``  resource accounting (informational)
``RPR-I4xx``  trace-scan hints (informational)
``RPR-C0xx``  static-checker framework hygiene (``repro check``)
``RPR-C1xx``  event-loop blocking (async bodies reaching sync I/O)
``RPR-C2xx``  resource lifecycle (acquisitions without releases)
``RPR-C3xx``  checkpoint-state purity (non-data snapshot payloads)
``RPR-C4xx``  exception discipline (swallowed errors, unsafe handlers)
``RPR-C5xx``  determinism (wall clock / shared randomness in replay)

This module is deliberately dependency-free (stdlib only) so that both
the ``core``/``switch`` layers and the telemetry runtime can import it
without cycles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "DiagnosticsReport",
    "diagnostic_code",
    "exc_message",
    "make",
    "render",
]

SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class CodeInfo:
    """One registry entry: everything stable about a diagnostic code."""

    code: str          # "RPR-E001"
    slug: str          # "row-engine-is-one-shot"
    severity: str      # "error" | "warning" | "info"
    when: str          # "open" | "compile" | "runtime"
    template: str      # message template (str.format over context)
    fix: str           # canonical fix hint


_REGISTRY: tuple[CodeInfo, ...] = (
    # -- session/engine configuration (checked at open time) ---------------
    CodeInfo(
        "RPR-E001", "row-engine-is-one-shot", "error", "open",
        'engine="row" is the one-shot reference (run(), run_exact(), '
        'plan_cache()); sessions — open(), resume(), serve() — run on '
        'the vector engine',
        'use engine="auto"/"vector" for sessions, or call run() on the '
        'reference',
    ),
    CodeInfo(
        "RPR-E002", "refresh-cannot-shard", "error", "open",
        "shards= is incompatible with refresh_interval= (refresh epochs "
        "cut at global stream positions, which per-shard streams cannot "
        "see)",
        "drop one of shards= / refresh_interval=",
    ),
    CodeInfo(
        "RPR-E004", "invalid-window", "error", "open",
        "window must be a positive number of accesses, got {window!r} "
        "(omit it for an unbounded window)",
        "pass a positive window, or omit window= entirely",
    ),
    CodeInfo(
        "RPR-E005", "invalid-shards", "error", "open",
        "shards must be a positive worker count, got {shards!r} "
        "(omit it for single-process execution)",
        "pass a positive shard count, or omit shards= entirely",
    ),
    CodeInfo(
        "RPR-E008", "unknown-engine", "error", "compile",
        "engine must be one of {engines}, got {engine!r}",
        'pick one of "auto", "vector", "row"',
    ),
    # -- hardware infeasibility (§3.1 key parser, §3.3/§4 area model) -----
    CodeInfo(
        "RPR-E301", "sram-wont-fit", "error", "open",
        "stage {stage!r} cache will not fit: {pairs} pairs x "
        "{pair_bits} b = {mbit:.1f} Mbit = {pct:.1f}% of a "
        "{chip:.0f} mm2 die (budget {budget_pct:.1f}%)",
        "shrink the cache geometry, narrow the key/value layout, or "
        "raise area_budget",
    ),
    CodeInfo(
        "RPR-E302", "non-integer-key", "error", "open",
        "stage {stage!r} groups by {field!r}, a {dtype} field; the "
        "switch keys its cache on fixed-width integer header fields",
        "group by integer fields; use a float field in WHERE or as a "
        "fold value",
    ),
    # -- mergeability / shardability (§3.2) --------------------------------
    CodeInfo(
        "RPR-W101", "non-mergeable-fold-serializes-stage", "warning",
        "compile",
        "fold {column!r} is not linear in state ({reason}); evictions "
        "cannot be merged — the backing store keeps per-epoch value "
        "lists (multi-epoch keys invalid) and sharded execution routes "
        "the whole stage {stage!r} through one worker",
        "rewrite the update as S = A*S + B with state-free A/B "
        "(paper S3.2) to restore mergeability",
    ),
    CodeInfo(
        "RPR-W102", "single-bucket-serializes-stage", "warning", "open",
        "stage {stage!r} uses a single-bucket (fully associative) "
        "geometry; hash partitioning has nothing to split and sharded "
        "execution routes the whole stage through one worker",
        "use a hash-table or set-associative geometry with more than "
        "one bucket",
    ),
    CodeInfo(
        "RPR-W103", "inexact-merge", "warning", "compile",
        "fold {column!r} merges inexactly: its coefficients read packet "
        "history (depth {depth}), so the first packet after each "
        "eviction sees freshly initialised history",
        "enable exact_history=True to log and replay the first k "
        "packets of each epoch",
    ),
    # -- value-range / overflow ---------------------------------------------
    CodeInfo(
        "RPR-W201", "int64-overflow-risk", "warning", "compile",
        "fold {column!r} state {var!r} may exceed int64 within "
        "{records} records: from |init| {init} at per-record bound "
        "{bound} it is safe up to {safe} records; the vector engine "
        "will switch the fold to exact Python ints mid-run",
        "shorten the trace / shrink the field magnitude, or accept the "
        "slower bit-identical exact-int arithmetic",
    ),
    # -- resource accounting -------------------------------------------------
    CodeInfo(
        "RPR-I301", "sram-budget", "info", "compile",
        "stage {stage!r} cache: {pairs} pairs x {pair_bits} b = "
        "{mbit:.2f} Mbit = {pct:.2f}% of a {chip:.0f} mm2 die",
        "",
    ),
    # -- program hygiene ------------------------------------------------------
    CodeInfo(
        "RPR-W401", "dead-stage", "warning", "compile",
        "query {name!r} is dead: not reachable from result {result!r} "
        "but still compiled to a stage that consumes switch resources",
        "remove the unused query, or reference it from the result",
    ),
    CodeInfo(
        "RPR-I402", "unused-field", "info", "compile",
        "trace columns never scanned by this program: {fields}; a "
        "shared-scan query set could skip parsing them",
        "",
    ),
    # -- concurrency / resource-safety static checks (``repro check``) -------
    CodeInfo(
        "RPR-C001", "unusable-suppression", "error", "check",
        "unusable suppression comment: {problem}",
        "write '# repro: allow[RPR-Cxxx]' naming the exact registered "
        "code(s) the line is waiving",
    ),
    CodeInfo(
        "RPR-C101", "event-loop-blocking-call", "error", "check",
        "blocking call {call}() can stall the event loop: reachable "
        "from async {entry}(){via}",
        "move the call off the loop (await loop.run_in_executor(...)) "
        "or use the asyncio equivalent",
    ),
    CodeInfo(
        "RPR-C102", "import-inside-async", "error", "check",
        "import of {module!r} inside async {entry}() runs module-load "
        "file I/O under the import lock on the event loop",
        "hoist the import to module top level",
    ),
    CodeInfo(
        "RPR-C201", "leak-on-exception-path", "error", "check",
        "{resource} held by {name!r} is not released when a later "
        "statement raises (first unguarded raise point: line {line})",
        "guard the window between acquisition and ownership hand-off "
        "with try/except that releases and re-raises (or with/finally)",
    ),
    CodeInfo(
        "RPR-C202", "leak-on-exit-path", "error", "check",
        "{resource} held by {name!r} is not released on the exit path "
        "at line {line}",
        "close the resource before returning, or hand ownership off "
        "explicitly (return it / store it on the owner)",
    ),
    CodeInfo(
        "RPR-C301", "non-data-checkpoint-value", "error", "check",
        "checkpoint payload entry {key} is {what}; snapshots must be "
        "plain data the restore path can unpickle and replay",
        "store the underlying plain-data state (counters, arrays, "
        "dicts) instead",
    ),
    CodeInfo(
        "RPR-C302", "runtime-handle-in-checkpoint", "error", "check",
        "checkpoint payload entry {key} captures runtime handle "
        "{attr!r}; locks/threads/sockets/processes do not survive "
        "pickling",
        "serialize the handle's replayable state, not the handle",
    ),
    CodeInfo(
        "RPR-C401", "swallowed-broad-except", "error", "check",
        "broad 'except {caught}' swallows the exception: the handler "
        "neither re-raises nor records it, so a SessionError/"
        "ShardError here would vanish silently",
        "re-raise after cleanup, narrow the exception type, or bind "
        "the exception and report it",
    ),
    CodeInfo(
        "RPR-C402", "nonreentrant-exit-handler", "error", "check",
        "{kind} handler {func}() calls {call}(), which can deadlock "
        "or fail when the handler interrupts the main thread",
        "set a flag/event in the handler and do the blocking work on "
        "a normal code path",
    ),
    CodeInfo(
        "RPR-C501", "wall-clock-in-replay", "error", "check",
        "time.time is wall clock; replay needs stream-position time "
        "(use the record's tin/tout or time.monotonic for "
        "non-replayed timeouts)",
        "use the record's tin/tout stream time, or time.monotonic for "
        "timeouts that are never replayed",
    ),
    CodeInfo(
        "RPR-C502", "shared-module-random", "error", "check",
        "random.{attr} uses the shared module-level generator; use a "
        "seeded random.Random(seed) instance",
        "thread a seeded random.Random(seed) from the session seed",
    ),
    CodeInfo(
        "RPR-C503", "numpy-global-random", "error", "check",
        "np.random.{attr} uses numpy's global generator; pass a "
        "Generator seeded from the session seed",
        "use np.random.default_rng(seed) / a Generator threaded from "
        "the session seed",
    ),
    CodeInfo(
        "RPR-C504", "unseeded-random-instance", "error", "check",
        "random.Random() without a seed draws OS entropy; seed it "
        "from the session/shard seed",
        "pass an explicit seed derived from the session/shard seed",
    ),
)

CODES: dict[str, CodeInfo] = {c.code: c for c in _REGISTRY}

_CODE_RE = re.compile(r"RPR-[EWIC]\d{3}")


def render(code: str, **context: object) -> str:
    """The canonical message for ``code`` (no code prefix)."""
    return CODES[code].template.format(**context)


def exc_message(code: str, **context: object) -> str:
    """Message with the ``[RPR-...]`` prefix, for raising exceptions.

    Every layer that rejects a configuration raises with this exact
    string, so the CLI, ``open()``, and served ``REJECT`` frames agree
    on wording and the code is recoverable with
    :func:`diagnostic_code`.
    """
    return f"[{code}] {render(code, **context)}"


def diagnostic_code(text: object) -> str | None:
    """Extract the first diagnostic code embedded in ``text`` (e.g. an
    exception message), or ``None``."""
    match = _CODE_RE.search(str(text))
    return match.group(0) if match else None


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer (or a runtime rejection)."""

    code: str
    severity: str
    stage: str | None
    message: str
    fix_hint: str = ""

    @property
    def slug(self) -> str:
        return CODES[self.code].slug

    def format(self) -> str:
        where = f" [{self.stage}]" if self.stage else ""
        line = f"{self.code} {self.severity}{where}: {self.message}"
        if self.fix_hint:
            line += f"\n    fix: {self.fix_hint}"
        return line

    def to_json(self) -> dict[str, object]:
        return {
            "code": self.code,
            "slug": self.slug,
            "severity": self.severity,
            "stage": self.stage,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }


def make(code: str, stage: str | None = None, **context: object) -> Diagnostic:
    """Build a :class:`Diagnostic` from the registry."""
    info = CODES[code]
    if stage is not None:
        context.setdefault("stage", stage)
    return Diagnostic(
        code=code,
        severity=info.severity,
        stage=stage,
        message=render(code, **context),
        fix_hint=info.fix,
    )


@dataclass(frozen=True)
class DiagnosticsReport:
    """The full outcome of one analysis pass, in emission order."""

    diagnostics: tuple[Diagnostic, ...] = field(default=())

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "warning")

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "info")

    @property
    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.diagnostics)

    @property
    def first_error(self) -> Diagnostic | None:
        for d in self.diagnostics:
            if d.severity == "error":
                return d
        return None

    def by_code(self, code: str) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.code == code)

    def format(self) -> str:
        """Human-readable report, errors first."""
        if not self.diagnostics:
            return "no diagnostics: deployable as configured"
        order = {"error": 0, "warning": 1, "info": 2}
        ranked = sorted(self.diagnostics,
                        key=lambda d: order[d.severity])
        lines = [d.format() for d in ranked]
        counts = (f"{len(self.errors)} error(s), "
                  f"{len(self.warnings)} warning(s), "
                  f"{len(self.infos)} info(s)")
        return "\n".join(lines + [counts])

    def to_json(self) -> dict[str, object]:
        return {
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }
