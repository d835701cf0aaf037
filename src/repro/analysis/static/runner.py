"""Execution engine of ``repro check``: discovery, dispatch, report.

``check_paths`` walks the given files/directories, runs every
applicable checker over each parseable Python file, filters
suppressed findings (counting them), and folds the results into one
:class:`CheckReport` the CLI renders as text or JSON.  Exit semantics
live here too: any finding (or unparseable file) means the tree fails
the gate.

Rule selection: ``select=("RPR-C201", ...)`` keeps only those codes.
By default a checker's path *scope* is honored (the determinism family
only runs over the replay-critical modules); ``ignore_scope=True``
bypasses it — the fixture tests use this to exercise scoped rules on
fixture files that live outside their scope.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.static.base import (
    CheckerInfo,
    Finding,
    ModuleContext,
    all_checkers,
)

__all__ = ["CheckReport", "check_paths", "check_source", "iter_rules"]


@dataclass
class CheckReport:
    """Everything one ``repro check`` run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: ``(path, message)`` for files that failed to parse.
    unparseable: list[tuple[str, str]] = field(default_factory=list)

    @property
    def has_findings(self) -> bool:
        return bool(self.findings or self.unparseable)

    def format(self) -> str:
        lines = [f.format() for f in self.findings]
        lines += [f"{path}: unparseable: {message}"
                  for path, message in self.unparseable]
        summary = (f"{len(self.findings)} finding(s) in "
                   f"{self.files_checked} file(s)")
        if self.suppressed:
            summary += f", {self.suppressed} suppressed"
        if self.unparseable:
            summary += f", {len(self.unparseable)} unparseable"
        return "\n".join(lines + [summary])

    def to_json(self) -> dict[str, object]:
        return {
            "findings": [f.to_json() for f in self.findings],
            "errors": len(self.findings) + len(self.unparseable),
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "unparseable": [{"path": p, "message": m}
                            for p, m in self.unparseable],
        }

    def dumps(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated list of
    ``.py`` files."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            seen.update(p for p in path.rglob("*.py"))
        elif path.suffix == ".py" or path.is_file():
            seen.add(path)
    return sorted(seen)


def _applicable(checkers: Sequence[CheckerInfo], path: str,
                select: Sequence[str] | None,
                ignore_scope: bool) -> list[CheckerInfo]:
    picked = []
    for info in checkers:
        if select is not None and not set(select) & set(info.codes):
            continue
        if not ignore_scope and not info.applies_to(path):
            continue
        picked.append(info)
    return picked


def check_source(source: str, path: str | Path = "<string>",
                 select: Sequence[str] | None = None,
                 ignore_scope: bool = False) -> list[Finding]:
    """Run the framework over one in-memory module; returns the
    unsuppressed findings (sorted by line).  ``SyntaxError``
    propagates."""
    module = ModuleContext(path, source)
    findings = list(module.suppression_findings)
    for info in _applicable(all_checkers(), module.path, select,
                            ignore_scope):
        findings.extend(info.run(module))
    if select is not None:
        findings = [f for f in findings if f.code in select]
    return sorted((f for f in findings if not module.is_suppressed(f)),
                  key=lambda f: (f.line, f.code))


def check_paths(paths: Iterable[str | Path],
                select: Sequence[str] | None = None,
                ignore_scope: bool = False) -> CheckReport:
    """Run every applicable checker over every Python file under
    ``paths``."""
    report = CheckReport()
    checkers = all_checkers()
    for path in iter_python_files(paths):
        try:
            source = path.read_text()
            module = ModuleContext(path, source)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            report.unparseable.append((str(path), str(exc)))
            continue
        report.files_checked += 1
        findings = list(module.suppression_findings)
        for info in _applicable(checkers, module.path, select,
                                ignore_scope):
            findings.extend(info.run(module))
        if select is not None:
            findings = [f for f in findings if f.code in select]
        for finding in sorted(findings, key=lambda f: (f.line, f.code)):
            if module.is_suppressed(finding):
                report.suppressed += 1
            else:
                report.findings.append(finding)
    return report


def iter_rules() -> list[dict[str, str]]:
    """One row per registered checker code — the ``--rules`` listing
    and the DIAGNOSTICS.md sync test read this."""
    from repro.telemetry.diagnostics import CODES

    rows = []
    for info in all_checkers():
        for code in info.codes:
            rows.append({
                "code": code,
                "slug": CODES[code].slug,
                "checker": info.name,
                "scope": ", ".join(info.scope) if info.scope else "*",
            })
    return sorted(rows, key=lambda r: r["code"])
