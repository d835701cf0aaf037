"""One integer-bound authority: only ``core/intbound.py`` names the
int64 boundary.

Every other module asks :mod:`repro.core.intbound` whether a value may
wrap (its walker, :data:`~repro.core.intbound.LIMIT`, its one response),
so the static analyzer and the runtime guards cannot drift apart by
re-deriving the bound somewhere else.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
AUTHORITY = SRC / "core" / "intbound.py"

#: ``2 ** 63`` / ``1 << 63`` in any spacing.
BOUNDARY = re.compile(r"\b2\s*\*\*\s*63\b|\b1\s*<<\s*63\b")


def boundary_sites(text: str) -> list[int]:
    return [text.count("\n", 0, m.start()) + 1
            for m in BOUNDARY.finditer(text)]


def test_only_intbound_names_the_int64_boundary():
    offenders = [f"{path.relative_to(SRC)}:{line}"
                 for path in sorted(SRC.rglob("*.py")) if path != AUTHORITY
                 for line in boundary_sites(path.read_text())]
    assert not offenders, offenders


def test_the_check_fires():
    assert boundary_sites("x = 2 ** 63\ny = 1<<63\n") == [1, 2]
    assert boundary_sites("LIMIT = 1 << 633\nz = 12 ** 63\n") == []
    assert boundary_sites(AUTHORITY.read_text())
