"""Compare two result files of ``run.py`` under the bounds of ``BENCHMARK.json``.

    python benchmarks/e2e/compare.py A.json B.json

A is the parent, B the change.  For every pairing of end-to-end metric
and workload the verdict is one of

``same``        B's median is within the metric's bound of A's;
``better``      B is better than A by more than the bound;
``worse``       B is worse than A by more than the bound — a regression;
``unresolved``  the spread between passes (distance between quartiles
                over the median, the wider of the two files) exceeds
                the bound, and the two files' passes overlap: the
                metric cannot be called unchanged.

Exits non-zero if any pair is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _spread(metric: dict) -> float:
    return (metric.get("q3", 0) - metric.get("q1", 0)) / metric["median"]


def compare(a: dict, b: dict) -> list[dict]:
    rows = []
    for workload, detail in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            continue
        for spec in SPEC["end_to_end"]:
            ma = detail["metrics"][spec["name"]]
            mb = other["metrics"][spec["name"]]
            sign = 1 if spec["better"] == "lower" else -1
            worse_by = sign * (mb["median"] - ma["median"]) / ma["median"]
            pa, pb = ma.get("per_pass", []), mb.get("per_pass", [])
            separated = bool(pa and pb) and (
                min(pb) > max(pa) or max(pb) < min(pa))
            spread = max(_spread(ma), _spread(mb))
            if spread > spec["bound"] and not separated:
                verdict = "unresolved"
            elif worse_by > spec["bound"]:
                verdict = "worse"
            elif worse_by < -spec["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            rows.append({"workload": workload, "metric": spec["name"],
                         "unit": spec["unit"], "a": ma["median"],
                         "b": mb["median"], "worse_by": worse_by,
                         "spread": spread, "bound": spec["bound"],
                         "verdict": verdict})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<20} {'metric':<15} {'A':>12} {'B':>12} "
             f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict"]
    for r in rows:
        lines.append(
            f"{r['workload']:<20} {r['metric']:<15} {r['a']:>12.5g} "
            f"{r['b']:>12.5g} {100 * r['worse_by']:>8.1f}% "
            f"{100 * r['spread']:>6.1f}% {100 * r['bound']:>5.0f}%  "
            f"{r['verdict']}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a, b)
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
