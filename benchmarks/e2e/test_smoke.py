"""Smoke test of the e2e benchmark (collected by the tier-1 command).

Runs every workload of ``BENCHMARK.json`` at ``--scale smoke`` (2^13
records, one pass, a real server subprocess and two shard workers), in
the form the benchmark's ``command`` is run in, side by side, and
checks that each emits exactly the declared metric names, all finite,
with a green verify phase.  One more run is traced and has its
verification broken on purpose: it must name every per-layer metric
and exit non-zero.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _start(workload: str, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "7", "--seconds", "0", "--scale", "smoke", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _result(proc: subprocess.Popen) -> tuple[int, dict]:
    out, err = proc.communicate(timeout=120)
    assert out.strip(), err
    return proc.returncode, json.loads(out.strip().splitlines()[-1])


def test_smoke_scale_emits_declared_metrics():
    runs = {w["name"]: _start(w["name"], "--trace", "0")
            for w in SPEC["workloads"]}
    broken = _start("windowed-stream", "--trace", "1", "--break-verify")
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, proc in runs.items():
        code, result = _result(proc)
        assert code == 0 and result["correct"], (name, result)
        assert result["failed"] == 0 and result["attempted"] >= 1
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        assert got == declared, name
        for metric, m in result["metrics"].items():
            assert math.isfinite(m["value"]) and m["value"] > 0, (name, metric)

    code, result = _result(broken)
    assert code != 0 and not result["correct"] and result["failed"] == 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
