"""The repo's benchmark: end-to-end and per-layer numbers from one harness.

    python benchmarks/e2e/run.py [--seed N]        every workload, untraced
    python benchmarks/e2e/run.py --trace           the separate traced run
    python benchmarks/e2e/run.py --selfcheck       two sets of the same code
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Without ``--workload`` every workload of ``BENCHMARK.json`` runs in a
fresh subprocess of its own; the command prints every end-to-end metric
by name and unit, verifies outputs and exits non-zero on any failure.
With ``--workload`` (the form ``BENCHMARK.json``'s ``command`` is run
in) one workload runs in this process and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  End-to-end metrics never come from a
traced run.
"""

import os
import sys
import time

#: One value per thread pool and a fixed hash seed, so that neither
#: BLAS threads nor set iteration order vary between runs.
HYGIENE = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
if "--workload" in sys.argv and any(
        os.environ.get(k) != v for k, v in HYGIENE.items()):
    # a workload run started by hand or by a driver: start over with
    # the same settings the all-workloads command gives its children
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, **HYGIENE})

_T0 = time.perf_counter()       # setup_s counts from here, imports included

import argparse
import json
import platform
import resource
import statistics
import subprocess
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

import workloads as wl
from workloads import now

_IMPORT_S = time.perf_counter() - _T0

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def summary(values: list[float]) -> dict:
    """Median and quartiles of per-pass values (inclusive method: with
    three passes the exclusive one returns the extremes)."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "per_pass": values}


# -- leak check ------------------------------------------------------------------


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def _child_pids() -> set[int]:
    pids: set[int] = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.update(int(p) for p in (task / "children").read_text().split())
        except OSError:
            pass
    return pids


def leaks(shm_before: set[str]) -> list[str]:
    """What the workload left behind: shared-memory segments, child
    processes, socket files."""
    # the shard pool's resource tracker is a child by design; end it
    # and wait for it, like every other process this run started
    resource_tracker._resource_tracker._stop()
    # a segment of another run on this machine is gone within
    # milliseconds; only one that stays is a leak
    suspects = _shm_segments() - shm_before
    deadline = now() + 1.0
    while suspects and now() < deadline:
        time.sleep(0.05)
        suspects &= _shm_segments()
    found = [f"leaked /dev/shm segment {n}" for n in sorted(suspects)]
    found += [f"leaked child process {pid}" for pid in sorted(_child_pids())]
    found += [f"leaked socket file {p.name}"
              for p in wl.OUT.glob(f"serve-{os.getpid()}-*.sock")]
    return found


# -- one workload, in this process -----------------------------------------------


def run_untraced(args) -> dict:
    scale = wl.SCALES[args.scale]
    shm_before = _shm_segments()
    build_s = []
    workload = None
    try:
        for _ in range(scale.setup_repeats):
            if workload is not None:
                workload.teardown()
                workload = canon = None     # one trace in memory at a time
            t = now()
            canon = wl.build_canon(args.seed, scale)
            workload = wl.WORKLOADS[args.workload](canon)
            workload.setup()
            build_s.append(now() - t)
        t = now()
        facts = wl.check_facts(canon)
        workload.warmup()
        setup_s = _IMPORT_S + statistics.median(build_s) + now() - t
        passes = wl.collect(workload, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.break_verify = args.break_verify
        attempted, failed, notes = workload.verify(passes[-1])
    finally:
        if workload is not None:
            workload.teardown()
    rss_mb = workload.peak_rss_mb() or rss_mb
    found = leaks(shm_before)
    attempted += sum(p.attempted for p in passes) + 3
    failed += sum(p.failed for p in passes) + len(found)
    notes += [n for p in passes for n in p.notes] + found

    per_pass = [p.metrics() for p in passes]
    metrics = {name: summary([m[name] for m in per_pass])
               for name in per_pass[0]}
    # percentiles are taken over the samples of the whole run, not as
    # the median of per-pass percentiles: an open-loop segment of
    # ``served-stream`` has 64 samples, 3 beyond its p95
    for name, value in wl.ingest_percentiles(passes).items():
        metrics[name] = {"median": value,
                         "per_pass": metrics[name]["per_pass"]}
    metrics["peak_rss_mb"] = summary([rss_mb])
    metrics["setup_s"] = summary([setup_s])
    return {
        "workload": args.workload, "seed": args.seed, "scale": scale.name,
        "seconds": args.seconds, "passes": len(passes),
        "attempted": attempted, "failed": failed, "notes": notes,
        "metrics": {n: {**metrics[n], "unit": E2E[n]["unit"]} for n in E2E},
        "samples_per_pass": passes[0].sample_counts(),
        "setup": {"import_s": _IMPORT_S, "build_s": build_s},
        "facts": facts,
        "counters": wl.cache_counters(passes[-1].reports),
    }


def run_traced(args) -> dict:
    """One untraced pass, then the wrappers go in and one traced pass
    runs on a fresh build (so set-up layers are seen too); the served
    workload hosts its server in this process for both, so that both
    sides of the socket are visible."""
    from tracing import Tracer, layer_metrics

    scale = wl.SCALES[args.scale]
    shm_before = _shm_segments()
    cls = wl.WORKLOADS[args.workload]

    def one_pass(tracer):
        """Build, set up and run one pass (traced if ``tracer``), then
        verify with tracing off."""
        if tracer is not None:
            tracer.enabled = True
        canon = wl.build_canon(args.seed, scale)
        workload = cls(canon, in_process_server=True)
        verdict = (0, 0, [])
        try:
            workload.setup()
            if tracer is None:
                workload.warmup()
            cpu, own = time.process_time(), time.thread_time()
            result = wl.timed_pass(workload)
            other_cpu = (time.process_time() - cpu) - (time.thread_time() - own)
            if tracer is not None:
                tracer.enabled = False
                workload.break_verify = args.break_verify
                verdict = workload.verify(result)
        finally:
            workload.teardown()
        return canon, workload, result, other_cpu, verdict

    untraced = one_pass(None)[2]
    tracer = Tracer()
    tracer.install()
    try:
        canon, workload, traced, other_cpu, (attempted, failed, notes) = \
            one_pass(tracer)
    finally:
        tracer.uninstall()

    extra = wl.cache_counters(traced.reports)
    extra["trace.overhead_share"] = traced.total_s / untraced.total_s - 1
    for query in wl.FIG2_NAMES:
        spent = untraced.query_s.get(query)
        extra[f"query.{query}.records_per_s"] = \
            canon.records / spent if spent else 0.0
    pairs = workload.configs[0][2]
    for policy in wl.POLICIES:
        engine = wl.make_engine("per_flow_counters", pairs, policy)
        t = now()
        engine.plan_cache(canon.table, [pairs], ways=wl.WAYS)
        extra[f"vector_cache.plan_s.{policy}"] = now() - t
    extra["shard_exec.worker_cpu_s"] = tracer.worker_cpu_s
    extra["shard_exec.worker_peak_rss_mb"] = tracer.worker_peak_rss_mb
    shards = getattr(cls, "shards", None)
    extra["shard_exec.parallel_share"] = (
        tracer.worker_cpu_s / (traced.wall_s * shards) if shards else 0.0)
    served = isinstance(workload, wl.ServedStream)
    sent = traced.records + traced.sample_counts()["ingest"] * scale.batch
    extra["wire.bytes_per_record"] = tracer.bytes.get("wire.pack", 0) / sent
    extra["serve.server_cpu_s"] = other_cpu if served else 0.0
    for key in ("batches_in", "busy_events", "shed_batches"):
        extra[f"serve.{key}"] = traced.counters.get(key, 0)
    extra["client.reconnects"] = traced.counters.get("reconnects", 0)
    extra["client.late_p95_ms"] = (
        float(np.percentile(traced.late_s, 95)) * 1e3 if traced.late_s else 0.0)
    extra["serve.inprocess_records_per_s"] = 0.0
    if served:
        ceiling = wl.WindowedStream(canon, queries=wl.SERVED_QUERIES)
        ceiling.setup()
        extra["serve.inprocess_records_per_s"] = \
            ceiling.run_pass().metrics()["records_per_s"]

    found = leaks(shm_before)
    values = layer_metrics(tracer, list(LAYER), extra)
    tracer.write(wl.OUT / f"trace-{args.workload}.json",
                 {"workload": args.workload, "seed": args.seed,
                  "scale": scale.name})
    return {
        "workload": args.workload, "seed": args.seed, "scale": scale.name,
        "attempted": attempted + traced.attempted + 3,
        "failed": failed + traced.failed + len(found),
        "notes": notes + traced.notes + found,
        "metrics": {n: {"median": float(v), "unit": LAYER[n]["unit"]}
                    for n, v in values.items()},
        "layer_table": tracer.table(),
        "walls": {"untraced_s": untraced.total_s, "traced_s": traced.total_s},
    }


def child(args) -> int:
    detail = run_traced(args) if args.trace else run_untraced(args)
    wl.OUT.mkdir(exist_ok=True)
    suffix = "-traced" if args.trace else ""
    (wl.OUT / f"{args.workload}{suffix}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for note in detail["notes"]:
        print(f"FAILED: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"], "failed": detail["failed"],
        "metrics": {n: {"value": m["median"], "unit": m["unit"]}
                    for n, m in detail["metrics"].items()},
    }))
    return 0 if detail["failed"] == 0 else 1


# -- every workload, one subprocess each -----------------------------------------


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(args) -> dict:
    """Run every workload in its own fresh subprocess and collect the
    detail files they write.  This process has already imported numpy
    and ``repro``, which warms the page cache for the children."""
    record = {
        "commit": _commit(), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "traced": bool(args.trace), "workloads": {}, "failed": 0,
    }
    suffix = "-traced" if args.trace else ""
    for spec in SPEC["workloads"]:
        name = spec["name"]
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
        if args.break_verify:
            cmd.append("--break-verify")
        t = now()
        proc = subprocess.run(cmd, env={**os.environ, **HYGIENE},
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode not in (0, 1) or not proc.stdout.strip():
            print(f"{name}: exited with code {proc.returncode}",
                  file=sys.stderr)
            record["failed"] += 1
            continue
        detail = json.loads((wl.OUT / f"{name}{suffix}.json").read_text())
        detail["elapsed_s"] = now() - t
        record["workloads"][name] = detail
        record["failed"] += detail["failed"]
        _print_workload(detail)
    return record


def _print_workload(detail: dict) -> None:
    share = detail["failed"] / detail["attempted"]
    print(f"\n{detail['workload']}  ({detail.get('passes', 1)} passes, "
          f"{detail.get('elapsed_s', 0):.1f} s)  failed_share {share:.4f} "
          f"ratio ({detail['failed']}/{detail['attempted']})")
    for name, m in detail["metrics"].items():
        spread = (f"   [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]"
                  if "q1" in m and len(m["per_pass"]) > 1 else "")
        print(f"  {name:<40} {m['median']:>16.6g} {m['unit']}{spread}")
    if "layer_table" in detail:
        print(detail["layer_table"])


def _exact(record: dict) -> dict:
    """What must repeat exactly between two runs of one seed."""
    return {(w, name): value for w, detail in record["workloads"].items()
            for name, value in {
                **detail["counters"],
                "checkpoint_mb": detail["metrics"]["checkpoint_mb"]["median"],
            }.items()}


def selfcheck(args) -> int:
    """Two sets of runs of the same code must agree within the
    benchmark's own bounds, and their exact counters exactly."""
    from compare import compare, render

    first, second = run_all(args), run_all(args)
    for i, record in enumerate((first, second), 1):
        (wl.OUT / f"selfcheck-{i}.json").write_text(
            json.dumps(record, indent=1) + "\n")
    rows = compare(first, second)
    print("\n" + render(rows))
    bad = [r for r in rows if r["verdict"] != "same"]
    one, two = _exact(first), _exact(second)
    differ = [key for key in one if two.get(key) != one[key]]
    for workload, name in differ:
        print(f"{name} on {workload} does not repeat exactly")
    failed = first["failed"] + second["failed"]
    print(f"selfcheck: {len(bad)} pair(s) not 'same', {len(differ)} exact "
          f"value(s) differ, {failed} failed operation(s)")
    return 1 if bad or differ or failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", choices=sorted(wl.SCALES), default="full")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--break-verify", action="store_true",
                        help="corrupt one reference counter, to show that "
                             "a failed verification fails the command")
    args = parser.parse_args()
    if args.workload:
        return child(args)
    if args.selfcheck:
        return selfcheck(args)
    record = run_all(args)
    wl.OUT.mkdir(exist_ok=True)
    name = "latest-traced.json" if args.trace else "latest.json"
    (wl.OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nwrote {os.path.relpath(wl.OUT / name)}; "
          f"{record['failed']} failed operation(s)")
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
