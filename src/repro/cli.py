"""Command-line interface: ``python -m repro <command>``.

Commands:

``run``       Compile a query and run it over a trace file (CSV/NPZ),
              printing the result table (and optionally checking it
              against the same program on a cache that never evicts).
``plan``      Show the compiled switch configuration for a query.
``generate``  Produce a workload trace file (caida / datacenter /
              incast).
``sweep``     Run the Fig. 5 eviction study or the Fig. 6 accuracy
              study over the synthetic CAIDA-like trace.  ``--engine``
              picks the cache simulator (vector / row, identical
              numbers) and ``--sweep-workers N`` fans the sweep grid
              across N worker processes.
``serve``     Run the live ingest service: a localhost socket front
              end with per-session backpressure, admission control,
              optional load shedding, auto-checkpointing, and graceful
              drain on SIGTERM (plus an optional trace-file tailer).
``catalog``   List the Fig. 2 catalog, or show one entry's source.
``lint``      Compile-time deployability analysis: run the static
              analyzer over one query (or the whole catalog with
              ``--catalog``) and print the diagnostics report —
              mergeability/shardability, session compatibility,
              int64-overflow bounds, §4 SRAM feasibility, dead stages
              and unused trace columns — with stable ``RPR-*`` codes
              (see ``DIAGNOSTICS.md``).  ``--json`` emits a
              machine-readable report; exit status 1 when any hard
              error is found (the CI gate).
``check``     Concurrency & resource-safety static analysis over the
              runtime's *own* Python source: AST/CFG checkers for
              event-loop blocking, resource lifecycles, checkpoint
              purity, exception discipline, and determinism, with
              stable ``RPR-Cxxx`` codes.  ``--json`` for CI; exit
              status 1 when any finding survives suppression review.

Examples::

    python -m repro generate datacenter --out /tmp/dc.npz --flows 300
    python -m repro run --query "SELECT COUNT GROUPBY srcip" \
        --trace /tmp/dc.npz --cache-pairs 4096 --ways 8
    python -m repro run --catalog per_flow_loss_rate --trace /tmp/dc.npz
    python -m repro plan --catalog latency_ewma
    python -m repro sweep fig5 --scale 0.00390625 --sweep-workers 4
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.report import format_table
from repro.core.errors import QueryError, SessionError
from repro.queries.catalog import ALL_QUERIES
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.runtime import QueryEngine


def _parse_params(pairs: list[str]) -> dict[str, float]:
    params: dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param expects name=value, got {pair!r}")
        name, _, raw = pair.partition("=")
        value = float(raw)
        params[name] = int(value) if value.is_integer() else value
    return params


def _load_trace(path: str):
    from repro.traffic.trace_io import read_csv, read_npz

    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return read_csv(path)
    if suffix == ".npz":
        return read_npz(path)
    raise SystemExit(f"unsupported trace format {suffix!r} (use .csv or .npz)")


def _query_source(args: argparse.Namespace) -> tuple[str, dict[str, float]]:
    defaults: dict[str, float] = {}
    if args.catalog:
        entry = ALL_QUERIES.get(args.catalog)
        if entry is None:
            raise SystemExit(
                f"unknown catalog query {args.catalog!r}; "
                f"try: {', '.join(ALL_QUERIES)}")
        source = entry.source
        defaults = dict(entry.default_params)
    elif args.query_file:
        source = Path(args.query_file).read_text()
    elif args.query:
        source = args.query
    else:
        raise SystemExit("supply --query, --query-file, or --catalog")
    return source, defaults


def _positive(unit: str):
    """argparse type for a positive count of ``unit``: reject
    0/negative at parse time with a message naming the unit, instead
    of surfacing a deep error mid-run."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer number of {unit}, got {raw!r}") from None
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"must be a positive number of {unit}, got {value}")
        return value
    return parse


def _geometry(args: argparse.Namespace) -> CacheGeometry:
    if args.ways == 0:
        return CacheGeometry.fully_associative(args.cache_pairs)
    if args.ways == 1:
        return CacheGeometry.hash_table(args.cache_pairs)
    return CacheGeometry.set_associative(args.cache_pairs, ways=args.ways)


def _add_query_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--query", help="query text")
    parser.add_argument("--query-file", help="file containing query text")
    parser.add_argument("--catalog", help="name of a Fig. 2 catalog query")
    parser.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE", help="query parameter binding")
    parser.add_argument("--cache-pairs", type=int, default=1 << 12,
                        help="cache capacity in key-value pairs")
    parser.add_argument("--ways", type=int, default=8,
                        help="associativity (0=fully associative, 1=hash table)")
    parser.add_argument("--policy", default="lru",
                        choices=("lru", "fifo", "random"))
    parser.add_argument("--exact-history", action="store_true",
                        help="enable the exact-history merge extension")
    parser.add_argument("--refresh", type=int, default=None, metavar="N",
                        help="push cache values to the backing store every N packets")
    parser.add_argument("--window", type=_positive("accesses"), default=None,
                        metavar="N",
                        help="stream through a windowed telemetry session: "
                             "the vector split store executes its schedule "
                             "every N accesses with carried state (bounded "
                             "memory, bit-identical results)")
    parser.add_argument("--shards", type=_positive("workers"), default=None,
                        metavar="N",
                        help="hash-partitioned multi-core execution: fan "
                             "each GROUPBY stage out to N worker processes "
                             "and combine their stores via the synthesized "
                             "merges (bit-identical results; incompatible "
                             "with --refresh)")


def cmd_run(args: argparse.Namespace) -> int:
    source, params = _query_source(args)
    params.update(_parse_params(args.param))
    table = _load_trace(args.trace)
    engine = QueryEngine(source, params=params, geometry=_geometry(args),
                         policy=args.policy, exact_history=args.exact_history,
                         refresh_interval=args.refresh)
    # Every run is one TelemetrySession (--window sets the streaming
    # window, --shards the multi-core fan-out).  --resume-from restores
    # a checkpointed session and skips the trace prefix it already saw;
    # --checkpoint-to saves one for a later resume.
    if args.checkpoint_every and not args.checkpoint_to:
        raise SystemExit("--checkpoint-every requires --checkpoint-to")
    if args.resume_from:
        session = engine.resume(Path(args.resume_from).read_bytes())
        skip = session.packets_ingested
        print(f"resumed session from {args.resume_from}: "
              f"skipping {skip} already-ingested packets", file=sys.stderr)
    else:
        session = engine.open(window=args.window, shards=args.shards)
        skip = 0
    total = len(table)
    if skip > total:
        raise SystemExit(
            f"checkpoint has already ingested {skip} packets but the trace "
            f"holds only {total} — resume with the original trace")
    if args.checkpoint_every:
        for lo in range(skip, total, args.checkpoint_every):
            session.ingest(table[lo:lo + args.checkpoint_every])
            Path(args.checkpoint_to).write_bytes(session.checkpoint())
    else:
        if skip < total:
            session.ingest(table[skip:])
        if args.checkpoint_to:
            Path(args.checkpoint_to).write_bytes(session.checkpoint())
    report = session.close(include_invalid=args.include_invalid)
    if args.check:
        report.ground_truth = engine.run_exact(table)

    result = report.result
    columns = list(result.schema.column_names())
    rows = [[row.get(c, "") for c in columns] for row in result.rows[:args.limit]]
    print(format_table(columns, rows,
                       title=f"result: {report.result_name} "
                             f"({len(result)} rows, showing {len(rows)})"))
    for name, stats in report.cache_stats.items():
        print(f"\n[{name}] cache: {stats.accesses} accesses, "
              f"{stats.evictions} evictions "
              f"({100 * stats.eviction_fraction:.2f}%), "
              f"{report.backing_writes[name]} backing-store writes, "
              f"accuracy {100 * report.accuracy[name]:.1f}%")
    if args.check:
        from repro.telemetry.results import compare_tables
        truth = report.ground_truth[report.result_name]
        if result.schema.keyed and truth.schema.keyed:
            diff = compare_tables(result, truth, rel_tol=1e-6)
            print(f"\nvs never-evicting run: {diff.describe()}")
            return 0 if diff.exact else 1
        print(f"\nvs never-evicting run: {len(result)} vs {len(truth)} rows")
        return 0 if len(result) == len(truth) else 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    source, params = _query_source(args)
    params.update(_parse_params(args.param))
    engine = QueryEngine(source, params=params, geometry=_geometry(args),
                         policy=args.policy, exact_history=args.exact_history,
                         refresh_interval=args.refresh)
    server = engine.serve(
        host=args.host, port=args.port, unix_path=args.unix_socket,
        window=args.window, shards=args.shards,
        max_sessions=args.max_sessions,
        max_inflight_bytes=args.max_inflight_bytes,
        queue_high_bytes=args.queue_high_bytes,
        shed=args.shed, idle_timeout=args.idle_timeout,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every_batches=args.checkpoint_every_batches)
    if args.tail:
        server.attach_tailer(args.tail, session=args.tail_session)
    shown = args.unix_socket or f"{args.host}:{args.port}"
    print(f"ingest service listening on {shown} "
          f"(SIGTERM/SIGINT drains gracefully)", file=sys.stderr)
    # run_forever installs the SIGTERM/SIGINT drain handler: finish
    # open windows, checkpoint each session, close, and report.
    report = server.run_forever()
    print(f"drained ingest service on {shown}", file=sys.stderr)
    print(json.dumps(report, indent=2, default=str))
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.telemetry.checkpoint import describe_checkpoint

    info = describe_checkpoint(Path(args.snapshot).read_bytes())
    width = max(len(key) for key in info)
    for key, value in info.items():
        if value is not None:
            print(f"{key:<{width}}  {value}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    source, _ = _query_source(args)
    engine = QueryEngine(source, params=_parse_params(args.param) or None,
                         exact_history=args.exact_history)
    print(engine.describe_plan())
    info = engine.info()
    if info.params:
        print(f"\nparameters to bind at run time: {sorted(info.params)}")
    for name, linear in info.linear_by_fold.items():
        verdict = "linear in state (mergeable)" if linear else \
            "NOT linear in state (value-list fallback)"
        print(f"{name}: {verdict}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.traffic.trace_io import write_csv, write_npz

    if args.kind == "caida":
        from repro.traffic.caida import CaidaTraceConfig, generate_caida_like
        table = generate_caida_like(CaidaTraceConfig(scale=args.scale,
                                                     seed=args.seed))
    elif args.kind == "datacenter":
        from repro.traffic.datacenter import DatacenterConfig, DatacenterWorkload
        table = DatacenterWorkload(DatacenterConfig(
            n_flows=args.flows, duration_ns=int(args.duration_ms * 1e6),
            seed=args.seed)).observation_table()
    else:  # incast
        from repro.traffic.incast import IncastConfig, generate_incast
        result = generate_incast(IncastConfig(n_senders=args.senders,
                                              seed=args.seed))
        table = result.table
        print(f"incast ground truth: hotspot qid={result.hotspot_qid}, "
              f"{result.drops} drops")
    if args.anomalies:
        from repro.traffic.tcpgen import clean_sequence_table, inject_tcp_anomalies
        clean_sequence_table(table)
        counts = inject_tcp_anomalies(table)
        print(f"planted anomalies: {counts}")

    out = Path(args.out)
    if out.suffix.lower() == ".csv":
        write_csv(table, out)
    else:
        write_npz(table, out)
    print(f"wrote {len(table)} observations to {out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_percent

    if args.figure == "fig5":
        from repro.analysis.eviction import run_eviction_sweep, shape_checks

        sweep = run_eviction_sweep(
            scale=args.scale, seed=args.seed, engine=args.engine,
            workers=args.sweep_workers, policy=args.policy)
        capacities = sorted({p.paper_pairs for p in sweep.points})
        geometries = ("hash_table", "8way", "fully_associative")
        rows = []
        for paper_pairs in capacities:
            row = [f"2^{paper_pairs.bit_length() - 1}"]
            for geometry in geometries:
                try:
                    point = sweep.point(geometry, paper_pairs)
                except KeyError:
                    row.append("-")
                    continue
                row.append(format_percent(point.eviction_fraction))
            rows.append(row)
        print(format_table(
            ["pairs", "hash table", "8-way", "fully assoc"], rows,
            title=f"Fig. 5 — evictions as % of packets (scale "
                  f"{sweep.scale:.4g}: {sweep.points[0].packets} pkts, "
                  f"{sweep.points[0].flows} flows)"))
        problems = shape_checks(sweep)
    else:
        from repro.analysis.accuracy import run_accuracy_sweep, shape_checks
        from repro.analysis.eviction import PAIR_BITS

        sweep = run_accuracy_sweep(scale=args.scale, seed=args.seed,
                                   engine=args.engine,
                                   workers=args.sweep_workers)
        capacities = sorted({p.paper_pairs for p in sweep.points})
        windows = ("1min", "3min", "5min")
        rows = []
        for paper_pairs in capacities:
            row = [f"{paper_pairs * PAIR_BITS / (1 << 20):.0f}"]
            for window in windows:
                match = [p for p in sweep.points
                         if p.window == window and p.paper_pairs == paper_pairs]
                row.append(format_percent(match[0].accuracy, digits=1)
                           if match else "-")
            rows.append(row)
        print(format_table(
            ["Mbit", "1 min", "3 min", "5 min"], rows,
            title=f"Fig. 6 — accuracy (% valid keys), 8-way cache "
                  f"(scale {sweep.scale:.4g})"))
        problems = shape_checks(sweep)
    print(f"\nshape checks: {problems or 'all hold'}")
    return 0 if not problems else 1


def _lint_bounds(args: argparse.Namespace):
    """Trace bounds for the overflow analysis: measured from a real
    trace when ``--trace`` is given, else from ``--records`` /
    ``--max-field``."""
    from repro.core.analyze import TraceBounds

    if args.trace:
        table = _load_trace(args.trace)
        magnitudes: dict[str, float] = {}
        for name, col in table.columns().items():
            finite = col[~_np_isinf(col)] if col.dtype.kind == "f" else col
            magnitudes[name] = float(abs(finite).max()) if len(finite) else 0.0
        return TraceBounds(records=len(table), field_magnitude=magnitudes)
    return TraceBounds(records=args.records, field_magnitude=args.max_field)


def _np_isinf(col):
    import numpy as np

    return np.isinf(col)


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.report import deployability_table

    if getattr(args, "query_opt", None) and not args.query:
        args.query = args.query_opt
    if args.catalog == "__all__":
        targets = [(name, entry.source, dict(entry.default_params))
                   for name, entry in ALL_QUERIES.items()]
    else:
        source, defaults = _query_source(args)
        targets = [(args.catalog or "query", source, defaults)]

    cli_params = _parse_params(args.param)
    bounds = _lint_bounds(args)
    analyses = {}
    for name, source, params in targets:
        params.update(cli_params)
        engine = QueryEngine(
            source, params=params, geometry=_geometry(args),
            policy=args.policy, exact_history=args.exact_history,
            refresh_interval=args.refresh)
        analyses[name] = engine.analyze(
            window=args.window, shards=args.shards,
            trace_bounds=bounds, area_budget=args.area_budget)
    total_errors = sum(len(a.report.errors) for a in analyses.values())

    if args.json:
        payload = {
            "errors": total_errors,
            "queries": {
                name: {
                    "report": a.report.to_json(),
                    "stages": [{
                        "query": s.query_name,
                        "mergeable": s.mergeable,
                        "shardable": s.shardable,
                        "serialize_cause": s.serialize_cause,
                        "pair_bits": s.pair_bits,
                        "n_pairs": s.n_pairs,
                        "total_mbit": s.total_mbit,
                        "area_fraction": s.area_fraction,
                    } for s in a.stages],
                    "dead_stages": list(a.dead_stages),
                    "unused_fields": list(a.unused_fields),
                } for name, a in analyses.items()
            },
        }
        print(json.dumps(payload, indent=2))
        return 1 if total_errors else 0

    if len(analyses) > 1:
        print(deployability_table(analyses))
        print()
    for name, analysis in analyses.items():
        print(f"== {name} ==")
        print(analysis.report.format())
        print()
    verdict = ("DEPLOYABLE as configured" if total_errors == 0
               else f"NOT DEPLOYABLE: {total_errors} hard error(s)")
    print(verdict)
    return 1 if total_errors else 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.static import check_paths, iter_rules

    if args.rules:
        rows = [[r["code"], r["slug"], r["checker"], r["scope"]]
                for r in iter_rules()]
        print(format_table(["code", "slug", "checker", "scope"], rows,
                           title="repro check rules"))
        return 0
    paths = args.paths or [str(Path(__file__).parent)]
    select = None
    if args.select:
        select = {c.strip() for c in args.select.split(",") if c.strip()}
    report = check_paths(paths, select=select)
    if args.json:
        print(report.dumps())
    else:
        print(report.format())
    return 1 if report.has_findings else 0


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.show:
        entry = ALL_QUERIES.get(args.show)
        if entry is None:
            raise SystemExit(f"unknown catalog query {args.show!r}")
        print(f"# {entry.description}")
        print(f"# linear in state: {entry.linear_in_state}; "
              f"default params: {entry.default_params}")
        print(entry.source.strip())
        return 0
    rows = [[e.name, "yes" if e.linear_in_state else "no", e.description]
            for e in ALL_QUERIES.values()]
    print(format_table(["name", "linear?", "description"], rows,
                       title="query catalog (Fig. 2 + §2 examples)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Performance-query system from 'Hardware-Software "
                    "Co-Design for Network Performance Measurement' "
                    "(HotNets 2016)",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a query over a trace file",
                           allow_abbrev=False)
    _add_query_args(run_p)
    run_p.add_argument("--trace", required=True, help="trace file (.csv/.npz)")
    run_p.add_argument("--limit", type=int, default=20,
                       help="max result rows to print")
    run_p.add_argument("--include-invalid", action="store_true",
                       help="include invalid (multi-epoch) keys in results")
    run_p.add_argument("--check", action="store_true",
                       help="verify against the same program on a cache "
                            "that never evicts (exact for every fold)")
    run_p.add_argument("--checkpoint-to", metavar="PATH",
                       help="write a durable session checkpoint to PATH "
                            "(after ingest, or per batch with "
                            "--checkpoint-every); resume later with "
                            "--resume-from")
    run_p.add_argument("--checkpoint-every", type=_positive("packets"),
                       default=None, metavar="N",
                       help="ingest the trace in batches of N packets and "
                            "rewrite --checkpoint-to after each batch, so a "
                            "crash loses at most one batch of work")
    run_p.add_argument("--resume-from", metavar="PATH",
                       help="restore the session from a checkpoint file and "
                            "skip the trace prefix it already ingested "
                            "(bit-identical to an uninterrupted run)")
    run_p.set_defaults(func=cmd_run)

    plan_p = sub.add_parser("plan", help="show the compiled switch config",
                            allow_abbrev=False)
    _add_query_args(plan_p)
    plan_p.set_defaults(func=cmd_plan)

    gen_p = sub.add_parser("generate", help="generate a workload trace",
                           allow_abbrev=False)
    gen_p.add_argument("kind", choices=("caida", "datacenter", "incast"))
    gen_p.add_argument("--out", required=True, help="output file (.csv/.npz)")
    gen_p.add_argument("--scale", type=float, default=1 / 1024,
                       help="caida: scale relative to the paper's trace")
    gen_p.add_argument("--flows", type=int, default=300,
                       help="datacenter: number of flows")
    gen_p.add_argument("--duration-ms", type=float, default=100.0,
                       help="datacenter: trace duration")
    gen_p.add_argument("--senders", type=int, default=24,
                       help="incast: number of synchronized senders")
    gen_p.add_argument("--seed", type=int, default=1)
    gen_p.add_argument("--anomalies", action="store_true",
                       help="plant TCP sequence anomalies")
    gen_p.set_defaults(func=cmd_generate)

    sweep_p = sub.add_parser(
        "sweep", help="run the Fig. 5/6 cache-design sweeps",
        allow_abbrev=False)
    sweep_p.add_argument("figure", choices=("fig5", "fig6"),
                         help="fig5: eviction rates; fig6: accuracy")
    sweep_p.add_argument("--scale", type=float, default=1 / 256,
                         help="trace scale relative to the paper's 157M pkts")
    sweep_p.add_argument("--seed", type=int, default=2016_04)
    sweep_p.add_argument("--engine", default="auto",
                         choices=("auto", "vector", "row"),
                         help="cache simulator: array-native vector engine, "
                              "per-access row reference, or auto (the "
                              "vector engine)")
    sweep_p.add_argument("--sweep-workers", type=int, default=0, metavar="N",
                         help="fan the sweep grid across N worker processes "
                              "(0 = serial)")
    sweep_p.add_argument("--policy", default="lru",
                         choices=("lru", "fifo", "random"),
                         help="fig5 only: eviction policy to sweep")
    sweep_p.set_defaults(func=cmd_sweep)

    serve_p = sub.add_parser(
        "serve", help="run the live ingest service (socket front end)",
        allow_abbrev=False)
    _add_query_args(serve_p)
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="TCP listen host (loopback only by design)")
    serve_p.add_argument("--port", type=int, default=9016,
                         help="TCP listen port")
    serve_p.add_argument("--unix-socket", metavar="PATH", default=None,
                         help="listen on a UNIX socket instead of TCP")
    serve_p.add_argument("--max-sessions", type=int, default=8,
                         help="admission control: max live sessions")
    serve_p.add_argument("--max-inflight-bytes", type=int,
                         default=256 << 20,
                         help="admission control: max queued batch bytes "
                              "across all sessions")
    serve_p.add_argument("--queue-high-bytes", type=int, default=32 << 20,
                         help="per-session backpressure high watermark "
                              "(BUSY above, READY once drained to 1/4)")
    serve_p.add_argument("--shed", action="store_true",
                         help="load-shedding mode: drop whole batches over "
                              "the watermark instead of backpressure, with "
                              "exact accounting in results metadata")
    serve_p.add_argument("--idle-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="close connections silent this long (the "
                              "session survives for a reconnect)")
    serve_p.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                         help="directory for per-session checkpoint files "
                              "(written on drain, and periodically with "
                              "--checkpoint-every-batches)")
    serve_p.add_argument("--checkpoint-every-batches",
                         type=_positive("batches"),
                         default=None, metavar="N",
                         help="auto-checkpoint each session every N "
                              "ingested batches (requires --checkpoint-dir)")
    serve_p.add_argument("--tail", metavar="PATH", default=None,
                         help="also follow a growing CSV trace file into a "
                              "served session (survives truncation and "
                              "rotation)")
    serve_p.add_argument("--tail-session", default="tail",
                         help="session name the tailed file feeds")
    serve_p.set_defaults(func=cmd_serve)

    lint_p = sub.add_parser(
        "lint", help="static deployability analysis (no trace needed)",
        allow_abbrev=False)
    lint_p.add_argument("query", nargs="?", default=None,
                        help="query text to lint")
    lint_p.add_argument("--query", dest="query_opt", default=None,
                        help=argparse.SUPPRESS)  # parity with other commands
    lint_p.add_argument("--query-file", help="file containing query text")
    lint_p.add_argument("--catalog", nargs="?", const="__all__", default=None,
                        metavar="NAME",
                        help="lint one catalog query, or the whole Fig. 2 "
                             "catalog when no name is given")
    lint_p.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE", help="query parameter binding")
    lint_p.add_argument("--cache-pairs", type=int, default=1 << 12,
                        help="cache capacity in key-value pairs")
    lint_p.add_argument("--ways", type=int, default=8,
                        help="associativity (0=fully associative, 1=hash table)")
    lint_p.add_argument("--policy", default="lru",
                        choices=("lru", "fifo", "random"))
    lint_p.add_argument("--exact-history", action="store_true",
                        help="enable the exact-history merge extension")
    lint_p.add_argument("--refresh", type=int, default=None, metavar="N",
                        help="intended refresh_interval= for the session")
    # Plain ints (not the validating argparse types): lint's job is to
    # *report* an invalid knob as a diagnostic, not to refuse it.
    lint_p.add_argument("--window", type=int, default=None, metavar="N",
                        help="intended window= for the session")
    lint_p.add_argument("--shards", type=int, default=None, metavar="N",
                        help="intended shards= for the session")
    lint_p.add_argument("--records", type=int, default=10_000_000,
                        metavar="N",
                        help="assumed trace length for the int64-overflow "
                             "analysis")
    lint_p.add_argument("--max-field", type=float, default=float(2 ** 32),
                        metavar="M",
                        help="assumed max |field value| for the overflow "
                             "analysis")
    lint_p.add_argument("--trace", default=None, metavar="PATH",
                        help="measure records/field bounds from a real "
                             "trace file instead of --records/--max-field")
    lint_p.add_argument("--area-budget", type=float, default=None,
                        help="max fraction of the die the §4 model may "
                             "spend on caches (default 0.25)")
    lint_p.add_argument("--json", action="store_true",
                        help="machine-readable report (the CI gate parses "
                             "this)")
    lint_p.set_defaults(func=cmd_lint)

    check_p = sub.add_parser(
        "check",
        help="concurrency & resource-safety static analysis over the "
             "runtime's own source (RPR-Cxxx codes)",
        allow_abbrev=False)
    check_p.add_argument("paths", nargs="*", metavar="PATH",
                         help="files or directories to analyze "
                              "(default: the installed repro package)")
    check_p.add_argument("--select", default=None, metavar="CODES",
                         help="comma-separated RPR-Cxxx codes to run "
                              "(default: all)")
    check_p.add_argument("--rules", action="store_true",
                         help="list every rule with its code, checker, "
                              "and scope, then exit")
    check_p.add_argument("--json", action="store_true",
                         help="machine-readable findings (the CI gate "
                              "parses this)")
    check_p.set_defaults(func=cmd_check)

    cat_p = sub.add_parser("catalog", help="list or show catalog queries",
                           allow_abbrev=False)
    cat_p.add_argument("--show", help="print one query's source")
    cat_p.set_defaults(func=cmd_catalog)

    ckpt_p = sub.add_parser(
        "checkpoint", help="inspect a session checkpoint file",
        allow_abbrev=False)
    ckpt_p.add_argument("snapshot",
                        help="checkpoint written by run --checkpoint-to "
                             "or TelemetrySession.checkpoint()")
    ckpt_p.set_defaults(func=cmd_checkpoint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QueryError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 2
    except SessionError as exc:
        print(f"session error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
