"""Command-line interface for the ReGate reproduction.

Usage::

    python -m repro list
    python -m repro chips
    python -m repro simulate llama3-70b-prefill --chip NPU-D
    python -m repro simulate dlrm-m --chip NPU-E --num-chips 16 --policy ReGate-Full
    python -m repro sweep -w llama3-8b-prefill -w dlrm-s --chip NPU-C --chip NPU-D \
        --parallel 4 --cache sweep-cache.json --csv sweep.csv

``simulate`` is a thin wrapper over
:func:`repro.core.regate.simulate_workload`; ``sweep`` drives the
:mod:`repro.experiments` runner over a workload x chip x policy grid
with optional multiprocessing and an on-disk result cache.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.tables import format_table, percentage
from repro.core.config import SimulationConfig
from repro.core.regate import simulate_workload
from repro.gating.report import PolicyName
from repro.hardware.chips import chips_in_order, get_chip
from repro.hardware.components import Component
from repro.hardware.power import ChipPowerModel
from repro.workloads.registry import get_workload, list_workloads


def _cmd_list(_: argparse.Namespace) -> str:
    rows = []
    for name in list_workloads():
        spec = get_workload(name)
        rows.append([name, spec.family, spec.default_num_chips, spec.default_batch_size])
    return format_table(
        ["workload", "family", "default #chips", "default batch"],
        rows,
        title="Registered workloads (Table 1)",
    )


def _cmd_chips(_: argparse.Namespace) -> str:
    rows = []
    for chip in chips_in_order():
        power = ChipPowerModel(chip)
        rows.append(
            [
                chip.name,
                chip.technology_nm,
                round(chip.peak_sa_flops / 1e12, 1),
                chip.sram_mb,
                chip.hbm.capacity_gb,
                round(power.total_static_w, 1),
                round(power.tdp_w, 1),
            ]
        )
    return format_table(
        ["NPU", "node(nm)", "TFLOPS", "SRAM(MB)", "HBM(GB)", "static(W)", "TDP(W)"],
        rows,
        title="NPU generations (Table 2)",
    )


def _input_error(error: Exception) -> SystemExit:
    """Print ``error: <message>`` (no KeyError repr quotes); exit 2."""
    print(f"error: {error.args[0] if error.args else error}", file=sys.stderr)
    return SystemExit(2)


def _parse_policies(names: list[str] | None) -> tuple[PolicyName, ...]:
    if not names:
        return SimulationConfig().policies
    try:
        selected = [PolicyName.parse(name) for name in names]
    except KeyError as error:
        raise _input_error(error)
    if PolicyName.NOPG not in selected:
        selected.insert(0, PolicyName.NOPG)
    return tuple(selected)


def _cmd_simulate(args: argparse.Namespace) -> str:
    try:
        config = SimulationConfig(
            chip=args.chip,
            num_chips=args.num_chips,
            batch_size=args.batch_size,
            policies=_parse_policies(args.policy),
        )
    except ValueError as error:
        raise _input_error(error)
    result = simulate_workload(args.workload, config)
    nopg = result.report(PolicyName.NOPG)
    lines = [
        f"workload      : {result.workload}",
        f"chip          : {result.chip.name} x{result.num_chips} "
        f"({result.parallelism.describe()})",
        f"batch size    : {result.batch_size}",
        f"iteration time: {nopg.total_time_s * 1e3:.3f} ms",
        f"static share  : {percentage(nopg.static_fraction())}",
        "",
    ]
    rows = []
    for policy in result.reports:
        report = result.report(policy)
        rows.append(
            [
                policy.value,
                f"{report.total_energy_j:.2f}",
                percentage(result.energy_savings(policy)),
                f"{report.average_power_w:.1f}",
                percentage(result.performance_overhead(policy), 3),
            ]
        )
    lines.append(
        format_table(
            ["design", "energy (J/chip/iter)", "savings", "avg power (W)", "overhead"],
            rows,
        )
    )
    if args.utilization:
        lines.append("")
        util_rows = [
            [c.pretty, percentage(result.temporal_utilization(c))]
            for c in Component.gateable()
        ]
        util_rows.append(["SA (spatial)", percentage(result.sa_spatial_utilization())])
        lines.append(format_table(["component", "utilization"], util_rows))
    return "\n".join(lines)


def _parse_shard(text: str) -> tuple[int, int]:
    """Parse ``--shard I/N`` (0-based: shards of a 3-way plan are 0/3..2/3)."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(f"--shard expects I/N (e.g. 0/3), got {text!r}") from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"--shard index must satisfy 0 <= I < N, got {index}/{count}"
        )
    return index, count


def _spec_from_args(args: argparse.Namespace):
    """Build the SweepSpec described by the shared grid flags."""
    from repro.experiments import SweepSpec

    spec_kwargs = dict(
        workloads=tuple(args.workload),
        chips=tuple(args.chip or ["NPU-D"]),
        batch_sizes=tuple(args.batch_size) if args.batch_size else (None,),
        num_chips=tuple(args.num_chips) if args.num_chips else (None,),
    )
    if args.policy:
        # SweepSpec resolves policy names itself and always prepends NoPG.
        spec_kwargs["policies"] = tuple(args.policy)
    try:
        for workload in args.workload:
            get_workload(workload)
        for chip in spec_kwargs["chips"]:
            get_chip(chip)
        return SweepSpec(**spec_kwargs)
    except (KeyError, ValueError) as error:
        raise _input_error(error)


def _cmd_sweep(args: argparse.Namespace) -> str:
    from repro.experiments import ShardRunner, SimulationCache, SweepRunner

    try:
        if args.parallel is not None and args.parallel < 0:
            raise ValueError(
                f"--parallel expects N >= 0 (0 and 1 run serially), "
                f"got {args.parallel}"
            )
        shard = _parse_shard(args.shard) if args.shard else None
        if shard is not None and not args.shard_dir:
            raise ValueError("--shard requires --shard-dir PATH")
        if shard is None and args.shard_dir:
            raise ValueError("--shard-dir requires --shard I/N")
    except ValueError as error:
        raise _input_error(error)
    spec = _spec_from_args(args)
    cache = (
        SimulationCache(args.cache, shared_dir=args.shared_cache)
        if args.cache or args.shared_cache
        else None
    )
    lines = [f"sweep grid    : {spec.describe()}"]
    if shard is not None:
        index, count = shard
        runner = ShardRunner(spec, count, cache=cache, max_workers=args.parallel)
        artifact = runner.run(index)
        path = artifact.write(args.shard_dir)
        result = artifact.result()
        lines += [
            f"shard         : {index}/{count} "
            f"({len(runner.plan[index].point_indices)} of "
            f"{spec.num_points} points; plan {runner.plan.digest})",
            f"shard written : {path}",
            f"result rows   : {len(result)}",
        ]
    else:
        runner = SweepRunner(spec, cache=cache, max_workers=args.parallel)
        result = runner.run()
        lines.append(f"result rows   : {len(result)}")
    if cache is not None:
        stats = cache.stats()
        store = ", ".join(
            text for text in (args.cache, args.shared_cache) if text
        )
        lines.append(
            f"cache         : {stats['row_hits']} hits / {stats['row_misses']} misses "
            f"(sweep points; {store})"
        )
    if args.csv:
        # Written one chunk of rows at a time: memory stays bounded.
        result.write_csv(args.csv)
        lines.append(f"csv written   : {args.csv}")
    if args.json:
        result.to_json(args.json)
        lines.append(f"json written  : {args.json}")
    lines.append("")
    rows = [
        [
            row["workload"],
            row["chip"],
            row["policy"],
            f"{row['total_energy_j']:.3f}",
            percentage(row["savings_vs_nopg"]),
            f"{row['average_power_w']:.1f}",
            percentage(row["overhead_vs_nopg"], 3),
        ]
        for row in result
    ]
    lines.append(
        format_table(
            ["workload", "NPU", "design", "energy (J/chip/iter)", "savings",
             "avg power (W)", "overhead"],
            rows,
        )
    )
    return "\n".join(lines)


def _cmd_merge_shards(args: argparse.Namespace) -> str:
    from repro.experiments.sharding import (
        ShardError,
        merge_artifacts,
        read_artifacts,
    )

    try:
        # Lenient by default: a corrupt artifact from a crashed worker
        # is skipped (and listed below) instead of aborting the merge;
        # --strict restores abort-on-first-corrupt.
        artifacts, skipped = read_artifacts(args.paths, strict=args.strict)
        if not artifacts:
            raise ShardError("no readable shard artifacts to merge")
        merged = merge_artifacts(artifacts)
        missing = sorted(
            set(range(merged.shard_count)) - set(merged.shard_indices)
        )
        if args.output:
            # Partial merges are allowed when writing an artifact: the
            # combined artifact merges again later with the rest.  The
            # skipped-artifact list rides along in the manifest so
            # re-runs can consume it without having to scrape this
            # command's stderr.
            extra = (
                {
                    "skipped": [
                        {"path": str(skipped_path), "reason": reason}
                        for skipped_path, reason in skipped
                    ]
                }
                if skipped
                else None
            )
            path = merged.write(args.output, extra_manifest=extra)
        else:
            if missing:
                raise ShardError(
                    f"missing shard(s) {missing} of {merged.shard_count}; "
                    "pass every artifact (or merge partially via "
                    "merge_artifacts/`repro merge-shards --output`)"
                )
            path = None
    except ShardError as error:
        raise SystemExit(f"error: {error}")
    result = merged.result()
    covered = len(merged.shard_indices)
    lines = [
        f"spec digest   : {merged.spec_digest}",
        f"shards merged : {covered}/{merged.shard_count}",
        f"result rows   : {len(result)} ({len(merged.points)} points)",
    ]
    if missing:
        # Name the holes so a partial-run operator knows what to
        # re-run, instead of diffing covered/N by hand.
        lines.append(
            f"missing shards: {missing} (re-run these, then re-merge)"
        )
    for skipped_path, reason in skipped:
        lines.append(f"skipped       : {skipped_path} ({reason})")
    if skipped:
        lines.append(
            f"skipped total : {len(skipped)} unreadable artifact(s) "
            "(--strict aborts instead)"
        )
    if path is not None:
        lines.append(f"shard written : {path}")
    if args.csv:
        result.write_csv(args.csv)
        lines.append(f"csv written   : {args.csv}")
    if args.json:
        result.to_json(args.json)
        lines.append(f"json written  : {args.json}")
    return "\n".join(lines)


def _cmd_cache_gc(args: argparse.Namespace) -> str:
    from repro.experiments.cache import SharedCacheDir

    report = SharedCacheDir(args.dir).gc(
        max_age_days=args.max_age_days,
        max_bytes=args.max_bytes,
        dry_run=args.dry_run,
        # Auditing (--dry-run) always checks entry integrity; destructive
        # runs only pay the full read with an explicit --verify.
        verify=args.verify or args.dry_run,
    )
    lines = [report.describe()]
    if args.dry_run:
        for path, reason in report.removed:
            lines.append(f"  {path} ({reason})")
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace) -> str:
    import dataclasses

    from repro.serving import (
        Autoscaler,
        PodSpec,
        ServiceModel,
        ServingError,
        TraceError,
        carbon_table,
        curve_table,
        diurnal_trace,
        load_trace,
        poisson_trace,
        rollup_carbon,
        simulate_serving,
        utilization_curve,
        write_trace_csv,
    )
    from repro.serving.simulate import DEFAULT_LOAD_FACTORS

    try:
        if args.arrival == "trace" or args.trace:
            if not args.trace:
                raise SystemExit("--arrival trace needs --trace FILE")
            trace = load_trace(args.trace, args.workload or ())
        else:
            if not args.workload:
                raise SystemExit(
                    f"{args.arrival} arrivals need at least one -w/--workload"
                )
            rates: list[float] | float = args.rate or 10.0
            if args.arrival == "poisson":
                trace = poisson_trace(
                    args.workload, rates, args.duration, seed=args.seed
                )
            else:
                trace = diurnal_trace(
                    args.workload,
                    rates,
                    args.duration,
                    seed=args.seed,
                    period_s=args.period,
                    amplitude=args.amplitude,
                )
    except TraceError as error:
        raise SystemExit(f"error: {error}")

    model = ServiceModel(policies=_parse_policies(args.policy))
    try:
        scaler = Autoscaler(
            model,
            chip=args.chip,
            target_utilization=args.target_utilization,
            max_replicas=args.max_replicas,
        )
        if args.replicas is not None:
            # Manual fleet: one pod shape for every workload, replica
            # count forced (the demand numbers stay for context).
            plans = {
                name: dataclasses.replace(
                    scaler.size(
                        trace,
                        name,
                        pod=PodSpec(
                            workload=name, chip=args.chip, max_batch=args.max_batch
                        ),
                    ),
                    replicas=args.replicas,
                )
                for name in trace.workloads
            }
        else:
            plans = scaler.plan_fleet(trace)
        report = simulate_serving(trace, plans, model, max_wait_s=args.max_wait)
    except (ServingError, TraceError) as error:
        raise SystemExit(f"error: {error}")

    counts = trace.request_counts()
    lines = [
        f"trace         : {len(trace)} request(s) over "
        f"{trace.span_ns / 1e9:.3f}s "
        f"({', '.join(f'{name}: {count}' for name, count in counts.items()) or 'empty'})",
        "fleet         :",
    ]
    lines += [f"  {plan.describe()}" for plan in plans.values()]
    lines += ["", report.metrics_table()]

    payload = report.to_json()
    if args.curve:
        factors = tuple(args.load_factor) if args.load_factor else DEFAULT_LOAD_FACTORS
        try:
            points = utilization_curve(
                trace, plans, model, load_factors=factors, max_wait_s=args.max_wait
            )
        except TraceError as error:
            raise SystemExit(f"error: {error}")
        lines += ["", curve_table(points)]
        payload["curve"] = [
            {
                "load_factor": point.load_factor,
                "qps": point.qps,
                "utilization": point.utilization,
                "p99_latency_ms": point.p99_latency_ms,
                "savings": {k.value: v for k, v in point.savings.items()},
                "energy_per_request_j": {
                    k.value: v for k, v in point.energy_per_request_j.items()
                },
            }
            for point in points
        ]
    if args.carbon:
        rollup = rollup_carbon(report, model)
        lines += ["", carbon_table(rollup)]
        payload["carbon"] = rollup.to_json()
    if args.save_trace:
        write_trace_csv(trace, args.save_trace)
        lines.append(f"trace written : {args.save_trace}")
    if args.json:
        import json as _json
        from pathlib import Path as _Path

        _Path(args.json).write_text(_json.dumps(payload, indent=2))
        lines.append(f"json written  : {args.json}")
    return "\n".join(lines)


def _cmd_perf(args: argparse.Namespace) -> str:
    from repro.analysis.perf import (
        check_regression,
        compare_payloads,
        format_report,
        profile_benchmark,
        run_perf_suite,
        write_payload,
    )

    if args.profile:
        try:
            result, table, dump = profile_benchmark(
                args.profile,
                grid=args.grid,
                repeat=args.repeat,
                dump_path=f"perf-{args.profile}.prof",
                top=args.profile_top,
            )
        except KeyError as error:
            raise SystemExit(error.args[0])
        return (
            f"{result.name}: object {result.object_s * 1000:.2f} ms, "
            f"columnar {result.columnar_s * 1000:.2f} ms, "
            f"speedup {result.speedup:.2f}x\n"
            f"{table}"
            f"profile dump  : {dump}"
        )

    if args.compare:
        import json as _json
        from pathlib import Path as _Path

        old_path, new_path = args.compare
        old = _json.loads(_Path(old_path).read_text())
        new = _json.loads(_Path(new_path).read_text())
        report, failures = compare_payloads(old, new, tolerance=args.tolerance)
        if failures:
            print(report)
            raise SystemExit(
                f"performance regression vs {old_path}:\n  " + "\n  ".join(failures)
            )
        return (
            report
            + f"\nregression    : ok (within {args.tolerance:.0%} of {old_path})"
        )

    try:
        payload = run_perf_suite(grid=args.grid, repeat=args.repeat)
    except KeyError as error:
        raise SystemExit(error.args[0])
    lines = [format_report(payload)]
    if args.output:
        write_payload(payload, args.output)
        lines.append(f"\nbench written : {args.output}")
    if args.check:
        import json as _json
        from pathlib import Path as _Path

        baseline = _json.loads(_Path(args.check).read_text())
        failures = check_regression(payload, baseline, tolerance=args.tolerance)
        if failures:
            print("\n".join(lines))
            raise SystemExit(
                "performance regression vs "
                f"{args.check}:\n  " + "\n  ".join(failures)
            )
        lines.append(
            f"regression    : ok (within {args.tolerance:.0%} of {args.check})"
        )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ReGate reproduction: NPU power-gating simulation",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list registered workloads").set_defaults(
        handler=_cmd_list
    )
    subparsers.add_parser("chips", help="list NPU generations").set_defaults(
        handler=_cmd_chips
    )

    simulate = subparsers.add_parser("simulate", help="simulate one workload")
    simulate.add_argument("workload", help="workload name (see `repro list`)")
    simulate.add_argument("--chip", default="NPU-D", help="NPU generation (default NPU-D)")
    simulate.add_argument("--num-chips", type=int, default=None, help="pod size override")
    simulate.add_argument("--batch-size", type=int, default=None, help="batch override")
    simulate.add_argument(
        "--policy",
        action="append",
        help="evaluate only these policies (repeatable); NoPG is always included",
    )
    simulate.add_argument(
        "--utilization", action="store_true", help="also print component utilization"
    )
    simulate.set_defaults(handler=_cmd_simulate)

    sweep = subparsers.add_parser(
        "sweep", help="run a cached workload x chip x policy parameter sweep"
    )
    sweep.add_argument(
        "-w", "--workload", action="append", required=True,
        help="workload to sweep (repeatable)",
    )
    sweep.add_argument(
        "--chip", action="append",
        help="NPU generation to sweep (repeatable; default NPU-D)",
    )
    sweep.add_argument(
        "--batch-size", action="append", type=int,
        help="batch size grid point (repeatable; default: workload default)",
    )
    sweep.add_argument(
        "--num-chips", action="append", type=int,
        help="pod size grid point (repeatable; default: workload default)",
    )
    sweep.add_argument(
        "--policy", action="append",
        help="evaluate only these policies (repeatable); NoPG is always "
             "included",
    )
    sweep.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="run points on N worker processes (default: serial)",
    )
    sweep.add_argument(
        "--cache", metavar="PATH",
        help="JSON cache file; a warm cache skips all simulation",
    )
    sweep.add_argument(
        "--shared-cache", metavar="DIR",
        help="cross-run shared cache directory (one file per entry, atomic "
             "renames); shards on a shared filesystem reuse each other's "
             "simulated profiles",
    )
    sweep.add_argument(
        "--shard", metavar="I/N",
        help="run only shard I of an N-way deterministic partition of the "
             "grid (0-based, e.g. 0/3) and write a .repro-shard artifact; "
             "merge with `repro merge-shards`",
    )
    sweep.add_argument(
        "--shard-dir", metavar="PATH",
        help="directory the shard artifact is written into (with --shard)",
    )
    sweep.add_argument("--csv", metavar="PATH", help="write the full table as CSV")
    sweep.add_argument("--json", metavar="PATH", help="write the full table as JSON")
    sweep.set_defaults(handler=_cmd_sweep)

    merge = subparsers.add_parser(
        "merge-shards",
        help="merge .repro-shard artifacts into one result (byte-identical "
             "to the monolithic sweep)",
    )
    merge.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="shard artifacts (or directories containing *.repro-shard)",
    )
    merge.add_argument(
        "--output", metavar="PATH",
        help="write a combined .repro-shard artifact instead of requiring "
             "full coverage (partial merges merge again later)",
    )
    merge.add_argument(
        "--strict", action="store_true",
        help="abort on the first unreadable artifact instead of skipping "
             "it with a warning",
    )
    merge.add_argument("--csv", metavar="PATH", help="write the merged table as CSV")
    merge.add_argument("--json", metavar="PATH", help="write the merged table as JSON")
    merge.set_defaults(handler=_cmd_merge_shards)

    cache = subparsers.add_parser(
        "cache", help="manage the cross-run shared cache directory"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_gc = cache_sub.add_parser(
        "gc",
        help="evict shared-cache entries by age and/or total size "
             "(LRU by mtime; safe against concurrent runs)",
    )
    cache_gc.add_argument("dir", metavar="DIR", help="shared cache directory")
    cache_gc.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="drop entries older than this many days",
    )
    cache_gc.add_argument(
        "--max-bytes", type=int, default=None, metavar="BYTES",
        help="drop least-recently-written entries until the cache fits",
    )
    cache_gc.add_argument(
        "--dry-run", action="store_true",
        help="list what would be removed without unlinking anything "
             "(also audits entry integrity and reports corrupt entries)",
    )
    cache_gc.add_argument(
        "--verify", action="store_true",
        help="read every entry and evict corrupt/unreadable ones too "
             "(always on with --dry-run)",
    )
    cache_gc.set_defaults(handler=_cmd_cache_gc)

    serve = subparsers.add_parser(
        "serve",
        help="trace-driven fleet serving simulation with SLO-aware "
             "autoscaling (queueing + dynamic batching over the NPU "
             "energy model)",
    )
    serve.add_argument(
        "-w", "--workload", action="append",
        help="workload pool to serve (repeatable; required for synthetic "
             "arrivals, optional tag whitelist for --trace)",
    )
    serve.add_argument(
        "--arrival", choices=("poisson", "diurnal", "trace"), default="poisson",
        help="arrival process (default poisson; trace replays --trace FILE)",
    )
    serve.add_argument(
        "--rate", action="append", type=float, metavar="QPS",
        help="mean request rate per workload (repeatable: one per -w, or "
             "one broadcast to all; default 10)",
    )
    serve.add_argument(
        "--duration", type=float, default=60.0, metavar="SECONDS",
        help="synthetic trace length (default 60)",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="arrival-process seed (default 0)"
    )
    serve.add_argument(
        "--period", type=float, default=86_400.0, metavar="SECONDS",
        help="diurnal period (default 86400, one day)",
    )
    serve.add_argument(
        "--amplitude", type=float, default=0.8, metavar="FRACTION",
        help="diurnal rate swing around the mean, 0..1 (default 0.8)",
    )
    serve.add_argument(
        "--trace", metavar="PATH",
        help="trace file to replay: CSV (timestamp_s,workload header) or "
             "JSONL with the same keys",
    )
    serve.add_argument(
        "--chip", default="NPU-D", help="NPU generation (default NPU-D)"
    )
    serve.add_argument(
        "--policy", action="append",
        help="evaluate only these gating policies (repeatable); NoPG is "
             "always included",
    )
    serve.add_argument(
        "--replicas", type=int, default=None, metavar="N",
        help="manual replica count per pool (default: SLO-aware autoscaling "
             "sizes each pool from the trace's peak windowed demand)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=8, metavar="N",
        help="batch cap of manually sized pods (with --replicas; default 8; "
             "autoscaled pods use the SLO search's batch size)",
    )
    serve.add_argument(
        "--max-wait", type=float, default=0.050, metavar="SECONDS",
        help="batch forming window (default 0.050)",
    )
    serve.add_argument(
        "--target-utilization", type=float, default=0.8, metavar="FRACTION",
        help="autoscaler head-room target in (0, 1] (default 0.8)",
    )
    serve.add_argument(
        "--max-replicas", type=int, default=64, metavar="N",
        help="autoscaler replica cap per pool (default 64)",
    )
    serve.add_argument(
        "--curve", action="store_true",
        help="also emit the power-gating-savings vs fleet-utilization curve "
             "(replays the trace time-compressed across load levels)",
    )
    serve.add_argument(
        "--load-factor", action="append", type=float, metavar="X",
        help="curve load levels (repeatable; default 0.125..4x)",
    )
    serve.add_argument(
        "--carbon", action="store_true",
        help="also emit the operational-carbon rollup and the "
             "carbon-optimal device lifespan at measured utilization",
    )
    serve.add_argument(
        "--save-trace", metavar="PATH",
        help="write the (possibly generated) trace as a CSV trace file",
    )
    serve.add_argument(
        "--json", metavar="PATH",
        help="write the serving report (plus curve/carbon when requested) "
             "as JSON",
    )
    serve.set_defaults(handler=_cmd_serve)

    perf = subparsers.add_parser(
        "perf",
        help="benchmark the columnar fast path against the object-path oracle",
    )
    perf.add_argument(
        "--grid", default="full", choices=("tiny", "small", "full"),
        help="cold-sweep grid size (default: full, the 64-point grid)",
    )
    perf.add_argument(
        "--repeat", type=int, default=3, metavar="N",
        help="best-of-N timing for each benchmark (default 3)",
    )
    perf.add_argument(
        "--output", default="BENCH_perf.json", metavar="PATH",
        help="write the benchmark payload as JSON (default BENCH_perf.json)",
    )
    perf.add_argument(
        "--check", metavar="PATH",
        help="fail if any speedup regresses vs this committed baseline payload",
    )
    perf.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"),
        help="compare two existing BENCH_perf payloads (per-benchmark speedup "
             "deltas; exits nonzero on regression beyond --tolerance) instead "
             "of running the suite",
    )
    perf.add_argument(
        "--tolerance", type=float, default=0.25, metavar="FRACTION",
        help="allowed fractional speedup regression for --check/--compare "
             "(default 0.25)",
    )
    perf.add_argument(
        "--profile", metavar="NAME",
        help="cProfile one benchmark pair instead of running the suite: "
             "prints the top cumulative-time functions and dumps the raw "
             "profile to perf-NAME.prof (inspect with pstats or snakeviz)",
    )
    perf.add_argument(
        "--profile-top", type=int, default=25, metavar="N",
        help="rows of the --profile table (default 25)",
    )
    perf.set_defaults(handler=_cmd_perf)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.handler(args)
    except KeyError as error:
        return _input_error(error).code
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
