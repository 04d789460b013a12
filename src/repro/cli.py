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
        raise SystemExit(f"--shard expects I/N (e.g. 0/3), got {text!r}")
    if count < 1 or not 0 <= index < count:
        raise SystemExit(
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

    spec = _spec_from_args(args)
    cache = (
        SimulationCache(args.cache, shared_dir=args.shared_cache)
        if args.cache or args.shared_cache
        else None
    )
    lines = [f"sweep grid    : {spec.describe()}"]
    if args.shard_dir and not args.shard:
        raise SystemExit("--shard-dir requires --shard I/N")
    if args.shard:
        index, count = _parse_shard(args.shard)
        if not args.shard_dir:
            raise SystemExit("--shard requires --shard-dir PATH")
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
            # repair tooling / re-runs can consume it without having to
            # scrape this command's stderr.
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
        # re-launch, instead of diffing covered/N by hand.
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


def _launch_backend(args: argparse.Namespace, injector) -> object | str:
    """The scheduler backend: a name for local ones, an instance for
    remote ones (which need hosts and the fault injector up front)."""
    from pathlib import Path

    from repro.experiments.remote import (
        LoopbackBackend,
        SshBackend,
        parse_hosts,
    )

    if args.backend not in ("ssh", "loopback"):
        if args.hosts or args.hosts_file:
            raise SystemExit(
                f"--hosts only applies to the ssh/loopback backends, "
                f"not {args.backend!r}"
            )
        return args.backend
    hosts: list[str] = []
    if args.hosts:
        hosts += parse_hosts(args.hosts)
    if args.hosts_file:
        try:
            hosts += parse_hosts(Path(args.hosts_file).read_text())
        except OSError as error:
            raise SystemExit(f"cannot read --hosts-file: {error}")
    common = dict(
        remote_root=args.remote_root,
        injector=injector,
        quarantine_after=args.quarantine_after,
    )
    if args.backend == "ssh":
        if not hosts:
            raise SystemExit(
                "the ssh backend needs --hosts user@host[,...] or --hosts-file"
            )
        return SshBackend(
            hosts,
            python=args.remote_python,
            pythonpath=args.remote_pythonpath,
            **common,
        )
    return LoopbackBackend(
        Path(args.dir) / "fleet",
        host_names=hosts or ("loop-a", "loop-b"),
        **common,
    )


def _cmd_launch(args: argparse.Namespace) -> str:
    from repro.experiments.scheduler import (
        FaultInjector,
        LaunchError,
        LaunchScheduler,
        RetryPolicy,
    )
    from repro.experiments.sharding import ShardError

    spec = _spec_from_args(args) if args.workload else None
    if spec is None and not args.resume:
        raise SystemExit(
            "launch needs a grid (-w/--workload ...) unless --resume "
            "restores one from the launch directory"
        )
    if args.shards is None and not args.resume:
        raise SystemExit("launch needs --shards N (or --resume)")
    retry = RetryPolicy(
        max_attempts=args.max_attempts,
        base_delay_s=args.base_delay,
    )
    try:
        injector = FaultInjector.from_env()
        scheduler = LaunchScheduler(
            args.dir,
            spec,
            args.shards,
            backend=_launch_backend(args, injector),
            max_workers=args.max_workers,
            retry=retry,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            shard_timeout=args.shard_timeout,
            speculate=not args.no_speculate,
            injector=injector,
            shared_cache=args.shared_cache,
            gc_max_age_days=args.gc_max_age_days,
            gc_max_bytes=args.gc_max_bytes,
            csv_path=args.csv,
            resume=args.resume,
            serve=args.serve,
            catalog=args.catalog,
        )
        report = scheduler.run()
    except (LaunchError, ShardError) as error:
        raise SystemExit(f"error: {error}")
    if not report.complete:
        # Print the summary ourselves, then exit with the partial code
        # (main() only prints on success/exit 0).
        print(report.describe())
        raise SystemExit(report.exit_code)
    return report.describe()


def _cmd_launch_status(args: argparse.Namespace) -> str:
    from repro.experiments.status import StatusError, fetch_status, render_status

    try:
        payload = fetch_status(args.url, timeout=args.timeout)
    except StatusError as error:
        raise SystemExit(f"error: {error}")
    if args.json:
        import json

        return json.dumps(payload, indent=2)
    return render_status(payload)


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


def _open_catalog(args: argparse.Namespace):
    from repro.experiments.catalog import CatalogError, ExperimentCatalog

    try:
        return ExperimentCatalog(args.db)
    except CatalogError as error:
        raise SystemExit(f"error: {error}")


def _cmd_catalog_list(args: argparse.Namespace) -> str:
    catalog = _open_catalog(args)
    entries = catalog.entries()
    summary = catalog.summary()
    lines = [
        f"catalog       : {catalog.path}",
        f"entries       : {summary['entries']} "
        f"(by status {summary['by_status'] or '{}'}; "
        f"by kind {summary['by_kind'] or '{}'})",
    ]
    lines += [entry.describe() for entry in entries]
    return "\n".join(lines)


def _cmd_catalog_query(args: argparse.Namespace) -> str:
    catalog = _open_catalog(args)
    entries = catalog.query(
        spec_digest=args.spec, status=args.status, kind=args.kind
    )
    if args.json:
        import json

        return json.dumps([entry.to_json() for entry in entries], indent=2)
    if not entries:
        return "no matching catalog entries"
    return "\n".join(entry.describe() for entry in entries)


def _cmd_catalog_verify(args: argparse.Namespace) -> str:
    catalog = _open_catalog(args)
    report = catalog.verify(spec_digest=args.spec)
    if report.flagged:
        # Like a partial launch: print the findings, then exit nonzero
        # so CI and scripts can gate on catalog health.
        print(report.describe())
        raise SystemExit(1)
    return report.describe()


def _cmd_catalog_repair(args: argparse.Namespace) -> str:
    catalog = _open_catalog(args)
    report = catalog.repair(spec_digest=args.spec)
    return report.describe()


def _cmd_catalog_gc(args: argparse.Namespace) -> str:
    catalog = _open_catalog(args)
    evicted = catalog.gc()
    lines = [f"evicted       : {len(evicted)} entr(ies) with no artifact on disk"]
    lines += [f"  {entry.path} ({entry.shard_key})" for entry in evicted]
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

    def add_grid_arguments(
        target: argparse.ArgumentParser, required: bool = True
    ) -> None:
        """The workload x chip x policy grid flags (sweep and launch)."""
        target.add_argument(
            "-w", "--workload", action="append", required=required,
            help="workload to sweep (repeatable)",
        )
        target.add_argument(
            "--chip", action="append",
            help="NPU generation to sweep (repeatable; default NPU-D)",
        )
        target.add_argument(
            "--batch-size", action="append", type=int,
            help="batch size grid point (repeatable; default: workload default)",
        )
        target.add_argument(
            "--num-chips", action="append", type=int,
            help="pod size grid point (repeatable; default: workload default)",
        )
        target.add_argument(
            "--policy", action="append",
            help="evaluate only these policies (repeatable); NoPG is always "
                 "included",
        )

    sweep = subparsers.add_parser(
        "sweep", help="run a cached workload x chip x policy parameter sweep"
    )
    add_grid_arguments(sweep)
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

    launch = subparsers.add_parser(
        "launch",
        help="run a full sharded sweep through the fault-tolerant scheduler "
             "(retries, heartbeats, speculation, crash-safe resume)",
    )
    add_grid_arguments(launch, required=False)
    launch.add_argument(
        "--shards", type=int, metavar="N",
        help="shard count of the deterministic plan (restored from the "
             "launch directory with --resume)",
    )
    launch.add_argument(
        "--dir", required=True, metavar="PATH",
        help="launch directory (journal, landed shards, logs, partial merge)",
    )
    launch.add_argument(
        "--backend", choices=("process", "thread", "ssh", "loopback"),
        default="process",
        help="worker backend: one killable subprocess per shard attempt "
             "(default), in-process threads, a fleet of SSH hosts, or the "
             "hermetic loopback fleet (remote code path, local processes)",
    )
    launch.add_argument(
        "--hosts", metavar="H1[,H2...]",
        help="remote hosts for --backend ssh (user@host) or loopback "
             "(fake host names; default loop-a,loop-b)",
    )
    launch.add_argument(
        "--hosts-file", metavar="PATH",
        help="file of hosts, one per line ('#' comments); merged with --hosts",
    )
    launch.add_argument(
        "--remote-root", default=".repro-remote", metavar="PATH",
        help="staging root on the remote hosts (default .repro-remote, "
             "relative to the remote home)",
    )
    launch.add_argument(
        "--remote-python", default="python3", metavar="BIN",
        help="python executable on the ssh hosts (default python3)",
    )
    launch.add_argument(
        "--remote-pythonpath", default=None, metavar="PATH",
        help="PYTHONPATH exported to ssh workers (a remote checkout's src/ "
             "when repro is not installed there)",
    )
    launch.add_argument(
        "--quarantine-after", type=int, default=3, metavar="K",
        help="quarantine a host after K consecutive failed attempts; its "
             "shards rebalance onto surviving hosts (default 3)",
    )
    launch.add_argument(
        "--serve", metavar="[HOST]:PORT",
        help="serve live progress as JSON over HTTP while the launch runs "
             "(GET /status, /journal, /catalog with --catalog; read-only; "
             "host defaults to 127.0.0.1)",
    )
    launch.add_argument(
        "--max-workers", type=int, default=None, metavar="N",
        help="concurrent shard attempts (default: min(shards, cores, 8))",
    )
    launch.add_argument(
        "--max-attempts", type=int, default=6, metavar="N",
        help="retry budget per shard (default 6)",
    )
    launch.add_argument(
        "--base-delay", type=float, default=0.25, metavar="SECONDS",
        help="first retry backoff; doubles per failure, capped (default 0.25)",
    )
    launch.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="SECONDS",
        help="worker heartbeat period (default 1.0)",
    )
    launch.add_argument(
        "--heartbeat-timeout", type=float, default=30.0, metavar="SECONDS",
        help="declare a worker dead after this much heartbeat silence "
             "(default 30)",
    )
    launch.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock cap per shard attempt (default: none)",
    )
    launch.add_argument(
        "--no-speculate", action="store_true",
        help="disable straggler speculation (re-issuing the slowest shard "
             "once >80%% have landed)",
    )
    launch.add_argument(
        "--shared-cache", metavar="DIR",
        help="cross-run shared cache directory the workers read and write",
    )
    launch.add_argument(
        "--gc-max-age-days", type=float, default=None, metavar="DAYS",
        help="garbage-collect shared-cache entries older than this at "
             "teardown",
    )
    launch.add_argument(
        "--gc-max-bytes", type=int, default=None, metavar="BYTES",
        help="shrink the shared cache to this size at teardown (LRU)",
    )
    launch.add_argument(
        "--csv", metavar="PATH",
        help="write the merged table as CSV (byte-identical to the "
             "monolithic sweep when the launch completes)",
    )
    launch.add_argument(
        "--resume", action="store_true",
        help="continue a killed launch: restore landed shards from --dir "
             "and re-run only the rest",
    )
    launch.add_argument(
        "--catalog", metavar="PATH", default=None,
        help="cross-run experiment catalog (SQLite file, or a directory "
             "getting catalog.sqlite): register landed artifacts and adopt "
             "shards prior runs already computed instead of re-running them",
    )
    launch.set_defaults(handler=_cmd_launch)

    launch_status = subparsers.add_parser(
        "launch-status",
        help="render the live progress of a `repro launch --serve` run",
    )
    launch_status.add_argument(
        "url", metavar="URL",
        help="the progress endpoint, e.g. http://127.0.0.1:8765 "
             "(printed by the launch when --serve is active)",
    )
    launch_status.add_argument(
        "--timeout", type=float, default=10.0, metavar="SECONDS",
        help="HTTP timeout (default 10)",
    )
    launch_status.add_argument(
        "--json", action="store_true",
        help="print the raw /status JSON instead of the rendered summary",
    )
    launch_status.set_defaults(handler=_cmd_launch_status)

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

    catalog = subparsers.add_parser(
        "catalog",
        help="inspect and repair the cross-run experiment catalog "
             "(`repro launch --catalog`)",
    )
    catalog_sub = catalog.add_subparsers(dest="catalog_command", required=True)

    def add_catalog_db(target: argparse.ArgumentParser) -> None:
        target.add_argument(
            "db", metavar="PATH",
            help="catalog database (SQLite file, or a directory containing "
                 "catalog.sqlite)",
        )

    catalog_list = catalog_sub.add_parser(
        "list", help="list every cataloged artifact with its status"
    )
    add_catalog_db(catalog_list)
    catalog_list.set_defaults(handler=_cmd_catalog_list)

    catalog_query = catalog_sub.add_parser(
        "query", help="filter catalog entries by spec digest, status or kind"
    )
    add_catalog_db(catalog_query)
    catalog_query.add_argument(
        "--spec", metavar="DIGEST", default=None,
        help="only entries of this spec digest",
    )
    catalog_query.add_argument(
        "--status", metavar="STATUS", default=None,
        choices=("ok", "corrupt", "missing", "outdated"),
        help="only entries with this status",
    )
    catalog_query.add_argument(
        "--kind", metavar="KIND", default=None, choices=("shard", "merged"),
        help="only shard or only merged artifacts",
    )
    catalog_query.add_argument(
        "--json", action="store_true", help="print the raw entries as JSON"
    )
    catalog_query.set_defaults(handler=_cmd_catalog_query)

    catalog_verify = catalog_sub.add_parser(
        "verify",
        help="re-verify recorded digests against the artifacts on disk; "
             "marks corrupt/missing/outdated entries and exits nonzero if "
             "any are flagged",
    )
    add_catalog_db(catalog_verify)
    catalog_verify.add_argument(
        "--spec", metavar="DIGEST", default=None,
        help="only verify entries of this spec digest",
    )
    catalog_verify.set_defaults(handler=_cmd_catalog_verify)

    catalog_repair = catalog_sub.add_parser(
        "repair",
        help="verify, evict every flagged entry, and report exactly which "
             "shards need re-running",
    )
    add_catalog_db(catalog_repair)
    catalog_repair.add_argument(
        "--spec", metavar="DIGEST", default=None,
        help="only repair entries of this spec digest",
    )
    catalog_repair.set_defaults(handler=_cmd_catalog_repair)

    catalog_gc = catalog_sub.add_parser(
        "gc",
        help="drop entries whose artifact directory no longer exists "
             "(cheap; no digest re-checking)",
    )
    add_catalog_db(catalog_gc)
    catalog_gc.set_defaults(handler=_cmd_catalog_gc)

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
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
