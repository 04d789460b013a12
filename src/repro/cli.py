"""Command-line interface for the ReGate reproduction.

Usage::

    python -m repro list
    python -m repro chips
    python -m repro simulate llama3-70b-prefill --chip NPU-D
    python -m repro simulate dlrm-m --chip NPU-E --num-chips 16 --policy ReGate-Full
    python -m repro sweep -w llama3-8b-prefill -w dlrm-s --chip NPU-C --chip NPU-D \
        --cache sweep-cache.json --csv sweep.csv

``simulate`` is a thin wrapper over
:func:`repro.core.regate.simulate_workload`; ``sweep`` drives the
:mod:`repro.experiments` runner over a workload x chip x policy grid
with an optional on-disk result cache.

Each handler imports the layers it runs, so ``--help``, ``list`` and
``chips`` load no numpy and a warm ``sweep`` loads no simulator.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from repro.analysis.tables import format_table, percentage

if TYPE_CHECKING:
    from repro.gating.report import PolicyName


def _cmd_list(_: argparse.Namespace) -> str:
    from repro.workloads.registry import get_workload, list_workloads

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
    from repro.hardware.chips import chips_in_order
    from repro.hardware.power import ChipPowerModel

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
    """Print ``error: <message>`` (no KeyError repr quotes); exit 2.

    The returned exit carries the same line as its message, for callers
    of :func:`main` that catch it in-process.
    """
    message = f"error: {error.args[0] if error.args else error}"
    print(message, file=sys.stderr)
    exit_ = SystemExit(message)
    exit_.code = 2
    return exit_


def _parse_policies(names: list[str] | None) -> tuple[PolicyName, ...]:
    from repro.core.config import SimulationConfig
    from repro.gating.report import PolicyName

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
    from repro.core.config import SimulationConfig
    from repro.core.regate import simulate_workload
    from repro.gating.report import PolicyName
    from repro.hardware.components import Component

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


def _spec_from_args(args: argparse.Namespace):
    """Build the SweepSpec described by the shared grid flags."""
    from repro.experiments import SweepSpec
    from repro.hardware.chips import get_chip
    from repro.workloads.registry import get_workload

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
    from repro.experiments.cache import CacheFileError, SimulationCache

    spec = _spec_from_args(args)
    lines = [f"sweep grid    : {spec.describe()}"]
    try:
        cache = SimulationCache(args.cache) if args.cache else None
        from repro.experiments.runner import SweepRunner

        result = SweepRunner(spec, cache=cache).run()
        lines.append(f"result rows   : {len(result)}")
    except CacheFileError as error:
        # Refused at load, or at flush if the file changed meanwhile.
        raise _input_error(error)
    if cache is not None:
        stats = cache.stats()
        lines.append(
            f"cache         : {stats['row_hits']} hits / {stats['row_misses']} misses "
            f"(sweep points; {args.cache})"
        )
    if args.csv:
        # Written one chunk of rows at a time: memory stays bounded.
        result.write_csv(args.csv)
        lines.append(f"csv written   : {args.csv}")
    if args.json:
        result.to_json(args.json)
        lines.append(f"json written  : {args.json}")
    lines.append("")
    # Every row is printed, built from the 7 columns it shows: a table
    # read from a --cache file decodes only those columns.
    rows = [
        [
            workload,
            chip,
            policy,
            f"{energy:.3f}",
            percentage(savings),
            f"{power:.1f}",
            percentage(overhead, 3),
        ]
        for workload, chip, policy, energy, savings, power, overhead in zip(
            *map(
                result.column,
                ("workload", "chip", "policy", "total_energy_j",
                 "savings_vs_nopg", "average_power_w", "overhead_vs_nopg"),
            )
        )
    ]
    lines.append(
        format_table(
            ["workload", "NPU", "design", "energy (J/chip/iter)", "savings",
             "avg power (W)", "overhead"],
            rows,
        )
    )
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

    # The rest of the serving stack loads here too, before any trace
    # array exists: the workload families would otherwise compile while
    # a large trace is live, which moves the run's peak RSS (see
    # docs/performance.md, "Startup: a lazy import surface").
    from repro.workloads import diffusion, dlrm, llm  # noqa: F401

    try:
        if args.arrival == "trace" or args.trace:
            if not args.trace:
                raise TraceError("--arrival trace needs --trace FILE")
            trace = load_trace(args.trace, args.workload or ())
            empty = f"trace {args.trace} holds no requests"
        else:
            if not args.workload:
                raise TraceError(
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
            empty = (
                f"the {args.arrival} trace holds no requests in "
                f"{args.duration:g}s; raise --rate or --duration"
            )
        if not len(trace):
            raise TraceError(empty)
    except TraceError as error:
        raise _input_error(error)

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
        raise _input_error(error)

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
                trace,
                plans,
                model,
                load_factors=factors,
                max_wait_s=args.max_wait,
                operating_point=report,
            )
        except TraceError as error:
            raise _input_error(error)
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
        "--cache", metavar="PATH",
        help="JSON cache file; a warm cache skips all simulation",
    )
    sweep.add_argument("--csv", metavar="PATH", help="write the full table as CSV")
    sweep.add_argument("--json", metavar="PATH", help="write the full table as JSON")
    sweep.set_defaults(handler=_cmd_sweep)

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
    return parser


#: Options that name a file the command writes.
_OUTPUT_OPTIONS = ("csv", "json", "save_trace")


def _check_output_dirs(args: argparse.Namespace) -> None:
    """Refuse an output file whose directory does not exist, before any work."""
    for name in _OUTPUT_OPTIONS:
        path = getattr(args, name, None)
        if path:
            directory = os.path.dirname(path) or "."
            if not os.path.isdir(directory):
                option = "--" + name.replace("_", "-")
                raise _input_error(
                    ValueError(
                        f"{option} {path}: directory {directory} does not exist"
                    )
                )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_output_dirs(args)
    try:
        output = args.handler(args)
    except KeyError as error:
        return _input_error(error).code
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``repro ... | head -1``).  Point
        # stdout at devnull so the interpreter's exit flush cannot raise
        # again, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
