"""Layer boundaries of the traced run, and the per-layer metrics.

Run as a program, this module is the traced process: it imports what
the workload's command imports (timed as ``cli.import``), wraps the
public entry point of every layer with a :class:`spans.Recorder` span,
runs the workload's command in-process, and writes the spans, their
totals, the counters and the simulation-cache statistics as JSON::

    PYTHONPATH=src python e2ebench/layers.py TRACE.json MODULES -- -m repro sweep ...
    PYTHONPATH=src python e2ebench/layers.py TRACE.json MODULES -- e2ebench/design_space.py ...

``MODULES`` is a comma-separated import list.  Only the traced process
is wrapped: the timed runs execute the unmodified program.
:func:`per_layer_metrics` turns the written JSON into the benchmark's
per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import runpy
import sys
import time
from pathlib import Path

from spans import Recorder

#: Module-level functions: (span name, module, function).  The wrapper
#: replaces every binding of the function in the loaded ``repro``
#: modules, so ``from x import f`` call sites are traced too.
FUNCTIONS = (
    ("analysis.tables.format_table", "repro.analysis.tables", "format_table"),
    ("experiments.keys.stable_hash", "repro.experiments.keys", "stable_hash"),
    ("experiments.cache.price", "repro.experiments.cache", "simulate_cached_cells"),
    ("experiments.runner.assemble", "repro.experiments.runner", "assemble_packed_cells"),
    ("experiments.runner.assemble", "repro.experiments.runner", "assemble_packed_rows"),
    ("serving.arrivals", "repro.serving.arrivals", "poisson_trace"),
    ("serving.batching.form_batches", "repro.serving.batching", "form_batches"),
    ("serving.queueing", "repro.serving.queueing", "queue_batches"),
    ("serving.queueing", "repro.serving.queueing", "request_latencies"),
    ("serving.metrics", "repro.serving.metrics", "compute_workload_metrics"),
    ("serving.metrics", "repro.serving.metrics", "aggregate_fleet"),
    ("serving.simulate.utilization_curve", "repro.serving.simulate", "utilization_curve"),
    ("serving.simulate.simulate_serving", "repro.serving.simulate", "simulate_serving"),
    ("serving.rollup.rollup_carbon", "repro.serving.rollup", "rollup_carbon"),
)

#: Methods: (span name, module, class, method).
METHODS = (
    ("workloads.build_table", "repro.workloads.registry", "WorkloadSpec", "build_table"),
    ("compiler.fusion.run_table", "repro.compiler.fusion", "FusionPass", "run_table"),
    ("compiler.tiling.tile_table", "repro.compiler.tiling", "TilingPass", "tile_table"),
    ("simulator.engine.simulate", "repro.simulator.engine", "NPUSimulator", "simulate"),
    ("experiments.cache.store_load", "repro.experiments.cache", "JsonFileStore", "__init__"),
    ("experiments.cache.flush", "repro.experiments.cache", "SimulationCache", "flush"),
    ("experiments.runner.execute_points", "repro.experiments.runner", "SweepRunner", "execute_points"),
    ("experiments.result.write_csv", "repro.experiments.result", "SweepResult", "write_csv"),
    ("serving.autoscale.plan_fleet", "repro.serving.autoscale", "Autoscaler", "plan_fleet"),
)

#: The three policy-pricing kernels, wrapped on every policy class that
#: defines its own version.
GATING_KERNELS = ("evaluate", "batch_evaluate", "grid_evaluate")

#: Per-layer metrics: (metric, unit, source kind, source key).
#: Kinds: ``s``/``self_s``/``calls`` of a span name, ``count`` of a
#: counter, ``cache`` of the summed cache statistics, ``run`` of the
#: traced run itself.
PER_LAYER = (
    ("cli.import_s", "s", "s", "cli.import"),
    ("analysis.tables.format_table.s", "s", "s", "analysis.tables.format_table"),
    ("workloads.build_table.calls", "count", "calls", "workloads.build_table"),
    ("workloads.build_table.s", "s", "s", "workloads.build_table"),
    ("compiler.fusion.run_table.calls", "count", "calls", "compiler.fusion.run_table"),
    ("compiler.fusion.run_table.s", "s", "s", "compiler.fusion.run_table"),
    ("compiler.tiling.tile_table.s", "s", "s", "compiler.tiling.tile_table"),
    ("simulator.engine.simulate.calls", "count", "calls", "simulator.engine.simulate"),
    ("simulator.engine.simulate.self_s", "s", "self_s", "simulator.engine.simulate"),
    ("gating.grid_evaluate.calls", "count", "calls", "gating.grid_evaluate"),
    ("gating.grid_evaluate.s", "s", "s", "gating.grid_evaluate"),
    ("gating.batch_evaluate.calls", "count", "calls", "gating.batch_evaluate"),
    ("gating.batch_evaluate.s", "s", "s", "gating.batch_evaluate"),
    ("gating.evaluate.calls", "count", "calls", "gating.evaluate"),
    ("gating.evaluate.s", "s", "s", "gating.evaluate"),
    ("experiments.keys.stable_hash.calls", "count", "calls", "experiments.keys.stable_hash"),
    ("experiments.keys.stable_hash.s", "s", "s", "experiments.keys.stable_hash"),
    ("experiments.cache.price.s", "s", "self_s", "experiments.cache.price"),
    ("experiments.cache.row_hits", "count", "cache", "row_hits"),
    ("experiments.cache.row_misses", "count", "cache", "row_misses"),
    ("experiments.cache.profile_hits", "count", "cache", "profile_hits"),
    ("experiments.cache.profile_misses", "count", "cache", "profile_misses"),
    ("experiments.cache.report_hits", "count", "cache", "report_hits"),
    ("experiments.cache.report_misses", "count", "cache", "report_misses"),
    ("experiments.cache.store_load.s", "s", "s", "experiments.cache.store_load"),
    ("experiments.cache.flush.s", "s", "s", "experiments.cache.flush"),
    ("experiments.runner.assemble.s", "s", "s", "experiments.runner.assemble"),
    ("experiments.runner.execute_points.s", "s", "s", "experiments.runner.execute_points"),
    ("experiments.result.write_csv.s", "s", "s", "experiments.result.write_csv"),
    ("experiments.result.rows", "count", "count", "experiments.result.rows"),
    ("serving.arrivals.s", "s", "s", "serving.arrivals"),
    ("serving.requests", "count", "count", "serving.requests"),
    ("serving.autoscale.plan_fleet.s", "s", "s", "serving.autoscale.plan_fleet"),
    ("serving.batching.form_batches.calls", "count", "calls", "serving.batching.form_batches"),
    ("serving.batching.form_batches.s", "s", "s", "serving.batching.form_batches"),
    ("serving.service.simulate_calls", "count", "calls", "serving.service.simulate"),
    ("serving.service.s", "s", "s", "serving.service.simulate"),
    ("serving.queueing.s", "s", "s", "serving.queueing"),
    ("serving.metrics.s", "s", "s", "serving.metrics"),
    ("serving.simulate.utilization_curve.s", "s", "s", "serving.simulate.utilization_curve"),
    ("serving.simulate.simulate_serving.calls", "count", "calls", "serving.simulate.simulate_serving"),
    ("serving.simulate.requests", "count", "count", "serving.simulate.requests"),
    ("serving.rollup.rollup_carbon.s", "s", "s", "serving.rollup.rollup_carbon"),
    ("trace.wall_s", "s", "run", "wall_s"),
    ("trace.overhead_s", "s", "run", "overhead_s"),
)

#: Modules imported before wrapping, so every layer has a binding to wrap.
LAYER_MODULES = (
    "repro.analysis.tables",
    "repro.experiments",
    "repro.experiments.runner",
    "repro.gating.policies",
    "repro.serving",
    "repro.serving.simulate",
    "repro.serving.service",
)


def _rebind(original, replacement) -> None:
    """Replace every module-level binding of ``original`` in ``repro``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _count_rows(recorder: Recorder, args, kwargs, result) -> None:
    recorder.counts["experiments.result.rows"] += int(result)


def _count_trace(recorder: Recorder, args, kwargs, result) -> None:
    recorder.counts["serving.requests"] += len(result)


def _count_simulated(recorder: Recorder, args, kwargs, result) -> None:
    trace = args[0] if args else kwargs["trace"]
    recorder.counts["serving.simulate.requests"] += len(trace)


_ON_RESULT = {
    "experiments.result.write_csv": _count_rows,
    "serving.arrivals": _count_trace,
    "serving.simulate.simulate_serving": _count_simulated,
}


def install(recorder: Recorder) -> list:
    """Wrap every layer boundary; returns the live simulation caches."""
    for module in LAYER_MODULES:
        importlib.import_module(module)
    for span, module, function in FUNCTIONS:
        original = getattr(sys.modules[module], function)
        _rebind(original, recorder.wrap(span, original, _ON_RESULT.get(span)))
    for span, module, cls_name, method in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, recorder.wrap(span, original, _ON_RESULT.get(span)))

    policies = sys.modules["repro.gating.policies"]
    for cls in vars(policies).values():
        if isinstance(cls, type) and issubclass(cls, policies.PowerGatingPolicy):
            for kernel in GATING_KERNELS:
                if kernel in cls.__dict__:
                    setattr(
                        cls, kernel,
                        recorder.wrap(f"gating.{kernel}", cls.__dict__[kernel]),
                    )

    # Serving's simulator calls only: the same function is also the
    # sweep path's oracle, which must stay out of this count.
    service = sys.modules["repro.serving.service"]
    service.simulate_workload = recorder.wrap(
        "serving.service.simulate", service.simulate_workload
    )

    # Cache probes: profile and report hits/misses by return value, and
    # every cache instance kept so its row counters can be summed.
    cache_cls = sys.modules["repro.experiments.cache"].SimulationCache
    caches: list = []
    original_init = cache_cls.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        caches.append(self)

    cache_cls.__init__ = init
    for layer in ("profile", "report"):
        original = getattr(cache_cls, f"get_{layer}")

        def probe(self, key, _original=original, _layer=layer):
            found = _original(self, key)
            recorder.counts[f"cache.{_layer}_{'hits' if found is not None else 'misses'}"] += 1
            return found

        setattr(cache_cls, f"get_{layer}", probe)
    return caches


def cache_stats(recorder: Recorder, caches: list) -> dict[str, int]:
    """Row counters summed over every cache, plus the probe counters."""
    stats = {"row_hits": 0, "row_misses": 0}
    for cache in caches:
        for key in stats:
            stats[key] += cache.stats()[key]
    for layer in ("profile", "report"):
        for outcome in ("hits", "misses"):
            stats[f"{layer}_{outcome}"] = recorder.counts[f"cache.{layer}_{outcome}"]
    return stats


def per_layer_metrics(trace: dict) -> dict[str, dict[str, float]]:
    """The benchmark's per-layer metrics from one traced run's JSON."""
    totals = trace["totals"]
    metrics = {}
    for metric, unit, kind, key in PER_LAYER:
        if kind in ("s", "self_s", "calls"):
            value = totals.get(key, {}).get(kind, 0)
        elif kind == "count":
            value = trace["counts"].get(key, 0)
        elif kind == "cache":
            value = trace["cache"][key]
        else:
            value = trace[key]
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str]) -> int:
    start_ns = time.perf_counter_ns()
    if len(argv) < 4 or argv[2] != "--":
        print("usage: layers.py TRACE.json MODULES -- PROGRAM ARGS...", file=sys.stderr)
        return 2
    trace_path, modules, program = argv[0], argv[1], argv[3:]
    recorder = Recorder()
    with recorder.span("cli.import"):
        for module in modules.split(","):
            importlib.import_module(module)
    caches = install(recorder)

    code: int | str | None = 0
    try:
        if program[0] == "-m":
            sys.argv = [program[1], *program[2:]]
            runpy.run_module(program[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(program)
            runpy.run_path(program[0], run_name="__main__")
    except SystemExit as exit_:
        code = exit_.code
    sys.stdout.flush()

    payload = recorder.payload()
    payload["cache"] = cache_stats(recorder, caches)
    payload["process_s"] = (time.perf_counter_ns() - start_ns) / 1e9
    Path(trace_path).write_text(json.dumps(payload))
    if code is None:
        return 0
    if isinstance(code, int):
        return code
    print(code, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
