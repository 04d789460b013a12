"""Performance benchmark harness for the columnar simulation core.

``repro perf`` times the hot paths of the reproduction twice — once on
the object-path reference (``columnar.use_fast_path(False)``) and once
on the columnar fast path — and writes the results to
``BENCH_perf.json`` so every commit's performance trajectory is
recorded.  The measured pairs are:

* **graph_construction** — building the large workload graph from its
  builder parameters (array-native ``GraphTable`` emission vs
  per-operator object construction);
* **cold_simulate** — one cold ``NPUSimulator.simulate`` of that graph
  (vectorized fusion/tiling/timing/energy over the ``GraphTable`` vs
  the per-operator rewrite and simulation loops);
* **policy_evaluation** — all five gating policies evaluated on one
  fresh profile (vectorized gap/leakage accounting vs per-gap loops);
* **batch_policy_evaluation** — every policy across a fleet of
  profiles (``batch_evaluate``, a one-point grid over the packed fleet,
  vs the per-profile object-path loop; the serving-style deployment
  benchmark);
* **sensitivity_sweep** — a Figure-22 style delay sweep (one profile,
  many gating-parameter points) through :mod:`repro.analysis.sensitivity`;
* **sensitivity_grid** — the grid-batched policy kernel
  (:meth:`~repro.gating.policies.PowerGatingPolicy.grid_evaluate`) vs
  pricing one parameter point at a time: every policy priced across the
  sensitivity workloads × a 25-point Figure 21 × Figure 22 parameter
  grid.  Both sides run on the columnar fast path — the pair isolates
  the grid kernel itself;
* **multi_chip_sweep** — a cold multi-chip × gating-parameter sweep
  through the runner (chip-major packed batches, one grid call per
  policy) vs the object-path oracle;
* **multi_machine_shard** — the same grid executed as independent
  shards (``repro sweep --shard``) with the multi-machine wall clock
  modelled as ``max(shard times) + merge time``, vs the monolithic
  run; measures how close sharding gets to ideal N-way scale-out
  after partition imbalance and artifact/merge overhead;
* **idle_detector** — the run-length-encoded detection-window state
  machine vs the stepwise :class:`~repro.gating.idle_detection.IdleDetector`;
* **serving_sim** — the fleet serving simulation's batching + queueing
  kernels (:mod:`repro.serving`) on a synthetic multi-workload trace:
  columnar batch formation and the cumsum/running-max FCFS recursion vs
  the event-at-a-time oracle.  Service times come from a synthetic
  table, so the pair isolates the queueing kernels from the simulator;
* **cold_sweep** — a cold multi-workload × multi-chip grid through the
  :class:`~repro.experiments.SweepRunner` (the ROADMAP's headline
  number; the grids are defined in :data:`PERF_GRIDS`).

Each side reports the min **and** mean of its repeats (min is the
stable machine-speed estimate the speedups use; the mean exposes
variance).  Both paths must produce byte-identical sweep tables — the
harness asserts this on every run, so the benchmark doubles as an
end-to-end equivalence check.  Regression checking compares *speedups*
(a machine-independent ratio) against a committed baseline.
"""

from __future__ import annotations

import cProfile
import io
import json
import platform
import pstats
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import __version__
from repro.analysis.sensitivity import SENSITIVITY_WORKLOADS, delay_sensitivity
from repro.core.config import SimulationConfig
from repro.core.regate import resolve_execution
from repro.experiments import SimulationCache, SweepRunner, SweepSpec
from repro.gating.bet import (
    DEFAULT_PARAMETERS,
    FIGURE21_LEAKAGE_POINTS,
    FIGURE22_DELAY_MULTIPLIERS,
    ParameterTable,
)
from repro.gating.idle_detection import IdleDetector, run_length_idle_stats
from repro.gating.policies import get_policy
from repro.hardware.power import ChipPowerModel
from repro.simulator import columnar
from repro.simulator.engine import NPUSimulator
from repro.workloads.registry import get_workload, list_workloads

#: Workload used by the single-simulation and policy benchmarks: the
#: largest operator graph in the registry (the diffusion pipeline),
#: where the per-operator loops the columnar core replaces are hottest.
PERF_WORKLOAD = "gligen-inference"
PERF_CHIP = "NPU-D"

#: Sweep grids by name: (number of workloads, chips).  The workload
#: axis picks the N largest operator graphs from the registry (every
#: workload family stays represented), so the grid measures compute
#: rather than per-point bookkeeping.  ``full`` is the ROADMAP's
#: 64-point cold sweep; ``small`` keeps CI fast; ``tiny`` is for tests.
PERF_GRIDS: dict[str, tuple[int, tuple[str, ...]]] = {
    "tiny": (2, ("NPU-D",)),
    "small": (4, ("NPU-C", "NPU-D")),
    "full": (16, ("NPU-A", "NPU-B", "NPU-C", "NPU-D")),
}

#: Idle-detector benchmark trace: a repeating burst/idle pattern long
#: enough to make the stepwise oracle's per-cycle cost visible.
_DETECTOR_PATTERN = (
    [True] * 7 + [False] * 4 + [True] * 2 + [False] * 50 + [True] * 1 + [False] * 9
)
_DETECTOR_REPEATS = 2000
_DETECTOR_WINDOW = 16
_DETECTOR_DELAY = 4


@dataclass
class PerfResult:
    """One benchmark pair: object path vs columnar path.

    ``object_s``/``columnar_s`` are min-of-repeats (what the speedup and
    the regression gate use); the ``*_mean_s`` fields report the mean of
    the same repeats so run-to-run variance stays visible.
    """

    name: str
    object_s: float
    columnar_s: float
    object_mean_s: float = 0.0
    columnar_mean_s: float = 0.0

    @property
    def speedup(self) -> float:
        if self.columnar_s <= 0:
            return 0.0
        return self.object_s / self.columnar_s

    def to_dict(self) -> dict[str, float]:
        return {
            "object_s": self.object_s,
            "columnar_s": self.columnar_s,
            "object_mean_s": self.object_mean_s,
            "columnar_mean_s": self.columnar_mean_s,
            "speedup": self.speedup,
        }


def _timeit(fn: Callable[[], Any], repeat: int) -> tuple[float, float]:
    """(min, mean) wall time of ``repeat`` runs of ``fn`` in seconds."""
    samples: list[float] = []
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples), sum(samples) / len(samples)


def _interleaved(
    object_fn: Callable[[], Any],
    columnar_fn: Callable[[], Any],
    repeat: int,
) -> tuple[float, float, float, float]:
    """Paired round-robin timing of the two sides of one benchmark.

    Every repeat round takes one object-path sample immediately
    followed by one columnar sample, so slow machine-load drift hits
    both sides of the ratio alike.  Timing the sides in separate
    blocks (the harness's original scheme) lets background load land
    on one side only and skew the recorded speedup by 2x or more —
    exactly the ``sensitivity_grid`` "regression" this layout fixed.

    Returns ``(object_min, object_mean, columnar_min, columnar_mean)``
    in seconds.
    """
    object_samples: list[float] = []
    columnar_samples: list[float] = []
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        object_fn()
        object_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        columnar_fn()
        columnar_samples.append(time.perf_counter() - start)
    return (
        min(object_samples),
        sum(object_samples) / len(object_samples),
        min(columnar_samples),
        sum(columnar_samples) / len(columnar_samples),
    )


def _timed_pair(
    name: str,
    fn: Callable[[], Any],
    repeat: int,
    columnar_fn: Callable[[], Any] | None = None,
) -> PerfResult:
    """Time ``fn`` under both paths with interleaved paired sampling.

    ``columnar_fn`` overrides the callable timed on the fast path — for
    benchmarks whose columnar side consumes a different input (e.g. a
    ``GraphTable`` instead of an ``OperatorGraph``).  The path toggle
    rides inside each sample's callable; flipping the fast-path flag is
    nanoseconds against millisecond-scale benchmark bodies.
    """
    columnar_fn = columnar_fn or fn

    def object_side() -> None:
        with columnar.use_fast_path(False):
            fn()

    def columnar_side() -> None:
        with columnar.use_fast_path(True):
            columnar_fn()

    object_side()  # warm imports/registries outside the timed region
    columnar_side()
    object_s, object_mean_s, columnar_s, columnar_mean_s = _interleaved(
        object_side, columnar_side, repeat
    )
    return PerfResult(
        name=name,
        object_s=object_s,
        columnar_s=columnar_s,
        object_mean_s=object_mean_s,
        columnar_mean_s=columnar_mean_s,
    )


def perf_sweep_spec(grid: str) -> SweepSpec:
    """The cold-sweep grid of one :data:`PERF_GRIDS` entry."""
    if grid not in PERF_GRIDS:
        raise KeyError(
            f"unknown perf grid {grid!r}; choose from {sorted(PERF_GRIDS)}"
        )
    num_workloads, chips = PERF_GRIDS[grid]
    config = SimulationConfig()
    sizes: list[tuple[int, str]] = []
    for name in list_workloads():
        spec = get_workload(name)
        chip, batch, parallelism = resolve_execution(spec, config)
        graph = spec.build_graph(batch_size=batch, parallelism=parallelism)
        sizes.append((len(graph.operators), name))
    largest = [name for _, name in sorted(sizes, reverse=True)[:num_workloads]]
    # Registry order keeps the grid deterministic across runs.
    ordered = tuple(name for name in list_workloads() if name in largest)
    return SweepSpec(workloads=ordered, chips=chips)


# ---------------------------------------------------------------------- #
# Individual benchmarks
# ---------------------------------------------------------------------- #
def bench_graph_construction(repeat: int) -> PerfResult:
    """Builder parameters -> graph IR (object list vs GraphTable)."""
    spec = get_workload(PERF_WORKLOAD)
    config = SimulationConfig(chip=PERF_CHIP)
    _chip, batch, parallelism = resolve_execution(spec, config)
    return _timed_pair(
        "graph_construction",
        lambda: spec.build_graph(batch_size=batch, parallelism=parallelism),
        repeat,
        columnar_fn=lambda: spec.build_table(
            batch_size=batch, parallelism=parallelism
        ),
    )


def bench_cold_simulate(repeat: int) -> PerfResult:
    spec = get_workload(PERF_WORKLOAD)
    config = SimulationConfig(chip=PERF_CHIP)
    chip, batch, parallelism = resolve_execution(spec, config)
    graph = spec.build_graph(batch_size=batch, parallelism=parallelism)
    table = spec.build_table(batch_size=batch, parallelism=parallelism)
    return _timed_pair(
        "cold_simulate",
        lambda: NPUSimulator(chip).simulate(graph),
        repeat,
        columnar_fn=lambda: NPUSimulator(chip).simulate(table),
    )


def bench_policy_evaluation(repeat: int) -> PerfResult:
    spec = get_workload(PERF_WORKLOAD)
    config = SimulationConfig(chip=PERF_CHIP)
    chip, batch, parallelism = resolve_execution(spec, config)
    graph = spec.build_graph(batch_size=batch, parallelism=parallelism)
    table = spec.build_table(batch_size=batch, parallelism=parallelism)
    power_model = ChipPowerModel.for_chip(chip)

    def evaluate_all(source) -> None:
        # A fresh profile per run: "cold" includes building the gap
        # tables and factor arrays, exactly like one sweep point.
        profile = NPUSimulator(chip).simulate(source)
        for policy_name in config.policies:
            get_policy(policy_name, config.gating_parameters).evaluate(
                profile, power_model
            )

    return _timed_pair(
        "policy_evaluation",
        lambda: evaluate_all(graph),
        repeat,
        columnar_fn=lambda: evaluate_all(table),
    )


#: Fleet size of the batched policy-evaluation benchmark: the N largest
#: registry workloads, all profiled on :data:`PERF_CHIP`.
BATCH_EVAL_FLEET = 8


def bench_batch_policy_evaluation(repeat: int) -> PerfResult:
    """One policy set priced across a fleet of profiles (serving-style).

    Object side: the per-profile object-path loops.  Columnar side: one
    :class:`~repro.gating.policies.PackedProfiles` packing shared by all
    five policies, with every profile's derived caches dropped first so
    each run is cold like a fresh deployment evaluation.
    """
    from repro.gating.policies import PackedProfiles

    spec = perf_sweep_spec("full")
    workloads = spec.workloads[:BATCH_EVAL_FLEET]
    config = SimulationConfig(chip=PERF_CHIP)
    chip = config.resolve_chip()
    power_model = ChipPowerModel.for_chip(chip)
    profiles = []
    for name in workloads:
        workload_spec = get_workload(name)
        _chip, batch, parallelism = resolve_execution(workload_spec, config)
        table = workload_spec.build_table(batch_size=batch, parallelism=parallelism)
        profiles.append(NPUSimulator(chip).simulate(table))
    policies = [
        get_policy(policy_name, config.gating_parameters)
        for policy_name in config.policies
    ]

    def object_loop() -> None:
        for policy in policies:
            for profile in profiles:
                policy.evaluate(profile, power_model)

    def columnar_batch() -> None:
        for profile in profiles:
            profile.table.reset_caches()
        packed = PackedProfiles.pack(profiles)
        for policy in policies:
            policy.batch_evaluate(packed, power_model)

    return _timed_pair(
        "batch_policy_evaluation", object_loop, repeat, columnar_fn=columnar_batch
    )


def bench_sensitivity_sweep(repeat: int) -> PerfResult:
    return _timed_pair(
        "sensitivity_sweep",
        lambda: delay_sensitivity(PERF_WORKLOAD, chip=PERF_CHIP, cache=None),
        repeat,
    )


#: Gating-parameter grid of the ``sensitivity_grid`` benchmark: the
#: Figure 21 leakage points crossed with the Figure 22 delay
#: multipliers (25 points — the 3-figure sensitivity suite's axes).
SENSITIVITY_GRID_PARAMETERS = tuple(
    DEFAULT_PARAMETERS.with_leakage(*leakage).with_delay_multiplier(multiplier)
    for leakage in FIGURE21_LEAKAGE_POINTS
    for multiplier in FIGURE22_DELAY_MULTIPLIERS
)


def bench_sensitivity_grid(repeat: int) -> PerfResult:
    """Grid-batched policy kernel vs pricing one parameter point at a time.

    Unlike the other pairs, *both* sides run on the columnar fast path:
    the "object" side prices one gating-parameter point at a time (one
    ``batch_evaluate``, a one-point grid, per point), the "columnar"
    side one :meth:`~repro.gating.policies.PowerGatingPolicy.grid_evaluate`
    per policy over the same packed profiles — so the pair isolates
    what batching the parameter axis buys.  Derived table/pack caches
    are dropped before every run (cold, like a fresh sweep), and every
    grid cell is asserted equal to per-profile ``evaluate`` before
    timing.
    """
    from repro.gating.policies import PackedProfiles

    config = SimulationConfig(chip=PERF_CHIP)
    chip = config.resolve_chip()
    power_model = ChipPowerModel.for_chip(chip)
    grid = SENSITIVITY_GRID_PARAMETERS
    with columnar.use_fast_path(True):
        profiles = []
        for name in SENSITIVITY_WORKLOADS:
            workload_spec = get_workload(name)
            _chip, batch, parallelism = resolve_execution(workload_spec, config)
            table = workload_spec.build_table(
                batch_size=batch, parallelism=parallelism
            )
            profiles.append(NPUSimulator(chip).simulate(table))

        def reset() -> "PackedProfiles":
            for profile in profiles:
                profile.table.reset_caches()
            return PackedProfiles.pack(profiles)

        def per_point() -> None:
            packed = reset()
            for policy_name in config.policies:
                for parameters in grid:
                    get_policy(policy_name, parameters).batch_evaluate(
                        packed, power_model
                    )

        def grid_batched() -> None:
            packed = reset()
            ptable = ParameterTable(grid)
            for policy_name in config.policies:
                get_policy(policy_name).grid_evaluate(packed, ptable, power_model)

        # The benchmark doubles as an equivalence check: every grid cell
        # must reproduce the per-profile evaluate report bit-for-bit.
        packed = reset()
        ptable = ParameterTable(grid)
        for policy_name in config.policies:
            observed = get_policy(policy_name).grid_evaluate(
                packed, ptable, power_model
            )
            for index, parameters in enumerate(grid):
                policy = get_policy(policy_name, parameters)
                expected = [
                    policy.evaluate(profile, power_model) for profile in profiles
                ]
                if observed.reports(index) != expected:  # pragma: no cover
                    raise AssertionError("sensitivity grid paths disagree")

        per_point()
        grid_batched()
        object_s, object_mean_s, columnar_s, columnar_mean_s = _interleaved(
            per_point, grid_batched, repeat
        )
    return PerfResult(
        "sensitivity_grid",
        object_s=object_s,
        columnar_s=columnar_s,
        object_mean_s=object_mean_s,
        columnar_mean_s=columnar_mean_s,
    )


#: Chip fleet of the ``multi_chip_sweep`` benchmark.
MULTI_CHIP_SWEEP_CHIPS = ("NPU-A", "NPU-B", "NPU-C", "NPU-D")


def multi_chip_sweep_spec() -> SweepSpec:
    """The multi-chip × delay-multiplier grid of ``multi_chip_sweep``."""
    base = perf_sweep_spec("small")
    return SweepSpec(
        workloads=base.workloads[:2],
        chips=MULTI_CHIP_SWEEP_CHIPS,
        gating_parameters=tuple(
            (f"{multiplier}x", DEFAULT_PARAMETERS.with_delay_multiplier(multiplier))
            for multiplier in FIGURE22_DELAY_MULTIPLIERS
        ),
    )


def bench_multi_chip_sweep(repeat: int) -> PerfResult:
    """A cold multi-chip × gating-parameter sweep through the runner.

    End-to-end counterpart of :func:`bench_sensitivity_grid`: the
    columnar side packs the whole chip fleet chip-major once per policy
    and prices the full (profile × parameter) grid per kernel call; the
    object side is the per-profile object-path oracle.  Both sides must
    produce byte-identical sweep tables.
    """
    spec = multi_chip_sweep_spec()

    def run_cold():
        return SweepRunner(spec, cache=None).run()

    def object_side():
        with columnar.use_fast_path(False):
            return run_cold()

    def columnar_side():
        with columnar.use_fast_path(True):
            return run_cold()

    object_table = object_side()
    columnar_table = columnar_side()
    if columnar_table.to_csv() != object_table.to_csv():  # pragma: no cover
        raise AssertionError("multi-chip sweep paths disagree (not byte-identical)")
    object_s, object_mean_s, columnar_s, columnar_mean_s = _interleaved(
        object_side, columnar_side, repeat
    )
    return PerfResult(
        "multi_chip_sweep",
        object_s=object_s,
        columnar_s=columnar_s,
        object_mean_s=object_mean_s,
        columnar_mean_s=columnar_mean_s,
    )


#: Simulated machine count of the ``multi_machine_shard`` pair.  Eight
#: machines: at N=2 the modelled wall clock ``max(shards) + merge`` is
#: mathematically capped below 2x (both sides execute the identical
#: per-point kernels, so ``max(shards) >= compute/2`` before the merge
#: tail is even added); N=8 — the same count the CI shard-smoke job
#: exercises — leaves the scale-out benchmark room to demonstrate that
#: per-shard fixed costs and the serial artifact/merge tail are small,
#: which is what the pair actually measures.
MULTI_MACHINE_SHARDS = 8


#: Gating-parameter points of the sharding benchmark's grid.  Denser
#: than the 25-point sensitivity grid: sharding is the scale-out story,
#: and the wall-clock model only demonstrates the amortized per-shard
#: fixed costs on a grid big enough that one shard's compute clearly
#: dominates its startup + artifact tail (sharding a tiny grid is all
#: overhead, and not the use case).
MULTI_MACHINE_SHARD_PARAMETER_POINTS = 128


def multi_machine_shard_spec() -> SweepSpec:
    """The sharding benchmark's grid: multi-chip × a dense 128-point
    delay-multiplier parameter grid (1024 points, 5120 result rows)."""
    base = multi_chip_sweep_spec()
    return SweepSpec(
        workloads=base.workloads,
        chips=base.chips,
        gating_parameters=tuple(
            (
                f"g{index}",
                DEFAULT_PARAMETERS.with_delay_multiplier(
                    1.0 + index / MULTI_MACHINE_SHARD_PARAMETER_POINTS
                ),
            )
            for index in range(MULTI_MACHINE_SHARD_PARAMETER_POINTS)
        ),
    )


def bench_multi_machine_shard(repeat: int) -> PerfResult:
    """Sharded execution modelled as parallel machines vs one monolith.

    The object side is the monolithic cold sweep of the
    :func:`multi_machine_shard_spec` grid; the "columnar" side runs the
    same grid as :data:`MULTI_MACHINE_SHARDS` shards
    (:class:`~repro.experiments.ShardRunner`, each with a fresh
    run-scoped cache and its artifact written to disk) and models the
    multi-machine wall clock as ``max(shard times) + merge time`` —
    shards are independent, so N machines run them concurrently and
    the merge is the only serial tail.  The speedup therefore measures
    how close sharding gets to the ideal N-way scale-out after
    partition imbalance and artifact/merge overhead.  The merged table
    is asserted byte-identical to the monolithic run before timing.
    """
    import tempfile

    from repro.experiments import ShardRunner, SweepResult

    spec = multi_machine_shard_spec()
    shards = MULTI_MACHINE_SHARDS

    def monolithic():
        return SweepRunner(spec, cache=None).run()

    def sharded_wall() -> tuple[float, SweepResult]:
        """(modelled wall-clock seconds, merged table) of one sharded run."""
        with tempfile.TemporaryDirectory() as tmp:
            shard_times: list[float] = []
            paths = []
            for index in range(shards):
                start = time.perf_counter()
                runner = ShardRunner(spec, shards, cache=None)
                paths.append(runner.write(index, tmp))
                shard_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            merged = SweepResult.merge_shards(paths)
            merge_s = time.perf_counter() - start
            return max(shard_times) + merge_s, merged

    with columnar.use_fast_path(True):
        object_table = monolithic()  # warm-up
        _wall, merged = sharded_wall()  # warm-up; doubles as equivalence check
        if merged.to_csv() != object_table.to_csv():  # pragma: no cover
            raise AssertionError("sharded sweep is not byte-identical")
        # Interleaved paired sampling: one monolith sample immediately
        # followed by one sharded sample per round, so machine-load
        # drift cannot land on one side of the ratio only.
        object_samples: list[float] = []
        wall_samples: list[float] = []
        for _ in range(max(1, repeat)):
            start = time.perf_counter()
            monolithic()
            object_samples.append(time.perf_counter() - start)
            wall_samples.append(sharded_wall()[0])
    return PerfResult(
        "multi_machine_shard",
        object_s=min(object_samples),
        columnar_s=min(wall_samples),
        object_mean_s=sum(object_samples) / len(object_samples),
        columnar_mean_s=sum(wall_samples) / len(wall_samples),
    )


def bench_idle_detector(repeat: int) -> PerfResult:
    trace = _DETECTOR_PATTERN * _DETECTOR_REPEATS

    def stepwise() -> None:
        IdleDetector(_DETECTOR_WINDOW, _DETECTOR_DELAY).run(trace)

    def vectorized() -> None:
        run_length_idle_stats(trace, _DETECTOR_WINDOW, _DETECTOR_DELAY)

    reference = IdleDetector(_DETECTOR_WINDOW, _DETECTOR_DELAY).run(trace)
    fast = run_length_idle_stats(trace, _DETECTOR_WINDOW, _DETECTOR_DELAY)
    if reference != fast:  # pragma: no cover - equivalence is tested
        raise AssertionError("idle detector paths disagree")
    object_s, object_mean_s, columnar_s, columnar_mean_s = _interleaved(
        stepwise, vectorized, repeat
    )
    return PerfResult(
        "idle_detector",
        object_s=object_s,
        columnar_s=columnar_s,
        object_mean_s=object_mean_s,
        columnar_mean_s=columnar_mean_s,
    )


#: Shape of the ``serving_sim`` benchmark's synthetic trace: enough
#: requests that the oracle's per-request Python loop dominates, small
#: enough to keep CI's small-grid suite quick.
SERVING_SIM_WORKLOADS = ("decode", "prefill", "rank")
SERVING_SIM_RATE_QPS = 800.0
SERVING_SIM_DURATION_S = 10.0
SERVING_SIM_REPLICAS = 4


def bench_serving_sim(repeat: int) -> PerfResult:
    """Vectorized serving batching+queueing vs the event-at-a-time oracle.

    Service times are a synthetic function of batch size (no simulator
    calls), so the pair isolates the queueing kernels; both sides are
    asserted exactly equal before timing — the benchmark doubles as the
    serving equivalence check on a trace far larger than the test
    suite's.
    """
    from repro.serving.arrivals import poisson_trace
    from repro.serving.batching import (
        BatchPolicy,
        form_batches,
        form_batches_oracle,
    )
    from repro.serving.queueing import queue_batches, queue_batches_oracle

    trace = poisson_trace(
        SERVING_SIM_WORKLOADS,
        SERVING_SIM_RATE_QPS,
        SERVING_SIM_DURATION_S,
        seed=42,
    )
    policies = {
        wid: BatchPolicy(max_batch=4 + 4 * wid, max_wait_s=0.010)
        for wid in range(len(trace.workloads))
    }

    def service_table(batches) -> np.ndarray:
        # Synthetic per-batch service time: affine in batch size.
        return (200_000 + 50_000 * batches.sizes).astype(np.int64)

    def vectorized():
        batches = form_batches(trace, policies)
        return batches, queue_batches(
            batches, service_table(batches), SERVING_SIM_REPLICAS
        )

    def oracle():
        batches = form_batches_oracle(trace, policies)
        return batches, queue_batches_oracle(
            batches, service_table(batches), SERVING_SIM_REPLICAS
        )

    fast_batches, (fast_start, fast_finish, fast_replica) = vectorized()
    slow_batches, (slow_start, slow_finish, slow_replica) = oracle()
    if not (
        np.array_equal(fast_batches.close_ns, slow_batches.close_ns)
        and np.array_equal(fast_batches.sizes, slow_batches.sizes)
        and np.array_equal(fast_batches.request_batch, slow_batches.request_batch)
        and np.array_equal(fast_start, slow_start)
        and np.array_equal(fast_finish, slow_finish)
        and np.array_equal(fast_replica, slow_replica)
    ):  # pragma: no cover - equivalence is tested
        raise AssertionError("serving sim paths disagree")
    object_s, object_mean_s, columnar_s, columnar_mean_s = _interleaved(
        oracle, vectorized, repeat
    )
    return PerfResult(
        "serving_sim",
        object_s=object_s,
        columnar_s=columnar_s,
        object_mean_s=object_mean_s,
        columnar_mean_s=columnar_mean_s,
    )


def bench_cold_sweep(grid: str, repeat: int) -> PerfResult:
    spec = perf_sweep_spec(grid)

    def run_cold():
        # A fresh run-scoped cache per run: every profile is simulated.
        return SweepRunner(spec, cache=None).run()

    def object_side():
        with columnar.use_fast_path(False):
            return run_cold()

    def columnar_side():
        with columnar.use_fast_path(True):
            return run_cold()

    object_table = object_side()
    columnar_table = columnar_side()
    if columnar_table.to_csv() != object_table.to_csv():  # pragma: no cover
        raise AssertionError("cold sweep paths disagree (not byte-identical)")
    object_s, object_mean_s, columnar_s, columnar_mean_s = _interleaved(
        object_side, columnar_side, repeat
    )
    return PerfResult(
        "cold_sweep",
        object_s=object_s,
        columnar_s=columnar_s,
        object_mean_s=object_mean_s,
        columnar_mean_s=columnar_mean_s,
    )


# ---------------------------------------------------------------------- #
# Suite
# ---------------------------------------------------------------------- #
#: Every benchmark pair by payload name, normalized to a ``(grid,
#: repeat)`` call.  The sweep-sized pairs run one fewer repeat than the
#: microbenchmarks (they are the slow ones, and min-of-repeats converges
#: fast on them).  Single source of the suite order and of the names
#: ``repro perf --profile`` accepts.
BENCHMARK_RUNNERS: "dict[str, Any]" = {
    "graph_construction": lambda grid, repeat: bench_graph_construction(repeat),
    "cold_simulate": lambda grid, repeat: bench_cold_simulate(repeat),
    "policy_evaluation": lambda grid, repeat: bench_policy_evaluation(repeat),
    "batch_policy_evaluation": (
        lambda grid, repeat: bench_batch_policy_evaluation(repeat)
    ),
    "sensitivity_sweep": lambda grid, repeat: bench_sensitivity_sweep(repeat),
    "sensitivity_grid": lambda grid, repeat: bench_sensitivity_grid(repeat),
    "multi_chip_sweep": (
        lambda grid, repeat: bench_multi_chip_sweep(max(1, repeat - 1))
    ),
    "multi_machine_shard": (
        lambda grid, repeat: bench_multi_machine_shard(max(1, repeat - 1))
    ),
    "idle_detector": lambda grid, repeat: bench_idle_detector(repeat),
    "serving_sim": lambda grid, repeat: bench_serving_sim(repeat),
    "cold_sweep": lambda grid, repeat: bench_cold_sweep(grid, max(1, repeat - 1)),
}


def profile_benchmark(
    name: str,
    grid: str = "tiny",
    repeat: int = 1,
    dump_path: "str | Path | None" = None,
    top: int = 25,
) -> "tuple[PerfResult, str, Path | None]":
    """Run one benchmark pair under :mod:`cProfile`.

    Returns ``(result, table, dump)``: the pair's timing result, the
    top-``top`` cumulative-time table as text, and the path the raw
    profile was dumped to (``None`` when ``dump_path`` is not given;
    load dumps with ``pstats.Stats`` or ``snakeviz``).  Raises
    :class:`KeyError` for unknown benchmark names.
    """
    runner = BENCHMARK_RUNNERS.get(name)
    if runner is None:
        known = ", ".join(BENCHMARK_RUNNERS)
        raise KeyError(f"unknown benchmark {name!r} (known: {known})")
    perf_sweep_spec(grid)  # validates the grid name early
    profiler = cProfile.Profile()
    profiler.enable()
    result = runner(grid, repeat)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    dump = None
    if dump_path is not None:
        dump = Path(dump_path)
        stats.dump_stats(dump)
    return result, stream.getvalue(), dump


def run_perf_suite(grid: str = "full", repeat: int = 3) -> dict[str, Any]:
    """Run every benchmark pair and assemble the ``BENCH_perf`` payload."""
    spec = perf_sweep_spec(grid)  # validates the grid name early
    results = [runner(grid, repeat) for runner in BENCHMARK_RUNNERS.values()]
    payload_benchmarks = {result.name: result.to_dict() for result in results}
    # The scale-out pair's speedup is only meaningful against its
    # modelled machine count; record it so payloads are self-describing.
    payload_benchmarks["multi_machine_shard"]["shards"] = MULTI_MACHINE_SHARDS
    return {
        "schema": 6,
        "version": __version__,
        "grid": grid,
        "grid_points": spec.num_points,
        "repeat": repeat,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "generated_unix": time.time(),
        "benchmarks": payload_benchmarks,
    }


def write_payload(payload: dict[str, Any], path: str | Path) -> Path:
    """Write a perf payload as pretty JSON."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


#: Benchmarks excluded from the regression gate (still recorded and
#: shown by ``--compare``).  Empty since the sharded pair moved to an
#: 8-machine wall-clock model with interleaved paired sampling: its
#: speedup now sits near 3x with enough headroom over the 25% gate
#: tolerance that it is held to the same standard as every other pair.
UNGATED_BENCHMARKS: frozenset[str] = frozenset()


def _version_tuple(text: str) -> tuple[int, ...]:
    """Dotted-version prefix as a comparable int tuple (1.8.0 -> (1,8,0)).

    Non-numeric segments end the prefix, so odd stamps compare on
    whatever leading numbers they do have instead of raising.
    """
    parts: list[int] = []
    for segment in str(text).split("."):
        if not segment.isdigit():
            break
        parts.append(int(segment))
    return tuple(parts)


def payload_version_drift(payload: dict[str, Any]) -> str | None:
    """Why this payload's version stamp trails the package, if it does.

    Perf payloads are committed artifacts; a stamp older than the
    running package means the numbers predate current code and must be
    regenerated (``repro perf --output ...``).  Returns ``None`` when
    the stamp is current (or ahead, e.g. comparing against a newer
    branch's payload).
    """
    stamped = payload.get("version")
    if not isinstance(stamped, str) or not _version_tuple(stamped):
        return f"payload has no valid version stamp (package is {__version__})"
    if _version_tuple(stamped) < _version_tuple(__version__):
        return (
            f"payload version {stamped} trails the package ({__version__}); "
            "regenerate it with `repro perf`"
        )
    return None


def check_regression(
    payload: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = 0.25,
    check_version: bool = True,
) -> list[str]:
    """Compare speedups against a committed baseline payload.

    Returns a list of human-readable failures; empty means no benchmark
    regressed by more than ``tolerance`` (fractional) against the
    baseline's speedup.  Absolute times are machine-dependent, so only
    the object/columnar ratio is compared.
    :data:`UNGATED_BENCHMARKS` are informational and never fail.

    With ``check_version`` (the default — what the CI perf gate runs),
    a baseline stamped with an older package version fails loudly: its
    numbers predate current code, so the gate would be comparing
    against stale machinery — regenerate and commit the baseline
    instead.  ``--compare`` of two historical payloads disables it and
    warns in the report instead.
    """
    failures: list[str] = []
    if check_version:
        drift = payload_version_drift(baseline)
        if drift:
            failures.append(f"baseline: {drift}")
    current = payload.get("benchmarks", {})
    for name, entry in baseline.get("benchmarks", {}).items():
        if name in UNGATED_BENCHMARKS:
            continue
        baseline_speedup = entry.get("speedup", 0.0) if isinstance(entry, dict) else 0.0
        if baseline_speedup <= 0:
            continue
        observed = current.get(name)
        if observed is None:
            failures.append(f"{name}: missing from current run")
            continue
        observed_speedup = (
            observed.get("speedup") if isinstance(observed, dict) else None
        )
        if observed_speedup is None:
            # Schema drift (an entry without a speedup field) is reported
            # per-name like a missing benchmark, never a KeyError.
            failures.append(f"{name}: no speedup in current payload (schema drift?)")
            continue
        floor = baseline_speedup * (1.0 - tolerance)
        if observed_speedup < floor:
            failures.append(
                f"{name}: speedup {observed_speedup:.2f}x fell below "
                f"{floor:.2f}x ({(1.0 - tolerance):.0%} of the baseline "
                f"{baseline_speedup:.2f}x)"
            )
    return failures


def compare_payloads(
    old: dict[str, Any],
    new: dict[str, Any],
    tolerance: float = 0.25,
) -> tuple[str, list[str]]:
    """Per-benchmark speedup deltas between two ``BENCH_perf`` payloads.

    Returns ``(report, failures)``: a human-readable table of old/new
    speedups with their relative delta, and the
    :func:`check_regression` failures of ``new`` against ``old`` (empty
    when nothing regressed beyond ``tolerance``).  Replaces eyeballing
    two JSON files — ``repro perf --compare OLD.json NEW.json`` prints
    the table and exits nonzero on regression.

    Payloads stamped with a version older than the running package get
    a warning line under the table (historical payloads are the point
    of ``--compare``, so drift warns here instead of failing).
    """
    from repro.analysis.tables import format_table

    old_benchmarks = old.get("benchmarks", {})
    new_benchmarks = new.get("benchmarks", {})
    names = list(old_benchmarks) + [
        name for name in new_benchmarks if name not in old_benchmarks
    ]

    def _speedup(benchmarks: dict[str, Any], name: str) -> float | None:
        # Payloads from drifted schemas may lack entries, hold non-dict
        # entries or miss the speedup field; all of those render as "no
        # value" per-name instead of raising.
        entry = benchmarks.get(name)
        if not isinstance(entry, dict):
            return None
        speedup = entry.get("speedup")
        return speedup if isinstance(speedup, (int, float)) else None

    rows = []
    for name in names:
        old_speedup = _speedup(old_benchmarks, name)
        new_speedup = _speedup(new_benchmarks, name)
        if old_speedup and new_speedup:
            delta = f"{new_speedup / old_speedup - 1.0:+.1%}"
        elif name not in old_benchmarks:
            delta = "benchmark missing from OLD payload"
        elif name not in new_benchmarks:
            delta = "benchmark missing from NEW payload"
        else:
            delta = "-"
        rows.append(
            [
                name,
                "-" if old_speedup is None else f"{old_speedup:.2f}x",
                "-" if new_speedup is None else f"{new_speedup:.2f}x",
                delta,
            ]
        )
    report = format_table(
        ["benchmark", "old speedup", "new speedup", "delta"],
        rows,
        title=(
            f"BENCH_perf comparison (old schema {old.get('schema')}, "
            f"new schema {new.get('schema')})"
        ),
    )
    warnings = [
        f"warning: {label} {drift}"
        for label, payload in (("OLD", old), ("NEW", new))
        if (drift := payload_version_drift(payload))
    ]
    if warnings:
        report += "\n" + "\n".join(warnings)
    return report, check_regression(
        new, old, tolerance=tolerance, check_version=False
    )


def format_report(payload: dict[str, Any]) -> str:
    """Human-readable table of one perf payload."""
    from repro.analysis.tables import format_table

    rows = [
        [
            name,
            f"{entry['object_s'] * 1e3:.2f}",
            f"{entry.get('object_mean_s', 0.0) * 1e3:.2f}",
            f"{entry['columnar_s'] * 1e3:.2f}",
            f"{entry.get('columnar_mean_s', 0.0) * 1e3:.2f}",
            f"{entry['speedup']:.1f}x",
        ]
        for name, entry in payload["benchmarks"].items()
    ]
    title = (
        f"Columnar-core benchmarks (grid={payload['grid']}, "
        f"{payload['grid_points']} sweep points; min / mean of repeats)"
    )
    return format_table(
        [
            "benchmark",
            "object min (ms)",
            "object mean (ms)",
            "columnar min (ms)",
            "columnar mean (ms)",
            "speedup",
        ],
        rows,
        title=title,
    )


__all__ = [
    "BATCH_EVAL_FLEET",
    "BENCHMARK_RUNNERS",
    "MULTI_CHIP_SWEEP_CHIPS",
    "MULTI_MACHINE_SHARDS",
    "PERF_GRIDS",
    "PERF_WORKLOAD",
    "PerfResult",
    "SENSITIVITY_GRID_PARAMETERS",
    "UNGATED_BENCHMARKS",
    "bench_batch_policy_evaluation",
    "bench_cold_simulate",
    "bench_cold_sweep",
    "bench_graph_construction",
    "bench_idle_detector",
    "bench_multi_chip_sweep",
    "bench_multi_machine_shard",
    "bench_policy_evaluation",
    "bench_sensitivity_grid",
    "bench_sensitivity_sweep",
    "bench_serving_sim",
    "check_regression",
    "compare_payloads",
    "payload_version_drift",
    "format_report",
    "multi_chip_sweep_spec",
    "multi_machine_shard_spec",
    "perf_sweep_spec",
    "profile_benchmark",
    "run_perf_suite",
    "write_payload",
]
