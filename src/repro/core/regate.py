"""Top-level simulation entry points.

:func:`simulate_workload` is the main public API of the reproduction: it
builds a workload graph, runs the performance simulator and evaluates the
requested power-gating policies, returning a
:class:`~repro.core.results.SimulationResult`.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig, resolve_execution
from repro.core.results import SimulationResult
from repro.gating.policies import get_policy
from repro.gating.report import PolicyName
from repro.hardware.power import ChipPowerModel
from repro.simulator import columnar
from repro.simulator.engine import NPUSimulator, WorkloadProfile
from repro.workloads.base import OperatorGraph, ParallelismConfig
from repro.workloads.registry import WorkloadSpec, get_workload
from repro.workloads.table import GraphTable


def build_workload_graph(
    spec: WorkloadSpec, batch_size: int, parallelism: ParallelismConfig
) -> OperatorGraph | GraphTable:
    """Build a workload's graph in the IR the active path consumes.

    On the columnar fast path this is the
    :class:`~repro.workloads.table.GraphTable` read off the workload's
    :class:`OperatorGraph`; on the object-path oracle it is the
    :class:`OperatorGraph` itself.  The simulator accepts either.
    """
    if columnar.fast_path_enabled():
        return spec.build_table(batch_size=batch_size, parallelism=parallelism)
    return spec.build_graph(batch_size=batch_size, parallelism=parallelism)


def simulate_graph(
    graph: OperatorGraph,
    config: SimulationConfig | None = None,
) -> SimulationResult:
    """Simulate an already-built operator graph under ``config``.

    Use this when you have constructed a custom
    :class:`~repro.workloads.base.OperatorGraph` (e.g. a single operator
    or a new model architecture) rather than a registered workload.
    """
    config = config or SimulationConfig()
    chip = config.resolve_chip()
    simulator = NPUSimulator(chip, apply_fusion=config.apply_fusion)
    profile = simulator.simulate(graph)
    return _evaluate(graph.name, profile, graph.parallelism, graph, config)


def simulate_workload(
    workload: str | WorkloadSpec,
    config: SimulationConfig | None = None,
    **config_overrides,
) -> SimulationResult:
    """Simulate a registered workload (Table 1) under a configuration.

    Parameters
    ----------
    workload:
        A workload name (``"llama3-70b-prefill"``, ``"dlrm-m"``,
        ``"dit-xl"``, ...) or a :class:`WorkloadSpec`.
    config:
        Optional :class:`SimulationConfig`; keyword overrides such as
        ``chip="NPU-C"`` or ``num_chips=8`` are applied on top.
    """
    if config_overrides:
        base = config or SimulationConfig()
        config = SimulationConfig(**{**base.__dict__, **config_overrides})
    config = config or SimulationConfig()
    spec = workload if isinstance(workload, WorkloadSpec) else get_workload(workload)
    chip, batch_size, parallelism = resolve_execution(spec, config)
    graph = build_workload_graph(spec, batch_size, parallelism)
    simulator = NPUSimulator(chip, apply_fusion=config.apply_fusion)
    profile = simulator.simulate(graph)
    return _evaluate(spec.name, profile, parallelism, graph, config)


def build_result(
    name: str,
    profile: WorkloadProfile,
    parallelism: ParallelismConfig,
    graph: OperatorGraph,
    config: SimulationConfig,
) -> SimulationResult:
    """Assemble a :class:`SimulationResult` shell (no policy reports yet)."""
    return SimulationResult(
        workload=name,
        chip=config.resolve_chip(),
        num_chips=parallelism.num_chips,
        batch_size=graph.batch_size,
        parallelism=parallelism,
        profile=profile,
        work_per_iteration=graph.work_per_iteration,
        iteration_unit=graph.iteration_unit,
    )


def _evaluate(
    name: str,
    profile: WorkloadProfile,
    parallelism: ParallelismConfig,
    graph: OperatorGraph,
    config: SimulationConfig,
) -> SimulationResult:
    result = build_result(name, profile, parallelism, graph, config)
    power_model = ChipPowerModel.for_chip(result.chip)
    for policy_name in config.policies:
        policy = get_policy(policy_name, config.gating_parameters)
        result.reports[policy_name] = policy.evaluate(profile, power_model)
    return result


__all__ = ["build_workload_graph", "simulate_graph", "simulate_workload"]
