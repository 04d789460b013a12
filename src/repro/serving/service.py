"""Per-batch service-time and energy model backing the serving layer.

:class:`ServiceModel` is the bridge between the queueing simulation and
the paper's NPU simulator: every (workload, batch size) the pod
actually forms is simulated once (memoized), and the model exposes

* the batch service time in integer nanoseconds (the NoPG iteration
  time — gating's sub-percent wake-up overhead is accounted in energy,
  not in the queueing timeline);
* the pod busy energy of that batch under every gating policy;
* the pod idle power under every policy (via
  :class:`~repro.carbon.operational.OperationalCarbonModel`'s gated
  idle-power model), which prices the time replicas sit between
  batches — the term that makes power gating's fleet savings shrink as
  utilization rises.

Only batch sizes that actually occur are simulated: a trace that forms
batches of sizes {1, 7, 8} costs three simulations per workload.
:meth:`ServiceModel.resolve` simulates a run's sizes together, pricing
each policy for all of them with one grid-kernel call on the fast path;
:meth:`ServiceModel.result` simulates a single size on its own, through
:func:`repro.core.regate.simulate_workload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.carbon.operational import OperationalCarbonModel
from repro.core.config import SimulationConfig
from repro.core.regate import simulate_workload
from repro.core.results import SimulationResult
from repro.experiments.cache import SimulationCache, simulate_cached_many
from repro.gating.report import PolicyName
from repro.serving.arrivals import NS


@dataclass(frozen=True)
class PodSpec:
    """One workload's pod shape: chip generation, pod size, batch cap."""

    workload: str
    chip: str = "NPU-D"
    num_chips: int | None = None  # None: the workload's default pod
    max_batch: int = 8

    def describe(self) -> str:
        chips = self.num_chips if self.num_chips is not None else "default"
        return (
            f"{self.workload} on {self.chip} x{chips} "
            f"(max batch {self.max_batch})"
        )


@dataclass
class ServiceModel:
    """Memoized simulator lookups for the serving simulation."""

    policies: tuple[PolicyName, ...] = SimulationConfig().policies
    _results: dict[tuple[str, str, int | None, int], SimulationResult] = field(
        default_factory=dict, repr=False
    )
    _idle_power: dict[tuple[str, str, int | None, PolicyName], float] = field(
        default_factory=dict, repr=False
    )

    # ------------------------------------------------------------------ #
    def _key(self, pod: PodSpec, batch_size: int) -> tuple[str, str, int | None, int]:
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        return (pod.workload, pod.chip, pod.num_chips, batch_size)

    def _config(self, pod: PodSpec, batch_size: int) -> SimulationConfig:
        return SimulationConfig(
            chip=pod.chip,
            num_chips=pod.num_chips,
            batch_size=batch_size,
            policies=self.policies,
        )

    def result(self, pod: PodSpec, batch_size: int) -> SimulationResult:
        """The (memoized) simulation of one batch size on one pod."""
        key = self._key(pod, batch_size)
        if key not in self._results:
            self._results[key] = simulate_workload(
                pod.workload, self._config(pod, batch_size)
            )
        return self._results[key]

    def resolve(self, pairs: Iterable[tuple[PodSpec, int]]) -> None:
        """Simulate every (pod, batch size) pair not yet memoized, in one pass.

        The missing pairs go through one :func:`simulate_cached_many`
        call into the memo :meth:`result` reads.  On the fast path it
        prices each policy for all of them with one N×1 grid-kernel
        call; with ``REPRO_FAST_PATH=0`` each pair takes the object-path
        oracle.  The results are bit-identical to simulating each pair
        on its own.
        """
        missing: dict[tuple, tuple[str, SimulationConfig]] = {}
        for pod, batch_size in pairs:
            key = self._key(pod, batch_size)
            if key not in self._results and key not in missing:
                missing[key] = (pod.workload, self._config(pod, batch_size))
        if missing:
            results = simulate_cached_many(list(missing.values()), SimulationCache())
            self._results.update(zip(missing, results))

    # ------------------------------------------------------------------ #
    def service_ns(self, pod: PodSpec, batch_size: int) -> int:
        """Service time of one batch, in integer nanoseconds."""
        time_s = self.result(pod, batch_size).iteration_time_s(PolicyName.NOPG)
        return max(1, int(round(time_s * NS)))

    def busy_energy_j(
        self, pod: PodSpec, batch_size: int, policy: PolicyName
    ) -> float:
        """Pod energy of serving one batch under ``policy`` (joules)."""
        result = self.result(pod, batch_size)
        return result.report(policy).total_energy_j * result.num_chips

    def idle_power_w(self, pod: PodSpec, policy: PolicyName) -> float:
        """Pod power while a replica is up but serving nothing (watts).

        NoPG leaks the chips' full static power; gating policies bring
        every gateable component down to its gated leakage ratio — the
        same model :mod:`repro.carbon.operational` uses for duty-cycle
        idle energy, so serving and carbon accounting agree.
        """
        key = (pod.workload, pod.chip, pod.num_chips, policy)
        if key not in self._idle_power:
            result = self.result(pod, max(1, pod.max_batch))
            per_chip = OperationalCarbonModel().idle_power_w(result, policy)
            self._idle_power[key] = per_chip * result.num_chips
        return self._idle_power[key]

    # ------------------------------------------------------------------ #
    def replica_rps(self, pod: PodSpec, batch_size: int | None = None) -> float:
        """Steady-state requests/second one replica sustains at a batch size."""
        size = batch_size if batch_size is not None else pod.max_batch
        return size * NS / self.service_ns(pod, size)


__all__ = ["PodSpec", "ServiceModel"]
