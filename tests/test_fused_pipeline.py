"""The fused simulate→price sweep pass.

The packed sweep path prices each (policy, chip) group with **one**
grid kernel call and resolves/simulates each distinct profile once —
no per-point re-resolution and no per-cell pricing.
"""

from __future__ import annotations

from repro.experiments import SimulationCache, SweepRunner, SweepSpec, run_sweep
from repro.experiments import cache as cache_module
from repro.gating import policies as policies_module
from repro.gating.bet import DEFAULT_PARAMETERS
from repro.simulator import columnar
from repro.simulator.engine import NPUSimulator

#: Multi-axis grid: 2 workloads x 2 chips x 3 gating-parameter points.
FUSED_SPEC = SweepSpec(
    workloads=("llama3-8b-decode", "dlrm-s-inference"),
    chips=("NPU-C", "NPU-D"),
    batch_sizes=(1,),
    gating_parameters=tuple(
        (f"x{multiplier}", DEFAULT_PARAMETERS.with_delay_multiplier(multiplier))
        for multiplier in (1.0, 2.0, 4.0)
    ),
)


class TestFusedPassCallCounts:
    def test_one_grid_kernel_call_per_policy_group(self, monkeypatch):
        """A cold multi-parameter sweep prices each policy's whole
        (profiles x parameter points) grid with exactly one
        ``grid_evaluate`` call — the fused pass groups every miss of a
        policy into one kernel invocation instead of pricing cells."""
        calls: list[str] = []
        original = policies_module.PowerGatingPolicy.grid_evaluate

        def counting(self, profiles, parameter_grid, power_model=None):
            calls.append(type(self).__name__)
            return original(self, profiles, parameter_grid, power_model)

        monkeypatch.setattr(
            policies_module.PowerGatingPolicy, "grid_evaluate", counting
        )
        with columnar.use_fast_path(True):
            table = run_sweep(FUSED_SPEC, cache=SimulationCache())
        assert len(table) == FUSED_SPEC.num_points * len(FUSED_SPEC.policies)
        # One kernel call per policy, and each policy priced exactly once.
        assert len(calls) == len(FUSED_SPEC.policies)
        assert len(set(calls)) == len(calls)

    def test_execution_resolved_once_per_workload_chip(self, monkeypatch):
        """The gating-parameter axis rides along for free: execution
        resolution happens once per distinct (workload, chip, batch)
        combination, not once per grid point."""
        calls: list[tuple] = []
        original = cache_module.resolve_execution

        def counting(spec, config):
            resolved = original(spec, config)
            calls.append((spec.name, resolved[0]))
            return resolved

        monkeypatch.setattr(cache_module, "resolve_execution", counting)
        with columnar.use_fast_path(True):
            run_sweep(FUSED_SPEC, cache=SimulationCache())
        expected = len(FUSED_SPEC.workloads) * len(FUSED_SPEC.chips)
        assert len(calls) == expected
        assert len(set(calls)) == expected

    def test_simulate_once_per_profile(self):
        """The simulator runs once per distinct (workload, chip) profile;
        gating-parameter points and policies never re-simulate."""
        NPUSimulator.reset_simulate_calls()
        with columnar.use_fast_path(True):
            run_sweep(FUSED_SPEC, cache=SimulationCache())
        assert NPUSimulator.simulate_calls == len(FUSED_SPEC.workloads) * len(
            FUSED_SPEC.chips
        )

    def test_cold_sweep_leaves_the_report_layer_alone(self, monkeypatch):
        """The fused pass addresses cells by (profile, parameters): it
        computes no report key and caches no report, since nothing
        re-reads a sweep's cells."""
        calls: list[tuple] = []
        original = cache_module.report_key

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cache_module, "report_key", counting)
        cache = SimulationCache()
        with columnar.use_fast_path(True):
            SweepRunner(FUSED_SPEC, cache=cache).run()
        assert calls == []
        stats = cache.stats()
        assert stats["reports"] == 0
        assert stats["profiles"] == len(FUSED_SPEC.workloads) * len(FUSED_SPEC.chips)

    def test_fused_rows_match_object_oracle(self):
        """The fused pass emits byte-identical CSV to the object path."""
        with columnar.use_fast_path(True):
            fused = run_sweep(FUSED_SPEC, cache=SimulationCache())
        with columnar.use_fast_path(False):
            oracle = run_sweep(FUSED_SPEC, cache=SimulationCache())
        assert fused.to_csv() == oracle.to_csv()
