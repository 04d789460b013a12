"""ReGate reproduction: power gating for neural processing units.

This package reproduces the system described in "ReGate: Enabling Power
Gating in Neural Processing Units" (MICRO 2025).  It provides:

* A parametric NPU hardware model (chips derived from TPUv2..v6p).
* Workload graph generators for LLMs, DLRM and diffusion models.
* A compiler pipeline (parallelism, tiling, fusion, SRAM allocation,
  scheduling, idleness analysis and ``setpm`` instrumentation).
* A tile-level performance simulator plus a cycle-level systolic-array
  model with processing-element granularity power gating.
* Power-gating policies (NoPG, ReGate-Base, ReGate-HW, ReGate-Full, Ideal)
  with break-even-time accounting.
* Energy, power, performance and carbon analyses that regenerate every
  table and figure of the paper's evaluation.

The most convenient entry point is :func:`repro.simulate_workload`
(defined in :mod:`repro.core.regate`) and the helpers in
:mod:`repro.analysis`.  Every package re-exports its public names
lazily (see :mod:`repro._lazy`): ``import repro`` loads no simulator,
compiler or policy kernel until one of their names is first read, so
each command compiles only the layers it runs.
"""

from repro._lazy import lazy_exports

__version__ = "1.8.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "core.config": ("SimulationConfig",),
        "core.regate": ("simulate_workload",),
        "core.results": ("SimulationResult",),
        "gating.report": ("EnergyReport", "PolicyName"),
        "hardware.chips": ("NPUChipSpec", "get_chip", "list_chips"),
        "workloads.registry": ("get_workload", "list_workloads"),
    },
)
__all__.append("__version__")
