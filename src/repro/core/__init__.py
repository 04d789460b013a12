"""Top-level simulation API: configuration, results, SLO search."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "config": ("SimulationConfig",),
        "regate": ("simulate_graph", "simulate_workload"),
        "results": ("EnergyReport", "SimulationResult"),
        "slo": ("SLOSearch", "SLOSelection"),
    },
)
