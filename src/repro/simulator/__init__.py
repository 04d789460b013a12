"""Tile-level NPU performance simulator and cycle-level systolic model."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "columnar": (
            "ProfileTable",
            "fast_path_enabled",
            "seq_sum",
            "set_fast_path",
            "use_fast_path",
        ),
        "engine": (
            "GapProfile",
            "NPUSimulator",
            "OperatorProfile",
            "UtilizationError",
            "WorkloadProfile",
        ),
        "systolic": ("SystolicArraySimulator", "SystolicRunResult"),
        "timing": ("ComponentTimes", "OperatorTimingModel"),
    },
)
