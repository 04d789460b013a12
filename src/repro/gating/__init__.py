"""Power-gating mechanisms and policies (ReGate's core contribution)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "bet": (
            "ComponentTiming",
            "DEFAULT_PARAMETERS",
            "GatingParameters",
            "ParameterTable",
        ),
        "idle_detection": ("IdleDetector",),
        "policies": (
            "ChipMajorPacks",
            "GridEnergyReports",
            "PackedProfiles",
            "PowerGatingPolicy",
            "get_policy",
            "list_policies",
        ),
        "report": ("PolicyName",),
        "sa_gating": ("SpatialGatingModel", "spatial_utilization"),
        "sram_gating": ("SramGatingModel",),
    },
)
