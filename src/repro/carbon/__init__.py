"""Carbon-efficiency models (operational + embodied, §6.6 of the paper)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "embodied": ("EMBODIED_CARBON_KG", "embodied_carbon_kg"),
        "lifespan": ("LifespanAnalysis", "LifespanPoint"),
        "operational": ("OperationalCarbonModel",),
    },
)
