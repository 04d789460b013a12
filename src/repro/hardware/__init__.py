"""NPU hardware models: chip specifications, area and power models."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "area": ("AreaModel", "ChipAreaBreakdown"),
        "chips": ("NPUChipSpec", "get_chip", "list_chips"),
        "components": ("Component",),
        "power": ("ChipPowerModel", "PowerBreakdown"),
    },
)
