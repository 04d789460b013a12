"""NPU ISA model, including the ReGate ``setpm`` extension (§4.2)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "instructions": (
            "Instruction",
            "Opcode",
            "Program",
            "SetpmInstruction",
            "SlotKind",
            "VLIWBundle",
        ),
        "pipeline": ("CorePipeline", "FunctionalUnitState"),
    },
)
