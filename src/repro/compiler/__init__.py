"""ML compiler passes for the NPU backend.

The paper integrates its power-management support into the device
backend of an ML compiler (§4.3): after instruction scheduling and SRAM
allocation, a *component idleness analysis* pass extracts idle intervals
and a *setpm instrumentation* pass inserts power-management
instructions.  This package implements that pipeline over the operator
IR defined in :mod:`repro.workloads.base`:

* :mod:`repro.compiler.tiling`        — tile-size selection and SRAM demand.
* :mod:`repro.compiler.fusion`        — operator fusion.
* :mod:`repro.compiler.allocation`    — SRAM buffer allocation and lifetimes.
* :mod:`repro.compiler.scheduling`    — tile-level VLIW instruction traces.
* :mod:`repro.compiler.idleness`      — component idleness analysis.
* :mod:`repro.compiler.instrumentation` — ``setpm`` insertion.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "allocation": ("BufferAllocation", "SramAllocator"),
        "fusion": ("FusionPass",),
        "idleness": ("IdleInterval", "IdlenessAnalysis"),
        "instrumentation": ("InstrumentationPass", "SetpmPlan"),
        "tiling": ("TileInfo", "TilingPass"),
    },
)
