"""Workload graph generators for the ML models evaluated in the paper.

Table 1 of the paper lists the benchmark workloads: LLM training and
inference (Llama3-8B, Llama2-13B, Llama3-70B, Llama3.1-405B),
recommendation models (DLRM-S/M/L) and stable diffusion models (DiT-XL,
GLIGEN).  Each generator lowers a model into a per-chip
:class:`~repro.workloads.base.OperatorGraph` given a batch size and a
parallelism configuration.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": (
            "CollectiveKind",
            "MatmulDims",
            "Operator",
            "OperatorGraph",
            "OpKind",
            "ParallelismConfig",
            "WorkloadPhase",
        ),
        "registry": ("WorkloadSpec", "get_workload", "list_workloads"),
        "table": ("GraphTable",),
    },
)
