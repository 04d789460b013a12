"""DLRM (deep learning recommendation model) workload generator.

The paper evaluates three DLRM variants (DLRM-S/M/L) distinguished by
their embedding table sizes (20 / 45 / 98 GB) with a request batch size
of 1024 (Table 1).  DLRM inference is dominated by random embedding
lookups (HBM-bound) and small MLPs, with the embedding tables sharded
across chips (model parallel) and the pooled embeddings exchanged via an
all-to-all collective — which is why the paper's ICI utilization for DLRM
is near 100% (Figure 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.workloads.base import (
    CollectiveKind,
    Operator,
    OperatorGraph,
    OpKind,
    ParallelismConfig,
    WorkloadPhase,
    collective_op,
    elementwise_op,
    matmul_op,
)


@dataclass(frozen=True)
class DLRMConfig:
    """Hyper-parameters of a DLRM variant."""

    name: str
    num_tables: int
    embedding_dim: int
    table_size_gb: float
    pooling_factor: int
    dense_features: int
    bottom_mlp: tuple[int, ...]
    top_mlp: tuple[int, ...]

    @property
    def table_size_bytes(self) -> float:
        return self.table_size_gb * 1e9

    @property
    def interaction_features(self) -> int:
        """Feature count after the pairwise dot-product interaction."""
        n = self.num_tables + 1
        return self.embedding_dim + n * (n - 1) // 2


DLRM_CONFIGS: dict[str, DLRMConfig] = {
    "dlrm-s": DLRMConfig(
        name="dlrm-s",
        num_tables=26,
        embedding_dim=128,
        table_size_gb=20.0,
        pooling_factor=2,
        dense_features=13,
        bottom_mlp=(512, 256, 128),
        top_mlp=(1024, 1024, 512, 256, 1),
    ),
    "dlrm-m": DLRMConfig(
        name="dlrm-m",
        num_tables=50,
        embedding_dim=128,
        table_size_gb=45.0,
        pooling_factor=2,
        dense_features=13,
        bottom_mlp=(512, 256, 128),
        top_mlp=(1024, 1024, 512, 256, 1),
    ),
    "dlrm-l": DLRMConfig(
        name="dlrm-l",
        num_tables=100,
        embedding_dim=128,
        table_size_gb=98.0,
        pooling_factor=2,
        dense_features=13,
        bottom_mlp=(512, 256, 128),
        top_mlp=(1024, 1024, 512, 256, 1),
    ),
}


def get_dlrm_config(name: str) -> DLRMConfig:
    """Look up a DLRM configuration by (case-insensitive) name."""
    key = name.strip().lower()
    if key not in DLRM_CONFIGS:
        raise KeyError(f"unknown DLRM {name!r}; available: {', '.join(DLRM_CONFIGS)}")
    return DLRM_CONFIGS[key]


def memory_per_chip_bytes(
    cfg: DLRMConfig, parallelism: ParallelismConfig, batch_size: int = 1024
) -> float:
    """Per-chip HBM footprint: sharded embedding tables plus MLP weights."""
    tables = cfg.table_size_bytes / parallelism.num_chips
    mlp_params = 0
    prev = cfg.dense_features
    for width in cfg.bottom_mlp:
        mlp_params += prev * width
        prev = width
    prev = cfg.interaction_features
    for width in cfg.top_mlp:
        mlp_params += prev * width
        prev = width
    activations = batch_size * cfg.interaction_features * 4 * 2
    return tables + mlp_params * 4 + activations


def _mlp_ops(
    name: str, batch: int, input_dim: int, widths: tuple[int, ...]
) -> list[Operator]:
    """Matmul + activation operators of a dense MLP stack."""
    ops: list[Operator] = []
    prev = input_dim
    for index, width in enumerate(widths):
        ops.append(
            matmul_op(
                f"{name}_fc{index}",
                m=batch,
                k=prev,
                n=width,
                dtype_bytes=4,
                vu_postprocess_flops_per_output=3.0,  # bias + ReLU
            )
        )
        prev = width
    return ops


def build_dlrm_graph(
    model: str | DLRMConfig,
    batch_size: int = 1024,
    parallelism: ParallelismConfig | None = None,
) -> OperatorGraph:
    """Operator graph for one DLRM inference request batch (one chip).

    Embedding tables are sharded table-wise across the pod (model
    parallelism); the MLPs run data-parallel on the local slice of the
    batch after an all-to-all exchanges pooled embeddings.
    """
    cfg = model if isinstance(model, DLRMConfig) else get_dlrm_config(model)
    parallelism = parallelism or ParallelismConfig()
    num_chips = parallelism.num_chips
    local_batch = max(1, batch_size // num_chips)
    tables_local = max(1, math.ceil(cfg.num_tables / num_chips))

    graph = OperatorGraph(
        name=f"{cfg.name}-inference",
        phase=WorkloadPhase.INFERENCE,
        parallelism=parallelism,
        iteration_unit="request",
        work_per_iteration=float(batch_size),
        model_name=cfg.name,
        batch_size=batch_size,
    )

    # Embedding lookups: each chip gathers rows from its local tables for
    # the *global* batch (model-parallel tables), pools them, and
    # exchanges the pooled vectors with an all-to-all.
    lookup_bytes = batch_size * tables_local * cfg.pooling_factor * cfg.embedding_dim * 4.0
    pooled_bytes = batch_size * tables_local * cfg.embedding_dim * 4.0
    graph.add(
        Operator(
            name="embedding_gather",
            kind=OpKind.EMBEDDING,
            hbm_read_bytes=lookup_bytes,
            hbm_write_bytes=pooled_bytes,
            vu_flops=batch_size * tables_local * cfg.pooling_factor * cfg.embedding_dim,
        )
    )
    if num_chips > 1:
        graph.add(
            collective_op(
                "embedding_alltoall",
                CollectiveKind.ALL_TO_ALL,
                payload_bytes=pooled_bytes,
                num_chips=num_chips,
            )
        )

    for op in _mlp_ops("bottom_mlp", local_batch, cfg.dense_features, cfg.bottom_mlp):
        graph.add(op)

    # Pairwise feature interaction: batched small matmuls between the
    # (num_tables+1) x embedding_dim feature matrix and its transpose.
    n_feat = cfg.num_tables + 1
    graph.add(
        matmul_op(
            "feature_interaction",
            m=n_feat,
            k=cfg.embedding_dim,
            n=n_feat,
            dtype_bytes=4,
            count=local_batch,
            read_weights=False,
            vu_postprocess_flops_per_output=1.0,
        )
    )
    for op in _mlp_ops("top_mlp", local_batch, cfg.interaction_features, cfg.top_mlp):
        graph.add(op)
    graph.add(
        elementwise_op("sigmoid", local_batch, flops_per_element=4.0, dtype_bytes=4)
    )
    graph.validate()
    return graph


__all__ = [
    "DLRM_CONFIGS",
    "DLRMConfig",
    "build_dlrm_graph",
    "get_dlrm_config",
    "memory_per_chip_bytes",
]
