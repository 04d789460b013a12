"""Operator-level intermediate representation for NPU workloads.

A workload (one LLM layer stack, one DLRM request batch, one diffusion
denoising loop) is lowered into a flat sequence of :class:`Operator`
objects — the same tile-level granularity the paper's production
simulator uses.  Each operator records how much work it places on each
chip component: matrix FLOPs (systolic arrays), vector FLOPs (vector
units), HBM traffic, and ICI traffic for collectives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class OpKind(str, Enum):
    """Coarse classification of tensor operators."""

    MATMUL = "matmul"
    CONV = "conv"
    ATTENTION = "attention"
    ELEMENTWISE = "elementwise"
    SOFTMAX = "softmax"
    LAYERNORM = "layernorm"
    EMBEDDING = "embedding"
    OPTIMIZER = "optimizer"
    COLLECTIVE = "collective"
    DMA = "dma"

    @property
    def is_collective(self) -> bool:
        return self is OpKind.COLLECTIVE

    @property
    def uses_sa(self) -> bool:
        """Whether the operator class can be mapped onto systolic arrays."""
        return self in (OpKind.MATMUL, OpKind.CONV, OpKind.ATTENTION)


class CollectiveKind(str, Enum):
    """Inter-chip collective communication patterns."""

    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    ALL_TO_ALL = "all_to_all"
    SEND_RECV = "send_recv"


class WorkloadPhase(str, Enum):
    """Execution phase of a workload (affects graph structure)."""

    TRAINING = "training"
    PREFILL = "prefill"
    DECODE = "decode"
    INFERENCE = "inference"


@dataclass(frozen=True)
class MatmulDims:
    """Logical dimensions of a matrix multiplication [M,K]x[K,N]->[M,N]."""

    m: int
    k: int
    n: int

    @property
    def flops(self) -> float:
        """FLOPs of the matmul (multiply + add counted separately)."""
        return 2.0 * self.m * self.k * self.n

    @property
    def output_elements(self) -> int:
        return self.m * self.n

    def scaled(self, m: float = 1.0, k: float = 1.0, n: float = 1.0) -> "MatmulDims":
        """Return a copy with dimensions scaled (used for sharding)."""
        return MatmulDims(
            m=max(1, int(round(self.m * m))),
            k=max(1, int(round(self.k * k))),
            n=max(1, int(round(self.n * n))),
        )


@dataclass(frozen=True)
class ParallelismConfig:
    """How a workload is partitioned across an NPU pod.

    ``data * tensor * pipeline`` must equal the number of chips.
    """

    data: int = 1
    tensor: int = 1
    pipeline: int = 1

    @property
    def num_chips(self) -> int:
        return self.data * self.tensor * self.pipeline

    def __post_init__(self) -> None:
        if self.data < 1 or self.tensor < 1 or self.pipeline < 1:
            raise ValueError("parallelism degrees must be >= 1")

    def describe(self) -> str:
        return f"dp={self.data} tp={self.tensor} pp={self.pipeline}"


@dataclass
class Operator:
    """One tensor operator executed on a single NPU chip.

    The quantities are *per chip, per invocation*; ``count`` tells the
    simulator how many times the operator repeats in one workload
    iteration (e.g. once per transformer layer or per denoising step).
    """

    name: str
    kind: OpKind
    sa_flops: float = 0.0
    vu_flops: float = 0.0
    hbm_read_bytes: float = 0.0
    hbm_write_bytes: float = 0.0
    ici_bytes: float = 0.0
    collective: CollectiveKind | None = None
    dims: MatmulDims | None = None
    count: int = 1
    fusable: bool = True
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"operator {self.name!r} has count < 1")
        for attr in ("sa_flops", "vu_flops", "hbm_read_bytes", "hbm_write_bytes", "ici_bytes"):
            if getattr(self, attr) < 0:
                raise ValueError(f"operator {self.name!r} has negative {attr}")
        if self.kind is OpKind.COLLECTIVE and self.collective is None:
            raise ValueError(f"collective operator {self.name!r} needs a CollectiveKind")

    # ------------------------------------------------------------------ #
    @property
    def hbm_bytes(self) -> float:
        """Total HBM traffic (read + write) of one invocation."""
        return self.hbm_read_bytes + self.hbm_write_bytes

    @property
    def total_flops(self) -> float:
        """Total FLOPs (matrix + vector) of one invocation."""
        return self.sa_flops + self.vu_flops

    def scaled_counts(self, factor: int) -> "Operator":
        """Return a copy whose ``count`` is multiplied by ``factor``."""
        clone = Operator(**{**self.__dict__})
        clone.count = self.count * factor
        return clone


@dataclass
class OperatorGraph:
    """A per-chip sequence of operators making up one workload iteration.

    ``iteration_unit`` names what one pass through the graph produces
    (one training step, one prefill request, one decoded token, ...);
    ``work_per_iteration`` quantifies it (e.g. tokens, images, requests)
    so energy-efficiency metrics can be expressed per unit of work.
    """

    name: str
    phase: WorkloadPhase
    operators: list[Operator] = field(default_factory=list)
    parallelism: ParallelismConfig = field(default_factory=ParallelismConfig)
    iteration_unit: str = "iteration"
    work_per_iteration: float = 1.0
    model_name: str = ""
    batch_size: int = 1

    def add(self, operator: Operator) -> None:
        """Append an operator to the graph."""
        self.operators.append(operator)

    def extend(self, operators: list[Operator]) -> None:
        """Append several operators to the graph."""
        self.operators.extend(operators)

    # ------------------------------------------------------------------ #
    @property
    def num_chips(self) -> int:
        return self.parallelism.num_chips

    @property
    def total_sa_flops(self) -> float:
        """Total matrix FLOPs per chip per iteration."""
        return sum(op.sa_flops * op.count for op in self.operators)

    @property
    def total_vu_flops(self) -> float:
        """Total vector FLOPs per chip per iteration."""
        return sum(op.vu_flops * op.count for op in self.operators)

    @property
    def total_hbm_bytes(self) -> float:
        """Total HBM traffic per chip per iteration."""
        return sum(op.hbm_bytes * op.count for op in self.operators)

    @property
    def total_ici_bytes(self) -> float:
        """Total ICI traffic per chip per iteration."""
        return sum(op.ici_bytes * op.count for op in self.operators)

    def collectives(self) -> list[Operator]:
        """All collective operators in the graph."""
        return [op for op in self.operators if op.kind is OpKind.COLLECTIVE]

    def validate(self) -> None:
        """Raise ``ValueError`` if the graph is structurally inconsistent."""
        if not self.operators:
            raise ValueError(f"graph {self.name!r} has no operators")
        if self.work_per_iteration <= 0:
            raise ValueError(f"graph {self.name!r} has non-positive work per iteration")


def elementwise_op(
    name: str,
    elements: float,
    flops_per_element: float = 1.0,
    read_factor: float = 1.0,
    write_factor: float = 1.0,
    dtype_bytes: int = 2,
    count: int = 1,
    kind: OpKind = OpKind.ELEMENTWISE,
    streams_hbm: bool = True,
) -> Operator:
    """Build a memory-streaming vector operator (activation, norm, ...).

    ``streams_hbm`` is False for operators fused into a producer whose
    output already lives in SRAM (no extra HBM traffic).
    """
    hbm_read = elements * dtype_bytes * read_factor if streams_hbm else 0.0
    hbm_write = elements * dtype_bytes * write_factor if streams_hbm else 0.0
    return Operator(
        name=name,
        kind=kind,
        vu_flops=elements * flops_per_element,
        hbm_read_bytes=hbm_read,
        hbm_write_bytes=hbm_write,
        count=count,
        dtype_bytes=dtype_bytes,
    )


def matmul_op(
    name: str,
    m: int,
    k: int,
    n: int,
    dtype_bytes: int = 2,
    count: int = 1,
    read_weights: bool = True,
    read_activations: bool = True,
    write_output: bool = True,
    vu_postprocess_flops_per_output: float = 2.0,
    kind: OpKind = OpKind.MATMUL,
) -> Operator:
    """Build a matrix-multiplication operator [M,K]x[K,N]->[M,N].

    HBM traffic assumes each tensor is moved once between HBM and SRAM
    (the tiling pass chooses tile sizes that achieve this reuse); the
    vector units post-process the SA output (bias add, activation).
    """
    dims = MatmulDims(m=m, k=k, n=n)
    hbm_read = 0.0
    if read_activations:
        hbm_read += m * k * dtype_bytes
    if read_weights:
        hbm_read += k * n * dtype_bytes
    hbm_write = m * n * dtype_bytes if write_output else 0.0
    return Operator(
        name=name,
        kind=kind,
        sa_flops=dims.flops,
        vu_flops=vu_postprocess_flops_per_output * dims.output_elements,
        hbm_read_bytes=hbm_read,
        hbm_write_bytes=hbm_write,
        dims=dims,
        count=count,
        dtype_bytes=dtype_bytes,
    )


def collective_op(
    name: str,
    kind: CollectiveKind,
    payload_bytes: float,
    num_chips: int,
    count: int = 1,
) -> Operator:
    """Build a collective operator with ring-algorithm traffic volume.

    ``payload_bytes`` is the logical tensor size per chip; the wire
    traffic per chip follows the standard ring formulas.
    """
    if num_chips <= 1:
        wire_bytes = 0.0
    elif kind is CollectiveKind.ALL_REDUCE:
        wire_bytes = 2.0 * payload_bytes * (num_chips - 1) / num_chips
    elif kind in (CollectiveKind.ALL_GATHER, CollectiveKind.REDUCE_SCATTER):
        wire_bytes = payload_bytes * (num_chips - 1) / num_chips
    elif kind is CollectiveKind.ALL_TO_ALL:
        wire_bytes = payload_bytes * (num_chips - 1) / num_chips
    else:  # SEND_RECV
        wire_bytes = payload_bytes
    # Collectives also touch HBM/SRAM to stage the payload.
    return Operator(
        name=name,
        kind=OpKind.COLLECTIVE,
        collective=kind,
        ici_bytes=wire_bytes,
        hbm_read_bytes=payload_bytes,
        hbm_write_bytes=payload_bytes,
        vu_flops=payload_bytes / 2.0 if kind is CollectiveKind.ALL_REDUCE else 0.0,
        count=count,
    )


__all__ = [
    "CollectiveKind",
    "MatmulDims",
    "Operator",
    "OperatorGraph",
    "OpKind",
    "ParallelismConfig",
    "WorkloadPhase",
    "collective_op",
    "elementwise_op",
    "matmul_op",
]
