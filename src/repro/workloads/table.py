"""Columnar (structure-of-arrays) operator-graph IR.

:class:`GraphTable` is the array-native counterpart of
:class:`~repro.workloads.base.OperatorGraph`: one aligned ``float64``
array per operator quantity (FLOPs, HBM/ICI traffic, matmul dimensions,
repeat counts) plus small integer code columns for the operator kind and
collective pattern.  :meth:`GraphTable.from_graph` reads the columns
off an object graph once, so the compiler frontend (fusion, tiling,
batch simulation) works on arrays instead of per-operator Python
objects on the fast path.

:meth:`GraphTable.to_graph` materializes the equivalent
:class:`OperatorGraph`, which is how the object-path oracle runs a
table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.workloads.base import (
    CollectiveKind,
    MatmulDims,
    Operator,
    OperatorGraph,
    OpKind,
    ParallelismConfig,
    WorkloadPhase,
)

#: Stable integer codes for the enum-valued columns.
KIND_LIST: tuple[OpKind, ...] = tuple(OpKind)
KIND_CODE: dict[OpKind, int] = {kind: code for code, kind in enumerate(KIND_LIST)}
COLLECTIVE_LIST: tuple[CollectiveKind, ...] = tuple(CollectiveKind)
COLLECTIVE_CODE: dict[CollectiveKind, int] = {
    kind: code for code, kind in enumerate(COLLECTIVE_LIST)
}
#: ``collective`` column value for operators without a collective kind.
NO_COLLECTIVE = -1

_USES_SA_CODES = tuple(KIND_CODE[k] for k in KIND_LIST if k.uses_sa)
_COLLECTIVE_KIND_CODE = KIND_CODE[OpKind.COLLECTIVE]
_PTP_CODES = (
    COLLECTIVE_CODE[CollectiveKind.ALL_TO_ALL],
    COLLECTIVE_CODE[CollectiveKind.SEND_RECV],
)


@dataclass(eq=False)
class GraphTable:
    """Aligned per-operator arrays of one workload graph.

    All numeric columns are ``float64`` (counts and matmul dimensions
    are integer-valued but stay exact well past any realistic graph
    size); ``kind`` and ``collective`` hold the enum codes from
    :data:`KIND_CODE` / :data:`COLLECTIVE_CODE`
    (:data:`NO_COLLECTIVE` marks non-collective operators).  Operators
    without matmul dimensions hold the object path's ``1`` placeholder
    in ``dims_*`` with ``has_dims`` False.
    """

    name: str
    phase: WorkloadPhase
    names: list[str]
    kind: np.ndarray
    sa_flops: np.ndarray
    vu_flops: np.ndarray
    hbm_read_bytes: np.ndarray
    hbm_write_bytes: np.ndarray
    ici_bytes: np.ndarray
    collective: np.ndarray
    dims_m: np.ndarray
    dims_k: np.ndarray
    dims_n: np.ndarray
    has_dims: np.ndarray
    count: np.ndarray
    fusable: np.ndarray
    dtype_bytes: np.ndarray
    parallelism: ParallelismConfig = field(default_factory=ParallelismConfig)
    iteration_unit: str = "iteration"
    work_per_iteration: float = 1.0
    model_name: str = ""
    batch_size: int = 1

    # -- shape / metadata ------------------------------------------------ #
    @property
    def n_ops(self) -> int:
        return len(self.names)

    def __len__(self) -> int:
        return self.n_ops

    @property
    def num_chips(self) -> int:
        return self.parallelism.num_chips

    # -- derived masks (cached) ------------------------------------------ #
    @property
    def uses_sa(self) -> np.ndarray:
        """Mask of operators whose kind can map onto the systolic arrays."""
        cached = self.__dict__.get("_uses_sa")
        if cached is None:
            kind = self.kind
            cached = kind == _USES_SA_CODES[0]
            for code in _USES_SA_CODES[1:]:
                cached = cached | (kind == code)
            self.__dict__["_uses_sa"] = cached
        return cached

    @property
    def is_collective(self) -> np.ndarray:
        cached = self.__dict__.get("_is_collective")
        if cached is None:
            cached = self.kind == _COLLECTIVE_KIND_CODE
            self.__dict__["_is_collective"] = cached
        return cached

    @property
    def is_ptp(self) -> np.ndarray:
        """Point-to-point collectives (all-to-all, send/recv)."""
        cached = self.__dict__.get("_is_ptp")
        if cached is None:
            cached = (self.collective == _PTP_CODES[0]) | (
                self.collective == _PTP_CODES[1]
            )
            self.__dict__["_is_ptp"] = cached
        return cached

    @property
    def hbm_bytes(self) -> np.ndarray:
        """Per-operator ``read + write`` HBM traffic (cached)."""
        cached = self.__dict__.get("_hbm_bytes")
        if cached is None:
            cached = self.hbm_read_bytes + self.hbm_write_bytes
            self.__dict__["_hbm_bytes"] = cached
        return cached

    def validate(self) -> None:
        """Raise ``ValueError`` on the same structural errors as the graph."""
        if not self.n_ops:
            raise ValueError(f"graph {self.name!r} has no operators")
        if self.work_per_iteration <= 0:
            raise ValueError(f"graph {self.name!r} has non-positive work per iteration")

    # -- constructors ----------------------------------------------------- #
    @classmethod
    def from_graph(cls, graph: OperatorGraph) -> "GraphTable":
        """Extract the columns of an object-path :class:`OperatorGraph`."""
        ops = graph.operators
        raw = np.array(
            [
                (
                    op.count,
                    op.sa_flops,
                    op.vu_flops,
                    op.hbm_read_bytes,
                    op.hbm_write_bytes,
                    op.ici_bytes,
                    op.dtype_bytes,
                    op.fusable,
                    op.dims is not None,
                    1 if op.dims is None else op.dims.m,
                    1 if op.dims is None else op.dims.k,
                    1 if op.dims is None else op.dims.n,
                )
                for op in ops
            ],
            dtype=np.float64,
        ).reshape(len(ops), 12)
        kind = np.fromiter(
            (KIND_CODE[op.kind] for op in ops), dtype=np.int64, count=len(ops)
        )
        collective = np.fromiter(
            (
                NO_COLLECTIVE if op.collective is None else COLLECTIVE_CODE[op.collective]
                for op in ops
            ),
            dtype=np.int64,
            count=len(ops),
        )
        return cls(
            name=graph.name,
            phase=graph.phase,
            names=[op.name for op in ops],
            kind=kind,
            sa_flops=raw[:, 1],
            vu_flops=raw[:, 2],
            hbm_read_bytes=raw[:, 3],
            hbm_write_bytes=raw[:, 4],
            ici_bytes=raw[:, 5],
            collective=collective,
            dims_m=raw[:, 9],
            dims_k=raw[:, 10],
            dims_n=raw[:, 11],
            has_dims=raw[:, 8] != 0.0,
            count=raw[:, 0],
            fusable=raw[:, 7] != 0.0,
            dtype_bytes=raw[:, 6],
            parallelism=graph.parallelism,
            iteration_unit=graph.iteration_unit,
            work_per_iteration=graph.work_per_iteration,
            model_name=graph.model_name,
            batch_size=graph.batch_size,
        )

    @classmethod
    def concat(cls, tables: list["GraphTable"]) -> "GraphTable":
        """One table holding every row of ``tables``, end to end.

        The simulator's batch input: each table is one segment of the
        result, in order.  Only the columns describe the batch; the
        metadata (name, phase, parallelism, ...) is the first table's.
        A single table is returned as it is.
        """
        if len(tables) == 1:
            return tables[0]
        columns = {
            column: np.concatenate([getattr(table, column) for table in tables])
            for column in COLUMNS
        }
        names = [name for table in tables for name in table.names]
        return tables[0].replace(names=names, **columns)

    # -- materialization -------------------------------------------------- #
    def to_operators(self) -> list[Operator]:
        """Materialize the equivalent object-path operator list."""
        kind = self.kind.tolist()
        collective = self.collective.tolist()
        sa = self.sa_flops.tolist()
        vu = self.vu_flops.tolist()
        read = self.hbm_read_bytes.tolist()
        write = self.hbm_write_bytes.tolist()
        ici = self.ici_bytes.tolist()
        m = self.dims_m.tolist()
        k = self.dims_k.tolist()
        n = self.dims_n.tolist()
        has_dims = self.has_dims.tolist()
        count = self.count.tolist()
        fusable = self.fusable.tolist()
        dtype_bytes = self.dtype_bytes.tolist()
        return [
            Operator(
                name=self.names[i],
                kind=KIND_LIST[kind[i]],
                sa_flops=sa[i],
                vu_flops=vu[i],
                hbm_read_bytes=read[i],
                hbm_write_bytes=write[i],
                ici_bytes=ici[i],
                collective=(
                    None
                    if collective[i] == NO_COLLECTIVE
                    else COLLECTIVE_LIST[collective[i]]
                ),
                dims=(
                    MatmulDims(m=int(m[i]), k=int(k[i]), n=int(n[i]))
                    if has_dims[i]
                    else None
                ),
                count=int(count[i]),
                fusable=fusable[i],
                dtype_bytes=int(dtype_bytes[i]),
            )
            for i in range(self.n_ops)
        ]

    def to_graph(self) -> OperatorGraph:
        """Materialize the equivalent :class:`OperatorGraph`."""
        return OperatorGraph(
            name=self.name,
            phase=self.phase,
            operators=self.to_operators(),
            parallelism=self.parallelism,
            iteration_unit=self.iteration_unit,
            work_per_iteration=self.work_per_iteration,
            model_name=self.model_name,
            batch_size=self.batch_size,
        )

    def replace(self, **overrides) -> "GraphTable":
        """A copy with selected columns/metadata replaced."""
        return dataclasses.replace(self, **overrides)


#: The per-operator array columns of a :class:`GraphTable`, in field order.
COLUMNS = tuple(
    f.name for f in dataclasses.fields(GraphTable) if f.type == "np.ndarray"
)


__all__ = [
    "COLUMNS",
    "COLLECTIVE_CODE",
    "COLLECTIVE_LIST",
    "GraphTable",
    "KIND_CODE",
    "KIND_LIST",
    "NO_COLLECTIVE",
]
