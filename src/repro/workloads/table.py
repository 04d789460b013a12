"""Columnar (structure-of-arrays) operator-graph IR.

:class:`GraphTable` is the array-native counterpart of
:class:`~repro.workloads.base.OperatorGraph`: one aligned ``float64``
array per operator quantity (FLOPs, HBM/ICI traffic, matmul dimensions,
repeat counts) plus small integer code columns for the operator kind and
collective pattern.  The workload builders emit it directly — a layer
stack is one small segment whose ``count`` column is scaled by the
number of layers in a single vectorized multiply, and a backward pass is
an array transform of the forward segment — so the compiler frontend
(fusion, tiling, batch simulation) never materializes per-operator
Python objects on the fast path.

**Bit-for-bit equivalence with the object builders is a hard
contract** (the same contract :mod:`repro.simulator.columnar` upholds
against the object-path simulator): the scalar expressions of
:func:`~repro.workloads.base.matmul_op`,
:func:`~repro.workloads.base.elementwise_op` and
:func:`~repro.workloads.base.collective_op` are mirrored
operation-for-operation by :class:`GraphTableBuilder`'s row helpers, and
``tests/test_graph_table.py`` asserts exact column equality against
``GraphTable.from_graph(<object builder output>)`` for every registry
workload.

The object path remains fully supported: :meth:`GraphTable.to_graph`
materializes the equivalent :class:`OperatorGraph` eagerly, and
:meth:`GraphTable.lazy_graph` defers operator construction until
somebody actually walks ``graph.operators`` (the oracle/compat path).
"""

from __future__ import annotations

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


class LazyList(list):
    """A list whose contents are produced by a builder on first access.

    Used for the compat surfaces of the columnar frontend (operator
    lists, operator-profile lists): the cold fast path never touches
    them, so their construction is deferred until somebody does.
    Materialization yields exactly the objects the eager path would have
    built.
    """

    __slots__ = ("_builder",)

    def __init__(self, builder=None):
        super().__init__()
        self._builder = builder

    @property
    def pending(self) -> bool:
        """Whether the list is still an unmaterialized placeholder."""
        return self._builder is not None

    def _materialize(self) -> None:
        builder, self._builder = self._builder, None
        if builder is not None:
            super().extend(builder())

    def __reduce__(self):
        # The builder is a process-local closure, so pickling
        # materializes and ships a plain list: the receiving process
        # gets exactly the items the eager path would have built.
        return (list, (list(self),))

    def _make_accessor(name):  # noqa: N805 - class-body helper
        def accessor(self, *args, **kwargs):
            self._materialize()
            return getattr(super(LazyList, self), name)(*args, **kwargs)

        accessor.__name__ = name
        return accessor

    for _name in (
        "__len__", "__iter__", "__getitem__", "__setitem__", "__delitem__",
        "__contains__", "__reversed__", "__eq__", "__ne__", "__add__",
        "__iadd__", "__mul__", "__imul__", "__repr__", "append", "extend",
        "insert", "remove", "pop", "clear", "index", "count", "copy",
        "sort", "reverse",
    ):
        locals()[_name] = _make_accessor(_name)
    del _name, _make_accessor


def _as_float(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


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

    # -- aggregate conveniences (mirror OperatorGraph's totals) ---------- #
    @property
    def total_sa_flops(self) -> float:
        return float((self.sa_flops * self.count).cumsum()[-1]) if self.n_ops else 0.0

    @property
    def total_vu_flops(self) -> float:
        return float((self.vu_flops * self.count).cumsum()[-1]) if self.n_ops else 0.0

    @property
    def total_hbm_bytes(self) -> float:
        return float((self.hbm_bytes * self.count).cumsum()[-1]) if self.n_ops else 0.0

    @property
    def total_ici_bytes(self) -> float:
        return float((self.ici_bytes * self.count).cumsum()[-1]) if self.n_ops else 0.0

    @property
    def num_operator_invocations(self) -> int:
        return int(self.count.sum()) if self.n_ops else 0

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

    def _graph_shell(self, operators: list) -> OperatorGraph:
        return OperatorGraph(
            name=self.name,
            phase=self.phase,
            operators=operators,
            parallelism=self.parallelism,
            iteration_unit=self.iteration_unit,
            work_per_iteration=self.work_per_iteration,
            model_name=self.model_name,
            batch_size=self.batch_size,
        )

    def to_graph(self) -> OperatorGraph:
        """Materialize the equivalent :class:`OperatorGraph` eagerly."""
        return self._graph_shell(self.to_operators())

    def lazy_graph(self) -> OperatorGraph:
        """An :class:`OperatorGraph` whose operator list materializes lazily.

        The graph's metadata (name, phase, parallelism, work accounting)
        is populated immediately; the per-operator objects are only
        built when ``graph.operators`` is actually walked.
        """
        return self._graph_shell(LazyList(self.to_operators))

    # -- vectorized stacking transforms ----------------------------------- #
    def scaled_counts(self, factor: int) -> "GraphTable":
        """A copy with every count multiplied by ``factor`` (layer stacking).

        The columnar analogue of calling
        :meth:`~repro.workloads.base.Operator.scaled_counts` on every
        operator of a layer segment: one vectorized multiply expands a
        per-layer segment to the whole stack.
        """
        table = GraphTable(**{**self._column_dict(), "count": self.count * factor})
        return table

    def _column_dict(self) -> dict:
        return {
            "name": self.name,
            "phase": self.phase,
            "names": self.names,
            "kind": self.kind,
            "sa_flops": self.sa_flops,
            "vu_flops": self.vu_flops,
            "hbm_read_bytes": self.hbm_read_bytes,
            "hbm_write_bytes": self.hbm_write_bytes,
            "ici_bytes": self.ici_bytes,
            "collective": self.collective,
            "dims_m": self.dims_m,
            "dims_k": self.dims_k,
            "dims_n": self.dims_n,
            "has_dims": self.has_dims,
            "count": self.count,
            "fusable": self.fusable,
            "dtype_bytes": self.dtype_bytes,
            "parallelism": self.parallelism,
            "iteration_unit": self.iteration_unit,
            "work_per_iteration": self.work_per_iteration,
            "model_name": self.model_name,
            "batch_size": self.batch_size,
        }

    def replace(self, **overrides) -> "GraphTable":
        """A copy with selected columns/metadata replaced."""
        return GraphTable(**{**self._column_dict(), **overrides})

    @classmethod
    def concat(cls, segments: list["GraphTable"], **metadata) -> "GraphTable":
        """Concatenate segments into one table (metadata from ``metadata``).

        Each segment contributes its rows in order; graph-level metadata
        (name, phase, parallelism, ...) comes from the keyword arguments
        with the first segment's values as defaults.
        """
        if not segments:
            raise ValueError("concat needs at least one segment")
        first = segments[0]
        columns = {
            "names": [name for seg in segments for name in seg.names],
            "kind": np.concatenate([seg.kind for seg in segments]),
            "sa_flops": np.concatenate([seg.sa_flops for seg in segments]),
            "vu_flops": np.concatenate([seg.vu_flops for seg in segments]),
            "hbm_read_bytes": np.concatenate(
                [seg.hbm_read_bytes for seg in segments]
            ),
            "hbm_write_bytes": np.concatenate(
                [seg.hbm_write_bytes for seg in segments]
            ),
            "ici_bytes": np.concatenate([seg.ici_bytes for seg in segments]),
            "collective": np.concatenate([seg.collective for seg in segments]),
            "dims_m": np.concatenate([seg.dims_m for seg in segments]),
            "dims_k": np.concatenate([seg.dims_k for seg in segments]),
            "dims_n": np.concatenate([seg.dims_n for seg in segments]),
            "has_dims": np.concatenate([seg.has_dims for seg in segments]),
            "count": np.concatenate([seg.count for seg in segments]),
            "fusable": np.concatenate([seg.fusable for seg in segments]),
            "dtype_bytes": np.concatenate([seg.dtype_bytes for seg in segments]),
        }
        meta = {
            "name": first.name,
            "phase": first.phase,
            "parallelism": first.parallelism,
            "iteration_unit": first.iteration_unit,
            "work_per_iteration": first.work_per_iteration,
            "model_name": first.model_name,
            "batch_size": first.batch_size,
        }
        meta.update(metadata)
        return cls(**columns, **meta)

    def columns_equal(self, other: "GraphTable") -> bool:
        """Exact (bit-for-bit) column and metadata equality."""
        return (
            self.names == other.names
            and bool(np.array_equal(self.kind, other.kind))
            and bool(np.array_equal(self.sa_flops, other.sa_flops))
            and bool(np.array_equal(self.vu_flops, other.vu_flops))
            and bool(np.array_equal(self.hbm_read_bytes, other.hbm_read_bytes))
            and bool(np.array_equal(self.hbm_write_bytes, other.hbm_write_bytes))
            and bool(np.array_equal(self.ici_bytes, other.ici_bytes))
            and bool(np.array_equal(self.collective, other.collective))
            and bool(np.array_equal(self.dims_m, other.dims_m))
            and bool(np.array_equal(self.dims_k, other.dims_k))
            and bool(np.array_equal(self.dims_n, other.dims_n))
            and bool(np.array_equal(self.has_dims, other.has_dims))
            and bool(np.array_equal(self.count, other.count))
            and bool(np.array_equal(self.fusable, other.fusable))
            and bool(np.array_equal(self.dtype_bytes, other.dtype_bytes))
            and self.name == other.name
            and self.phase == other.phase
            and self.parallelism == other.parallelism
            and self.iteration_unit == other.iteration_unit
            and self.work_per_iteration == other.work_per_iteration
            and self.model_name == other.model_name
            and self.batch_size == other.batch_size
        )


class GraphTableBuilder:
    """Row-append builder for :class:`GraphTable` segments.

    The ``matmul``/``elementwise``/``collective`` helpers replicate the
    scalar field expressions of the corresponding operator factories in
    :mod:`repro.workloads.base` **verbatim** — the equivalence suite
    holds the two implementations bit-identical.  Rows are buffered in
    plain Python lists (no per-operator objects, no dataclass
    validation) and converted to aligned arrays once by :meth:`build`.
    """

    def __init__(
        self,
        name: str,
        phase: WorkloadPhase,
        parallelism: ParallelismConfig | None = None,
        iteration_unit: str = "iteration",
        work_per_iteration: float = 1.0,
        model_name: str = "",
        batch_size: int = 1,
    ):
        self.name = name
        self.phase = phase
        self.parallelism = parallelism or ParallelismConfig()
        self.iteration_unit = iteration_unit
        self.work_per_iteration = work_per_iteration
        self.model_name = model_name
        self.batch_size = batch_size
        # One buffered list per row (transposed into columns by build());
        # field order: name, kind, sa, vu, read, write, ici, collective,
        # m, k, n, has_dims, count, fusable, dtype_bytes.
        self._rows: list[list] = []

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------ #
    def operator(
        self,
        name: str,
        kind: OpKind,
        sa_flops: float = 0.0,
        vu_flops: float = 0.0,
        hbm_read_bytes: float = 0.0,
        hbm_write_bytes: float = 0.0,
        ici_bytes: float = 0.0,
        collective: CollectiveKind | None = None,
        dims: tuple[int, int, int] | None = None,
        count: int = 1,
        fusable: bool = True,
        dtype_bytes: int = 2,
    ) -> int:
        """Append one raw operator row (mirrors ``Operator(...)``).

        Returns the row index (for :meth:`override`).  Performs the same
        validation as ``Operator.__post_init__``.
        """
        if count < 1:
            raise ValueError(f"operator {name!r} has count < 1")
        if (
            sa_flops < 0
            or vu_flops < 0
            or hbm_read_bytes < 0
            or hbm_write_bytes < 0
            or ici_bytes < 0
        ):
            for attr, value in (
                ("sa_flops", sa_flops),
                ("vu_flops", vu_flops),
                ("hbm_read_bytes", hbm_read_bytes),
                ("hbm_write_bytes", hbm_write_bytes),
                ("ici_bytes", ici_bytes),
            ):
                if value < 0:
                    raise ValueError(f"operator {name!r} has negative {attr}")
        if kind is OpKind.COLLECTIVE and collective is None:
            raise ValueError(f"collective operator {name!r} needs a CollectiveKind")
        if dims is None:
            m, k, n, has_dims = 1, 1, 1, False
        else:
            m, k, n = dims
            has_dims = True
        self._rows.append(
            [
                name,
                KIND_CODE[kind],
                sa_flops,
                vu_flops,
                hbm_read_bytes,
                hbm_write_bytes,
                ici_bytes,
                NO_COLLECTIVE if collective is None else COLLECTIVE_CODE[collective],
                m,
                k,
                n,
                has_dims,
                count,
                fusable,
                dtype_bytes,
            ]
        )
        return len(self._rows) - 1

    def matmul(
        self,
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
    ) -> int:
        """Row equivalent of :func:`repro.workloads.base.matmul_op`."""
        hbm_read = 0.0
        if read_activations:
            hbm_read += m * k * dtype_bytes
        if read_weights:
            hbm_read += k * n * dtype_bytes
        hbm_write = m * n * dtype_bytes if write_output else 0.0
        return self.operator(
            name=name,
            kind=kind,
            sa_flops=2.0 * m * k * n,
            vu_flops=vu_postprocess_flops_per_output * (m * n),
            hbm_read_bytes=hbm_read,
            hbm_write_bytes=hbm_write,
            dims=(m, k, n),
            count=count,
            dtype_bytes=dtype_bytes,
        )

    def elementwise(
        self,
        name: str,
        elements: float,
        flops_per_element: float = 1.0,
        read_factor: float = 1.0,
        write_factor: float = 1.0,
        dtype_bytes: int = 2,
        count: int = 1,
        kind: OpKind = OpKind.ELEMENTWISE,
        streams_hbm: bool = True,
    ) -> int:
        """Row equivalent of :func:`repro.workloads.base.elementwise_op`."""
        hbm_read = elements * dtype_bytes * read_factor if streams_hbm else 0.0
        hbm_write = elements * dtype_bytes * write_factor if streams_hbm else 0.0
        return self.operator(
            name=name,
            kind=kind,
            vu_flops=elements * flops_per_element,
            hbm_read_bytes=hbm_read,
            hbm_write_bytes=hbm_write,
            count=count,
            dtype_bytes=dtype_bytes,
        )

    def collective(
        self,
        name: str,
        kind: CollectiveKind,
        payload_bytes: float,
        num_chips: int,
        count: int = 1,
    ) -> int:
        """Row equivalent of :func:`repro.workloads.base.collective_op`."""
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
        return self.operator(
            name=name,
            kind=OpKind.COLLECTIVE,
            collective=kind,
            ici_bytes=wire_bytes,
            hbm_read_bytes=payload_bytes,
            hbm_write_bytes=payload_bytes,
            vu_flops=payload_bytes / 2.0 if kind is CollectiveKind.ALL_REDUCE else 0.0,
            count=count,
        )

    #: Buffered-row offsets of the fields :meth:`override` may rewrite.
    _FIELD_OFFSETS = {
        "sa_flops": 2,
        "vu_flops": 3,
        "hbm_read_bytes": 4,
        "hbm_write_bytes": 5,
        "ici_bytes": 6,
        "count": 12,
    }

    def override(self, index: int, **fields) -> None:
        """Overwrite numeric fields of a buffered row (post-build edits).

        Mirrors the object builders assigning e.g.
        ``scores.hbm_read_bytes = ...`` after construction.
        """
        row = self._rows[index]
        for key, value in fields.items():
            row[self._FIELD_OFFSETS[key]] = value

    # ------------------------------------------------------------------ #
    def build(self) -> GraphTable:
        """Freeze the buffered rows into a :class:`GraphTable`."""
        (
            names, kind, sa_flops, vu_flops, hbm_read, hbm_write, ici,
            collective, dims_m, dims_k, dims_n, has_dims, count, fusable,
            dtype_bytes,
        ) = zip(*self._rows) if self._rows else ((),) * 15
        numeric = np.array(
            [sa_flops, vu_flops, hbm_read, hbm_write, ici,
             dims_m, dims_k, dims_n, count, dtype_bytes],
            dtype=np.float64,
        )
        return GraphTable(
            name=self.name,
            phase=self.phase,
            names=list(names),
            kind=np.asarray(kind, dtype=np.int64),
            sa_flops=numeric[0],
            vu_flops=numeric[1],
            hbm_read_bytes=numeric[2],
            hbm_write_bytes=numeric[3],
            ici_bytes=numeric[4],
            collective=np.asarray(collective, dtype=np.int64),
            dims_m=numeric[5],
            dims_k=numeric[6],
            dims_n=numeric[7],
            has_dims=np.asarray(has_dims, dtype=bool),
            count=numeric[8],
            fusable=np.asarray(fusable, dtype=bool),
            dtype_bytes=numeric[9],
            parallelism=self.parallelism,
            iteration_unit=self.iteration_unit,
            work_per_iteration=self.work_per_iteration,
            model_name=self.model_name,
            batch_size=self.batch_size,
        )


__all__ = [
    "COLLECTIVE_CODE",
    "COLLECTIVE_LIST",
    "GraphTable",
    "GraphTableBuilder",
    "KIND_CODE",
    "KIND_LIST",
    "LazyList",
    "NO_COLLECTIVE",
]
