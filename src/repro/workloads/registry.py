"""Registry of benchmark workloads (Table 1 of the paper).

Each :class:`WorkloadSpec` bundles a model, an execution phase, a
default batch size and chip count, and a graph builder; the LLM
sequence lengths are the module constants :data:`LLM_SEQ_LEN` and
:data:`LLM_OUTPUT_LEN`.  The registry also
provides the default pod configurations used in the evaluation (the
Table 4 analogue for this reproduction) and a simple heuristic for
choosing a parallelism layout given a chip count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.workloads.base import OperatorGraph, ParallelismConfig, WorkloadPhase

if TYPE_CHECKING:
    from repro.workloads.table import GraphTable

#: Sequence length of every LLM workload (prompt tokens per sequence in
#: prefill and training, context tokens in decode).
LLM_SEQ_LEN = 4096
#: Tokens generated per sequence by the decode workloads.
LLM_OUTPUT_LEN = 512


def llm_parallelism(
    model: str,
    phase: WorkloadPhase,
    num_chips: int,
    hbm_capacity_bytes: float,
    batch_size: int | None = None,
) -> ParallelismConfig:
    """Choose a (tensor, pipeline, data) layout for an LLM on ``num_chips``.

    Tensor parallelism is grown (up to 8-way) until the per-chip memory
    footprint fits in HBM, then pipeline parallelism, and any remaining
    chips are used for data parallelism.
    """
    from repro.workloads import llm

    cfg = llm.get_llama_config(model)
    if batch_size is None:
        batch_size = 256 if phase is WorkloadPhase.DECODE else 32
    best: ParallelismConfig | None = None
    # Prefer tensor parallelism (within a node) before pipeline stages:
    # pipeline bubbles hurt latency-bound inference much more than the
    # extra all-reduce traffic of tensor sharding.
    for pipeline in (1, 2, 4, 8, 16):
        if pipeline > num_chips:
            break
        for tensor in (1, 2, 4, 8):
            if tensor * pipeline > num_chips:
                break
            if num_chips % (tensor * pipeline) != 0:
                continue
            data = num_chips // (tensor * pipeline)
            candidate = ParallelismConfig(data=data, tensor=tensor, pipeline=pipeline)
            footprint = llm.memory_per_chip_bytes(
                cfg, phase, candidate, batch_size=batch_size, seq_len=LLM_SEQ_LEN
            )
            if footprint <= hbm_capacity_bytes:
                if best is None:
                    best = candidate
                break
        if best is not None:
            break
    if best is None:
        # Fall back to the most aggressive sharding available.
        tensor = min(8, num_chips)
        pipeline = num_chips // tensor
        best = ParallelismConfig(data=1, tensor=tensor, pipeline=max(1, pipeline))
    return best


def flat_data_parallelism(num_chips: int) -> ParallelismConfig:
    """Pure data parallelism (used by DLRM and stable diffusion)."""
    return ParallelismConfig(data=num_chips, tensor=1, pipeline=1)


@dataclass(frozen=True)
class WorkloadSpec:
    """A named benchmark workload with defaults from Tables 1 and 4."""

    name: str
    model: str
    phase: WorkloadPhase
    family: str  # "llm", "dlrm", "diffusion"
    default_batch_size: int
    default_num_chips: int
    builder: Callable[..., OperatorGraph] = field(repr=False, default=None)
    parallelism_fn: Callable[[int, float], ParallelismConfig] = field(
        repr=False, default=None
    )
    memory_fn: Callable[[ParallelismConfig, int], float] = field(repr=False, default=None)

    def parallelism_for(self, num_chips: int, hbm_capacity_bytes: float) -> ParallelismConfig:
        """Pick a parallelism layout for this workload on ``num_chips``."""
        return self.parallelism_fn(num_chips, hbm_capacity_bytes)

    def memory_per_chip(self, parallelism: ParallelismConfig, batch_size: int) -> float:
        """Estimate the per-chip HBM footprint in bytes."""
        return self.memory_fn(parallelism, batch_size)

    def build_graph(
        self,
        batch_size: int | None = None,
        parallelism: ParallelismConfig | None = None,
    ) -> OperatorGraph:
        """Build the per-chip operator graph."""
        batch = batch_size if batch_size is not None else self.default_batch_size
        parallelism = parallelism or ParallelismConfig()
        return self.builder(batch, parallelism)

    def build_table(
        self,
        batch_size: int | None = None,
        parallelism: ParallelismConfig | None = None,
    ) -> GraphTable:
        """Build the per-chip graph in columnar (:class:`GraphTable`) form.

        The columns are read off :meth:`build_graph`'s operator graph, so
        the object builder stays the one definition of the workload.
        """
        from repro.workloads.table import GraphTable

        return GraphTable.from_graph(self.build_graph(batch_size, parallelism))


def _llm_spec(model: str, phase: WorkloadPhase, batch: int, chips: int) -> WorkloadSpec:
    def build(batch_size: int, parallelism: ParallelismConfig) -> OperatorGraph:
        from repro.workloads import llm

        cfg = llm.get_llama_config(model)
        if phase is WorkloadPhase.TRAINING:
            return llm.build_training_graph(cfg, batch_size, LLM_SEQ_LEN, parallelism)
        if phase is WorkloadPhase.PREFILL:
            return llm.build_prefill_graph(cfg, batch_size, LLM_SEQ_LEN, parallelism)
        return llm.build_decode_graph(
            cfg, batch_size, LLM_SEQ_LEN, LLM_OUTPUT_LEN, parallelism
        )

    def memory(parallelism: ParallelismConfig, batch_size: int) -> float:
        from repro.workloads import llm

        cfg = llm.get_llama_config(model)
        return llm.memory_per_chip_bytes(cfg, phase, parallelism, batch_size, LLM_SEQ_LEN)

    def pick(num_chips: int, hbm_bytes: float) -> ParallelismConfig:
        return llm_parallelism(model, phase, num_chips, hbm_bytes)

    return WorkloadSpec(
        name=f"{model}-{phase.value}",
        model=model,
        phase=phase,
        family="llm",
        default_batch_size=batch,
        default_num_chips=chips,
        builder=build,
        parallelism_fn=pick,
        memory_fn=memory,
    )


def _dlrm_spec(model: str, batch: int, chips: int) -> WorkloadSpec:
    def build(batch_size: int, parallelism: ParallelismConfig) -> OperatorGraph:
        from repro.workloads import dlrm

        return dlrm.build_dlrm_graph(dlrm.get_dlrm_config(model), batch_size, parallelism)

    def memory(parallelism: ParallelismConfig, batch_size: int) -> float:
        from repro.workloads import dlrm

        return dlrm.memory_per_chip_bytes(
            dlrm.get_dlrm_config(model), parallelism, batch_size
        )

    def pick(num_chips: int, hbm_bytes: float) -> ParallelismConfig:
        return flat_data_parallelism(num_chips)

    return WorkloadSpec(
        name=f"{model}-inference",
        model=model,
        phase=WorkloadPhase.INFERENCE,
        family="dlrm",
        default_batch_size=batch,
        default_num_chips=chips,
        builder=build,
        parallelism_fn=pick,
        memory_fn=memory,
    )


def _diffusion_spec(model: str, batch: int, chips: int) -> WorkloadSpec:
    dit = model == "dit-xl"

    def build(batch_size: int, parallelism: ParallelismConfig) -> OperatorGraph:
        from repro.workloads import diffusion

        builder = diffusion.build_dit_graph if dit else diffusion.build_gligen_graph
        return builder(batch_size, parallelism)

    def memory(parallelism: ParallelismConfig, batch_size: int) -> float:
        # Diffusion models have small weights (< 4 GB); activations per
        # locally processed image dominate.
        local_batch = max(1, batch_size // parallelism.num_chips)
        return 4e9 + local_batch * 64e6

    def pick(num_chips: int, hbm_bytes: float) -> ParallelismConfig:
        return flat_data_parallelism(num_chips)

    return WorkloadSpec(
        name=f"{model}-inference",
        model=model,
        phase=WorkloadPhase.INFERENCE,
        family="diffusion",
        default_batch_size=batch,
        default_num_chips=chips,
        builder=build,
        parallelism_fn=pick,
        memory_fn=memory,
    )


# Default chip counts and batch sizes (NPU-D pods), in the spirit of
# Table 4 of the paper.  The Table 4 benchmark regenerates these choices
# with the SLO search in :mod:`repro.core.slo`.
_SPECS: dict[str, WorkloadSpec] = {}


def _register(spec: WorkloadSpec) -> None:
    _SPECS[spec.name] = spec


for _model, _train, _prefill, _decode in (
    # (model, (chips, batch) training, prefill, decode)
    ("llama3-8b", (4, 32), (1, 4), (1, 8)),
    ("llama2-13b", (4, 32), (1, 4), (1, 4)),
    ("llama3-70b", (8, 32), (4, 8), (8, 256)),
    ("llama3.1-405b", (16, 32), (16, 16), (16, 256)),
):
    _register(_llm_spec(_model, WorkloadPhase.TRAINING, _train[1], _train[0]))
    _register(_llm_spec(_model, WorkloadPhase.PREFILL, _prefill[1], _prefill[0]))
    _register(_llm_spec(_model, WorkloadPhase.DECODE, _decode[1], _decode[0]))

for _model in ("dlrm-s", "dlrm-m", "dlrm-l"):
    _register(_dlrm_spec(_model, batch=4096, chips=8))

_register(_diffusion_spec("dit-xl", batch=8192, chips=64))
_register(_diffusion_spec("gligen", batch=256, chips=64))


_ALIASES = {
    "llama3-8b-inference-prefill": "llama3-8b-prefill",
    "llama3-8b-inference-decode": "llama3-8b-decode",
    "dlrm-s": "dlrm-s-inference",
    "dlrm-m": "dlrm-m-inference",
    "dlrm-l": "dlrm-l-inference",
    "dit-xl": "dit-xl-inference",
    "gligen": "gligen-inference",
}


def list_workloads() -> list[str]:
    """Names of all registered workloads."""
    return list(_SPECS)


def get_workload(name: str) -> WorkloadSpec:
    """Look up a workload spec by name (case-insensitive, alias-aware)."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _SPECS:
        raise KeyError(f"unknown workload {name!r}; available: {', '.join(_SPECS)}")
    return _SPECS[key]


def workloads_by_family(family: str) -> list[WorkloadSpec]:
    """All workloads of one family ('llm', 'dlrm' or 'diffusion')."""
    return [spec for spec in _SPECS.values() if spec.family == family]


__all__ = [
    "WorkloadSpec",
    "flat_data_parallelism",
    "get_workload",
    "list_workloads",
    "llm_parallelism",
    "workloads_by_family",
]
