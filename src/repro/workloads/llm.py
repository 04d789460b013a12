"""Large language model workload generators (Llama family).

Builds per-chip operator graphs for the three LLM phases the paper
evaluates: training, inference prefill and inference decode (Table 1).
The generator applies the parallelism configuration (data / tensor /
pipeline) directly, emitting the corresponding collectives, which mirrors
how the paper's trace generator shards model graphs across an NPU pod.
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
class LlamaConfig:
    """Architectural hyper-parameters of a Llama-style transformer."""

    name: str
    num_layers: int
    hidden_dim: int
    num_heads: int
    num_kv_heads: int
    head_dim: int
    ffn_dim: int
    vocab_size: int

    @property
    def attention_params(self) -> int:
        """Parameters of the attention projections in one layer."""
        qkv = self.hidden_dim * (self.num_heads + 2 * self.num_kv_heads) * self.head_dim
        out = self.num_heads * self.head_dim * self.hidden_dim
        return qkv + out

    @property
    def mlp_params(self) -> int:
        """Parameters of the gated MLP in one layer."""
        return 3 * self.hidden_dim * self.ffn_dim

    @property
    def params_per_layer(self) -> int:
        return self.attention_params + self.mlp_params

    def kv_cache_bytes_per_token(self, dtype_bytes: int = 2) -> int:
        """KV-cache bytes stored per token across all layers."""
        return 2 * self.num_layers * self.num_kv_heads * self.head_dim * dtype_bytes


LLAMA_CONFIGS: dict[str, LlamaConfig] = {
    "llama3-8b": LlamaConfig("llama3-8b", 32, 4096, 32, 8, 128, 14336, 128256),
    "llama2-13b": LlamaConfig("llama2-13b", 40, 5120, 40, 40, 128, 13824, 32000),
    "llama3-70b": LlamaConfig("llama3-70b", 80, 8192, 64, 8, 128, 28672, 128256),
    "llama3.1-405b": LlamaConfig("llama3.1-405b", 126, 16384, 128, 8, 128, 53248, 128256),
}


def get_llama_config(name: str) -> LlamaConfig:
    """Look up a Llama configuration by (case-insensitive) name."""
    key = name.strip().lower()
    if key not in LLAMA_CONFIGS:
        raise KeyError(f"unknown LLM {name!r}; available: {', '.join(LLAMA_CONFIGS)}")
    return LLAMA_CONFIGS[key]


# ---------------------------------------------------------------------- #
# Memory footprint (used by the parallelism search to prune configs)
# ---------------------------------------------------------------------- #
def weights_per_chip_bytes(
    cfg: LlamaConfig, parallelism: ParallelismConfig, dtype_bytes: int = 2
) -> float:
    """Model weight bytes resident on one chip."""
    layers_local = math.ceil(cfg.num_layers / parallelism.pipeline)
    layer_bytes = cfg.params_per_layer * dtype_bytes / parallelism.tensor
    embed_bytes = 2 * cfg.vocab_size * cfg.hidden_dim * dtype_bytes / parallelism.tensor
    return layers_local * layer_bytes + embed_bytes


def memory_per_chip_bytes(
    cfg: LlamaConfig,
    phase: WorkloadPhase,
    parallelism: ParallelismConfig,
    batch_size: int,
    seq_len: int,
    dtype_bytes: int = 2,
) -> float:
    """Total HBM footprint per chip (weights, optimizer state, activations, KV)."""
    weights = weights_per_chip_bytes(cfg, parallelism, dtype_bytes)
    local_batch = max(1, batch_size // parallelism.data)
    layers_local = math.ceil(cfg.num_layers / parallelism.pipeline)
    if phase is WorkloadPhase.TRAINING:
        # Training state assumes the memory optimizations any production
        # stack applies at these pod sizes (the paper's Table 4 trains
        # Llama3.1-405B on 16 chips): optimizer moments sharded across the
        # pod (ZeRO-style), gradients materialized layer-by-layer, and
        # activation checkpointing (roughly half of the layer inputs kept).
        gradients = 0.25 * weights
        optimizer = weights * 4.0 / max(1, parallelism.num_chips)
        activations = (
            0.5
            * local_batch
            * seq_len
            * cfg.hidden_dim
            * dtype_bytes
            * layers_local
            / parallelism.tensor
        )
        return weights + gradients + optimizer + activations
    kv_tokens = local_batch * seq_len
    kv_cache = (
        kv_tokens
        * cfg.kv_cache_bytes_per_token(dtype_bytes)
        * layers_local
        / cfg.num_layers
        / parallelism.tensor
    )
    if phase is WorkloadPhase.DECODE:
        # Decode activations are per generated token (a handful of
        # hidden-state buffers), not per context token.
        activations = local_batch * cfg.hidden_dim * dtype_bytes * 8
    else:
        activations = local_batch * seq_len * cfg.hidden_dim * dtype_bytes * 2
    return weights + kv_cache + activations


# ---------------------------------------------------------------------- #
# Graph builders
# ---------------------------------------------------------------------- #
def _transformer_layer_ops(
    cfg: LlamaConfig,
    tokens: int,
    kv_len: int,
    sequences: int,
    parallelism: ParallelismConfig,
    decode: bool,
    dtype_bytes: int = 2,
) -> list[Operator]:
    """Operators of one transformer layer on one chip.

    ``tokens`` is the number of query tokens processed on this chip,
    ``kv_len`` the key/value sequence length attended to, ``sequences``
    the number of independent sequences (for per-sequence attention).
    """
    tp = parallelism.tensor
    heads_local = max(1, cfg.num_heads // tp)
    kv_heads_local = max(1, cfg.num_kv_heads // tp)
    dh = cfg.head_dim
    d = cfg.hidden_dim
    f_local = max(1, cfg.ffn_dim // tp)
    qkv_out = (heads_local + 2 * kv_heads_local) * dh

    ops: list[Operator] = []
    ops.append(
        elementwise_op("attn_rmsnorm", tokens * d, flops_per_element=16.0, kind=OpKind.LAYERNORM)
    )
    ops.append(matmul_op("qkv_proj", m=tokens, k=d, n=qkv_out, dtype_bytes=dtype_bytes))
    ops.append(
        elementwise_op(
            "rope",
            tokens * (heads_local + kv_heads_local) * dh,
            flops_per_element=12.0,
            streams_hbm=False,
        )
    )
    if decode:
        # Append new K/V to the cache, then read the whole cache back.
        kv_write = tokens * 2 * kv_heads_local * dh * dtype_bytes
        kv_read = sequences * kv_len * 2 * kv_heads_local * dh * dtype_bytes
        ops.append(
            Operator(
                name="kv_cache_update",
                kind=OpKind.DMA,
                hbm_write_bytes=kv_write,
                count=1,
            )
        )
    else:
        kv_read = 0.0
    per_seq_tokens = max(1, tokens // max(1, sequences))
    # Attention scores and attention-weighted values.  Query heads that
    # share a KV head (grouped-query attention) are packed into the M
    # dimension of a single matmul, which is how production kernels keep
    # the systolic array from degenerating to one row per decode step.
    gqa_group = max(1, heads_local // kv_heads_local)
    attn_count = sequences * kv_heads_local
    attn_m = per_seq_tokens * gqa_group
    scores = matmul_op(
        "attn_scores",
        m=attn_m,
        k=dh,
        n=kv_len,
        dtype_bytes=dtype_bytes,
        count=attn_count,
        read_weights=False,
        read_activations=False,
        write_output=False,
        vu_postprocess_flops_per_output=0.0,
        kind=OpKind.ATTENTION,
    )
    if decode:
        scores.hbm_read_bytes = kv_read / (2.0 * attn_count)
    ops.append(scores)
    ops.append(
        elementwise_op(
            "attn_softmax",
            attn_m * kv_len,
            flops_per_element=10.0,
            streams_hbm=False,
            kind=OpKind.SOFTMAX,
            count=attn_count,
        )
    )
    av = matmul_op(
        "attn_av",
        m=attn_m,
        k=kv_len,
        n=dh,
        dtype_bytes=dtype_bytes,
        count=attn_count,
        read_weights=False,
        read_activations=False,
        write_output=False,
        vu_postprocess_flops_per_output=0.0,
        kind=OpKind.ATTENTION,
    )
    if decode:
        av.hbm_read_bytes = kv_read / (2.0 * attn_count)
    ops.append(av)
    ops.append(matmul_op("out_proj", m=tokens, k=heads_local * dh, n=d, dtype_bytes=dtype_bytes))
    if tp > 1:
        ops.append(
            collective_op(
                "attn_allreduce",
                CollectiveKind.ALL_REDUCE,
                payload_bytes=tokens * d * dtype_bytes,
                num_chips=tp,
            )
        )
    ops.append(elementwise_op("attn_residual", tokens * d, flops_per_element=2.0))
    ops.append(
        elementwise_op("mlp_rmsnorm", tokens * d, flops_per_element=16.0, kind=OpKind.LAYERNORM)
    )
    ops.append(matmul_op("gate_up_proj", m=tokens, k=d, n=2 * f_local, dtype_bytes=dtype_bytes))
    ops.append(
        elementwise_op("silu_mul", tokens * f_local, flops_per_element=8.0, streams_hbm=False)
    )
    ops.append(matmul_op("down_proj", m=tokens, k=f_local, n=d, dtype_bytes=dtype_bytes))
    if tp > 1:
        ops.append(
            collective_op(
                "mlp_allreduce",
                CollectiveKind.ALL_REDUCE,
                payload_bytes=tokens * d * dtype_bytes,
                num_chips=tp,
            )
        )
    ops.append(elementwise_op("mlp_residual", tokens * d, flops_per_element=2.0))
    return ops


def build_prefill_graph(
    model: str | LlamaConfig,
    batch_size: int = 1,
    seq_len: int = 4096,
    parallelism: ParallelismConfig | None = None,
) -> OperatorGraph:
    """Operator graph for one prefill pass (all layers, one chip)."""
    cfg = model if isinstance(model, LlamaConfig) else get_llama_config(model)
    parallelism = parallelism or ParallelismConfig()
    local_batch = max(1, batch_size // parallelism.data)
    layers_local = math.ceil(cfg.num_layers / parallelism.pipeline)
    tokens = local_batch * seq_len

    graph = OperatorGraph(
        name=f"{cfg.name}-prefill",
        phase=WorkloadPhase.PREFILL,
        parallelism=parallelism,
        iteration_unit="token",
        work_per_iteration=float(batch_size * seq_len),
        model_name=cfg.name,
        batch_size=batch_size,
    )
    graph.add(
        Operator(
            name="embedding_lookup",
            kind=OpKind.EMBEDDING,
            hbm_read_bytes=tokens * cfg.hidden_dim * 2,
            hbm_write_bytes=tokens * cfg.hidden_dim * 2,
            vu_flops=tokens * cfg.hidden_dim,
        )
    )
    layer_ops = _transformer_layer_ops(
        cfg, tokens, seq_len, local_batch, parallelism, decode=False
    )
    for op in layer_ops:
        graph.add(op.scaled_counts(layers_local))
    if parallelism.pipeline > 1:
        graph.add(
            collective_op(
                "pipeline_send_recv",
                CollectiveKind.SEND_RECV,
                payload_bytes=tokens * cfg.hidden_dim * 2,
                num_chips=parallelism.pipeline,
                count=2,
            )
        )
    graph.add(
        matmul_op(
            "lm_head",
            m=local_batch,
            k=cfg.hidden_dim,
            n=max(1, cfg.vocab_size // parallelism.tensor),
        )
    )
    graph.validate()
    return graph


def build_decode_graph(
    model: str | LlamaConfig,
    batch_size: int = 1,
    context_len: int = 4096,
    output_len: int = 512,
    parallelism: ParallelismConfig | None = None,
) -> OperatorGraph:
    """Operator graph for decoding one token per sequence (one chip)."""
    cfg = model if isinstance(model, LlamaConfig) else get_llama_config(model)
    parallelism = parallelism or ParallelismConfig()
    local_batch = max(1, batch_size // parallelism.data)
    layers_local = math.ceil(cfg.num_layers / parallelism.pipeline)
    # Average KV length over the generation of ``output_len`` tokens.
    kv_len = context_len + output_len // 2

    graph = OperatorGraph(
        name=f"{cfg.name}-decode",
        phase=WorkloadPhase.DECODE,
        parallelism=parallelism,
        iteration_unit="token",
        work_per_iteration=float(batch_size),
        model_name=cfg.name,
        batch_size=batch_size,
    )
    graph.add(
        Operator(
            name="embedding_lookup",
            kind=OpKind.EMBEDDING,
            hbm_read_bytes=local_batch * cfg.hidden_dim * 2,
            hbm_write_bytes=local_batch * cfg.hidden_dim * 2,
            vu_flops=local_batch * cfg.hidden_dim,
        )
    )
    layer_ops = _transformer_layer_ops(
        cfg, local_batch, kv_len, local_batch, parallelism, decode=True
    )
    for op in layer_ops:
        graph.add(op.scaled_counts(layers_local))
    if parallelism.pipeline > 1:
        graph.add(
            collective_op(
                "pipeline_send_recv",
                CollectiveKind.SEND_RECV,
                payload_bytes=local_batch * cfg.hidden_dim * 2,
                num_chips=parallelism.pipeline,
                count=2,
            )
        )
    graph.add(
        matmul_op(
            "lm_head",
            m=local_batch,
            k=cfg.hidden_dim,
            n=max(1, cfg.vocab_size // parallelism.tensor),
        )
    )
    graph.validate()
    return graph


def build_training_graph(
    model: str | LlamaConfig,
    batch_size: int = 32,
    seq_len: int = 4096,
    parallelism: ParallelismConfig | None = None,
) -> OperatorGraph:
    """Operator graph for one training step (forward + backward + update)."""
    cfg = model if isinstance(model, LlamaConfig) else get_llama_config(model)
    parallelism = parallelism or ParallelismConfig()
    local_batch = max(1, batch_size // parallelism.data)
    layers_local = math.ceil(cfg.num_layers / parallelism.pipeline)
    tokens = local_batch * seq_len

    graph = OperatorGraph(
        name=f"{cfg.name}-training",
        phase=WorkloadPhase.TRAINING,
        parallelism=parallelism,
        iteration_unit="step",
        work_per_iteration=1.0,
        model_name=cfg.name,
        batch_size=batch_size,
    )
    forward_ops = _transformer_layer_ops(
        cfg, tokens, seq_len, local_batch, parallelism, decode=False
    )
    for op in forward_ops:
        graph.add(op.scaled_counts(layers_local))
    # Backward pass: activation gradients + weight gradients roughly double
    # the matmul work of the forward pass; vector work also doubles.
    for op in forward_ops:
        backward = Operator(
            name=f"{op.name}_bwd",
            kind=op.kind,
            sa_flops=2.0 * op.sa_flops,
            vu_flops=2.0 * op.vu_flops,
            hbm_read_bytes=2.0 * op.hbm_read_bytes,
            hbm_write_bytes=2.0 * op.hbm_write_bytes,
            ici_bytes=op.ici_bytes,
            collective=op.collective,
            dims=op.dims,
            count=op.count * layers_local,
            dtype_bytes=op.dtype_bytes,
        )
        graph.add(backward)
    params_local = (
        cfg.params_per_layer * layers_local / parallelism.tensor
        + 2 * cfg.vocab_size * cfg.hidden_dim / parallelism.tensor
    )
    if parallelism.data > 1:
        graph.add(
            collective_op(
                "grad_allreduce",
                CollectiveKind.ALL_REDUCE,
                payload_bytes=params_local * 2,
                num_chips=parallelism.data,
            )
        )
    if parallelism.pipeline > 1:
        graph.add(
            collective_op(
                "pipeline_send_recv",
                CollectiveKind.SEND_RECV,
                payload_bytes=tokens * cfg.hidden_dim * 2,
                num_chips=parallelism.pipeline,
                count=4,
            )
        )
    graph.add(
        Operator(
            name="optimizer_update",
            kind=OpKind.OPTIMIZER,
            vu_flops=params_local * 12.0,
            hbm_read_bytes=params_local * 14.0,
            hbm_write_bytes=params_local * 14.0,
        )
    )
    graph.validate()
    return graph


__all__ = [
    "LLAMA_CONFIGS",
    "LlamaConfig",
    "build_decode_graph",
    "build_prefill_graph",
    "build_training_graph",
    "get_llama_config",
    "memory_per_chip_bytes",
    "weights_per_chip_bytes",
]
