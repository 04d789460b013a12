"""Stable-diffusion workload generators (DiT-XL and GLIGEN).

The paper evaluates two text/label-to-image models at 512x512 resolution
(Table 1):

* **DiT-XL** — a pure transformer over latent patches.  Its attention
  head size (72) is smaller than the systolic array width (128), which is
  the paper's example of SA *spatial* underutilization (Figure 5).
* **GLIGEN** — a U-Net based model whose image size and attention head
  size shrink in deeper layers, again underutilizing the SA.

Both graphs cover the full denoising loop, so one iteration produces a
complete batch of images.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.base import (
    Operator,
    OperatorGraph,
    OpKind,
    ParallelismConfig,
    WorkloadPhase,
    elementwise_op,
    matmul_op,
)


@dataclass(frozen=True)
class DiTConfig:
    """Diffusion-transformer hyper-parameters (DiT-XL/2 at 512x512)."""

    name: str = "dit-xl"
    image_size: int = 512
    latent_downsample: int = 8
    patch_size: int = 2
    hidden_dim: int = 1152
    num_layers: int = 28
    num_heads: int = 16
    mlp_ratio: float = 4.0
    denoising_steps: int = 50

    @property
    def latent_size(self) -> int:
        return self.image_size // self.latent_downsample

    @property
    def num_tokens(self) -> int:
        return (self.latent_size // self.patch_size) ** 2

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads

    @property
    def ffn_dim(self) -> int:
        return int(self.hidden_dim * self.mlp_ratio)


@dataclass(frozen=True)
class UNetStage:
    """One resolution level of a U-Net."""

    channels: int
    spatial: int
    num_resblocks: int
    has_attention: bool
    num_heads: int = 8


@dataclass(frozen=True)
class GLIGENConfig:
    """GLIGEN (Stable-Diffusion U-Net with gated attention) parameters."""

    name: str = "gligen"
    image_size: int = 512
    latent_downsample: int = 8
    context_len: int = 77
    context_dim: int = 768
    denoising_steps: int = 50
    stages: tuple[UNetStage, ...] = (
        UNetStage(channels=320, spatial=64, num_resblocks=2, has_attention=True),
        UNetStage(channels=640, spatial=32, num_resblocks=2, has_attention=True),
        UNetStage(channels=1280, spatial=16, num_resblocks=2, has_attention=True),
        UNetStage(channels=1280, spatial=8, num_resblocks=2, has_attention=False),
    )


DIT_XL = DiTConfig()
GLIGEN = GLIGENConfig()


def _attention_ops(
    prefix: str,
    batch: int,
    tokens: int,
    hidden: int,
    num_heads: int,
    kv_tokens: int | None = None,
    kv_dim: int | None = None,
    count: int = 1,
) -> list[Operator]:
    """Self- or cross-attention block operators (per chip)."""
    kv_tokens = kv_tokens if kv_tokens is not None else tokens
    kv_dim = kv_dim if kv_dim is not None else hidden
    head_dim = hidden // num_heads
    ops: list[Operator] = [
        matmul_op(f"{prefix}_q_proj", m=batch * tokens, k=hidden, n=hidden, count=count),
        matmul_op(
            f"{prefix}_kv_proj", m=batch * kv_tokens, k=kv_dim, n=2 * hidden, count=count
        ),
        matmul_op(
            f"{prefix}_scores",
            m=tokens,
            k=head_dim,
            n=kv_tokens,
            count=count * batch * num_heads,
            read_weights=False,
            read_activations=False,
            write_output=False,
            vu_postprocess_flops_per_output=0.0,
            kind=OpKind.ATTENTION,
        ),
        elementwise_op(
            f"{prefix}_softmax",
            tokens * kv_tokens,
            flops_per_element=5.0,
            streams_hbm=False,
            kind=OpKind.SOFTMAX,
            count=count * batch * num_heads,
        ),
        matmul_op(
            f"{prefix}_av",
            m=tokens,
            k=kv_tokens,
            n=head_dim,
            count=count * batch * num_heads,
            read_weights=False,
            read_activations=False,
            write_output=False,
            vu_postprocess_flops_per_output=0.0,
            kind=OpKind.ATTENTION,
        ),
        matmul_op(f"{prefix}_out_proj", m=batch * tokens, k=hidden, n=hidden, count=count),
    ]
    return ops


def build_dit_graph(
    batch_size: int = 8192,
    parallelism: ParallelismConfig | None = None,
    config: DiTConfig = DIT_XL,
) -> OperatorGraph:
    """Operator graph for generating one batch of DiT-XL images (one chip)."""
    parallelism = parallelism or ParallelismConfig()
    local_batch = max(1, batch_size // parallelism.num_chips)
    cfg = config
    tokens = cfg.num_tokens
    d = cfg.hidden_dim

    graph = OperatorGraph(
        name=f"{cfg.name}-inference",
        phase=WorkloadPhase.INFERENCE,
        parallelism=parallelism,
        iteration_unit="image",
        work_per_iteration=float(batch_size),
        model_name=cfg.name,
        batch_size=batch_size,
    )
    steps = cfg.denoising_steps
    graph.add(
        matmul_op(
            "patch_embed",
            m=local_batch * tokens,
            k=cfg.patch_size**2 * 4,
            n=d,
            count=steps,
        )
    )
    per_layer: list[Operator] = []
    per_layer.append(
        elementwise_op(
            "adaln_modulation", local_batch * tokens * d, flops_per_element=6.0,
            kind=OpKind.LAYERNORM,
        )
    )
    per_layer.extend(
        _attention_ops("dit_attn", local_batch, tokens, d, cfg.num_heads)
    )
    per_layer.append(
        matmul_op("dit_mlp_fc1", m=local_batch * tokens, k=d, n=cfg.ffn_dim)
    )
    per_layer.append(
        elementwise_op("dit_gelu", local_batch * tokens * cfg.ffn_dim,
                       flops_per_element=4.0, streams_hbm=False)
    )
    per_layer.append(
        matmul_op("dit_mlp_fc2", m=local_batch * tokens, k=cfg.ffn_dim, n=d)
    )
    for op in per_layer:
        graph.add(op.scaled_counts(cfg.num_layers * steps))
    graph.add(
        matmul_op(
            "final_linear",
            m=local_batch * tokens,
            k=d,
            n=cfg.patch_size**2 * 8,
            count=steps,
        )
    )
    graph.add(
        elementwise_op(
            "scheduler_step",
            local_batch * cfg.latent_size**2 * 4,
            flops_per_element=8.0,
            count=steps,
        )
    )
    graph.validate()
    return graph


def build_gligen_graph(
    batch_size: int = 256,
    parallelism: ParallelismConfig | None = None,
    config: GLIGENConfig = GLIGEN,
) -> OperatorGraph:
    """Operator graph for generating one batch of GLIGEN images (one chip)."""
    parallelism = parallelism or ParallelismConfig()
    local_batch = max(1, batch_size // parallelism.num_chips)
    cfg = config

    graph = OperatorGraph(
        name=f"{cfg.name}-inference",
        phase=WorkloadPhase.INFERENCE,
        parallelism=parallelism,
        iteration_unit="image",
        work_per_iteration=float(batch_size),
        model_name=cfg.name,
        batch_size=batch_size,
    )
    steps = cfg.denoising_steps
    # The U-Net is traversed down and up: each stage is visited twice.
    for direction in ("down", "up"):
        for stage_index, stage in enumerate(cfg.stages):
            prefix = f"{direction}{stage_index}"
            tokens = stage.spatial**2
            channels = stage.channels
            for block in range(stage.num_resblocks):
                # ResNet block: two 3x3 convolutions lowered to matmuls
                # (im2col), plus group norm and SiLU on the vector units.
                graph.add(
                    elementwise_op(
                        f"{prefix}_groupnorm{block}",
                        local_batch * tokens * channels,
                        flops_per_element=8.0,
                        kind=OpKind.LAYERNORM,
                        count=steps,
                    )
                )
                for conv in range(2):
                    graph.add(
                        matmul_op(
                            f"{prefix}_resblock{block}_conv{conv}",
                            m=local_batch * tokens,
                            k=channels * 9,
                            n=channels,
                            count=steps,
                            kind=OpKind.CONV,
                        )
                    )
                graph.add(
                    elementwise_op(
                        f"{prefix}_silu{block}",
                        local_batch * tokens * channels,
                        flops_per_element=4.0,
                        streams_hbm=False,
                        count=steps,
                    )
                )
            if stage.has_attention:
                for op in _attention_ops(
                    f"{prefix}_selfattn",
                    local_batch,
                    tokens,
                    channels,
                    stage.num_heads,
                    count=steps,
                ):
                    graph.add(op)
                for op in _attention_ops(
                    f"{prefix}_crossattn",
                    local_batch,
                    tokens,
                    channels,
                    stage.num_heads,
                    kv_tokens=cfg.context_len,
                    kv_dim=cfg.context_dim,
                    count=steps,
                ):
                    graph.add(op)
                # GLIGEN's gated self-attention over grounding tokens.
                for op in _attention_ops(
                    f"{prefix}_gatedattn",
                    local_batch,
                    tokens,
                    channels,
                    stage.num_heads,
                    kv_tokens=30,
                    kv_dim=channels,
                    count=steps,
                ):
                    graph.add(op)
    graph.add(
        elementwise_op(
            "scheduler_step",
            local_batch * (cfg.image_size // cfg.latent_downsample) ** 2 * 4,
            flops_per_element=8.0,
            count=steps,
        )
    )
    graph.validate()
    return graph


__all__ = [
    "DIT_XL",
    "DiTConfig",
    "GLIGEN",
    "GLIGENConfig",
    "UNetStage",
    "build_dit_graph",
    "build_gligen_graph",
]
