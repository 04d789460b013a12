"""Tests for the Llama workload generators."""

import pytest

from repro.workloads.base import OpKind, ParallelismConfig, WorkloadPhase
from repro.workloads.llm import (
    LLAMA_CONFIGS,
    build_decode_graph,
    build_prefill_graph,
    build_training_graph,
    get_llama_config,
    memory_per_chip_bytes,
    weights_per_chip_bytes,
)


def _total_params(cfg) -> float:
    """Parameters on one unsharded chip: weight bytes at one byte each."""
    return weights_per_chip_bytes(cfg, ParallelismConfig(), dtype_bytes=1)


class TestLlamaConfigs:
    def test_all_four_models_present(self):
        assert set(LLAMA_CONFIGS) == {
            "llama3-8b",
            "llama2-13b",
            "llama3-70b",
            "llama3.1-405b",
        }

    @pytest.mark.parametrize(
        "name, params_b",
        [("llama3-8b", 8), ("llama2-13b", 13), ("llama3-70b", 70), ("llama3.1-405b", 405)],
    )
    def test_parameter_counts_match_model_names(self, name, params_b):
        cfg = get_llama_config(name)
        assert _total_params(cfg) == pytest.approx(params_b * 1e9, rel=0.15)

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_llama_config("llama9-1t")

    def test_kv_cache_bytes_per_token(self):
        cfg = get_llama_config("llama3-8b")
        assert cfg.kv_cache_bytes_per_token() == 2 * 32 * 8 * 128 * 2

    def test_gqa_models_have_fewer_kv_heads(self):
        assert get_llama_config("llama3-70b").num_kv_heads < get_llama_config(
            "llama3-70b"
        ).num_heads
        # Llama2-13B uses multi-head attention (no GQA).
        cfg13 = get_llama_config("llama2-13b")
        assert cfg13.num_kv_heads == cfg13.num_heads


class TestPrefillGraph:
    def test_flops_match_2nd_order_estimate(self):
        """Prefill FLOPs should be roughly 2 * params * tokens."""
        cfg = get_llama_config("llama3-8b")
        batch, seq = 1, 2048
        graph = build_prefill_graph(cfg, batch, seq)
        expected = 2.0 * _total_params(cfg) * batch * seq
        assert graph.total_sa_flops == pytest.approx(expected, rel=0.35)

    def test_phase_and_units(self):
        graph = build_prefill_graph("llama3-8b", 2, 1024)
        assert graph.phase is WorkloadPhase.PREFILL
        assert graph.iteration_unit == "token"
        assert graph.work_per_iteration == 2 * 1024

    def test_tensor_parallel_reduces_per_chip_flops(self):
        single = build_prefill_graph("llama3-70b", 1, 1024)
        sharded = build_prefill_graph(
            "llama3-70b", 1, 1024, ParallelismConfig(tensor=8)
        )
        assert sharded.total_sa_flops < 0.6 * single.total_sa_flops

    def test_tensor_parallel_adds_allreduce(self):
        graph = build_prefill_graph("llama3-70b", 1, 1024, ParallelismConfig(tensor=4))
        names = {op.name for op in graph.collectives()}
        assert "attn_allreduce" in names and "mlp_allreduce" in names
        assert graph.total_ici_bytes > 0

    def test_single_chip_has_no_collectives(self):
        graph = build_prefill_graph("llama3-8b", 1, 1024)
        assert graph.collectives() == []

    def test_pipeline_parallel_reduces_layers_and_adds_sendrecv(self):
        full = build_prefill_graph("llama3-70b", 1, 1024)
        piped = build_prefill_graph(
            "llama3-70b", 1, 1024, ParallelismConfig(pipeline=4)
        )
        assert piped.total_sa_flops < 0.5 * full.total_sa_flops
        assert any(op.name == "pipeline_send_recv" for op in piped.operators)

    def test_attention_ops_use_attention_kind(self):
        graph = build_prefill_graph("llama3-8b", 1, 1024)
        kinds = {op.name: op.kind for op in graph.operators}
        assert kinds["attn_scores"] is OpKind.ATTENTION
        assert kinds["attn_softmax"] is OpKind.SOFTMAX


class TestDecodeGraph:
    def test_decode_is_memory_bound(self):
        """Decode arithmetic intensity must be far below prefill's."""
        prefill = build_prefill_graph("llama3-8b", 1, 4096)
        decode = build_decode_graph("llama3-8b", 1, 4096, 512)
        ai_prefill = prefill.total_sa_flops / prefill.total_hbm_bytes
        ai_decode = (decode.total_sa_flops + decode.total_vu_flops) / decode.total_hbm_bytes
        assert ai_decode < ai_prefill / 20

    def test_decode_reads_kv_cache(self):
        graph = build_decode_graph("llama3-70b", 8, 4096, 512)
        attention_reads = sum(
            op.hbm_read_bytes * op.count
            for op in graph.operators
            if op.name in ("attn_scores", "attn_av")
        )
        assert attention_reads > 0

    def test_decode_work_is_batch_tokens(self):
        graph = build_decode_graph("llama3-8b", 16, 4096, 512)
        assert graph.work_per_iteration == 16

    def test_gqa_grouping_in_attention_dims(self):
        graph = build_decode_graph("llama3-70b", 8, 4096, 512)
        scores = next(op for op in graph.operators if op.name == "attn_scores")
        # 64 query heads / 8 KV heads = 8 query rows per KV group.
        assert scores.dims.m == 8

    def test_mha_model_has_single_row_attention(self):
        graph = build_decode_graph("llama2-13b", 4, 2048, 128)
        scores = next(op for op in graph.operators if op.name == "attn_scores")
        assert scores.dims.m == 1


class TestTrainingGraph:
    def test_training_flops_about_3x_forward(self):
        cfg = get_llama_config("llama3-8b")
        forward = build_prefill_graph(cfg, 4, 2048)
        training = build_training_graph(cfg, 4, 2048)
        ratio = training.total_sa_flops / forward.total_sa_flops
        assert 2.5 < ratio < 3.5

    def test_data_parallel_adds_gradient_allreduce(self):
        graph = build_training_graph("llama3-8b", 32, 2048, ParallelismConfig(data=4))
        assert any(op.name == "grad_allreduce" for op in graph.operators)

    def test_no_gradient_allreduce_without_data_parallelism(self):
        graph = build_training_graph("llama3-8b", 32, 2048)
        assert not any(op.name == "grad_allreduce" for op in graph.operators)

    def test_optimizer_update_present(self):
        graph = build_training_graph("llama3-8b", 32, 2048)
        optimizer = [op for op in graph.operators if op.kind is OpKind.OPTIMIZER]
        assert len(optimizer) == 1
        assert optimizer[0].hbm_bytes > 0

    def test_training_unit_is_step(self):
        graph = build_training_graph("llama3-8b", 32, 2048)
        assert graph.iteration_unit == "step"


class TestMemoryFootprint:
    def test_weights_scale_with_tensor_parallelism(self):
        cfg = get_llama_config("llama3-70b")
        full = weights_per_chip_bytes(cfg, ParallelismConfig())
        sharded = weights_per_chip_bytes(cfg, ParallelismConfig(tensor=8))
        assert sharded < full / 6

    def test_70b_weights_about_140_gb(self):
        cfg = get_llama_config("llama3-70b")
        assert weights_per_chip_bytes(cfg, ParallelismConfig()) == pytest.approx(
            140e9, rel=0.15
        )

    def test_training_needs_more_memory_than_inference(self):
        cfg = get_llama_config("llama3-8b")
        parallelism = ParallelismConfig()
        training = memory_per_chip_bytes(cfg, WorkloadPhase.TRAINING, parallelism, 32, 4096)
        prefill = memory_per_chip_bytes(cfg, WorkloadPhase.PREFILL, parallelism, 32, 4096)
        assert training > prefill

    def test_405b_fits_on_16_npu_d_chips_for_training(self):
        """Table 4 runs Llama3.1-405B training on 16 chips."""
        cfg = get_llama_config("llama3.1-405b")
        parallelism = ParallelismConfig(data=1, tensor=8, pipeline=2)
        footprint = memory_per_chip_bytes(cfg, WorkloadPhase.TRAINING, parallelism, 32, 4096)
        assert footprint <= 95e9
