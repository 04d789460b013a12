"""Golden regression tests: the paper's headline numbers, snapshotted.

Key results for NPU-D on the small LLM prefill/decode graphs — the
per-policy energy-efficiency gains, the per-component energy breakdown
and the temporal utilizations — are pinned in ``tests/golden/*.json``.
A refactor that changes any of them fails here instead of silently
drifting the reproduced figures.

Every registry workload's ``GraphTable`` is pinned too: a SHA-256 over
all of its columns and metadata, at the resolved default execution on
NPU-A and NPU-D (``tests/golden/registry_graphs.json``).  The object
builders are the one definition of each workload, so this digest is
what keeps an edit to one of them from drifting silently.

After an *intentional* model change,
regenerate the snapshots with::

    PYTHONPATH=src python -m pytest tests/test_golden_regression.py --update-golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SimulationConfig, resolve_execution
from repro.core.regate import simulate_graph
from repro.gating.report import PolicyName
from repro.hardware.components import Component
from repro.workloads.registry import get_workload, list_workloads
from repro.workloads.table import GraphTable

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Relative tolerance for float comparisons.  The model is deterministic
#: double arithmetic, so goldens reproduce essentially exactly; the slack
#: only absorbs libm/platform noise.
REL_TOL = 1e-9


def _snapshot(graph) -> dict:
    """Compute the headline numbers of one graph on NPU-D."""
    result = simulate_graph(graph, SimulationConfig(chip="NPU-D"))
    nopg = result.report(PolicyName.NOPG)
    full = result.report(PolicyName.REGATE_FULL)
    return {
        "workload": graph.name,
        "chip": "NPU-D",
        "policies": {
            policy.value: {
                "total_energy_j": report.total_energy_j,
                "static_energy_j": report.total_static_j,
                "dynamic_energy_j": report.total_dynamic_j,
                "savings_vs_nopg": result.energy_savings(policy),
                "overhead_vs_nopg": result.performance_overhead(policy),
                "average_power_w": report.average_power_w,
            }
            for policy, report in result.reports.items()
        },
        "component_energy_j": {
            "NoPG": {c.value: nopg.component_energy_j(c) for c in Component.all()},
            "ReGate-Full": {c.value: full.component_energy_j(c) for c in Component.all()},
        },
        "temporal_utilization": {
            c.value: result.temporal_utilization(c)
            for c in (Component.SA, Component.VU, Component.HBM, Component.ICI)
        },
        "sa_spatial_utilization": result.sa_spatial_utilization(),
        "iteration_time_s": nopg.total_time_s,
    }


def _assert_close(golden, actual, path=""):
    """Recursive comparison with a tight relative tolerance on floats."""
    if isinstance(golden, dict):
        assert isinstance(actual, dict), path
        assert set(golden) == set(actual), f"{path}: keys {set(golden) ^ set(actual)}"
        for key in golden:
            _assert_close(golden[key], actual[key], f"{path}.{key}")
    elif isinstance(golden, float):
        assert actual == pytest.approx(golden, rel=REL_TOL, abs=1e-12), (
            f"{path}: golden {golden!r} != actual {actual!r}"
        )
    else:
        assert golden == actual, f"{path}: golden {golden!r} != actual {actual!r}"


@pytest.mark.parametrize("case", ["prefill", "decode"])
def test_golden_headline_numbers(case, request, update_golden):
    graph = request.getfixturevalue(f"{case}_graph_small")
    snapshot = _snapshot(graph)
    path = GOLDEN_DIR / f"npu_d_llama3_8b_{case}_small.json"
    if update_golden:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"golden snapshot {path} missing; regenerate with --update-golden"
    )
    _assert_close(json.loads(path.read_text()), snapshot)


def test_golden_sanity_paper_ballpark(request, update_golden):
    """Independently of the exact snapshot, the headline gain must stay in
    the paper's ballpark (ReGate-Full saves double-digit percent on the
    decode-heavy graph and a positive amount on prefill)."""
    prefill = _snapshot(request.getfixturevalue("prefill_graph_small"))
    decode = _snapshot(request.getfixturevalue("decode_graph_small"))
    assert prefill["policies"]["ReGate-Full"]["savings_vs_nopg"] > 0.05
    assert decode["policies"]["ReGate-Full"]["savings_vs_nopg"] > 0.10
    assert decode["policies"]["Ideal"]["savings_vs_nopg"] <= 1.0


#: Chips the registry-graph digests are taken on: their HBM capacities
#: make the LLM parallelism search pick different layouts.
GRAPH_CHIPS = ("NPU-A", "NPU-D")


def _table_digest(table: GraphTable) -> str:
    """SHA-256 over every column (dtype and bytes) and metadata field."""
    digest = hashlib.sha256()
    for f in dataclasses.fields(GraphTable):
        value = getattr(table, f.name)
        digest.update(f.name.encode())
        if isinstance(value, np.ndarray):
            digest.update(value.dtype.str.encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, float):
            digest.update(value.hex().encode())
        else:
            digest.update(repr(value).encode())
    return digest.hexdigest()


def _registry_graph_digests() -> dict:
    digests = {}
    for workload in list_workloads():
        spec = get_workload(workload)
        digests[workload] = {}
        for chip in GRAPH_CHIPS:
            _chip, batch, parallelism = resolve_execution(
                spec, SimulationConfig(chip=chip)
            )
            table = spec.build_table(batch_size=batch, parallelism=parallelism)
            digests[workload][chip] = _table_digest(table)
    return digests


def test_golden_registry_graphs(update_golden):
    digests = _registry_graph_digests()
    path = GOLDEN_DIR / "registry_graphs.json"
    if update_golden:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"golden snapshot {path} missing; regenerate with --update-golden"
    )
    assert json.loads(path.read_text()) == digests
