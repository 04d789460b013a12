"""Domain keys equal ``stable_hash`` of their documented payloads.

The keys assemble the canonical JSON text from memoized fragments
instead of walking :func:`canonical` per call.  They must stay
byte-identical to the payload hashes, or every on-disk cache, shard
``spec_digest`` and catalog entry written before would silently miss.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.experiments import keys
from repro.experiments.keys import (
    CACHE_SCHEMA_VERSION,
    canonical,
    point_key,
    profile_key,
    report_key,
    stable_hash,
)
from repro.experiments.spec import SweepPoint
from repro.gating.bet import DEFAULT_PARAMETERS
from repro.gating.report import PolicyName
from repro.hardware.chips import get_chip
from repro.workloads.base import ParallelismConfig

CHIP_NAMES = ("NPU-A", "NPU-B", "NPU-C", "NPU-D", "NPU-E")

names = st.text(max_size=12)
chips = st.sampled_from(CHIP_NAMES).flatmap(
    lambda name: st.sampled_from((name, get_chip(name)))
)
parallelisms = st.builds(
    ParallelismConfig,
    data=st.integers(1, 8),
    tensor=st.integers(1, 8),
    pipeline=st.integers(1, 4),
)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def gating_parameters(draw):
    """Default, delay-multiplied and/or leakage-modified parameters."""
    parameters = DEFAULT_PARAMETERS
    if draw(st.booleans()):
        parameters = parameters.with_delay_multiplier(draw(st.floats(0.25, 4.0)))
    if draw(st.booleans()):
        parameters = parameters.with_leakage(
            draw(st.floats(0.0, 0.1)), draw(st.floats(0.1, 0.5)), draw(st.floats(0.0, 0.01))
        )
    return parameters


configs = st.builds(
    SimulationConfig,
    chip=chips,
    num_chips=st.none() | st.integers(1, 256),
    batch_size=st.none() | st.integers(1, 4096),
    parallelism=st.none() | parallelisms,
    policies=st.lists(st.sampled_from(list(PolicyName)), min_size=1, unique=True).map(tuple),
    gating_parameters=gating_parameters(),
    duty_cycle=st.sampled_from((0.6, 1.0, 0.05)) | st.floats(0.01, 1.0),
    pue=st.sampled_from((1.1, 1.0)) | st.floats(1.0, 3.0),
    carbon_intensity_kg_per_kwh=finite,
    apply_fusion=st.booleans(),
)


def _point_payload(workload: str, config: SimulationConfig) -> dict:
    return {
        "kind": "point",
        "version": CACHE_SCHEMA_VERSION,
        "workload": workload,
        "config": dataclasses.replace(config, chip=config.resolve_chip()),
    }


@settings(max_examples=80, deadline=None)
@given(workload=names, config=configs, label=names)
def test_point_keys_match_payload_hashes(workload, config, label):
    expected = stable_hash(_point_payload(workload, config))
    assert point_key(workload, config) == expected
    point = SweepPoint(0, workload, config, gating_label=label)
    assert point.cache_key == stable_hash({"point": expected, "label": label})


@settings(max_examples=80, deadline=None)
@given(
    profile=names,
    policy=st.sampled_from([policy.value for policy in PolicyName]) | names,
    parameters=gating_parameters(),
)
def test_report_key_matches_payload_hash(profile, policy, parameters):
    payload = {
        "kind": "report",
        "version": CACHE_SCHEMA_VERSION,
        "profile": profile,
        "policy": policy,
        "parameters": parameters,
    }
    assert report_key(profile, policy, parameters) == stable_hash(payload)


@settings(max_examples=60, deadline=None)
@given(
    workload=names,
    chip=st.sampled_from(CHIP_NAMES).map(get_chip),
    batch_size=st.integers(1, 4096),
    parallelism=parallelisms,
    apply_fusion=st.booleans(),
)
def test_profile_key_matches_payload_hash(workload, chip, batch_size, parallelism, apply_fusion):
    payload = {
        "kind": "profile",
        "version": CACHE_SCHEMA_VERSION,
        "workload": workload,
        "chip": chip,
        "batch_size": batch_size,
        "parallelism": parallelism,
        "apply_fusion": apply_fusion,
    }
    assert profile_key(workload, chip, batch_size, parallelism, apply_fusion) == (
        stable_hash(payload)
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | names
    | st.sampled_from(list(PolicyName)) | parallelisms,
    lambda children: st.lists(children, max_size=4) | st.tuples(children, children),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(value=json_values)
def test_fragment_text_matches_canonical_json(value):
    expected = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    assert keys._json_text(value) == expected


def test_keys_pinned_to_the_released_format():
    """Literal keys of release 1.8.0 (a version bump changes them all)."""
    config = SimulationConfig()
    assert (
        SweepPoint(0, "llama3-8b-decode", config).cache_key
        == "24d9e9f06f8d7bfcefe03c002a7fbd96"
    )
    assert point_key("llama3-8b-decode", config) == "ea45ca7ffb9dd9fdde390b162c231650"
    assert (
        report_key("0" * 32, "NoPG", DEFAULT_PARAMETERS)
        == "227411ea4557f63966ef49ad752a6c94"
    )
