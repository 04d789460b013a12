"""Stable content-addressed keys for simulation memoization.

Every cacheable artifact (a :class:`~repro.simulator.engine.WorkloadProfile`,
a per-policy :class:`~repro.gating.report.EnergyReport`, a finished sweep
row) is addressed by a SHA-256 hash of a canonical JSON rendering of the
inputs that determine it.  Canonicalization recurses through dataclasses,
enums, mappings and sequences, so hashing a
:class:`~repro.core.config.SimulationConfig` (which nests chip specs,
gating parameters and policy tuples) is deterministic across processes
and Python invocations — a requirement for the on-disk cache, whose
keys are written by one run and looked up by the next.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import weakref
from enum import Enum
from typing import Any

from repro import __version__
from repro.core.config import SimulationConfig
from repro.gating.bet import GatingParameters
from repro.hardware.chips import NPUChipSpec
from repro.workloads.base import ParallelismConfig

#: Hex digest prefix length used as a key: 32 chars = 128 bits, which
#: makes accidental collisions negligible at any realistic cache size.
KEY_HEX_CHARS = 32

#: Stamped into every domain key.  The hash covers the *inputs* of a
#: simulation, not the simulator code; tying keys to the release version
#: at least invalidates on-disk caches across upgrades.  (Same-version
#: source edits still require deleting the cache file — see
#: docs/experiments.md.)
CACHE_SCHEMA_VERSION = __version__


#: Immutable spec types that appear, unchanged, in thousands of keys per
#: sweep (every point hashes the same chip spec and gating parameters).
#: They collapse to a content digest computed once per instance, so the
#: hot key path serializes a 32-char string instead of re-walking (and
#: re-JSON-encoding) a deeply nested dataclass.  Digests are themselves
#: canonical hashes, so they stay deterministic across processes — a
#: requirement for the on-disk cache.
_DIGESTED_TYPES = (NPUChipSpec, GatingParameters)

#: id(instance) -> (digest dict, its JSON text), evicted by
#: weakref.finalize when the instance is collected (before its id can
#: be reused).
_DIGEST_MEMO: dict[int, tuple[dict[str, str], str]] = {}


def _digest_entry(value: Any) -> tuple[dict[str, str], str]:
    key = id(value)
    hit = _DIGEST_MEMO.get(key)
    if hit is None:
        digested = {
            "__type__": type(value).__name__,
            "__digest__": stable_hash(_canonical_dataclass(value)),
        }
        hit = (digested, _dumps(digested))
        _DIGEST_MEMO[key] = hit
        weakref.finalize(value, _DIGEST_MEMO.pop, key, None)
    return hit


def _canonical_dataclass(value: Any) -> dict[str, Any]:
    rendered: dict[str, Any] = {"__type__": type(value).__name__}
    for field in dataclasses.fields(value):
        rendered[field.name] = canonical(getattr(value, field.name))
    return rendered


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-serializable canonical structure.

    Dataclasses become ``{"__type__": name, fields...}`` so two different
    dataclass types with identical fields cannot collide; enums collapse
    to their value; mappings are key-sorted; sequences become lists.
    Shared immutable specs (chips, gating parameters) collapse to a
    memoized content digest — see :data:`_DIGESTED_TYPES`.
    """
    if isinstance(value, Enum):
        # Checked before the plain types: the project's enums subclass str.
        return {"__enum__": type(value).__name__, "value": value.value}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr() is the shortest round-trip representation; it keeps the
        # canonical form bit-faithful to the double.
        return repr(value)
    if isinstance(value, _DIGESTED_TYPES):
        return _digest_entry(value)[0]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical_dataclass(value)
    if isinstance(value, dict):
        return {str(key): canonical(val) for key, val in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(item) for item in value)
    raise TypeError(f"cannot canonicalize {type(value).__name__!r} for hashing")


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:KEY_HEX_CHARS]


def stable_hash(value: Any) -> str:
    """Hex digest of the canonical JSON rendering of ``value``."""
    return _hash_text(_dumps(canonical(value)))


# ---------------------------------------------------------------------- #
# Canonical JSON text from fragments
# ---------------------------------------------------------------------- #
# The domain keys below hash the same canonical JSON text as
# ``stable_hash(payload)``, but assemble it from pieces that are
# rendered once: the version string, each digested spec instance, each
# enum member and each dataclass type's key order.  Only the few
# per-call fields (a profile key, a policy name, ints and floats) are
# encoded per call.  ``_encode`` is the string encoder ``json.dumps``
# itself uses (``ensure_ascii=True``).
_encode = json.encoder.encode_basestring_ascii


@functools.lru_cache(maxsize=1)
def _version_text(version: str) -> str:
    """The encoded version stamp, rendered once per version string."""
    return _encode(version)


#: (enum type, member) -> JSON text of the member's canonical dict.
_ENUM_TEXT: dict[tuple[type, Enum], str] = {}

#: dataclass type -> its canonical dict keys in ``sort_keys`` order,
#: each as (encoded key, field name or ``None`` for ``__type__``).
_FIELD_ORDER: dict[type, tuple[tuple[str, str | None], ...]] = {}


def _dataclass_text(value: Any, **overrides: Any) -> str:
    """JSON text of ``_canonical_dataclass(value)`` with fields replaced."""
    cls = type(value)
    order = _FIELD_ORDER.get(cls)
    if order is None:
        names = [field.name for field in dataclasses.fields(value)]
        order = tuple(
            (_encode(key), None if key == "__type__" else key)
            for key in sorted(["__type__", *names])
        )
        _FIELD_ORDER[cls] = order
    parts = []
    for key_text, name in order:
        if name is None:
            parts.append(f"{key_text}:{_encode(cls.__name__)}")
        else:
            field = overrides[name] if name in overrides else getattr(value, name)
            parts.append(f"{key_text}:{_json_text(field)}")
    return "{" + ",".join(parts) + "}"


#: Exact scalar type -> its JSON text (floats as their ``repr`` string,
#: like :func:`canonical`).  Subclasses take the ``isinstance`` chain.
_SCALAR_TEXT = {
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    str: _encode,
    float: lambda value: _encode(float.__repr__(value)),
}


def _json_text(value: Any) -> str:
    """``_dumps(canonical(value))``, assembled from memoized fragments."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, Enum):
        key = (type(value), value)
        text = _ENUM_TEXT.get(key)
        if text is None:
            text = _dumps(canonical(value))
            _ENUM_TEXT[key] = text
        return text
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return _encode(value)
    if isinstance(value, float):
        return _encode(repr(value))
    if isinstance(value, _DIGESTED_TYPES):
        return _digest_entry(value)[1]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _dataclass_text(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_json_text, value)) + "]"
    return _dumps(canonical(value))


# ---------------------------------------------------------------------- #
# Domain-specific keys
# ---------------------------------------------------------------------- #
# Each docstring names the payload whose ``stable_hash`` the key equals;
# the keys hash the same text, assembled from fragments instead.
def profile_key(
    workload: str,
    chip: NPUChipSpec,
    batch_size: int,
    parallelism: ParallelismConfig,
    apply_fusion: bool,
) -> str:
    """Key of a :class:`WorkloadProfile` (independent of policies/gating).

    ``stable_hash({"kind": "profile", "version": CACHE_SCHEMA_VERSION,
    "workload": workload, "chip": chip, "batch_size": batch_size,
    "parallelism": parallelism, "apply_fusion": apply_fusion})``.
    """
    return _hash_text(
        f'{{"apply_fusion":{_json_text(apply_fusion)},'
        f'"batch_size":{_json_text(batch_size)},'
        f'"chip":{_json_text(chip)},"kind":"profile",'
        f'"parallelism":{_json_text(parallelism)},'
        f'"version":{_version_text(CACHE_SCHEMA_VERSION)},'
        f'"workload":{_json_text(workload)}}}'
    )


def report_key(profile: str, policy: str, parameters: GatingParameters) -> str:
    """Key of one policy's :class:`EnergyReport` on one profile.

    ``stable_hash({"kind": "report", "version": CACHE_SCHEMA_VERSION,
    "profile": profile, "policy": policy, "parameters": parameters})``.
    """
    return _hash_text(
        f'{{"kind":"report","parameters":{_json_text(parameters)},'
        f'"policy":{_json_text(policy)},"profile":{_json_text(profile)},'
        f'"version":{_version_text(CACHE_SCHEMA_VERSION)}}}'
    )


def point_key(workload: str, config: SimulationConfig) -> str:
    """Key of one fully-specified sweep point (workload + configuration).

    ``stable_hash({"kind": "point", "version": CACHE_SCHEMA_VERSION,
    "workload": workload, "config": config})`` with the config's chip
    resolved through the registry first, so that ``chip="NPU-D"`` and
    ``chip=get_chip("NPU-D")`` address the same cache entry.
    """
    return _hash_text(
        f'{{"config":{_dataclass_text(config, chip=config.resolve_chip())},'
        f'"kind":"point","version":{_version_text(CACHE_SCHEMA_VERSION)},'
        f'"workload":{_json_text(workload)}}}'
    )


def labeled_point_key(workload: str, config: SimulationConfig, label: str) -> str:
    """Key of one sweep point's rows (its point key plus gating label).

    ``stable_hash({"point": point_key(workload, config), "label": label})``.
    """
    return _hash_text(
        f'{{"label":{_json_text(label)},'
        f'"point":"{point_key(workload, config)}"}}'
    )


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "KEY_HEX_CHARS",
    "canonical",
    "labeled_point_key",
    "point_key",
    "profile_key",
    "report_key",
    "stable_hash",
]
