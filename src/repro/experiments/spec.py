"""Declarative specification of a simulation parameter sweep.

A :class:`SweepSpec` declares grids over workloads, chips, batch sizes,
pod sizes, policies and gating parameters; :meth:`SweepSpec.points`
expands the grid into an ordered list of :class:`SweepPoint` objects,
each of which maps to exactly one
:class:`~repro.core.config.SimulationConfig`.  Points are value objects
(picklable, content-hashable) so the runner can dispatch them to worker
processes and cache their results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.config import SimulationConfig
from repro.gating.bet import DEFAULT_PARAMETERS, GatingParameters
from repro.gating.report import PolicyName
from repro.experiments.keys import labeled_point_key

#: Label attached to rows swept with the paper's default gating parameters.
DEFAULT_GATING_LABEL = "default"


def _as_tuple(value) -> tuple:
    if value is None:
        return (None,)
    if isinstance(value, (str, int, float)):
        return (value,)
    if isinstance(value, Iterable):
        items = tuple(value)
        return items if items else (None,)
    return (value,)


@dataclass(frozen=True)
class SweepPoint:
    """One fully-specified grid point: a workload under one configuration."""

    index: int
    workload: str
    config: SimulationConfig
    gating_label: str = DEFAULT_GATING_LABEL

    @property
    def cache_key(self) -> str:
        """Content-addressed key of this point (stable across processes).

        Computed once per instance (the runner consults it for the row
        cache before and after evaluating the point).
        """
        cached = self.__dict__.get("_cache_key")
        if cached is None:
            cached = labeled_point_key(
                self.workload, self.config, self.gating_label
            )
            object.__setattr__(self, "_cache_key", cached)
        return cached


@dataclass
class SweepSpec:
    """A grid of simulations to run.

    Every axis accepts a single value or a sequence; ``None`` entries in
    ``batch_sizes``/``num_chips`` mean "use the workload's default".
    ``gating_parameters`` accepts :class:`GatingParameters` values or
    ``(label, parameters)`` pairs — labels end up in the result table so
    sensitivity sweeps stay identifiable.  ``NoPG`` is always evaluated
    (it is the baseline every savings/overhead column normalizes
    against), even when not listed in ``policies``.
    """

    workloads: Sequence[str]
    chips: Sequence[str] = ("NPU-D",)
    batch_sizes: Sequence[int | None] = (None,)
    num_chips: Sequence[int | None] = (None,)
    policies: Sequence[PolicyName | str] = field(
        default_factory=lambda: tuple(SimulationConfig().policies)
    )
    gating_parameters: Sequence[GatingParameters | tuple[str, GatingParameters]] = (
        (DEFAULT_GATING_LABEL, DEFAULT_PARAMETERS),
    )
    apply_fusion: bool = True

    def __post_init__(self) -> None:
        self.workloads = _as_tuple(self.workloads)
        if any(w is None for w in self.workloads):
            raise ValueError("a sweep needs at least one workload")
        self.chips = _as_tuple(self.chips)
        self.batch_sizes = _as_tuple(self.batch_sizes)
        self.num_chips = _as_tuple(self.num_chips)
        for axis, values in (
            ("batch size", self.batch_sizes),
            ("pod size", self.num_chips),
        ):
            for value in values:
                if value is None:
                    continue
                if type(value) is not int or value < 1:
                    raise ValueError(
                        f"{axis} must be a positive integer or None "
                        f"(the workload default), got {value!r}"
                    )
        policies = tuple(PolicyName.parse(p) for p in _as_tuple(self.policies))
        if PolicyName.NOPG not in policies:
            policies = (PolicyName.NOPG, *policies)
        self.policies = policies
        entries = self.gating_parameters
        if (
            isinstance(entries, (tuple, list))
            and len(entries) == 2
            and isinstance(entries[0], str)
            and isinstance(entries[1], GatingParameters)
        ):
            # A single bare (label, parameters) pair, not a sequence of
            # two entries — without this, the label string would be
            # unpacked character-by-character into bogus grid points.
            entries = (entries,)
        labeled: list[tuple[str, GatingParameters]] = []
        for entry in _as_tuple(entries):
            if isinstance(entry, GatingParameters):
                labeled.append((f"g{len(labeled)}", entry))
                continue
            if (
                isinstance(entry, (tuple, list))
                and len(entry) == 2
                and isinstance(entry[1], GatingParameters)
            ):
                labeled.append((str(entry[0]), entry[1]))
                continue
            raise TypeError(
                "gating_parameters entries must be GatingParameters or "
                f"(label, GatingParameters) pairs, got {entry!r}"
            )
        self.gating_parameters = tuple(labeled)

    # ------------------------------------------------------------------ #
    @property
    def num_points(self) -> int:
        """Number of grid points (rows are ``num_points * len(policies)``)."""
        return (
            len(self.workloads)
            * len(self.chips)
            * len(self.batch_sizes)
            * len(self.num_chips)
            * len(self.gating_parameters)
        )

    def _grid_token(self) -> tuple:
        """Hashable fingerprint of every axis (parameters by identity)."""
        from repro.gating.bet import parameters_token

        return (
            tuple(self.workloads),
            tuple(self.chips),
            tuple(self.batch_sizes),
            tuple(self.num_chips),
            tuple(self.policies),
            tuple(
                (label, parameters_token(parameters))
                for label, parameters in self.gating_parameters
            ),
            self.apply_fusion,
        )

    def points(self) -> list[SweepPoint]:
        """Expand the grid in deterministic (row-major) order.

        The expansion is memoized per grid fingerprint: repeated runs of
        one spec (e.g. a cold/warm benchmark pair) reuse the same point
        objects and therefore their memoized cache keys.
        """
        cached = self.__dict__.get("_points_cache")
        token = self._grid_token()
        if cached is not None and cached[0] == token:
            return list(cached[1])
        points = self._expand_points()
        self.__dict__["_points_cache"] = (token, points)
        return list(points)

    def _expand_points(self) -> list[SweepPoint]:
        points: list[SweepPoint] = []
        for workload in self.workloads:
            for chip in self.chips:
                for batch_size in self.batch_sizes:
                    for num_chips in self.num_chips:
                        for label, parameters in self.gating_parameters:
                            config = SimulationConfig(
                                chip=chip,
                                num_chips=num_chips,
                                batch_size=batch_size,
                                policies=tuple(self.policies),
                                gating_parameters=parameters,
                                apply_fusion=self.apply_fusion,
                            )
                            points.append(
                                SweepPoint(
                                    index=len(points),
                                    workload=workload,
                                    config=config,
                                    gating_label=label,
                                )
                            )
        return points

    def describe(self) -> str:
        """One-line summary, e.g. ``3 workloads x 2 chips x 5 policies``."""
        parts = [f"{len(self.workloads)} workload(s)", f"{len(self.chips)} chip(s)"]
        if self.batch_sizes != (None,):
            parts.append(f"{len(self.batch_sizes)} batch size(s)")
        if self.num_chips != (None,):
            parts.append(f"{len(self.num_chips)} pod size(s)")
        if len(self.gating_parameters) > 1:
            parts.append(f"{len(self.gating_parameters)} gating point(s)")
        parts.append(f"{len(self.policies)} policy(ies)")
        return " x ".join(parts)


__all__ = ["DEFAULT_GATING_LABEL", "SweepPoint", "SweepSpec"]
