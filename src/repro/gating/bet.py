"""Break-even times, wake-up delays and leakage ratios (Table 3, §6.1).

The break-even time (BET) is the minimum idle duration for which power
gating saves energy: shorter idle periods do not amortize the dynamic
energy spent switching the supply off and on.  Both the BET and the
power-on/off delay of each component come from the paper's synthesized
prototype (Table 3); the default leakage ratios of gated logic, drowsy
SRAM and powered-off SRAM come from §6.1.  All of them are exposed as
configuration so the sensitivity analyses (Figures 21-22) can sweep
them.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.hardware.chips import NPUChipSpec
from repro.hardware.components import Component

if TYPE_CHECKING:
    import numpy as np

# Monotonic per-instance tokens for GatingParameters (see
# :func:`parameters_token`): a hashable stand-in for the (unhashable,
# dict-holding) parameters object in memoization keys.
_PARAMETER_TOKENS: dict[int, int] = {}
_TOKEN_COUNTER = itertools.count()


def parameters_token(parameters: "GatingParameters") -> int:
    """A process-unique token identifying one parameters instance.

    ``GatingParameters`` is frozen but holds a dict, so it cannot be
    hashed directly; the token lets caches key on the instance without
    re-deriving anything from its content.  Entries are evicted when
    the instance is collected (before its id can be reused), so a token
    never aliases two different parameter sets.
    """
    key = id(parameters)
    token = _PARAMETER_TOKENS.get(key)
    if token is None:
        token = next(_TOKEN_COUNTER)
        _PARAMETER_TOKENS[key] = token
        weakref.finalize(parameters, _PARAMETER_TOKENS.pop, key, None)
    return token


@dataclass(frozen=True)
class ComponentTiming:
    """Wake-up delay and break-even time of one gateable block."""

    delay_cycles: float
    bet_cycles: float

    def __post_init__(self) -> None:
        for name in ("delay_cycles", "bet_cycles"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value}"
                )

    def scaled(self, factor: float) -> "ComponentTiming":
        """Scale the power-gate & wake-up delay (Figure 22 sweep).

        The BET grows with the transition delay because a slower switch
        dissipates more transition energy; we scale it proportionally,
        matching how the paper's sweep treats "power-gate & wake-up
        delay" as a single knob.
        """
        return ComponentTiming(
            delay_cycles=self.delay_cycles * factor,
            bet_cycles=self.bet_cycles * factor,
        )


# Table 3 of the paper.
TABLE3_TIMINGS: dict[str, ComponentTiming] = {
    "sa_pe": ComponentTiming(delay_cycles=1, bet_cycles=47),
    "sa_full": ComponentTiming(delay_cycles=10, bet_cycles=469),
    "vu": ComponentTiming(delay_cycles=2, bet_cycles=32),
    "hbm": ComponentTiming(delay_cycles=60, bet_cycles=412),
    "ici": ComponentTiming(delay_cycles=60, bet_cycles=459),
    "sram_sleep": ComponentTiming(delay_cycles=4, bet_cycles=41),
    "sram_off": ComponentTiming(delay_cycles=10, bet_cycles=82),
}


@dataclass(frozen=True)
class LeakageRatios:
    """Leakage power of gated blocks relative to their ON-state leakage.

    The defaults (§6.1): gated logic 3%, drowsy (sleep) SRAM 25%,
    powered-off SRAM 0.2%.
    """

    logic_off: float = 0.03
    sram_sleep: float = 0.25
    sram_off: float = 0.002

    def __post_init__(self) -> None:
        for name in ("logic_off", "sram_sleep", "sram_off"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")


class _FrozenTimings(dict):
    """Immutable timing table: ``GatingParameters`` is deeply frozen.

    The cache keys and the fast-path memos identify a parameters
    instance by identity, so its content must never change after
    construction; derive variants with :meth:`with_delay_multiplier` /
    ``dataclasses.replace`` instead of mutating in place.
    """

    def _readonly(self, *args, **kwargs):
        raise TypeError(
            "GatingParameters timings are immutable; build a new instance "
            "(e.g. with_delay_multiplier or dataclasses.replace)"
        )

    __setitem__ = __delitem__ = _readonly
    clear = pop = popitem = setdefault = update = _readonly
    del _readonly

    def __reduce__(self):
        return (type(self), (dict(self),))


@dataclass(frozen=True)
class GatingParameters:
    """All tunable parameters of the power-gating mechanisms."""

    timings: dict[str, ComponentTiming] = field(
        default_factory=lambda: dict(TABLE3_TIMINGS)
    )
    leakage: LeakageRatios = field(default_factory=LeakageRatios)
    # The idle-detection state machine waits this fraction of the BET
    # before gating (the paper's baseline uses a 1/3-BET window, §6.1).
    detection_window_bet_fraction: float = 1.0 / 3.0
    # Weight-register share of a PE's leakage when held in W_on mode.
    pe_weight_register_share: float = 0.12

    def __post_init__(self) -> None:
        for name in ("detection_window_bet_fraction", "pe_weight_register_share"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        # Deep-freeze: a copied, immutable mapping means neither the
        # caller's dict nor in-place item assignment can change this
        # instance's content behind the identity-keyed caches.
        object.__setattr__(self, "timings", _FrozenTimings(self.timings))

    def __getstate__(self) -> dict:
        # The memoized one-point table (ParameterTable.point) is
        # process-local: its tokens must never travel with a pickle or copy.
        state = dict(self.__dict__)
        state.pop("_point_table", None)
        return state

    # ------------------------------------------------------------------ #
    _COMPONENT_KEYS = {
        Component.SA: "sa_full",
        Component.VU: "vu",
        Component.HBM: "hbm",
        Component.ICI: "ici",
        Component.SRAM: "sram_sleep",
    }

    def timing(self, component: Component, variant: str | None = None) -> ComponentTiming:
        """Timing of a component; ``variant`` selects e.g. ``"sa_pe"``."""
        key = variant or self._COMPONENT_KEYS[component]
        return self.timings[key]

    def detection_window_cycles(self, component: Component, variant: str | None = None) -> float:
        """Idle-detection window before the hardware policy gates a block."""
        return self.timing(component, variant).bet_cycles * self.detection_window_bet_fraction

    def off_leakage(self, component: Component) -> float:
        """Leakage ratio of a fully gated component."""
        if component is Component.SRAM:
            return self.leakage.sram_off
        return self.leakage.logic_off

    def sleep_leakage(self) -> float:
        """Leakage ratio of drowsy SRAM."""
        return self.leakage.sram_sleep

    # ------------------------------------------------------------------ #
    def with_delay_multiplier(self, factor: float) -> "GatingParameters":
        """Return parameters with all delays/BETs scaled (Figure 22)."""
        scaled = {key: timing.scaled(factor) for key, timing in self.timings.items()}
        return replace(self, timings=scaled)

    def with_leakage(
        self, logic_off: float, sram_sleep: float, sram_off: float
    ) -> "GatingParameters":
        """Return parameters with new leakage ratios (Figure 21)."""
        return replace(
            self,
            leakage=LeakageRatios(
                logic_off=logic_off, sram_sleep=sram_sleep, sram_off=sram_off
            ),
        )


@dataclass(frozen=True)
class IdleGatingCoefficients:
    """Scalar idle-gating terms of one (policy, component, chip) triple.

    These are the per-gap coefficients of the object-path idle-energy
    loop in :mod:`repro.gating.policies`; the grid kernel derives the
    same values, one point per row, with
    :func:`grid_idle_coefficient_columns`.
    """

    window_s: float  # idle-detection window (0 for software gating)
    threshold_s: float  # minimum gap length worth gating
    off_leakage: float  # leakage ratio of the gated block
    transition_j: float  # energy of one power-off/on cycle
    delay_cycles: float  # wake-up delay exposed per gated gap
    software: bool  # compiler-managed (no window, no missed wake-ups)


def idle_gating_coefficients(
    parameters: GatingParameters,
    component: Component,
    variant: str | None,
    static_power_w: float,
    chip: NPUChipSpec,
    software: bool,
    min_window_cycles: float = 0.0,
) -> IdleGatingCoefficients:
    """Compute the per-gap idle-gating coefficients of one component."""
    timing = parameters.timing(component, variant)
    delay_s = chip.cycles_to_seconds(timing.delay_cycles)
    bet_s = chip.cycles_to_seconds(timing.bet_cycles)
    off_leak = parameters.off_leakage(component)
    transition_j = static_power_w * bet_s * (1.0 - off_leak)
    if software:
        window_s = 0.0
        threshold_s = max(bet_s, 2.0 * delay_s)
    else:
        window = parameters.detection_window_cycles(component, variant)
        window = max(window, min_window_cycles)
        window_s = chip.cycles_to_seconds(window)
        threshold_s = window_s + bet_s
    return IdleGatingCoefficients(
        window_s=window_s,
        threshold_s=threshold_s,
        off_leakage=off_leak,
        transition_j=transition_j,
        delay_cycles=timing.delay_cycles,
        software=software,
    )


@dataclass(frozen=True)
class IdleCoefficientColumns:
    """Aligned per-parameter-point columns of :class:`IdleGatingCoefficients`.

    One entry per gating-parameter point, shaped ``(n_points, 1)`` so the
    grid kernel can broadcast them against a packed per-operator axis.
    Derived by :func:`grid_idle_coefficient_columns`, elementwise equal
    to the scalar :func:`idle_gating_coefficients` of each point.
    """

    window_s: np.ndarray
    threshold_s: np.ndarray
    off_leakage: np.ndarray
    transition_j: np.ndarray
    delay_cycles: np.ndarray
    software: bool  # policy/component property: uniform across points


def grid_idle_coefficient_columns(
    table: "ParameterTable",
    component: Component,
    variant: str | None,
    static_power_w: float,
    chip: NPUChipSpec,
    software: bool,
    min_window_cycles: float = 0.0,
) -> IdleCoefficientColumns:
    """Vectorized :func:`idle_gating_coefficients` over a parameter grid.

    Derives the per-gap coefficient columns of one (component, chip)
    pair for every point of ``table`` in a handful of array ops instead
    of one scalar derivation per point.  Every operation mirrors the
    scalar function elementwise — same divisions, same ``max`` order —
    so the columns are bit-identical to stacking the per-point scalar
    results of the policies' coefficient hooks.
    """
    import numpy as np

    key = variant or GatingParameters._COMPONENT_KEYS[component]
    delay_cycles = table.delay_cycles[key]
    bet_cycles = table.bet_cycles[key]
    delay_s = chip.cycles_to_seconds(delay_cycles)
    bet_s = chip.cycles_to_seconds(bet_cycles)
    if component is Component.SRAM:
        off_leak = table.sram_off
    else:
        off_leak = table.logic_off
    transition_j = static_power_w * bet_s * (1.0 - off_leak)
    if software:
        window_s = np.zeros_like(bet_s)
        threshold_s = np.maximum(bet_s, 2.0 * delay_s)
    else:
        window = bet_cycles * table.detection_window_bet_fraction
        window = np.maximum(window, min_window_cycles)
        window_s = chip.cycles_to_seconds(window)
        threshold_s = window_s + bet_s
    return IdleCoefficientColumns(
        window_s=window_s[:, None],
        threshold_s=threshold_s[:, None],
        off_leakage=off_leak[:, None],
        transition_j=transition_j[:, None],
        delay_cycles=delay_cycles[:, None],
        software=software,
    )


class ParameterTable:
    """A grid of :class:`GatingParameters` in struct-of-arrays form.

    The input of the grid-batched policy evaluation
    (:meth:`repro.gating.policies.PowerGatingPolicy.grid_evaluate`): the
    leakage ratios, the per-timing-key delay/BET cycle counts and the
    remaining tunables of every point are held as aligned ``float64``
    arrays (one entry per point), alongside the original parameter
    instances, which stay the source of truth for derived per-point
    scalars.  Derived coefficient columns are memoized in :attr:`memo`
    and shared by every policy evaluated on the table.
    """

    def __init__(self, parameters: "Sequence[GatingParameters]"):
        points = tuple(parameters)
        if not points:
            raise ValueError("ParameterTable needs at least one parameter point")
        for point in points:
            if not isinstance(point, GatingParameters):
                raise TypeError(
                    f"ParameterTable entries must be GatingParameters, got {point!r}"
                )
        self.parameters = points
        self.n_points = len(points)
        #: Per-point identity tokens (stable memoization handles).
        self.tokens = tuple(parameters_token(point) for point in points)
        column = self._column
        self.logic_off = column(p.leakage.logic_off for p in points)
        self.sram_sleep = column(p.leakage.sram_sleep for p in points)
        self.sram_off = column(p.leakage.sram_off for p in points)
        self.pe_weight_register_share = column(
            p.pe_weight_register_share for p in points
        )
        #: Cross-policy scratchpad for derived per-point columns
        #: (e.g. :class:`IdleCoefficientColumns` per component).
        self.memo: dict = {}

    @staticmethod
    def _column(values: Iterable[float]) -> np.ndarray:
        import numpy as np

        return np.asarray(list(values), dtype=np.float64)

    # -- timing columns (lazy: the grid kernel derives its coefficients
    # -- from the parameter instances, so these are API surface for
    # -- analyses and tests, not hot-path work) ------------------------- #
    @property
    def detection_window_bet_fraction(self) -> np.ndarray:
        cached = self.memo.get("detection_window_bet_fraction")
        if cached is None:
            cached = self._column(
                p.detection_window_bet_fraction for p in self.parameters
            )
            self.memo["detection_window_bet_fraction"] = cached
        return cached

    @property
    def timing_keys(self) -> tuple[str, ...]:
        cached = self.memo.get("timing_keys")
        if cached is None:
            cached = tuple(self.parameters[0].timings)
            for point in self.parameters[1:]:
                if tuple(point.timings) != cached:
                    raise ValueError(
                        "all parameter points of a ParameterTable must share "
                        "one timing-key set"
                    )
            self.memo["timing_keys"] = cached
        return cached

    @property
    def delay_cycles(self) -> dict[str, np.ndarray]:
        cached = self.memo.get("delay_cycles")
        if cached is None:
            cached = {
                key: self._column(
                    p.timings[key].delay_cycles for p in self.parameters
                )
                for key in self.timing_keys
            }
            self.memo["delay_cycles"] = cached
        return cached

    @property
    def bet_cycles(self) -> dict[str, np.ndarray]:
        cached = self.memo.get("bet_cycles")
        if cached is None:
            cached = {
                key: self._column(p.timings[key].bet_cycles for p in self.parameters)
                for key in self.timing_keys
            }
            self.memo["bet_cycles"] = cached
        return cached

    @classmethod
    def point(cls, parameters: GatingParameters) -> "ParameterTable":
        """The memoized one-point table of one parameters instance.

        The table that prices :meth:`PowerGatingPolicy.evaluate
        <repro.gating.policies.PowerGatingPolicy.evaluate>`, built once
        per instance so its derived columns are shared by every policy
        and profile priced at that instance.  It is kept on the instance
        itself rather than in an ``id()``-keyed memo: the table
        references the instance, so such a memo would keep every
        instance alive and its ``weakref.finalize`` eviction would never
        run.  As an attribute, the pair is one reference cycle that is
        collected together, and no later instance can ever see it.
        """
        table = parameters.__dict__.get("_point_table")
        if table is None:
            table = cls((parameters,))
            object.__setattr__(parameters, "_point_table", table)
        return table

    @classmethod
    def of(
        cls, grid: "ParameterTable | Sequence[GatingParameters]"
    ) -> "ParameterTable":
        """Coerce a parameter sequence into a table (tables pass through)."""
        if isinstance(grid, ParameterTable):
            return grid
        return cls(grid)

    def __len__(self) -> int:
        return self.n_points

    def __iter__(self):
        return iter(self.parameters)


DEFAULT_PARAMETERS = GatingParameters()

# Leakage sweep points of Figure 21 (logic off / SRAM sleep / SRAM off).
FIGURE21_LEAKAGE_POINTS: tuple[tuple[float, float, float], ...] = (
    (0.03, 0.25, 0.002),
    (0.10, 0.30, 0.010),
    (0.20, 0.40, 0.100),
    (0.40, 0.50, 0.250),
    (0.60, 0.80, 0.400),
)

# Delay multipliers of Figure 22.
FIGURE22_DELAY_MULTIPLIERS: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0, 4.0)


__all__ = [
    "ComponentTiming",
    "DEFAULT_PARAMETERS",
    "FIGURE21_LEAKAGE_POINTS",
    "FIGURE22_DELAY_MULTIPLIERS",
    "GatingParameters",
    "IdleCoefficientColumns",
    "IdleGatingCoefficients",
    "LeakageRatios",
    "ParameterTable",
    "TABLE3_TIMINGS",
    "grid_idle_coefficient_columns",
    "idle_gating_coefficients",
    "parameters_token",
]
