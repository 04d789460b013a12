"""Hardware idle-detection state machine.

The hardware-managed (``auto``) policy gates a component after observing
it idle for a detection window (a fraction of the break-even time), and
wakes it up when the next operation arrives, exposing the wake-up delay.
This is the mechanism ReGate uses for the HBM and ICI controllers and,
in the ReGate-Base/HW configurations, for VUs and whole SAs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class DetectorState(str, Enum):
    """States of the idle-detection finite state machine."""

    ACTIVE = "active"
    COUNTING = "counting"
    GATED = "gated"
    WAKING = "waking"


@dataclass
class IdleDetectorStats:
    """Aggregate statistics of one detector instance."""

    active_cycles: int = 0
    counting_cycles: int = 0
    gated_cycles: int = 0
    waking_cycles: int = 0
    gate_events: int = 0
    exposed_wakeup_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return (
            self.active_cycles
            + self.counting_cycles
            + self.gated_cycles
            + self.waking_cycles
        )


class IdleDetector:
    """Cycle-accurate idle-detection state machine for one block.

    Drive it with :meth:`step`, passing whether the block receives work
    this cycle.  The detector reports whether the work can proceed this
    cycle (``False`` while the block is waking up, which is how wake-up
    delay is exposed to the pipeline).
    """

    def __init__(self, detection_window_cycles: int, wakeup_delay_cycles: int):
        if detection_window_cycles < 1:
            raise ValueError("detection window must be at least one cycle")
        if wakeup_delay_cycles < 0:
            raise ValueError("wake-up delay cannot be negative")
        self.detection_window = detection_window_cycles
        self.wakeup_delay = wakeup_delay_cycles
        self.state = DetectorState.ACTIVE
        self.stats = IdleDetectorStats()
        self._idle_counter = 0
        self._wake_counter = 0

    # ------------------------------------------------------------------ #
    def step(self, has_work: bool) -> bool:
        """Advance one cycle; returns True if work can execute this cycle."""
        if self.state is DetectorState.ACTIVE:
            if has_work:
                self.stats.active_cycles += 1
                return True
            self.state = DetectorState.COUNTING
            self._idle_counter = 1
            self.stats.counting_cycles += 1
            return True
        if self.state is DetectorState.COUNTING:
            if has_work:
                self.state = DetectorState.ACTIVE
                self.stats.active_cycles += 1
                return True
            self._idle_counter += 1
            self.stats.counting_cycles += 1
            if self._idle_counter >= self.detection_window:
                self.state = DetectorState.GATED
                self.stats.gate_events += 1
            return True
        if self.state is DetectorState.GATED:
            if not has_work:
                self.stats.gated_cycles += 1
                return True
            if self.wakeup_delay == 0:
                self.state = DetectorState.ACTIVE
                self.stats.active_cycles += 1
                return True
            self.state = DetectorState.WAKING
            self._wake_counter = 1
            self.stats.waking_cycles += 1
            self.stats.exposed_wakeup_cycles += 1
            return False
        # WAKING: the pending operation stalls until the block is ready.
        self.stats.waking_cycles += 1
        self._wake_counter += 1
        if self._wake_counter >= self.wakeup_delay:
            self.state = DetectorState.ACTIVE
            return False
        self.stats.exposed_wakeup_cycles += 1
        return False

    def run(self, activity: list[bool]) -> IdleDetectorStats:
        """Run the detector over an activity trace (True = has work).

        Steps the state machine one cycle at a time; a pending operation
        that stalls on a wake-up is retried the next cycle.
        """
        pending = list(activity)
        index = 0
        while index < len(pending):
            executed = self.step(pending[index])
            if executed or not pending[index]:
                index += 1
            # else: the same pending work is retried next cycle (stall).
        return self.stats


__all__ = [
    "DetectorState",
    "IdleDetector",
    "IdleDetectorStats",
]
