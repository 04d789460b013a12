"""SRAM scratchpad allocation with buffer lifetimes.

The NPU SRAM is a software-managed scratchpad: the compiler decides the
address and lifetime of every buffer.  ReGate's software-managed SRAM
power gating consumes exactly this information — "the output of the SRAM
allocation pass, which includes the lifetime (start/end instruction
index), start address, and size of each allocated buffer" (§4.3) — to
derive the idle intervals of each 4 KB segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.hardware.chips import KiB, NPUChipSpec


@dataclass(frozen=True)
class BufferRequest:
    """A request to allocate an SRAM buffer for an instruction range."""

    name: str
    size_bytes: int
    start_index: int
    end_index: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"buffer {self.name!r} has non-positive size")
        if self.end_index < self.start_index:
            raise ValueError(f"buffer {self.name!r} has end before start")


@dataclass(frozen=True)
class BufferAllocation:
    """A placed SRAM buffer."""

    request: BufferRequest
    start_address: int

    @property
    def end_address(self) -> int:
        return self.start_address + self.request.size_bytes


@dataclass
class SegmentLifetime:
    """Busy intervals (in instruction indices) of one 4 KB SRAM segment."""

    segment_index: int
    busy_intervals: list[tuple[int, int]] = field(default_factory=list)

    def busy_at(self, index: int) -> bool:
        return any(start <= index <= end for start, end in self.busy_intervals)

    @property
    def ever_used(self) -> bool:
        return bool(self.busy_intervals)


class SramAllocator:
    """First-fit SRAM allocator producing per-segment lifetimes."""

    def __init__(self, chip: NPUChipSpec):
        self.chip = chip
        self.segment_bytes = chip.sram_segment_kb * KiB
        self.capacity = int(chip.sram_bytes)

    def allocate(self, requests: list[BufferRequest]) -> list[BufferAllocation]:
        """Place every buffer, raising if the live set exceeds capacity.

        Buffers are placed in order of start index using first-fit against
        the buffers whose lifetimes overlap.
        """
        placed: list[BufferAllocation] = []
        for request in sorted(requests, key=lambda r: (r.start_index, -r.size_bytes)):
            live = [
                allocation
                for allocation in placed
                if not (
                    allocation.request.end_index < request.start_index
                    or request.end_index < allocation.request.start_index
                )
            ]
            live.sort(key=lambda allocation: allocation.start_address)
            address = 0
            for allocation in live:
                if address + request.size_bytes <= allocation.start_address:
                    break
                address = max(address, allocation.end_address)
            if address + request.size_bytes > self.capacity:
                raise MemoryError(
                    f"SRAM allocation failed for {request.name!r}: "
                    f"{request.size_bytes} bytes do not fit"
                )
            placed.append(BufferAllocation(request=request, start_address=address))
        return placed

    # ------------------------------------------------------------------ #
    def segment_lifetimes(
        self, allocations: list[BufferAllocation]
    ) -> list[SegmentLifetime]:
        """Compute the busy intervals of every SRAM segment."""
        num_segments = self.capacity // self.segment_bytes
        lifetimes = [SegmentLifetime(segment_index=i) for i in range(num_segments)]
        for allocation in allocations:
            first = allocation.start_address // self.segment_bytes
            last = (allocation.end_address - 1) // self.segment_bytes
            interval = (allocation.request.start_index, allocation.request.end_index)
            for segment in range(first, min(last + 1, num_segments)):
                lifetimes[segment].busy_intervals.append(interval)
        for lifetime in lifetimes:
            lifetime.busy_intervals.sort()
        return lifetimes

    def peak_usage_bytes(self, allocations: list[BufferAllocation]) -> int:
        """Highest address ever used (peak SRAM footprint)."""
        if not allocations:
            return 0
        return max(allocation.end_address for allocation in allocations)


__all__ = [
    "BufferAllocation",
    "BufferRequest",
    "SegmentLifetime",
    "SramAllocator",
]
