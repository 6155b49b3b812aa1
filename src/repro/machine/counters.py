"""Simulated hardware counters (instructions / compute time / IPC).

The POP efficiency model of the paper (Tables I and II) consumes exactly two
hardware quantities per process: useful instructions executed in computation
and the time spent computing (from which average IPC follows, given the clock
frequency).  :class:`CounterSet` accumulates both per execution stream and per
phase, fed by the :class:`~repro.machine.cpu.CpuModel` completion hook.
"""

from __future__ import annotations

import dataclasses
import typing as _t

__all__ = ["PhaseCounters", "CounterSet"]


@dataclasses.dataclass
class PhaseCounters:
    """Accumulated instructions and busy time for one (stream, phase) pair."""

    instructions: float = 0.0
    compute_time: float = 0.0
    occurrences: int = 0

    def add(self, instructions: float, compute_time: float) -> None:
        """Fold one completed compute phase into the counters."""
        self.instructions += instructions
        self.compute_time += compute_time
        self.occurrences += 1

    def ipc(self, frequency_hz: float) -> float:
        """Average IPC over the accumulated phase executions."""
        if self.compute_time <= 0.0:
            return 0.0
        return self.instructions / (self.compute_time * frequency_hz)


class CounterSet:
    """Per-stream, per-phase hardware-counter accumulation.

    A *stream* is one execution context the analysis treats as a process:
    an MPI rank in the original version, an (MPI rank, OmpSs thread) pair in
    the task versions.
    """

    def __init__(self, frequency_hz: float):
        if frequency_hz <= 0:
            raise ValueError(f"frequency_hz must be positive, got {frequency_hz}")
        self.frequency_hz = frequency_hz
        self._data: dict[_t.Hashable, dict[str, PhaseCounters]] = {}

    def record(self, stream: _t.Hashable, phase: str, instructions: float, compute_time: float) -> None:
        """Accumulate one completed compute phase."""
        try:
            counters = self._data[stream][phase]
        except KeyError:
            counters = self._data.setdefault(stream, {})[phase] = PhaseCounters()
        counters.add(instructions, compute_time)

    # -- queries ----------------------------------------------------------------

    @property
    def streams(self) -> list[_t.Hashable]:
        """All streams that recorded at least one phase."""
        return sorted(self._data, key=repr)

    def phases(self, stream: _t.Hashable) -> dict[str, PhaseCounters]:
        """Phase-name -> counters mapping for one stream."""
        return dict(self._data.get(stream, {}))

    def stream_instructions(self, stream: _t.Hashable) -> float:
        """Total useful instructions of one stream."""
        return sum(c.instructions for c in self._data.get(stream, {}).values())

    def stream_compute_time(self, stream: _t.Hashable) -> float:
        """Total busy compute time of one stream."""
        return sum(c.compute_time for c in self._data.get(stream, {}).values())

    def stream_ipc(self, stream: _t.Hashable) -> float:
        """Average IPC of one stream over its compute time."""
        t = self.stream_compute_time(stream)
        if t <= 0.0:
            return 0.0
        return self.stream_instructions(stream) / (t * self.frequency_hz)

    def total_instructions(self) -> float:
        """Total useful instructions over all streams."""
        return sum(self.stream_instructions(s) for s in self._data)

    def total_compute_time(self) -> float:
        """Accumulated compute time over all streams."""
        return sum(self.stream_compute_time(s) for s in self._data)

    def average_ipc(self) -> float:
        """Compute-time-weighted average IPC over all streams."""
        t = self.total_compute_time()
        if t <= 0.0:
            return 0.0
        return self.total_instructions() / (t * self.frequency_hz)

    def phase_ipc(self, phase: str) -> float:
        """Average IPC of one phase kind across all streams."""
        instr = 0.0
        t = 0.0
        for per_phase in self._data.values():
            c = per_phase.get(phase)
            if c is not None:
                instr += c.instructions
                t += c.compute_time
        if t <= 0.0:
            return 0.0
        return instr / (t * self.frequency_hz)
