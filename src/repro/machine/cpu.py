"""The CPU model: executing compute phases on the contended node.

:class:`CpuModel` wraps one :class:`~repro.simkit.fluid.FluidResource` whose
allocator is the :class:`~repro.machine.contention.BandwidthContentionAllocator`.
Rank programs and OmpSs workers execute computation as::

    yield cpu.compute(stream, thread, "fft_xy", instructions)

The returned event fires when the phase's instruction budget has been issued
at whatever (time-varying) effective rate the contention model granted.  On
completion the CPU model updates the hardware counters and, when the run is
traced, appends a :class:`ComputeRecord` to ``CpuModel.trace``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.machine.contention import BandwidthContentionAllocator
from repro.machine.counters import CounterSet
from repro.machine.phases import PhaseTable
from repro.machine.topology import HwThread, NodeTopology
from repro.simkit.events import Event
from repro.simkit.fluid import FluidResource
from repro.simkit.rng import UniformStream

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.simkit.simulator import Simulator
    from repro.telemetry.trace import Trace

__all__ = ["ComputeRecord", "CpuModel"]


@dataclasses.dataclass(slots=True)
class ComputeRecord:
    """One completed compute phase, as recorded in the run's trace.

    Built once per phase on the simulator's hot path, hence slotted and not
    frozen (a frozen dataclass pays ``object.__setattr__`` per field);
    readers treat records as read-only.
    """

    stream: _t.Hashable
    thread: HwThread
    phase: str
    instructions: float
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Wall (simulated) duration of the phase."""
        return self.end - self.start

    def ipc(self, frequency_hz: float) -> float:
        """Average effective IPC over the phase."""
        if self.duration <= 0.0:
            return 0.0
        return self.instructions / (self.duration * frequency_hz)


class CpuModel:
    """Compute facade over the contended node.

    Parameters
    ----------
    sim:
        Owning simulator.
    topology:
        The node (frequency and thread slots).
    phase_table:
        Known compute-phase profiles.
    bandwidth_bytes_per_s:
        Effective shared memory bandwidth for the water-filling stage.
    """

    def __init__(
        self,
        sim: "Simulator",
        topology: NodeTopology,
        phase_table: PhaseTable,
        bandwidth_bytes_per_s: float,
        jitter: float = 0.0,
        jitter_seed: int = 7,
        bandwidth_rampup_max: float | None = None,
        bandwidth_rampup_half: float = 0.0,
    ):
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.sim = sim
        self.topology = topology
        self.phase_table = phase_table
        self.allocator = BandwidthContentionAllocator(
            frequency_hz=topology.frequency_hz,
            bandwidth_bytes_per_s=bandwidth_bytes_per_s,
            bandwidth_rampup_max=bandwidth_rampup_max,
            bandwidth_rampup_half=bandwidth_rampup_half,
        )
        self.resource = FluidResource(sim, self.allocator, name="cpu")
        self.counters = CounterSet(frequency_hz=topology.frequency_hz)
        #: The run's one recorder: completed phases append to
        #: ``trace.compute`` (``None``: the run is not traced).
        self.trace: "Trace | None" = None
        #: Relative amplitude of per-execution speed variability.  Real cores
        #: never run two nominally identical phases at exactly the same speed
        #: (cache/TLB state, OS noise); this seeded, deterministic jitter is
        #: what lets dynamically scheduled tasks drift out of lock-step — the
        #: raw material of the paper's de-synchronization effect.  Statically
        #: synchronized executions re-align at every collective, so the same
        #: jitter costs them load balance instead.
        self.jitter = jitter
        #: ``substream(jitter_seed).random()``'s draws, without numpy.random.
        self._rng = UniformStream(jitter_seed)
        #: Fault injector consulted per compute phase (set by the driver
        #: when a fault scenario is active; ``None`` costs one attribute
        #: check and leaves timing bit-identical to a healthy run).
        self.faults: "FaultInjector | None" = None

    @property
    def frequency_hz(self) -> float:
        """Core clock frequency (Hz)."""
        return self.topology.frequency_hz

    def compute(
        self,
        stream: _t.Hashable,
        thread: HwThread,
        phase: str,
        instructions: float,
    ) -> Event:
        """Execute ``instructions`` of phase ``phase`` on ``thread``.

        Returns an event that fires when the work completes.  The phase must
        exist in the phase table; unknown phases raise immediately (catching
        cost-model typos at call time rather than as silent stalls).
        """
        profile = self.phase_table[phase]
        if instructions < 0:
            raise ValueError(f"negative instruction count {instructions!r}")
        speed = 1.0
        if self.jitter > 0.0:
            speed = 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        if self.faults is not None:
            speed *= self.faults.compute_speed_factor(stream)
        task = self.resource.submit(
            instructions,
            meta={"profile": profile, "thread": thread, "stream": stream, "speed": speed},
        )
        # The callback closes over neither the task nor this model: a
        # pending task's event then leads back to nothing that holds it.
        start = task.start_time
        counters, trace = self.counters, self.trace

        def _finish(event: Event) -> None:
            if event._exception is not None:
                return  # failed: no completion bookkeeping
            end = event.sim._now  # the task's finish_time: it completes now
            record = ComputeRecord(stream, thread, phase, instructions, start, end)
            counters.record(stream, phase, instructions, end - start)
            if trace is not None:
                trace.compute.append(record)
            # Waiters resume off this same event; registered first, this
            # callback swaps the task payload for the ComputeRecord they
            # expect — one event per phase instead of a done/notify pair.
            event._value = record

        task.done.callbacks.append(_finish)  # fresh event: nobody beat us to it
        return task.done

    def engine_stats(self) -> dict[str, int]:
        """Fluid-engine counters of the contended CPU resource (manifests)."""
        return dict(self.resource.stats())

    def current_ipc_of(self, stream: _t.Hashable) -> float | None:
        """Instantaneous effective IPC of a stream's running phase (or None)."""
        for task in self.resource.active_tasks:
            if task.meta.get("stream") == stream:
                return self.allocator.effective_ipc(task.rate)
        return None
