"""Discrete-event simulation engine.

``simkit`` is the foundation of the whole reproduction: simulated MPI ranks,
OmpSs worker threads and hardware resources are all coroutine *processes*
driven by a single event queue.  The design follows the classic
process-interaction style (generators yield *events*; the simulator resumes
them when the event triggers) with one addition that the KNL contention model
needs: :class:`~repro.simkit.fluid.FluidResource`, a processor-sharing
resource whose per-task progress rates are recomputed every time the set of
active tasks changes.  This is what lets a compute phase's effective IPC
depend on *what else* is running on the node at the same instant.

The package holds exactly what a run drives: no counting resources, stores,
interrupts or cancellation, and :meth:`Simulator.run` always runs to the end.

Public API
----------
Simulator
    The event loop: ``now``, ``timeout``, ``process``, ``all_of``,
    ``defer``, ``run``.
Event, Timeout, Process, AllOf
    Awaitable primitives for coroutine processes.
FluidResource, FluidTask, RateAllocator
    Processor-sharing resources with state-dependent rates.
"""

from repro.simkit.events import Event, Timeout
from repro.simkit.process import Process, AllOf
from repro.simkit.fluid import FluidResource, FluidTask, RateAllocator
from repro.simkit.simulator import Simulator, SimulationError, DeadlockError

__all__ = [
    "Simulator",
    "SimulationError",
    "DeadlockError",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "FluidResource",
    "FluidTask",
    "RateAllocator",
]
