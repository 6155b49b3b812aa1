"""The event loop.

:class:`Simulator` owns the pending-event heap and the simulated clock.  All
other simkit objects reference a simulator; nothing in the engine uses wall
clock or global state, so independent simulations can coexist (the benchmark
harness runs many in one pytest process) and every run is deterministic.

Determinism rules
-----------------
* Events scheduled for the same time fire in schedule order (a monotonically
  increasing sequence number breaks ties).
* No randomness anywhere in the engine; schedulers that need tie-breaking use
  explicit seeded generators.
"""

from __future__ import annotations

import typing as _t
from collections import deque
from heapq import heappop, heappush

from repro.simkit.events import Event, Timeout
from repro.simkit.process import AllOf, Process, ProcessGenerator

__all__ = ["Simulator", "SimulationError", "DeadlockError"]


class SimulationError(RuntimeError):
    """Base class for engine-level failures."""


class DeadlockError(SimulationError):
    """Raised by :meth:`Simulator.run` when processes remain but no event is pending.

    The message lists the still-alive processes and what each is waiting on —
    the simulated-MPI analogue of a hung collective.
    """


class Simulator:
    """A discrete-event simulator instance.

    Attributes
    ----------
    now:
        Current simulated time (seconds, by convention of the callers).
    """

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: End-of-timestep callbacks (see :meth:`defer`), in call order.
        self._deferred: deque[_t.Callable[[], None]] = deque()
        self._alive_processes: set[Process] = set()
        #: Events processed so far — a plain int so the hot loop pays one
        #: increment; the telemetry layer snapshots it into the run manifest
        #: (``sim.events_dispatched``) after :meth:`run` returns.
        self.n_dispatched = 0

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- factories --------------------------------------------------------------

    def timeout(self, delay: float, value: object = None, name: str | None = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: ProcessGenerator, name: str | None = None) -> Process:
        """Launch ``generator`` as a process starting at the current time."""
        proc = Process(self, generator, name=name)
        if proc.is_alive:
            self._alive_processes.add(proc)
            # The callback receives the process itself: no closure over it.
            proc.add_callback(self._alive_processes.discard)
        return proc

    def all_of(self, events: _t.Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` fired."""
        return AllOf(self, events)

    # -- scheduling (engine internal) ------------------------------------------

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, event))

    def defer(self, fn: _t.Callable[[], None]) -> None:
        """Run ``fn()`` at the end of the current timestep.

        The callback runs once every event of the current timestamp has been
        processed — including those scheduled *after* this call — and before
        the clock advances.  This is the coalescing primitive of the fluid
        engine: k same-time changes of a resource fold into one deferred
        rebalance instead of k immediate ones.  Deferred callbacks are a hook
        of the run loop, not heap entries: they run in call order, one at a
        time (events a callback schedules for the current time run before
        the next callback), and do not count as dispatched events.
        """
        self._deferred.append(fn)

    def close(self) -> None:
        """Give up a simulation that will not run on (an attempt a fault
        ended): close every blocked process's generator, in name order, and
        drop the pending heap and deferred callbacks.  What the simulation
        built is then freed by reference counting alone."""
        for proc in sorted(self._alive_processes, key=lambda p: p.name or ""):
            proc._target = None
            proc.generator.close()
        self._alive_processes.clear()
        self._heap.clear()
        self._deferred.clear()

    # -- execution --------------------------------------------------------------

    def run(self) -> None:
        """Run until no event and no deferred callback is left.

        Raises :class:`DeadlockError` if live processes then remain blocked.
        """
        # Hot loop: the heap and the dispatch counter are bound to locals —
        # run() dominates every sweep's wall-clock.
        heap = self._heap
        deferred = self._deferred
        dispatched = 0
        try:
            while True:
                if deferred and (not heap or heap[0][0] > self._now):
                    deferred.popleft()()
                    continue
                if not heap:
                    break
                when, _seq, event = heappop(heap)
                self._now = when
                dispatched += 1
                event._process()
                exc = event._exception
                if exc is not None and not event._defused:
                    raise exc
        finally:
            self.n_dispatched += dispatched
        if self._alive_processes:
            lines = [
                "simulation ended with blocked processes (no pending events); "
                "waiting processes:"
            ]
            for proc in sorted(self._alive_processes, key=lambda p: p.name or ""):
                lines.append(f"  - {proc.name!r} waiting on {proc.target!r}")
            raise DeadlockError("\n".join(lines))
