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
from repro.simkit.process import AllOf, AnyOf, Process, ProcessGenerator

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

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: End-of-timestep callbacks (see :meth:`defer`), in call order.
        self._deferred: deque[_t.Callable[[], None]] = deque()
        self._active_process: Process | None = None
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

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed (``None`` between resumptions)."""
        return self._active_process

    # -- factories --------------------------------------------------------------

    def event(self, name: str | None = None) -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None, name: str | None = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: ProcessGenerator, name: str | None = None) -> Process:
        """Launch ``generator`` as a process starting at the current time."""
        proc = Process(self, generator, name=name)
        if proc.is_alive:
            self._alive_processes.add(proc)
            proc.add_callback(lambda ev: self._alive_processes.discard(proc))
        return proc

    def all_of(self, events: _t.Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` fired."""
        return AllOf(self, events)

    def any_of(self, events: _t.Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fired."""
        return AnyOf(self, events)

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

    # -- execution --------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event or deferred callback
        (``float('inf')`` if there is none)."""
        if self._deferred:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it), or one
        end-of-timestep callback when the current timestamp has no event left."""
        if self._deferred and (not self._heap or self._heap[0][0] > self._now):
            self._deferred.popleft()()
            return
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, _seq, event = heappop(self._heap)
        self._now = when
        self.n_dispatched += 1
        event._process()
        exc = event.exception
        if exc is not None and not event._defused:
            raise exc

    def run(self, until: float | Event | None = None) -> object:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until no events remain.  If live processes then
              remain blocked, raise :class:`DeadlockError`.
            * a number — run until the clock reaches that time.
            * an :class:`Event` — run until that event is processed and
              return its value.

        Returns
        -------
        The value of the ``until`` event, if one was given.
        """
        stop_event: Event | None = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(f"until={stop_time} is in the past (now={self._now})")

        # Hot loop: the body of step() is inlined with the heap and the
        # dispatch counter bound to locals — run() dominates every sweep's
        # wall-clock, and the extra attribute traffic of delegating to
        # step() costs ~8% of end-to-end simulation throughput.
        heap = self._heap
        deferred = self._deferred
        dispatched = 0
        try:
            while True:
                if stop_event is not None and stop_event.processed:
                    return stop_event.value
                if deferred and (not heap or heap[0][0] > self._now):
                    deferred.popleft()()
                    continue
                if not heap:
                    break
                if heap[0][0] > stop_time:
                    self._now = stop_time
                    return None
                when, _seq, event = heappop(heap)
                self._now = when
                dispatched += 1
                event._process()
                exc = event._exception
                if exc is not None and not event._defused:
                    raise exc
        finally:
            self.n_dispatched += dispatched

        if stop_event is not None:
            if stop_event.processed:
                return stop_event.value
            raise DeadlockError(self._deadlock_message(f"'until' event {stop_event!r} never fired"))
        if until is None and self._alive_processes:
            raise DeadlockError(self._deadlock_message("no pending events"))
        if stop_time != float("inf"):
            self._now = stop_time
        return None

    def _deadlock_message(self, reason: str) -> str:
        lines = [f"simulation ended with blocked processes ({reason}); waiting processes:"]
        for proc in sorted(self._alive_processes, key=lambda p: p.name or ""):
            lines.append(f"  - {proc.name!r} waiting on {proc.target!r}")
        return "\n".join(lines)
