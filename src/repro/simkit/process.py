"""Coroutine processes and the all-of condition.

A *process* wraps a Python generator.  The generator yields events; the
process suspends on each yielded event and is resumed with the event's value
(or the event's exception is thrown into the generator).  The process object
is itself an :class:`~repro.simkit.events.Event` that triggers with the
generator's return value, so processes can wait on each other.

:class:`AllOf` is the condition event used by simulated MPI collectives
("resume when every transfer arrived") and by the OmpSs runtime's shutdown.
"""

from __future__ import annotations

import typing as _t

from repro.simkit.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.simkit.simulator import Simulator

__all__ = ["Process", "AllOf"]

ProcessGenerator = _t.Generator[Event, object, object]


class Process(Event):
    """A running coroutine; also an event that fires when the coroutine ends.

    Parameters
    ----------
    sim:
        Owning simulator.
    generator:
        A generator yielding :class:`Event` instances.
    name:
        Label for diagnostics.
    """

    __slots__ = ("generator", "_target")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str | None = None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", None))
        self.generator = generator
        #: The event this process is currently waiting on (``None`` if ready).
        self._target: Event | None = None
        # Bootstrap: resume the generator at the current simulation time.
        init = Event(sim, name=f"init:{self.name}")
        init.add_callback(self._resume)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        """``True`` while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Event | None:
        """The event this process is waiting for (diagnostics / deadlock dump)."""
        return self._target

    # -- engine internals ---------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self._target = None
        while True:
            try:
                if event._exception is None:
                    next_event = self.generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self.generator.throw(event._exception)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                self.fail(RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                ))
                return
            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event still pending or not yet processed: wait for it.
                self._target = next_event
                callbacks.append(self._resume)
                return
            # Event already processed: loop and feed its value straight in.
            event = next_event


class AllOf(Event):
    """Fires, with no value, once *all* the given events have succeeded.

    Fail-fast: the first member that fails fails the condition with its
    exception; members that fail after that are defused.
    """

    __slots__ = ("_remaining",)

    def __init__(self, sim: "Simulator", events: _t.Iterable[Event], name: str | None = None):
        super().__init__(sim, name=name)
        events = list(events)
        for ev in events:
            if ev.sim is not sim:
                raise ValueError("all events of a condition must share one simulator")
        self._remaining = len(events)
        if not events:
            self.succeed()
            return
        for ev in events:
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if event._exception is not None:
            event._defused = True
            if not self.triggered:
                self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed()
