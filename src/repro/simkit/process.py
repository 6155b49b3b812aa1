"""Coroutine processes and condition events.

A *process* wraps a Python generator.  The generator yields events; the
process suspends on each yielded event and is resumed with the event's value
(or the event's exception is thrown into the generator).  The process object
is itself an :class:`~repro.simkit.events.Event` that triggers with the
generator's return value, so processes can wait on each other.

:class:`AllOf` / :class:`AnyOf` are condition events used e.g. by simulated
MPI collectives ("resume when all participants arrived") and by the OmpSs
``taskwait``.
"""

from __future__ import annotations

import typing as _t

from repro.simkit.events import Event, Interrupt

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.simkit.simulator import Simulator

__all__ = ["Process", "AllOf", "AnyOf", "ConditionValue"]

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

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on its current target (the target event is
        left untouched and may still fire; its value is then discarded).
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self._target is None:
            raise RuntimeError(f"{self!r} is not waiting and cannot be interrupted")
        interrupt_ev = Event(self.sim, name=f"interrupt:{self.name}")
        interrupt_ev._exception = Interrupt(cause)
        interrupt_ev._defused = True
        # Detach from the old target: when it fires, ignore it.
        old_target = self._target
        self._target = None
        if old_target.callbacks is not None:
            try:
                old_target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        interrupt_ev.add_callback(self._resume)
        interrupt_ev.succeed()

    # -- engine internals ---------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self.sim._active_process = self
        self._target = None
        while True:
            try:
                if event._exception is None:
                    next_event = self.generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self.generator.throw(event._exception)
            except StopIteration as stop:
                self.sim._active_process = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.sim._active_process = None
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                self.sim._active_process = None
                err = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self.fail(err)
                return
            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event still pending or not yet processed: wait for it.
                self._target = next_event
                callbacks.append(self._resume)
                break
            # Event already processed: loop and feed its value straight in.
            event = next_event
        self.sim._active_process = None


class ConditionValue:
    """Ordered mapping of the events collected by a fired condition."""

    def __init__(self, events: list[Event]):
        self.events = events

    def __getitem__(self, event: Event) -> object:
        if event not in self.events:
            raise KeyError(event)
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def values(self) -> list[object]:
        """Values of the collected events, in construction order."""
        return [ev.value for ev in self.events]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {len(self.events)} events>"


class _Condition(Event):
    """Common machinery for AllOf / AnyOf."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: _t.Iterable[Event], name: str | None = None):
        super().__init__(sim, name=name)
        self._events = list(events)
        for ev in self._events:
            if ev.sim is not sim:
                raise ValueError("all events of a condition must share one simulator")
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed(ConditionValue([]))
            return
        for ev in self._events:
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if event._exception is not None:
                event._defused = True
            return
        if event._exception is not None:
            event._defused = True
            self.fail(event._exception)
            return
        self._remaining -= 1
        self._on_progress(event)

    def _on_progress(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once *all* the given events have fired successfully.

    The value is a :class:`ConditionValue` over the triggered events.  If any
    event fails, the condition fails with that exception.
    """

    __slots__ = ()

    def _on_progress(self, event: Event) -> None:
        if self._remaining == 0:
            self.succeed(ConditionValue(list(self._events)))


class AnyOf(_Condition):
    """Fires as soon as *one* of the given events fires successfully."""

    __slots__ = ()

    def _on_progress(self, event: Event) -> None:
        # Note: filter on *processed*, not *triggered* — Timeouts are created
        # in the triggered state (their outcome is decided at construction)
        # but have not fired yet.
        self.succeed(ConditionValue([ev for ev in self._events if ev.processed and ev._exception is None]))
