"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot occurrence in simulated time.  It starts
*pending*, is *triggered* with a value (or an exception) exactly once, and
then invokes its registered callbacks.  Processes (see
:mod:`repro.simkit.process`) suspend themselves by yielding an event and are
resumed by one of these callbacks.

A delay is checked as ``not delay >= 0``, so NaN is refused with the
negative values: a NaN time in the heap would compare false against every
other entry and break the heap order.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.simkit.simulator import Simulator

__all__ = ["Event", "Timeout", "PENDING", "TRIGGERED", "PROCESSED"]


#: Sentinel for an event that has not been triggered yet.
PENDING = "pending"
#: Sentinel for an event that has been scheduled to fire.
TRIGGERED = "triggered"
#: Sentinel for an event whose callbacks already ran.
PROCESSED = "processed"


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.simkit.simulator.Simulator`.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_exception", "_state", "_defused")

    #: ``True`` on the event types that complete a blocking MPI call (see
    #: :class:`repro.mpisim.communicator.MpiEvent`) — what a task runtime
    #: may park a task on.  A class attribute: the marker costs no slot.
    blocks_in_mpi = False

    def __init__(self, sim: "Simulator", name: str | None = None):
        self.sim = sim
        self.name = name
        self.callbacks: list[_t.Callable[[Event], None]] | None = []
        self._value: object = None
        self._exception: BaseException | None = None
        self._state = PENDING
        # If an event fails and nobody waits on it the error must not be
        # silently lost; the simulator re-raises it unless "defused".
        self._defused = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """``True`` once the event has been triggered (or processed)."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run."""
        return self._state == PROCESSED

    @property
    def value(self) -> object:
        """The event's value (valid only once triggered and successful)."""
        if self._state == PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, or ``None``."""
        return self._exception

    def defuse(self) -> None:
        """Mark a failed event as handled so the simulator won't re-raise."""
        self._defused = True

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: object = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``.

        With ``delay`` the outcome is decided now and the callbacks run
        ``delay`` time units from now — one heap entry, where a
        :class:`Timeout` whose callback calls ``succeed`` would be two.
        """
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        self._value = value
        self._state = TRIGGERED
        self.sim._schedule_event(self, delay)
        return self

    def succeed_now(self, value: object = None) -> None:
        """Succeed and run the callbacks in place, with no heap entry.

        For engine code that is itself running as a dispatched heap entry
        (no process is being resumed): the callbacks run exactly where a
        ``succeed`` would have queued them behind this timestamp's other
        pending entries.  See DESIGN.md, *Event contract*.
        """
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._value = value
        self._process()

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._exception = exception
        self._state = TRIGGERED
        self.sim._schedule_event(self)
        return self

    # -- internal -----------------------------------------------------------

    def _process(self) -> None:
        """Run callbacks; called by the simulator's event loop."""
        callbacks, self.callbacks = self.callbacks, None
        self._state = PROCESSED
        for cb in callbacks:  # type: ignore[union-attr]
            cb(self)

    def add_callback(self, cb: _t.Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self.callbacks is None:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} state={self._state}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units in the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None, name: str | None = None):
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        super().__init__(sim, name=name)
        self.delay = delay
        self._value = value
        self._state = TRIGGERED
        sim._schedule_event(self, delay=delay)
