"""Fluid (processor-sharing) resources with state-dependent rates.

A :class:`FluidResource` executes *fluid tasks*: each task carries an amount
of abstract ``work`` and progresses continuously at a rate chosen by a
:class:`RateAllocator`.  Whenever the set of active tasks changes (a task is
submitted or completes), the resource

1. advances every active task's progress at its previous rate,
2. asks the allocator for fresh rates given the *new* active set, and
3. re-arms a single completion timer for the earliest finisher.

This is the standard fluid-flow approximation used by network/host simulators
(SimGrid-style): it is what allows the KNL model to make a compute phase's
effective IPC depend on the concurrently executing phases — the mechanism
behind the paper's resource-contention analysis (Tables I/II, Fig. 7).

The engine is exact for piecewise-constant rates: between change points every
task progresses linearly, and change points are processed in order.

Engine layout (the contention hot path)
---------------------------------------
Per-task progress state lives in struct-of-arrays form — ``remaining``,
``rate``, ``work`` and ``active_time`` are numpy arrays indexed by position in
the active set, maintained incrementally on submit and finish — so the
progress integration of :meth:`FluidResource._advance`, the finished-task
scan and the completion-ETA reduction are whole-array operations instead of
per-task Python loops.  :class:`FluidTask` objects remain the public handles;
their ``remaining``/``rate``/``active_time`` attributes read through to the
arrays while the task is active and are written back on detach.

Changes that land at the same simulation timestamp are *coalesced*: a burst
of k submits (an OmpSs taskloop fan-out) marks the resource dirty and defers
one rebalance to the end of the timestep (:meth:`Simulator.defer`) instead of
running k full reallocations.  This is semantically free — intermediate rate
assignments would act over zero simulated time — and is counted in
``n_coalesced`` for the run manifest.

Allocators speak one protocol (:class:`RateAllocator`): the resource
collects one fixed-width static record per task at submit time, keeps the
records in its state matrix, and hands the allocator the active records as
one array per rebalance, so the allocator never re-walks task metadata (see
:class:`~repro.machine.contention.BandwidthContentionAllocator`).
"""

from __future__ import annotations

import math
import typing as _t

import numpy as np

from repro.simkit.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.simkit.simulator import Simulator

__all__ = ["FluidTask", "RateAllocator", "FluidResource"]

#: Relative tolerance used to decide a task's work is exhausted.
_REL_EPS = 1e-12
#: Absolute floor so zero-work tasks terminate immediately.
_ABS_EPS = 1e-15

#: Initial capacity of the struct-of-arrays buffers (doubled on demand).
_INITIAL_CAPACITY = 16


class _TimerEvent:
    """Completion-timer heap entry.

    Not an :class:`Event`: the run loop only touches ``_process``,
    ``_exception`` and ``_defused``, so class attributes and two slots
    satisfy its contract — no callback list, no state machine, no value.
    Exceptions raised by the handler propagate directly out of the run loop.
    """

    __slots__ = ("_res", "_version")

    _exception: BaseException | None = None
    _defused = False

    def __init__(self, res: "FluidResource", version: int):
        self._res = res
        self._version = version

    def _process(self) -> None:
        self._res._on_timer(self._version)


class FluidTask:
    """A unit of continuously progressing work on a :class:`FluidResource`.

    Attributes
    ----------
    work:
        Total work (engine-agnostic units; the machine layer uses
        *instructions*, the network layer uses *bytes*).
    remaining:
        Work still to do.
    meta:
        Arbitrary metadata the rate allocator may inspect (e.g. the phase
        profile and hardware-thread binding).
    done:
        Event that fires on completion, with no value: the waiter already
        holds the task, and an event carrying it would form a cycle.
    rate:
        Current progress rate (work units per simulated second).
    active_time:
        Simulated time this task spent with a non-zero rate.
    """

    __slots__ = (
        "work",
        "_remaining",
        "meta",
        "done",
        "_rate",
        "_active_time",
        "start_time",
        "finish_time",
        "_res",
    )

    def __init__(self, sim: "Simulator", work: float, meta: dict | None = None):
        if work < 0:
            raise ValueError(f"negative work {work!r}")
        self.work = self._remaining = float(work)
        self.meta: dict = meta or {}
        self.done: Event = Event(sim, name="fluid-done")
        self._rate = 0.0
        self._active_time = 0.0
        self.start_time: float | None = None
        self.finish_time: float | None = None
        #: Owning resource while active (state then lives in its arrays).
        self._res: "FluidResource | None" = None

    # While a task is active its progress state lives in the owning
    # resource's arrays; the properties read through so diagnostics keep
    # working.  Detached (finished or zero-work) tasks fall back to the
    # plain floats written back on detach.

    @property
    def remaining(self) -> float:
        res = self._res
        if res is None:
            return self._remaining
        return float(res._remaining[res._index_of(self)])

    @property
    def rate(self) -> float:
        res = self._res
        if res is None:
            return self._rate
        return float(res._rates[res._index_of(self)])

    @property
    def active_time(self) -> float:
        res = self._res
        if res is None:
            return self._active_time
        i = res._index_of(self)
        return (res._last_update - self.start_time) - float(res._zero_time[i])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FluidTask work={self.work:.3g} remaining={self.remaining:.3g} rate={self.rate:.3g}>"


class RateAllocator(_t.Protocol):
    """Strategy assigning progress rates to the active tasks of a resource.

    ``prepare`` is called once per task at submit time and returns the
    task's static record: a tuple of ``static_width`` numbers holding
    everything the allocator needs that cannot change while the task runs.
    The resource stores the records as rows of one 2-D float array, compacted
    in lockstep with the active set, and per rebalance passes
    ``allocate_batch`` the ``(n, static_width)`` view of the active records,
    in order; it returns one non-negative rate per record as a float array.
    The allocator never re-reads task metadata on the hot path.

    Allocators that track state over the active set (e.g. per-core
    occupancy) may also define ``notify_attach(record)`` and
    ``notify_detach(record)``, called as each task enters and leaves it, and
    ``cache_info()``, merged into :meth:`FluidResource.stats`.
    """

    static_width: int

    def prepare(self, task: FluidTask) -> tuple: ...  # pragma: no cover

    def allocate_batch(self, statics: np.ndarray) -> np.ndarray: ...  # pragma: no cover


class FluidResource:
    """A shared facility executing fluid tasks under a rate allocator.

    Parameters
    ----------
    sim:
        Owning simulator.
    allocator:
        Rate strategy; consulted on every change of the active set.
    name:
        Label for diagnostics.

    Counters (exported into run manifests as the ``engine`` section)
    ----------------------------------------------------------------
    ``n_rebalances``
        Allocator invocations actually performed.
    ``n_coalesced``
        Active-set changes absorbed into an already-pending same-timestamp
        rebalance (the burst savings of the coalescing engine).
    ``n_timer_skips``
        Rebalances that left the completion deadline unchanged and therefore
        re-used the armed timer instead of allocating a fresh one.
    """

    def __init__(
        self,
        sim: "Simulator",
        allocator: RateAllocator,
        name: str = "fluid",
    ):
        self.sim = sim
        self.allocator = allocator
        self.name = name
        self._active: list[FluidTask] = []
        self._n = 0
        self._prepare = allocator.prepare
        self._batch = allocator.allocate_batch
        # Optional membership hooks: allocators that track incremental state
        # over the active set (e.g. per-core occupancy) receive every static
        # record on entry and exit.
        self._notify_attach = getattr(allocator, "notify_attach", None)
        self._notify_detach = getattr(allocator, "notify_detach", None)
        # One (5 + static_width, capacity) matrix holds all per-task state,
        # one column per active task: five progress rows, then the
        # allocator's fixed-width static record.  The named attributes are
        # row views, so element access stays readable while compaction on
        # task exit is a single two-dimensional move and the allocator's
        # ``(n, static_width)`` batch is a transposed view.  ``_zero_time``
        # is time spent at zero rate — active time is derived as
        # elapsed-minus-zero-time, so the common all-rates-positive case
        # never touches the row in :meth:`_advance`.
        self._bind_state(np.zeros((5 + allocator.static_width, _INITIAL_CAPACITY)))
        self._rates_have_zero = True
        self._last_update = sim.now
        self._last_settled = -math.inf
        self._timer_version = 0
        self._armed_deadline: float | None = None
        self._dirty = False
        self.n_rebalances = 0
        self.n_coalesced = 0
        self.n_timer_skips = 0

    def _bind_state(self, state: np.ndarray) -> None:
        self._state = state
        (
            self._remaining,
            self._rates,
            self._work,
            self._zero_time,
            #: Static part of the completion threshold (see :meth:`_settle`).
            self._threshold,
        ) = state[:5]
        self._static_rows = state[5:]

    # -- public API -----------------------------------------------------------

    @property
    def active_tasks(self) -> tuple[FluidTask, ...]:
        """Snapshot of the currently executing tasks (rates up to date)."""
        if self._dirty:
            if self._last_update != self.sim.now:
                self._advance()
            self._flush()
        return tuple(self._active)

    def submit(self, work: float, meta: dict | None = None) -> FluidTask:
        """Start ``work`` units of fluid work; returns the task.

        Yield ``task.done`` from a process to wait for completion.  Zero-work
        tasks complete at the current time without entering the active set.
        """
        sim = self.sim
        now = sim._now
        task = FluidTask(sim, work, meta)
        task.start_time = now
        work = task.work
        if work <= _ABS_EPS:
            task.finish_time = now
            task.done.succeed()
            return task
        # Resolve the allocator's static record first so metadata errors
        # surface at the submit call site, before any state changes.
        static = self._prepare(task)
        if self._last_update != now:
            self._advance()
        i = self._n
        if i == len(self._remaining):
            grown = np.zeros((len(self._state), 2 * i))
            grown[:, :i] = self._state
            self._bind_state(grown)
        threshold = work * _REL_EPS
        if threshold < _ABS_EPS:
            threshold = _ABS_EPS
        self._state[:, i] = (work, 0.0, work, 0.0, threshold, *static)
        self._active.append(task)
        if self._notify_attach is not None:
            self._notify_attach(static)
        task._res = self
        self._n = i + 1
        self._mark_dirty()
        return task

    def stats(self) -> dict[str, int]:
        """Engine counters for manifests/telemetry (see class docstring)."""
        out = {
            "n_rebalances": self.n_rebalances,
            "n_coalesced": self.n_coalesced,
            "n_timer_skips": self.n_timer_skips,
        }
        cache_info = getattr(self.allocator, "cache_info", None)
        if cache_info is not None:
            out.update(cache_info())
        return out

    def close(self) -> None:
        """Drop the active set of a simulation that will not run on: an
        active task and its resource refer to each other."""
        for task in self._active:
            task._res = None
        self._active = []
        self._n = 0

    # -- engine internals -------------------------------------------------------

    def _index_of(self, task: FluidTask) -> int:
        return self._active.index(task)

    def _detach(self, task: FluidTask, i: int) -> None:
        """Write a task's array state back onto the object, release it and
        hand its static record to the allocator's detach hook."""
        task._remaining = float(self._remaining[i])
        task._rate = float(self._rates[i])
        task._active_time = (self._last_update - task.start_time) - float(
            self._zero_time[i]
        )
        task._res = None
        if self._notify_detach is not None:
            self._notify_detach(self._static_rows[:, i])

    def _remove_indices(self, gone: list[int]) -> None:
        """Compact the state matrix and the active list, dropping the
        positions in ``gone`` (several same-timestamp finishers; the
        steady-state single finisher is handled inline by :meth:`_settle`)."""
        n = self._n
        m = n - len(gone)
        if m:
            keep = np.ones(n, dtype=bool)
            keep[gone] = False
            self._state[:, :m] = self._state[:, :n][:, keep]
        # (m == 0: everything finished at once — a barrier — and the live
        # prefix is simply empty.)
        gone_set = set(gone)
        self._active = [t for i, t in enumerate(self._active) if i not in gone_set]
        self._n = m

    def _mark_dirty(self) -> None:
        """Request a rebalance at the end of the current timestep.

        Same-timestamp changes coalesce: the first change schedules one
        deferred flush, subsequent ones only bump the ``n_coalesced``
        counter.  Deferral is exact for the fluid model — between the change
        and the flush zero simulated time passes, so no progress is ever
        integrated under stale rates.
        """
        if self._dirty:
            self.n_coalesced += 1
            return
        self._dirty = True
        self.sim.defer(self._deferred_flush)

    def _deferred_flush(self) -> None:
        if not self._dirty:
            return  # a same-timestamp completion timer already flushed
        if self._last_update != self.sim._now:
            self._advance()
        self._flush()

    def _advance(self) -> None:
        """Integrate progress from the last change point to ``sim.now``."""
        now = self.sim._now
        dt = now - self._last_update
        if dt > 0.0:
            n = self._n
            if n:
                rates = self._rates[:n]
                self._remaining[:n] -= rates * dt
                if self._rates_have_zero:
                    self._zero_time[:n] += dt * (rates == 0.0)
        self._last_update = now

    def _settle(self) -> _t.Sequence[FluidTask]:
        """Detach every task whose residual work is exhausted.

        Returns the finished tasks in active-set order; the caller completes
        their ``done`` events (see :meth:`_on_timer` for why that is a
        separate step).

        A task is done when its residual work is below numerical noise.  The
        rate*ulp term matters at non-dyadic clock values: integration over a
        dt that is off by one ulp of `now` leaves a residual of ~rate * ulp —
        without forgiving it, the resource would re-arm ever-shorter timers
        that no longer advance the clock (an infinite loop in finite time).
        """
        now = self.sim._now
        self._last_settled = now
        n = self._n
        if not n:
            return ()
        threshold = self._rates[:n] * (math.ulp(now) * 8.0)
        np.maximum(threshold, self._threshold[:n], out=threshold)
        gone = (self._remaining[:n] <= threshold).nonzero()[0]
        if gone.size == 1:
            # Single finisher — the steady-state case of a pipelined drain,
            # so detach, notify and compaction are spelled out here: one
            # strided move over the state matrix instead of a boolean mask,
            # and none at all (it would overlap itself) when the finisher is
            # the last column.
            i = int(gone[0])
            task = self._active[i]
            task._remaining = 0.0
            task._rate = float(self._rates[i])
            task._active_time = (self._last_update - task.start_time) - float(
                self._zero_time[i]
            )
            task._res = None
            task.finish_time = now
            if self._notify_detach is not None:
                self._notify_detach(self._static_rows[:, i])
            m = n - 1
            if i != m:
                self._state[:, i:m] = self._state[:, i + 1 : n]
            del self._active[i]
            self._n = m
            return (task,)
        if gone.size == 0:
            return ()
        finished = [self._active[i] for i in gone]
        for i, task in zip(gone, finished):
            self._remaining[i] = 0.0
            self._detach(task, i)
            task.finish_time = now
        self._remove_indices(gone.tolist())
        return finished

    def _flush(self) -> None:
        """Recompute rates for the active set and re-arm the completion timer."""
        self._dirty = False
        self.n_rebalances += 1
        now = self.sim._now
        deadline = self._armed_deadline
        if deadline is not None and now >= deadline and self._last_settled != now:
            # Tasks can only exhaust their work at or after the armed
            # completion deadline (rates are constant between flushes), so a
            # flush strictly before it skips the finished-task scan.  This
            # flush beat the timer to its own timestamp (a reader forced it),
            # possibly from inside a process: the completions go through the
            # heap, never inline.
            for task in self._settle():
                task.done.succeed()
        n = self._n
        eta = math.inf
        if n:
            rates = self._batch(self._static_rows[:, :n].T)
            if rates.shape != (n,):
                raise RuntimeError(
                    f"allocator returned {rates.size} rates for {n} tasks"
                )
            # x[x.argmin()] is x.min() (NaN included) without the Python
            # round trip through numpy's _amin wrapper.
            rmin = rates[rates.argmin()]
            self._rates[:n] = rates
            if rmin > 0.0:
                self._rates_have_zero = False
                etas = self._remaining[:n] / rates
                eta = float(etas[etas.argmin()])
            elif rmin < 0.0:
                raise RuntimeError(f"allocator produced a negative rate {float(rmin)!r}")
            else:
                self._rates_have_zero = True
                positive = rates > 0.0
                if positive.any():
                    eta = float((self._remaining[:n][positive] / rates[positive]).min())

        if eta == math.inf:
            self._timer_version += 1  # disarm any outstanding timer
            self._armed_deadline = None
        else:
            # Never arm a timer that cannot advance the float clock.
            tick = math.ulp(now)
            if tick > eta:
                eta = tick
            deadline = now + eta
            if deadline == self._armed_deadline:
                # The earliest finisher did not move (e.g. a rebalance that
                # left rates unchanged): the already-armed timer stays valid,
                # no fresh heap entry, no version churn.
                self.n_timer_skips += 1
            else:
                self._timer_version += 1
                self._armed_deadline = deadline
                self.sim._schedule_event(_TimerEvent(self, self._timer_version), eta)

    def _on_timer(self, version: int) -> None:
        if version != self._timer_version:
            return  # stale timer; rates changed since it was armed
        self._armed_deadline = None  # this timer is consumed
        if self._last_update != self.sim._now:
            self._advance()
        # Detach the finishers but *defer* the reallocation: completion
        # callbacks routinely submit successor work at this very timestamp,
        # and the end-of-timestep flush absorbs the finish and the resubmits
        # into one allocator call — the intermediate composition is never
        # priced at all.
        finished = self._settle()
        if self._n == 0 and not self._dirty:
            # Nothing left to price: disarm now.  A completion that resubmits
            # then marks a fresh flush instead of joining a deferred one, and
            # the engine counters of every pinned run count it that way.
            self._flush()
        else:
            self._mark_dirty()
        # The timer is a dispatched heap entry — no process is running — so
        # the completions run in place, in active-set order, instead of
        # taking one heap round trip each.  Last, because their callbacks
        # re-enter submit(): the engine state is consistent and the
        # flush-or-defer decision above is the one the heap order produced.
        for task in finished:
            task.done.succeed_now()
