"""The task runtime: submit / taskloop / taskwait over a worker pool.

:class:`TaskRuntime` is the per-rank Nanos++ analogue.  Worker processes are
bound one-to-one to the rank's hardware threads; they pull ready tasks from
the policy queue and drive the task body generators (which may yield compute,
MPI, or timeout events).  Tasks may create nested tasks (the paper's first
optimization nests taskloops inside step tasks).

Lifecycle::

    rt = TaskRuntime(rank, n_workers=8)
    rt.start()
    for ...:
        rt.submit("fft", body, inouts=[("psis", i)])
    yield rt.taskwait()       # all tasks created so far have finished
    yield rt.shutdown()       # workers drain and exit

A small per-task dispatch overhead (default 3 us, the measured order of
Nanos++ task management on KNL-class cores) is charged on the executing
worker; it is what makes excessively fine task grains unprofitable in the
grainsize ablation, as in reality.
"""

from __future__ import annotations

import math
import typing as _t
from collections import deque

from repro import telemetry as _telemetry
from repro.faults.injector import TaskFailedError
from repro.ompss.deps import AccessMode
from repro.ompss.graph import TaskGraph
from repro.ompss.scheduler import make_queue
from repro.ompss.task import BodyFactory, Task, TaskState
from repro.simkit.events import Event
from repro.telemetry.layers import task_kind

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.world import RankContext
    from repro.telemetry.trace import Trace

__all__ = ["TASK_OVERHEAD", "TaskRuntime", "Worker"]

_WAKE = "wake"

#: Default per-task dispatch overhead (seconds), charged on the executing
#: worker.  Every run uses it; the tuner's cost model prices tasks with it.
TASK_OVERHEAD = 3.0e-6


class Worker:
    """One executing thread of the pool (bound to a hardware thread)."""

    def __init__(self, runtime: "TaskRuntime", index: int):
        self.runtime = runtime
        self.index = index

    @property
    def thread_index(self) -> int:
        """The rank-local hardware-thread index this worker runs on."""
        return self.index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Worker {self.index} of rank {self.runtime.rank.rank}>"


class TaskRuntime:
    """Dependency-driven task execution on one rank's threads.

    Parameters
    ----------
    rank:
        The owning :class:`~repro.mpisim.world.RankContext`.
    n_workers:
        Pool size; defaults to the rank's hardware-thread count.
    policy:
        Ready-queue policy (``"fifo"`` | ``"lifo"`` | ``"priority"``).
    task_overhead:
        Dispatch overhead charged per task on its worker (seconds).
    """

    def __init__(
        self,
        rank: "RankContext",
        n_workers: int | None = None,
        policy: str = "fifo",
        task_overhead: float = TASK_OVERHEAD,
        mpi_task_switching: bool = False,
    ):
        # NaN and infinity too: either would reach the heap.
        if not 0.0 <= task_overhead < math.inf:
            raise ValueError(
                f"task_overhead must be finite and >= 0, got {task_overhead}"
            )
        self.rank = rank
        self.n_workers = n_workers if n_workers is not None else rank.n_threads
        if not 1 <= self.n_workers <= rank.n_threads:
            raise ValueError(
                f"n_workers must be in [1, {rank.n_threads}], got {self.n_workers}"
            )
        self.policy = policy
        self.task_overhead = task_overhead
        #: The world's fault injector, read off the rank (``None`` on a
        #: healthy run): completed tasks may be discarded and re-executed,
        #: bounded by the scenario's ``task_max_retries``.
        self.faults = rank.faults
        #: The world's recorder, read off the rank (``None`` when the run is
        #: not traced): finished tasks append ``(rank, record)`` to
        #: ``trace.tasks``.
        self.trace: "Trace | None" = rank.trace
        #: Suspend tasks that block in MPI and run other tasks meanwhile
        #: (the hybrid MPI/SMPSs technique of the paper's ref. [11]).  Also
        #: the deadlock cure when every worker would otherwise sit inside a
        #: collective that cannot complete until *this* rank joins another.
        self.mpi_task_switching = mpi_task_switching
        self.queue = make_queue(policy, n_workers=self.n_workers)
        self.graph = TaskGraph()
        self._next_tid = 0
        self._idle: dict[int, Event] = {}
        self._started = False
        self._stopping = False
        self._taskwaits: list[Event] = []
        self._worker_procs: list = []
        self._resume_qs: dict[int, deque] = {}

    # -- pool control ----------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker processes (idempotent)."""
        if self._started:
            return
        self._started = True
        sim = self.rank.sim
        for w in range(self.n_workers):
            worker = Worker(self, w)
            self._resume_qs[w] = deque()
            proc = sim.process(
                self._worker_loop(worker), name=f"rank{self.rank.rank}-worker{w}"
            )
            self._worker_procs.append(proc)

    def shutdown(self) -> Event:
        """Stop accepting tasks; event fires when all workers exited."""
        self._stopping = True
        self._wake_all()
        return self.rank.sim.all_of(self._worker_procs)

    # -- task creation -------------------------------------------------------------

    def submit(
        self,
        name: str,
        body: BodyFactory,
        ins: _t.Sequence[_t.Hashable] = (),
        outs: _t.Sequence[_t.Hashable] = (),
        inouts: _t.Sequence[_t.Hashable] = (),
        priority: int = 0,
    ) -> Task:
        """Create a task (the ``$omp task`` pragma).

        ``body(worker)`` must return a generator; its return value becomes
        the value of ``task.done``.
        """
        if self._stopping:
            raise RuntimeError("submit() after shutdown()")
        if not self._started:
            raise RuntimeError("start() the runtime before submitting tasks")
        accesses = (
            [(r, AccessMode.IN) for r in ins]
            + [(r, AccessMode.OUT) for r in outs]
            + [(r, AccessMode.INOUT) for r in inouts]
        )
        task = Task(
            tid=self._next_tid,
            name=name,
            body=body,
            accesses=accesses,
            done=Event(self.rank.sim, name=f"task:{name}"),
            priority=priority,
            created_at=self.rank.sim.now,
        )
        self._next_tid += 1
        tel = _telemetry.current()
        if tel.enabled:
            tel.metrics.count("ompss.tasks_submitted", 1.0, name=task_kind(name))
        predecessors = self.graph.add(task)
        if tel.enabled:
            rank = self.rank.rank
            for pred in predecessors:
                tel.task_edges.append((rank, pred.tid, task.tid))
        if task.state is TaskState.READY:
            self._on_ready(task)
        return task

    def taskloop(
        self,
        name: str,
        n_items: int,
        make_body: _t.Callable[[int, int], BodyFactory],
        grainsize: int,
        ins: _t.Sequence[_t.Hashable] = (),
        outs: _t.Sequence[_t.Hashable] = (),
        inouts: _t.Sequence[_t.Hashable] = (),
    ) -> list[Task]:
        """The ``$omp taskloop`` construct: one task per grainsize chunk.

        ``make_body(start, stop)`` builds the body for the half-open chunk
        ``[start, stop)``.
        """
        if n_items < 0:
            raise ValueError(f"n_items must be >= 0, got {n_items}")
        if grainsize < 1:
            raise ValueError(f"grainsize must be >= 1, got {grainsize}")
        n_chunks = max(1, math.ceil(n_items / grainsize)) if n_items else 0
        tasks = []
        for c in range(n_chunks):
            start = c * grainsize
            stop = min(n_items, start + grainsize)
            tasks.append(
                self.submit(
                    f"{name}[{start}:{stop}]",
                    make_body(start, stop),
                    ins=ins,
                    outs=outs,
                    inouts=inouts,
                )
            )
        return tasks

    def taskwait(self) -> Event:
        """Event firing when every task created so far has finished."""
        ev = Event(self.rank.sim, name=f"taskwait:rank{self.rank.rank}")
        if self.graph.n_outstanding == 0:
            ev.succeed(None)
        else:
            self._taskwaits.append(ev)
        return ev

    # -- scheduler internals -----------------------------------------------------

    def _on_ready(self, task: Task) -> None:
        self.queue.push(task)
        self._sample_queue_depth()
        self._wake_one()

    def _sample_queue_depth(self) -> None:
        tel = _telemetry.current()
        if tel.enabled:
            rank = self.rank
            tel.queue_samples.append((rank.sim.now, rank.rank, len(self.queue)))

    def _wake_one(self) -> None:
        if self._idle:
            _w, ev = self._idle.popitem()
            ev.succeed(_WAKE)

    def _wake_worker(self, worker_index: int) -> None:
        ev = self._idle.pop(worker_index, None)
        if ev is not None:
            ev.succeed(_WAKE)
        else:
            self._wake_one()

    def _wake_all(self) -> None:
        while self._idle:
            _w, ev = self._idle.popitem()
            ev.succeed(_WAKE)

    def _worker_loop(self, worker: Worker) -> _t.Generator:
        sim = self.rank.sim
        resume_q = self._resume_qs[worker.index]
        while True:
            if resume_q:
                task, gen, mpi_event = resume_q.popleft()
                yield from self._drive(worker, task, gen, resume_from=mpi_event)
                continue
            task = self.queue.pop(worker.index)
            if task is not None:
                self._sample_queue_depth()
            if task is None:
                if (
                    self._stopping
                    and self.graph.n_outstanding == 0
                    and not resume_q
                ):
                    return
                ev = Event(sim, name=f"idle:rank{self.rank.rank}-w{worker.index}")
                self._idle[worker.index] = ev
                yield ev
                continue  # re-check resume queue, ready queue, exit condition

            task.state = TaskState.RUNNING
            task.worker_index = worker.index
            task.started_at = sim.now
            if self.task_overhead > 0:
                yield sim.timeout(self.task_overhead)
            yield from self._drive(worker, task, task.body(worker), resume_from=None)

    def _drive(
        self,
        worker: Worker,
        task: Task,
        gen: _t.Generator,
        resume_from: Event | None,
    ) -> _t.Generator:
        """Advance a task body until it completes or parks on an MPI event.

        With :attr:`mpi_task_switching` on, a body that yields a blocking
        MPI event is *suspended* and its worker freed — the Marjanović
        hybrid MPI/task technique the paper cites as ref. [11]; the
        continuation re-runs on the same worker (its compute calls are
        bound to that hardware thread) once the communication completes.
        """
        sim = self.rank.sim
        throw: BaseException | None = None
        to_send: object = None
        if resume_from is not None:
            if resume_from.exception is not None:
                resume_from.defuse()
                throw = resume_from.exception
            else:
                to_send = resume_from.value
        while True:
            try:
                event = gen.send(to_send) if throw is None else gen.throw(throw)
            except StopIteration as stop:
                self._complete_task(task, stop.value)
                return
            throw = None
            is_mpi = isinstance(event, Event) and event.blocks_in_mpi
            if is_mpi:
                task.did_mpi = True
            if self.mpi_task_switching and is_mpi:
                event.add_callback(
                    lambda ev, t=task, g=gen, w=worker.index: self._park_resume(w, t, g, ev)
                )
                self._count_switch()
                return  # worker freed; the continuation is queued on completion
            try:
                to_send = yield event
            except GeneratorExit:
                gen.close()  # the worker is closed: so is the body it drives
                raise
            except BaseException as exc:  # forward inline-event failures
                throw = exc

    def _park_resume(self, worker_index: int, task: Task, gen: _t.Generator, event: Event) -> None:
        self._resume_qs[worker_index].append((task, gen, event))
        self._wake_worker(worker_index)

    def _count_switch(self) -> None:
        tel = _telemetry.current()
        if tel.enabled:
            tel.metrics.count("ompss.task_switches")

    def _complete_task(self, task: Task, result: object) -> None:
        faults = self.faults
        if (
            faults is not None
            and faults.scenario.fails_tasks
            and not task.did_mpi  # comm tasks can't replay; see Task.did_mpi
            and faults.task_should_fail(self.rank.rank, task.name)
        ):
            self._discard_execution(task)
            return
        task.finished_at = self.rank.sim.now
        for succ in self.graph.complete(task):
            self._on_ready(succ)
        if self.trace is not None:
            self.trace.tasks.append((self.rank.rank, task.record()))
        if faults is not None and task.retries > 0:
            faults.record(
                "task_recovered",
                rank=self.rank.rank,
                task=task.name,
                retries=task.retries,
            )
        task.done.succeed(result)
        self._after_completion()

    def _discard_execution(self, task: Task) -> None:
        """Fault injection rejected the execution: re-enqueue or abort.

        Re-enqueueing is dependency-safe: the task never reached
        ``graph.complete``, so successors stay blocked and taskwaits keep
        counting it as outstanding; the body factory builds a fresh
        generator for the re-execution.
        """
        faults = self.faults
        assert faults is not None
        task.retries += 1
        if task.retries > faults.scenario.task_max_retries:
            faults.record(
                "task_abort",
                rank=self.rank.rank,
                task=task.name,
                executions=task.retries,
            )
            # The undefused failure surfaces through the simulator — the
            # run ends with a structured error, never a hang.
            task.done.fail(
                TaskFailedError(
                    f"task {task.name!r} on rank {self.rank.rank} failed "
                    f"{task.retries} times (task_max_retries="
                    f"{faults.scenario.task_max_retries})"
                )
            )
            return
        faults.record(
            "task_reexec", rank=self.rank.rank, task=task.name, retry=task.retries
        )
        tel = _telemetry.current()
        if tel.enabled:
            tel.metrics.count("ompss.task_reexecutions", 1.0, name=task_kind(task.name))
        task.state = TaskState.READY
        task.started_at = None
        task.worker_index = None
        self.queue.push(task)
        self._sample_queue_depth()

    def _after_completion(self) -> None:
        if self.graph.n_outstanding == 0:
            waiters, self._taskwaits = self._taskwaits, []
            for ev in waiters:
                ev.succeed(None)
            if self._stopping:
                self._wake_all()
