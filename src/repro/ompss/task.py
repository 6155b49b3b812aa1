"""Task objects and lifecycle records."""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from repro.ompss.deps import AccessMode

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.simkit.events import Event

__all__ = ["Task", "TaskState", "TaskRecord", "BodyFactory"]


class TaskState(enum.Enum):
    """Lifecycle of a task."""

    CREATED = "created"  # waiting on predecessors
    READY = "ready"  # in the scheduler's queue
    RUNNING = "running"  # executing on a worker
    FINISHED = "finished"


#: A task body: called with the executing worker, returns a generator that
#: may yield simkit events (compute, MPI, timeouts).
BodyFactory = _t.Callable[["_t.Any"], _t.Generator]


class Task:
    """One unit of work in the dependency graph.

    Attributes
    ----------
    tid:
        Runtime-unique id (creation order).
    name:
        Label for traces.
    body:
        The :data:`BodyFactory` executed by a worker.
    accesses:
        ``(region, mode)`` pairs from the in/out/inout clauses.
    priority:
        Larger runs earlier under the priority queue policy.
    done:
        Event fired (with the body's return value) on completion.
    """

    __slots__ = (
        "tid",
        "name",
        "body",
        "accesses",
        "priority",
        "state",
        "done",
        "n_pending",
        "successors",
        "created_at",
        "started_at",
        "finished_at",
        "worker_index",
        "retries",
        "did_mpi",
    )

    def __init__(
        self,
        tid: int,
        name: str,
        body: BodyFactory,
        accesses: _t.Sequence[tuple[_t.Hashable, AccessMode]],
        done: "Event",
        priority: int = 0,
        created_at: float = 0.0,
    ):
        self.tid = tid
        self.name = name
        self.body = body
        self.accesses = list(accesses)
        self.priority = priority
        self.state = TaskState.CREATED
        self.done = done
        self.n_pending = 0
        self.successors: list["Task"] = []
        self.created_at = created_at
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.worker_index: int | None = None
        #: Completed executions discarded by fault injection; the body
        #: factory makes re-execution safe (a fresh generator per run).
        self.retries = 0
        #: Whether an execution yielded an MPI event.  Such a task is never
        #: discarded by fault injection: its peers will not replay the
        #: matched communication, so re-execution would deadlock — recovery
        #: for communication faults lives in the mpisim retry layer and the
        #: driver's checkpoint resume instead.
        self.did_mpi = False

    @property
    def is_finished(self) -> bool:
        """Whether the task has completed execution."""
        return self.state is TaskState.FINISHED

    def record(self) -> "TaskRecord":
        """Immutable lifecycle snapshot for the run's trace."""
        return TaskRecord(
            tid=self.tid,
            name=self.name,
            worker_index=self.worker_index,
            created_at=self.created_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            retries=self.retries,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task #{self.tid} {self.name!r} {self.state.value}>"


@dataclasses.dataclass(frozen=True)
class TaskRecord:
    """Completed-task data as recorded in the run's trace."""

    tid: int
    name: str
    worker_index: int | None
    created_at: float
    started_at: float | None
    finished_at: float | None
    #: Discarded executions before this (successful) one (fault injection).
    retries: int = 0

    @property
    def duration(self) -> float:
        """Execution span (0 if never ran)."""
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at
