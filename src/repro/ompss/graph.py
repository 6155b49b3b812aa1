"""The dynamic task-dependency graph.

Built incrementally as tasks are created (OmpSs evaluates clauses "at runtime
whenever a task is created"); a task with no unfinished predecessors is
ready the moment it is added, otherwise it becomes ready when its last
predecessor finishes.  The graph hands ready tasks back to its caller
rather than calling into it, so it holds no reference to the runtime that
owns it.  It also keeps simple aggregate statistics used by the tests and
the analysis tooling (edges, widths).
"""

from __future__ import annotations

from repro.ompss.deps import DependencyTracker
from repro.ompss.task import Task, TaskState

__all__ = ["TaskGraph"]


class TaskGraph:
    """Dependency bookkeeping: registration, completion, ready propagation."""

    def __init__(self) -> None:
        self._tracker = DependencyTracker()
        self.n_created = 0
        self.n_finished = 0
        self.n_edges = 0

    def add(self, task: Task) -> set[Task]:
        """Register a new task and return its predecessors — the dependency
        edges, which are not recoverable from task records once the run
        finishes.  A task with none is READY on return."""
        predecessors = self._tracker.register(task)
        self.n_created += 1
        task.n_pending = len(predecessors)
        self.n_edges += len(predecessors)
        for pred in predecessors:
            pred.successors.append(task)
        if task.n_pending == 0:
            task.state = TaskState.READY
        return predecessors

    def complete(self, task: Task) -> list[Task]:
        """Mark a task finished; return the successors it made READY, in
        the order they became ready."""
        if task.state is not TaskState.RUNNING:
            raise RuntimeError(f"{task!r} completed while not running")
        task.state = TaskState.FINISHED
        self.n_finished += 1
        ready = []
        for succ in task.successors:
            succ.n_pending -= 1
            if succ.n_pending == 0 and succ.state is TaskState.CREATED:
                succ.state = TaskState.READY
                ready.append(succ)
        return ready

    @property
    def n_outstanding(self) -> int:
        """Tasks created but not yet finished."""
        return self.n_created - self.n_finished
