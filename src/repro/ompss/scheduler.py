"""Ready-queue policies.

Nanos++ ships several schedulers; the behaviours that matter for this
reproduction are the order in which ready tasks are dispatched:

* ``fifo`` (breadth-first, the Nanos++ default) — creation order.  This is
  what keeps concurrent per-FFT tasks on different ranks working on
  *overlapping* band windows, so their keyed Alltoalls pair up promptly.
* ``lifo`` (depth-first) — newest first; favours cache locality, included
  for the scheduler-policy ablation.
* ``priority`` — explicit task priorities, creation order within a class.

All policies are deterministic; there is no work stealing because workers
share a single per-rank queue (Nanos++'s central-queue configuration).
"""

from __future__ import annotations

import heapq
import typing as _t
from collections import deque

from repro import telemetry as _telemetry
from repro.ompss.task import Task

__all__ = [
    "FifoQueue",
    "LifoQueue",
    "PriorityQueue",
    "LocalityQueue",
    "WorkStealingQueue",
    "make_queue",
    "ReadyQueue",
]


class ReadyQueue(_t.Protocol):
    """Interface of a ready queue."""

    def push(self, task: Task) -> None:
        """Add a ready task."""
        ...  # pragma: no cover

    def pop(self, worker_index: int | None = None) -> Task | None:
        """Remove and return the next task for this worker, or ``None``."""
        ...  # pragma: no cover

    def __len__(self) -> int: ...  # pragma: no cover


class FifoQueue:
    """Dispatch in creation order."""

    def __init__(self) -> None:
        self._q: deque[Task] = deque()

    def push(self, task: Task) -> None:
        self._q.append(task)

    def pop(self, worker_index: int | None = None) -> Task | None:
        return self._q.popleft() if self._q else None

    def __len__(self) -> int:
        return len(self._q)


class LifoQueue:
    """Dispatch newest-first (depth-first)."""

    def __init__(self) -> None:
        self._q: list[Task] = []

    def push(self, task: Task) -> None:
        self._q.append(task)

    def pop(self, worker_index: int | None = None) -> Task | None:
        return self._q.pop() if self._q else None

    def __len__(self) -> int:
        return len(self._q)


class PriorityQueue:
    """Dispatch by descending priority, then creation order."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Task]] = []

    def push(self, task: Task) -> None:
        heapq.heappush(self._heap, (-task.priority, task.tid, task))

    def pop(self, worker_index: int | None = None) -> Task | None:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class LocalityQueue:
    """Affinity dispatch (Nanos++ "affinity" scheduler).

    Each worker remembers the dependency regions of its recently executed
    tasks; on pop, the oldest queued task sharing a region with the worker's
    recent set is preferred (the data is presumed warm in its cache), with
    FIFO as the fallback.  The scan window is bounded so dispatch stays
    cheap even with long queues.
    """

    SCAN_WINDOW = 32
    MEMORY = 4  # recent tasks remembered per worker

    def __init__(self) -> None:
        self._q: deque[Task] = deque()
        self._recent: dict[int, deque] = {}

    def push(self, task: Task) -> None:
        self._q.append(task)

    def pop(self, worker_index: int | None = None) -> Task | None:
        if not self._q:
            return None
        if worker_index is None:
            return self._q.popleft()
        recent = self._recent.setdefault(worker_index, deque(maxlen=self.MEMORY))
        warm = {region for regions in recent for region in regions}
        chosen = None
        for i, task in enumerate(self._q):
            if i >= self.SCAN_WINDOW:
                break
            if any(region in warm for region, _mode in task.accesses):
                chosen = task
                break
        if chosen is None:
            chosen = self._q.popleft()
        else:
            self._q.remove(chosen)
        recent.append(tuple(region for region, _mode in chosen.accesses))
        return chosen

    def __len__(self) -> int:
        return len(self._q)


class WorkStealingQueue:
    """Per-worker deques with stealing (Nanos++'s distributed scheduler).

    Ready tasks are dealt round-robin onto per-worker deques; a worker pops
    its own deque LIFO (depth-first, cache friendly) and, when empty, steals
    FIFO from the victim with the most queued work (breadth-first steals
    take the oldest — likely largest — subtree, the classic Cilk rule).
    """

    def __init__(self, n_workers: int = 1):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._deques: list[deque[Task]] = [deque() for _ in range(n_workers)]
        self._next = 0

    def push(self, task: Task) -> None:
        self._deques[self._next].append(task)
        self._next = (self._next + 1) % self.n_workers

    def pop(self, worker_index: int | None = None) -> Task | None:
        if worker_index is None or not 0 <= worker_index < self.n_workers:
            worker_index = 0
        own = self._deques[worker_index]
        if own:
            return own.pop()  # LIFO on the own deque
        victim = max(
            (d for d in self._deques if d), key=len, default=None
        )
        if victim is None:
            return None
        _telemetry.current().metrics.count("ompss.steals")
        return victim.popleft()  # FIFO steal

    def __len__(self) -> int:
        return sum(len(d) for d in self._deques)


#: Keyed by :data:`repro.core.config.SCHEDULERS`, in its order (a test pins
#: the two equal).
_POLICIES: dict[str, type] = {
    "fifo": FifoQueue,
    "lifo": LifoQueue,
    "priority": PriorityQueue,
    "locality": LocalityQueue,
    "wsteal": WorkStealingQueue,
}


def make_queue(policy: str, n_workers: int = 1) -> ReadyQueue:
    """Instantiate a ready queue by policy name."""
    try:
        cls = _POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown scheduler policy {policy!r}; choose from {sorted(_POLICIES)}"
        ) from None
    if cls is WorkStealingQueue:
        return cls(n_workers)
    return cls()
