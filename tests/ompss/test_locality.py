"""Tests for the locality (affinity) ready queue."""

from repro.ompss import AccessMode, LocalityQueue, Task
from repro.simkit import Event, Simulator


def make_task(sim, tid, regions):
    accesses = [(r, AccessMode.INOUT) for r in regions]
    return Task(tid, f"t{tid}", lambda w: iter(()), accesses, Event(sim))


class TestLocalityQueue:
    def test_fifo_when_no_history(self):
        sim = Simulator()
        q = LocalityQueue()
        a = make_task(sim, 0, ["x"])
        b = make_task(sim, 1, ["y"])
        q.push(a)
        q.push(b)
        assert q.pop(0) is a

    def test_prefers_warm_region(self):
        sim = Simulator()
        q = LocalityQueue()
        first = make_task(sim, 0, [("band", 3)])
        q.push(first)
        assert q.pop(worker_index=0) is first  # worker 0 now warm on band 3
        cold = make_task(sim, 1, [("band", 1)])
        warm = make_task(sim, 2, [("band", 3)])
        q.push(cold)
        q.push(warm)
        assert q.pop(worker_index=0) is warm  # affinity beats FIFO order
        assert q.pop(worker_index=0) is cold

    def test_workers_have_independent_histories(self):
        sim = Simulator()
        q = LocalityQueue()
        t0 = make_task(sim, 0, ["a"])
        q.push(t0)
        assert q.pop(worker_index=0) is t0
        early = make_task(sim, 1, ["b"])
        warm_for_0 = make_task(sim, 2, ["a"])
        q.push(early)
        q.push(warm_for_0)
        # worker 1 has no history: plain FIFO.
        assert q.pop(worker_index=1) is early

    def test_anonymous_pop_is_fifo(self):
        sim = Simulator()
        q = LocalityQueue()
        a = make_task(sim, 0, ["x"])
        b = make_task(sim, 1, ["x"])
        q.push(a)
        q.push(b)
        assert q.pop() is a
        assert len(q) == 1

    def test_empty_pop(self):
        q = LocalityQueue()
        assert q.pop(0) is None

    def test_scan_window_bounds_search(self):
        sim = Simulator()
        q = LocalityQueue()
        t0 = make_task(sim, 0, ["warm"])
        q.push(t0)
        q.pop(worker_index=0)
        # Fill beyond the scan window with cold tasks, then a warm one.
        cold = [make_task(sim, i + 1, [("cold", i)]) for i in range(q.SCAN_WINDOW)]
        for t in cold:
            q.push(t)
        warm = make_task(sim, 99, ["warm"])
        q.push(warm)
        # The warm task sits outside the window: FIFO head is returned.
        assert q.pop(worker_index=0) is cold[0]
