"""Tests for the work-stealing ready queue."""

import pytest

from repro.ompss import AccessMode, Task, WorkStealingQueue
from repro.simkit import Event, Simulator


def make_task(sim, tid):
    return Task(tid, f"t{tid}", lambda w: iter(()), [(tid, AccessMode.INOUT)], Event(sim))


@pytest.fixture()
def sim():
    return Simulator()


class TestWorkStealingQueue:
    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkStealingQueue(0)

    def test_round_robin_distribution(self, sim):
        q = WorkStealingQueue(2)
        tasks = [make_task(sim, i) for i in range(4)]
        for t in tasks:
            q.push(t)
        # Worker 0's deque got tasks 0, 2; pops its own LIFO.
        assert q.pop(0) is tasks[2]
        assert q.pop(0) is tasks[0]

    def test_own_deque_is_lifo(self, sim):
        q = WorkStealingQueue(1)
        a, b = make_task(sim, 0), make_task(sim, 1)
        q.push(a)
        q.push(b)
        assert q.pop(0) is b
        assert q.pop(0) is a

    def test_steal_is_fifo_from_largest_victim(self, sim):
        q = WorkStealingQueue(3)
        tasks = [make_task(sim, i) for i in range(6)]
        for t in tasks:
            q.push(t)  # worker0: 0,3; worker1: 1,4; worker2: 2,5
        # Empty worker 2's own deque.
        assert q.pop(2) is tasks[5]
        assert q.pop(2) is tasks[2]
        # Now worker 2 steals; victims tie at length 2, max() picks the
        # first — worker 0 — and steals its OLDEST task.
        assert q.pop(2) is tasks[0]

    def test_empty_pop(self, sim):
        q = WorkStealingQueue(2)
        assert q.pop(0) is None
        assert q.pop(None) is None

    def test_len_spans_all_deques(self, sim):
        q = WorkStealingQueue(3)
        for i in range(5):
            q.push(make_task(sim, i))
        assert len(q) == 5

    def test_anonymous_pop_uses_worker_zero(self, sim):
        q = WorkStealingQueue(2)
        t = make_task(sim, 0)
        q.push(t)  # lands on worker 0
        assert q.pop(None) is t

    def test_all_tasks_eventually_drain(self, sim):
        q = WorkStealingQueue(4)
        tasks = {make_task(sim, i) for i in range(20)}
        for t in tasks:
            q.push(t)
        popped = set()
        w = 0
        while len(q):
            got = q.pop(w % 4)
            assert got is not None
            popped.add(got)
            w += 1
        assert popped == tasks


class TestWorkStealingEndToEnd:
    def test_runtime_with_wsteal_policy(self, sim, rank):
        from tests.ompss.test_runtime import compute_body
        from repro.ompss import TaskRuntime

        def program(rank):
            rt = TaskRuntime(rank, n_workers=4, policy="wsteal", task_overhead=0.0)
            rt.start()
            for i in range(8):
                rt.submit(f"t{i}", compute_body(rank, 1.0e9), inouts=[("b", i)])
            yield rt.taskwait()
            yield rt.shutdown()

        sim.process(program(rank))
        sim.run()
        # 8 x 1s tasks over 4 workers with stealing: perfect 2 s makespan.
        assert sim.now == pytest.approx(2.0)
