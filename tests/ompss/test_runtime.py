"""Integration tests for the task runtime on the simulated machine."""

import pytest

from repro.ompss import TaskRuntime
from repro.ompss.scheduler import FifoQueue, LifoQueue, PriorityQueue, make_queue
from repro.telemetry import Trace


def compute_body(rank, instructions, log=None, name=None):
    def body(worker):
        rec = yield rank.compute("work", instructions, thread=worker.thread_index)
        if log is not None:
            log.append((name, rec.start, rec.end, worker.index))
        return name

    return body


class TestSchedulerQueues:
    def test_make_queue_policies(self):
        assert isinstance(make_queue("fifo"), FifoQueue)
        assert isinstance(make_queue("lifo"), LifoQueue)
        assert isinstance(make_queue("priority"), PriorityQueue)
        with pytest.raises(ValueError):
            make_queue("random")


class TestExecution:
    def test_single_task_runs(self, sim, rank):
        results = []

        def program(rank):
            rt = TaskRuntime(rank, n_workers=2, task_overhead=0.0)
            rt.start()
            task = rt.submit("t", compute_body(rank, 1.0e9))
            yield rt.taskwait()
            results.append(task.done.value)
            yield rt.shutdown()

        sim.process(program(rank))
        sim.run()
        assert results == [None] or results == ["t"] or results  # value is body return
        assert sim.now == pytest.approx(1.0)

    def test_independent_tasks_run_in_parallel(self, sim, rank):
        log = []

        def program(rank):
            rt = TaskRuntime(rank, n_workers=4, task_overhead=0.0)
            rt.start()
            for i in range(4):
                rt.submit(f"t{i}", compute_body(rank, 1.0e9, log, f"t{i}"), inouts=[("band", i)])
            yield rt.taskwait()
            yield rt.shutdown()

        sim.process(program(rank))
        sim.run()
        # 4 independent 1s tasks on 4 workers: all overlap, makespan 1s.
        assert sim.now == pytest.approx(1.0)
        assert {entry[3] for entry in log} == {0, 1, 2, 3}

    def test_more_tasks_than_workers_queue_up(self, sim, rank):
        def program(rank):
            rt = TaskRuntime(rank, n_workers=2, task_overhead=0.0)
            rt.start()
            for i in range(6):
                rt.submit(f"t{i}", compute_body(rank, 1.0e9), inouts=[("band", i)])
            yield rt.taskwait()
            yield rt.shutdown()

        sim.process(program(rank))
        sim.run()
        assert sim.now == pytest.approx(3.0)  # 6 x 1s over 2 workers

    def test_dependency_chain_serializes(self, sim, rank):
        log = []

        def program(rank):
            rt = TaskRuntime(rank, n_workers=4, task_overhead=0.0)
            rt.start()
            rt.submit("a", compute_body(rank, 1.0e9, log, "a"), outs=["x"])
            rt.submit("b", compute_body(rank, 1.0e9, log, "b"), ins=["x"], outs=["y"])
            rt.submit("c", compute_body(rank, 1.0e9, log, "c"), ins=["y"])
            yield rt.taskwait()
            yield rt.shutdown()

        sim.process(program(rank))
        sim.run()
        assert sim.now == pytest.approx(3.0)
        order = [e[0] for e in sorted(log, key=lambda e: e[1])]
        assert order == ["a", "b", "c"]

    def test_flow_dependency_pipeline_overlaps_iterations(self, sim, rank):
        """Two independent iteration chains overlap on two workers (the Opt 1
        principle: independent loop iterations proceed concurrently)."""

        def program(rank):
            rt = TaskRuntime(rank, n_workers=2, task_overhead=0.0)
            rt.start()
            for it in range(2):
                rt.submit(f"s1_{it}", compute_body(rank, 1.0e9), outs=[("psi", it)])
                rt.submit(f"s2_{it}", compute_body(rank, 1.0e9), inouts=[("psi", it)])
            yield rt.taskwait()
            yield rt.shutdown()

        sim.process(program(rank))
        sim.run()
        # Serial would be 4s; two chains of 2s overlap -> 2s.
        assert sim.now == pytest.approx(2.0)

    def test_task_overhead_charged(self, sim, rank):
        def program(rank):
            rt = TaskRuntime(rank, n_workers=1, task_overhead=0.5)
            rt.start()
            rt.submit("t", compute_body(rank, 1.0e9))
            yield rt.taskwait()
            yield rt.shutdown()

        sim.process(program(rank))
        sim.run()
        assert sim.now == pytest.approx(1.5)

    def test_nested_task_creation(self, sim, rank):
        def outer_body(rt, rank):
            def body(worker):
                yield rank.compute("work", 1.0e9, thread=worker.thread_index)
                rt.submit("inner", compute_body(rank, 1.0e9))

            return body

        def program(rank):
            rt = TaskRuntime(rank, n_workers=2, task_overhead=0.0)
            rt.start()
            rt.submit("outer", outer_body(rt, rank))
            yield rt.taskwait()
            yield rt.shutdown()

        sim.process(program(rank))
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_mpi_inside_tasks_with_keys(self, sim, world):
        """Two ranks run per-band tasks issuing keyed alltoalls from inside
        tasks (the per-FFT optimization's communication pattern)."""
        done = []

        def make_program(world):
            def program(rank):
                rt = TaskRuntime(rank, n_workers=2, task_overhead=0.0)
                rt.start()
                for band in range(4):
                    def body(worker, band=band):
                        yield rank.compute("work", 1.0e8, thread=worker.thread_index)
                        from repro.mpisim import MetaPayload

                        yield rank.alltoall(
                            world.comm_world,
                            [MetaPayload(1000.0)] * world.comm_world.size,
                            key=("scatter", band),
                            thread=worker.thread_index,
                        )

                    rt.submit(f"band{band}", body, inouts=[("band", band)])
                yield rt.taskwait()
                yield rt.shutdown()
                done.append(rank.rank)

            return program

        world.launch(make_program(world))
        world.run()
        assert sorted(done) == [0, 1]


class TestTaskwaitShutdown:
    def test_taskwait_with_no_tasks_fires_immediately(self, sim, rank):
        def program(rank):
            rt = TaskRuntime(rank, n_workers=1)
            rt.start()
            yield rt.taskwait()
            yield rt.shutdown()
            return sim.now

        proc = sim.process(program(rank))
        sim.run()
        assert proc.value == 0.0

    def test_submit_before_start_rejected(self, rank):
        rt = TaskRuntime(rank, n_workers=1)
        with pytest.raises(RuntimeError, match="start"):
            rt.submit("t", compute_body(rank, 1.0))

    def test_submit_after_shutdown_rejected(self, sim, rank):
        errors = []

        def program(rank):
            rt = TaskRuntime(rank, n_workers=1, task_overhead=0.0)
            rt.start()
            yield rt.shutdown()
            try:
                rt.submit("t", compute_body(rank, 1.0))
            except RuntimeError as exc:
                errors.append(str(exc))

        sim.process(program(rank))
        sim.run()
        assert errors and "shutdown" in errors[0]

    def test_invalid_worker_count(self, rank):
        with pytest.raises(ValueError):
            TaskRuntime(rank, n_workers=0)
        with pytest.raises(ValueError):
            TaskRuntime(rank, n_workers=99)

    def test_negative_overhead_rejected(self, rank):
        for overhead in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="task_overhead"):
                TaskRuntime(rank, task_overhead=overhead)

    def test_shutdown_drains_queued_tasks(self, sim, rank):
        """Tasks still queued at shutdown() must run before workers exit."""
        finished = []

        def program(rank):
            rt = TaskRuntime(rank, n_workers=1, task_overhead=0.0)
            rt.start()
            for i in range(3):
                t = rt.submit(f"t{i}", compute_body(rank, 1.0e9), inouts=[("b", i)])
                t.done.add_callback(lambda ev: finished.append(ev.value))
            yield rt.shutdown()

        sim.process(program(rank))
        sim.run()
        assert sim.now == pytest.approx(3.0)
        assert len(finished) == 3


class TestTaskloop:
    def test_chunking(self, sim, rank):
        chunks = []

        def make_body(start, stop):
            def body(worker):
                chunks.append((start, stop))
                yield rank.compute("work", float(stop - start) * 1e8, thread=worker.thread_index)

            return body

        def program(rank):
            rt = TaskRuntime(rank, n_workers=4, task_overhead=0.0)
            rt.start()
            tasks = rt.taskloop("loop", n_items=25, make_body=make_body, grainsize=10)
            assert len(tasks) == 3
            yield rt.taskwait()
            yield rt.shutdown()

        sim.process(program(rank))
        sim.run()
        assert sorted(chunks) == [(0, 10), (10, 20), (20, 25)]

    def test_grainsize_validation(self, sim, rank):
        def program(rank):
            rt = TaskRuntime(rank, n_workers=1)
            rt.start()
            with pytest.raises(ValueError):
                rt.taskloop("l", 10, lambda a, b: lambda w: iter(()), grainsize=0)
            with pytest.raises(ValueError):
                rt.taskloop("l", -1, lambda a, b: lambda w: iter(()), grainsize=1)
            yield rt.shutdown()

        sim.process(program(rank))
        sim.run()

    def test_empty_taskloop(self, sim, rank):
        def program(rank):
            rt = TaskRuntime(rank, n_workers=1)
            rt.start()
            tasks = rt.taskloop("l", 0, lambda a, b: lambda w: iter(()), grainsize=5)
            assert tasks == []
            yield rt.taskwait()
            yield rt.shutdown()

        sim.process(program(rank))
        sim.run()


class TestPolicies:
    def _run_policy(self, sim, rank, policy):
        order = []

        def make_body(i):
            def body(worker):
                order.append(i)
                yield rank.compute("work", 1.0e8, thread=worker.thread_index)

            return body

        def program(rank):
            rt = TaskRuntime(rank, n_workers=1, policy=policy, task_overhead=0.0)
            rt.start()
            # Give the worker something to chew on so later submissions queue.
            rt.submit("warm", compute_body(rank, 1.0e8), inouts=[("w", 0)])
            for i in range(4):
                rt.submit(f"t{i}", make_body(i), inouts=[("b", i)], priority=i)
            yield rt.taskwait()
            yield rt.shutdown()

        sim.process(program(rank))
        sim.run()
        return order

    def test_fifo_order(self, sim, rank):
        assert self._run_policy(sim, rank, "fifo") == [0, 1, 2, 3]

    def test_lifo_order(self, sim, rank):
        assert self._run_policy(sim, rank, "lifo") == [3, 2, 1, 0]

    def test_priority_order(self, sim, rank):
        assert self._run_policy(sim, rank, "priority") == [3, 2, 1, 0]


class TestObservers:
    def test_task_records(self, sim, rank):
        trace = Trace()

        def program(rank):
            rt = TaskRuntime(rank, n_workers=2, task_overhead=0.0)
            rt.trace = trace
            rt.start()
            rt.submit("alpha", compute_body(rank, 1.0e9))
            yield rt.taskwait()
            yield rt.shutdown()

        sim.process(program(rank))
        sim.run()
        assert len(trace.tasks) == 1
        rank_id, rec = trace.tasks[0]
        assert rank_id == rank.rank
        assert rec.name == "alpha"
        assert rec.duration == pytest.approx(1.0)
        assert rec.worker_index == 0
