"""Tests for MPI task switching (the paper's ref. [11] mechanism)."""

import pytest

from repro.mpisim import MetaPayload
from repro.ompss import TaskRuntime


class TestTaskSwitching:
    def test_blocked_task_releases_worker(self, sim, world):
        """With one worker, a task blocked in MPI must not stop an
        independent compute task from running."""
        self._assert_blocked_task_releases_worker(world, rename=None)

    def test_renamed_mpi_event_still_parks_the_task(self, sim, world):
        """The runtime recognises the blocking call by the event's type, not
        by its ``mpi:<call>`` name: a relabelled event parks the task too."""
        self._assert_blocked_task_releases_worker(world, rename="exchange #3")

    @staticmethod
    def _assert_blocked_task_releases_worker(world, rename):
        order = []

        def make_program(peer_delay):
            def program(rank):
                rt = TaskRuntime(rank, n_workers=1, task_overhead=0.0, mpi_task_switching=True)
                rt.start()

                def comm_task(worker):
                    order.append((rank.rank, "comm-start", rank.sim.now))
                    event = rank.alltoall(
                        world.comm_world,
                        [MetaPayload(8.0)] * world.comm_world.size,
                        key="x",
                        thread=worker.thread_index,
                    )
                    assert event.name == "mpi:alltoall"  # what traces show
                    if rename is not None:
                        event.name = rename
                    yield event
                    order.append((rank.rank, "comm-end", rank.sim.now))

                def compute_task(worker):
                    yield rank.compute("work", 1.0e9, thread=worker.thread_index)
                    order.append((rank.rank, "compute-end", rank.sim.now))

                if rank.rank == 0:
                    rt.submit("comm", comm_task, inouts=["a"])
                    rt.submit("compute", compute_task, inouts=["b"])
                else:
                    # Peer arrives at the collective only after a delay.
                    yield rank.sim.timeout(peer_delay)
                    rt.submit("comm", comm_task, inouts=["a"])
                yield rt.taskwait()
                yield rt.shutdown()

            return program

        world.launch(make_program(2.0))
        world.run()
        r0 = [e for e in order if e[0] == 0]
        kinds = [e[1] for e in r0]
        # Rank 0's compute finished while its comm task was still parked.
        assert kinds.index("compute-end") < kinds.index("comm-end")
        compute_end = next(e[2] for e in r0 if e[1] == "compute-end")
        assert compute_end == pytest.approx(1.0)  # ran immediately, not after 2 s

    def test_without_switching_worker_blocks(self, sim, world):
        """Same scenario, switching off: compute waits for the collective."""
        order = []

        def make_program(peer_delay):
            def program(rank):
                rt = TaskRuntime(rank, n_workers=1, task_overhead=0.0, mpi_task_switching=False)
                rt.start()

                def comm_task(worker):
                    yield rank.alltoall(
                        world.comm_world,
                        [MetaPayload(8.0)] * world.comm_world.size,
                        key="x",
                        thread=worker.thread_index,
                    )

                def compute_task(worker):
                    yield rank.compute("work", 1.0e9, thread=worker.thread_index)
                    order.append(("compute-end", rank.sim.now))

                if rank.rank == 0:
                    rt.submit("comm", comm_task, inouts=["a"])
                    rt.submit("compute", compute_task, inouts=["b"])
                else:
                    yield rank.sim.timeout(2.0)
                    rt.submit("comm", comm_task, inouts=["a"])
                yield rt.taskwait()
                yield rt.shutdown()

            return program

        world.launch(make_program(2.0))
        world.run()
        assert order[0][1] >= 3.0  # blocked behind the 2 s late collective

    def test_continuation_resumes_on_same_worker(self, sim, world):
        """The resumed half of a parked task runs on its original worker
        (its compute calls are bound to that hardware thread)."""
        seen = []

        def program(rank):
            rt = TaskRuntime(rank, n_workers=2, task_overhead=0.0, mpi_task_switching=True)
            rt.start()

            def comm_task(worker):
                first = worker.index
                yield rank.alltoall(
                    world.comm_world,
                    [MetaPayload(0.0)] * world.comm_world.size,
                    key="b",
                    thread=worker.thread_index,
                )
                yield rank.compute("work", 1.0e8, thread=worker.thread_index)
                seen.append((rank.rank, first, worker.index))

            rt.submit("comm", comm_task, inouts=["a"])
            yield rt.taskwait()
            yield rt.shutdown()

        world.launch(program)
        world.run()
        assert seen
        assert all(first == after for _r, first, after in seen)

    def test_many_parked_tasks_single_worker(self, sim, world):
        """One worker can carry many concurrently parked collectives."""
        done = []

        def program(rank):
            rt = TaskRuntime(rank, n_workers=1, task_overhead=0.0, mpi_task_switching=True)
            rt.start()
            for i in range(5):
                def body(worker, i=i):
                    yield rank.alltoall(
                        world.comm_world,
                        [MetaPayload(8.0)] * world.comm_world.size,
                        key=("k", i),
                        thread=worker.thread_index,
                    )
                    done.append((rank.rank, i))

                rt.submit(f"c{i}", body, inouts=[("band", i)])
            yield rt.taskwait()
            yield rt.shutdown()

        world.launch(program)
        world.run()
        assert len(done) == 5 * world.comm_world.size

    def test_exception_in_parked_event_propagates(self, sim, rank, world):
        """A failing MPI call inside a parked task reaches the task body."""
        caught = []

        def program(rk):
            rt = TaskRuntime(rk, n_workers=1, task_overhead=0.0, mpi_task_switching=True)
            rt.start()

            def body(worker):
                try:
                    # Mismatched part count raises inside the collective.
                    yield rk.alltoall(world.comm_world, [MetaPayload(1.0)], key="bad")
                except Exception as exc:  # noqa: BLE001 - test observes it
                    caught.append(type(exc).__name__)
                    yield rk.sim.timeout(0)

            rt.submit("bad", body)
            yield rt.taskwait()
            yield rt.shutdown()

        world.launch(program, ranks=[0])
        try:
            world.run()
        except Exception:
            pass
        assert caught == ["MpiSimError"] or caught == []

    def test_mpi_lookalike_name_does_not_park(self, sim, world):
        """A plain event that merely *looks* like an MPI call by name is an
        ordinary wait: the worker stays on the task."""
        order = []

        def program(rank):
            rt = TaskRuntime(rank, n_workers=1, task_overhead=0.0, mpi_task_switching=True)
            rt.start()

            def waiting_task(worker):
                yield rank.sim.timeout(1.0, name="mpi:alltoall")
                order.append("wait-end")

            def compute_task(worker):
                yield rank.compute("work", 1.0e8, thread=worker.thread_index)
                order.append("compute-end")

            rt.submit("wait", waiting_task, inouts=["a"])
            rt.submit("compute", compute_task, inouts=["b"])
            yield rt.taskwait()
            yield rt.shutdown()

        world.launch(program, ranks=[0])
        world.run()
        assert order == ["wait-end", "compute-end"]
