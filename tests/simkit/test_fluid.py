"""Unit and property tests for the fluid (processor-sharing) resource."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkit import FluidResource, Simulator
from tests.simkit.helpers import EqualShareAllocator, run_value


@pytest.fixture()
def sim():
    return Simulator()


def make_cpu(sim, capacity=10.0, per_task_cap=None):
    return FluidResource(sim, EqualShareAllocator(capacity, per_task_cap), name="cpu")


class TestEqualShareAllocator:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            EqualShareAllocator(0)
        with pytest.raises(ValueError):
            EqualShareAllocator(1.0, per_task_cap=-1)

    def test_single_task_gets_full_capacity(self, sim):
        cpu = make_cpu(sim, capacity=4.0)

        def body():
            task = cpu.submit(8.0)
            yield task.done
            return sim.now

        assert run_value(sim, sim.process(body())) == pytest.approx(2.0)

    def test_two_tasks_share_equally(self, sim):
        cpu = make_cpu(sim, capacity=4.0)
        finish = {}

        def worker(name, work):
            task = cpu.submit(work)
            yield task.done
            finish[name] = sim.now

        sim.process(worker("a", 8.0))
        sim.process(worker("b", 8.0))
        sim.run()
        # Shared at 2.0 each: both finish at t=4.
        assert finish == {"a": pytest.approx(4.0), "b": pytest.approx(4.0)}

    def test_per_task_cap_limits_lonely_task(self, sim):
        cpu = make_cpu(sim, capacity=10.0, per_task_cap=2.0)

        def body():
            task = cpu.submit(4.0)
            yield task.done
            return sim.now

        assert run_value(sim, sim.process(body())) == pytest.approx(2.0)


class TestDynamicRebalancing:
    def test_late_arrival_slows_running_task(self, sim):
        cpu = make_cpu(sim, capacity=2.0)
        finish = {}

        def first():
            task = cpu.submit(4.0)
            yield task.done
            finish["first"] = sim.now

        def second():
            yield sim.timeout(1.0)
            task = cpu.submit(1.0)
            yield task.done
            finish["second"] = sim.now

        sim.process(first())
        sim.process(second())
        sim.run()
        # first: 2 units done at t=1 (rate 2), then rate 1 until second leaves
        # at t=2 (1 unit left), then rate 2 again → done at t=2.5.
        # second: 1 unit at rate 1 → done at t=2.
        assert finish["second"] == pytest.approx(2.0)
        assert finish["first"] == pytest.approx(2.5)

    def test_departure_speeds_up_remaining(self, sim):
        cpu = make_cpu(sim, capacity=2.0)
        finish = {}

        def worker(name, work):
            task = cpu.submit(work)
            yield task.done
            finish[name] = sim.now

        sim.process(worker("short", 1.0))
        sim.process(worker("long", 3.0))
        sim.run()
        # shared rate 1 each; short done at t=1 having left long with 2 units,
        # which then run at rate 2 → done at t=2.
        assert finish["short"] == pytest.approx(1.0)
        assert finish["long"] == pytest.approx(2.0)

    def test_zero_work_completes_instantly(self, sim):
        cpu = make_cpu(sim)

        def body():
            task = cpu.submit(0.0)
            yield task.done
            return sim.now

        assert run_value(sim, sim.process(body())) == 0.0

    def test_negative_work_rejected(self, sim):
        cpu = make_cpu(sim)
        with pytest.raises(ValueError):
            cpu.submit(-1.0)

    def test_active_time_accounting(self, sim):
        cpu = make_cpu(sim, capacity=1.0)
        tasks = {}

        def body():
            t = cpu.submit(3.0)
            tasks["t"] = t
            yield t.done

        sim.process(body())
        sim.run()
        assert tasks["t"].active_time == pytest.approx(3.0)
        assert tasks["t"].finish_time == pytest.approx(3.0)
        assert tasks["t"].remaining == 0.0


class TestFluidProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        works=st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=8),
        capacity=st.floats(min_value=0.5, max_value=20.0),
    )
    def test_makespan_equals_total_work_over_capacity_when_saturated(self, works, capacity):
        """With no per-task cap and all tasks submitted at t=0 the resource is
        work-conserving: makespan == sum(work) / capacity."""
        sim = Simulator()
        cpu = FluidResource(sim, EqualShareAllocator(capacity))

        def worker(w):
            task = cpu.submit(w)
            yield task.done

        for w in works:
            sim.process(worker(w))
        sim.run()
        assert sim.now == pytest.approx(sum(works) / capacity, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        works=st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=2, max_size=8),
    )
    def test_shorter_tasks_never_finish_after_longer_ones(self, works):
        sim = Simulator()
        cpu = FluidResource(sim, EqualShareAllocator(7.0))
        finishes = []

        def worker(w):
            task = cpu.submit(w)
            yield task.done
            finishes.append((w, sim.now))

        for w in works:
            sim.process(worker(w))
        sim.run()
        by_work = sorted(finishes)
        times = [t for _, t in by_work]
        assert all(t1 <= t2 + 1e-9 for t1, t2 in zip(times, times[1:]))

    @settings(max_examples=30, deadline=None)
    @given(
        staggered=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),
                st.floats(min_value=0.01, max_value=10.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_work_conservation_with_staggered_arrivals(self, staggered):
        """Total completed work equals total submitted work regardless of
        arrival pattern (progress integration is exact)."""
        sim = Simulator()
        cpu = FluidResource(sim, EqualShareAllocator(3.0))
        done_work = []

        def worker(delay, w):
            yield sim.timeout(delay)
            task = cpu.submit(w)
            yield task.done
            done_work.append(task.work - task.remaining)

        for delay, w in staggered:
            sim.process(worker(delay, w))
        sim.run()
        assert math.isclose(sum(done_work), sum(w for _, w in staggered), rel_tol=1e-9)
