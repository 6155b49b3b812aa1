"""Engine-level tests of the vectorized fluid resource.

Covers the observability counters (rebalances, coalescing, timer-churn
skips), the struct-of-arrays bookkeeping across grow/compact cycles, the
allocator attach/detach notification hooks, and the lazy zero-rate
``active_time`` accounting — the machinery behind the contention engine's
hot path rather than the fluid semantics themselves (those live in
``test_fluid.py``).
"""

import numpy as np
import pytest

from repro.simkit import FluidResource, Simulator
from tests.simkit.helpers import EqualShareAllocator, run_value


@pytest.fixture()
def sim():
    return Simulator()


class RecordingBatchAllocator:
    """Minimal batch-protocol allocator that logs every engine hook."""

    static_width = 2

    def __init__(self, capacity=4.0):
        self.capacity = capacity
        self.attached = []
        self.detached = []
        self.batch_calls = 0

    def prepare(self, task):
        return (float(task.meta.get("tag", 0)), 1.0)

    def notify_attach(self, static):
        self.attached.append(float(static[0]))

    def notify_detach(self, static):
        self.detached.append(float(static[0]))

    def allocate_batch(self, statics):
        self.batch_calls += 1
        n = len(statics)
        return np.full(n, self.capacity / n)


class TestCounters:
    def test_same_timestamp_submits_coalesce_into_one_rebalance(self, sim):
        cpu = FluidResource(sim, EqualShareAllocator(4.0), name="cpu")
        for _ in range(5):
            cpu.submit(100.0)
        seen = []

        def probe():
            yield sim.timeout(1.0)
            seen.append(cpu.stats())

        sim.process(probe())
        sim.run()
        # Five submits at t=0: one flush, four coalesced updates.
        assert seen[0]["n_rebalances"] == 1
        assert seen[0]["n_coalesced"] == 4

    def test_unchanged_deadline_skips_timer_rearm(self, sim):
        class IndependentRates:
            static_width = 0

            def prepare(self, task):
                return ()

            def allocate_batch(self, statics):
                return np.ones(len(statics))

        cpu = FluidResource(sim, IndependentRates(), name="cpu")

        def body():
            cpu.submit(10.0)  # finishes at t=10 at rate 1
            yield sim.timeout(5.0)
            # Joining work does not change the earliest deadline: the
            # rebalance must reuse the armed timer instead of re-arming.
            cpu.submit(100.0)

        sim.process(body())
        sim.run()
        assert cpu.stats()["n_timer_skips"] == 1

    def test_stats_include_allocator_cache_info(self, sim):
        class WithCacheInfo(RecordingBatchAllocator):
            def cache_info(self):
                return {"alloc_cache_hits": 3}

        cpu = FluidResource(sim, WithCacheInfo(), name="cpu")
        assert cpu.stats()["alloc_cache_hits"] == 3

    def test_counters_are_deterministic_across_runs(self):
        def run_once():
            sim = Simulator()
            cpu = FluidResource(sim, EqualShareAllocator(3.0), name="cpu")

            def body():
                for work in (4.0, 2.0, 6.0, 1.0):
                    task = cpu.submit(work)
                    yield sim.timeout(0.5)
                yield task.done

            sim.process(body())
            sim.run()
            return cpu.stats()

        assert run_once() == run_once()


class TestNotificationHooks:
    def test_attach_and_detach_bracket_every_task(self, sim):
        alloc = RecordingBatchAllocator()
        cpu = FluidResource(sim, alloc, name="cpu")

        def body():
            a = cpu.submit(4.0, meta={"tag": 1})
            b = cpu.submit(8.0, meta={"tag": 2})
            yield a.done
            yield b.done

        sim.process(body())
        sim.run()
        assert alloc.attached == [1.0, 2.0]
        # a (equal shares of 4.0: rate 2 each) finishes before b.
        assert alloc.detached == [1.0, 2.0]

    def test_barrier_finish_detaches_everyone(self, sim):
        alloc = RecordingBatchAllocator(capacity=4.0)
        cpu = FluidResource(sim, alloc, name="cpu")
        for tag in (1, 2):
            cpu.submit(6.0, meta={"tag": tag})  # equal rates: both end at t=3
        sim.run()
        assert sorted(alloc.detached) == [1.0, 2.0]
        assert cpu.stats()["n_rebalances"] >= 1
        assert not cpu.active_tasks


class TestStructOfArrays:
    def test_state_survives_growth_and_compaction(self, sim):
        cpu = FluidResource(sim, EqualShareAllocator(64.0), name="cpu")
        finish_order = []

        def worker(k):
            task = cpu.submit(float(k))
            yield task.done
            finish_order.append(k)

        # Far beyond the initial array capacity, with staggered works so the
        # compaction path runs once per completion.
        for k in range(1, 130):
            sim.process(worker(k))
        sim.run()
        assert finish_order == sorted(finish_order)
        assert not cpu.active_tasks

    def test_detached_task_state_reads_back(self, sim):
        cpu = FluidResource(sim, EqualShareAllocator(2.0), name="cpu")

        def body():
            task = cpu.submit(4.0)
            yield task.done
            return task

        task = run_value(sim, sim.process(body()))
        assert task.remaining == 0.0
        assert task.finish_time == pytest.approx(2.0)
        assert task.active_time == pytest.approx(2.0)


class TestZeroRateAccounting:
    def test_active_time_excludes_starved_interval(self, sim):
        class OneAtATime:
            """Grants the whole capacity to the first task, zero to others."""

            static_width = 0

            def prepare(self, task):
                return ()

            def allocate_batch(self, statics):
                rates = np.zeros(len(statics))
                rates[0] = 2.0
                return rates

        cpu = FluidResource(sim, OneAtATime(), name="cpu")
        order = []

        def worker(name, work):
            task = cpu.submit(work)
            yield task.done
            order.append((name, sim.now, task.active_time))

        sim.process(worker("a", 4.0))
        sim.process(worker("b", 2.0))
        sim.run()
        # b starves for the 2s a holds the resource, then runs 1s.
        assert order[0] == ("a", pytest.approx(2.0), pytest.approx(2.0))
        name, end, active = order[1]
        assert name == "b"
        assert end == pytest.approx(3.0)
        assert active == pytest.approx(1.0)


class TestCompletionTimer:
    def test_exact_deadline_completion(self, sim):
        cpu = FluidResource(sim, EqualShareAllocator(1.0), name="cpu")

        def body():
            task = cpu.submit(1.5)
            yield task.done
            return sim.now

        assert run_value(sim, sim.process(body())) == pytest.approx(1.5)

    def test_stale_timer_after_rearm_is_harmless(self, sim):
        cpu = FluidResource(sim, EqualShareAllocator(1.0), name="cpu")
        first = cpu.submit(2.0)  # alone at rate 1: timer armed for t=2
        late = []

        def arrival():
            yield sim.timeout(1.0)
            # Rates halve and the earliest finisher moves to t=1.5: the
            # t=2 timer goes stale and must fire as a no-op.
            late.append(cpu.submit(0.25))

        sim.process(arrival())
        sim.run()
        assert late[0].finish_time == pytest.approx(1.5)
        assert first.finish_time == pytest.approx(2.25)
        assert not cpu.active_tasks
        # t=0, t=1, the t=1.5 finish and the t=2.25 finish: none at t=2.
        assert cpu.stats()["n_rebalances"] == 4
