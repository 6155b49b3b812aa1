"""Property tests of the water filling and the allocation memo.

The engine has one water-filling body,
:func:`~repro.machine.contention.water_level`.  These tests pin the
invariants it must keep — feasibility, demand-boundedness, max-min fairness
— against the fixpoint definition (:func:`tests.machine.maxmin.waterfill`,
a tolerance oracle) and, bit for bit, against the numpy closed form behind
the committed fixtures (:func:`tests.machine.maxmin.waterfill_vec`).  On
top, the composition memo must be order- and cache-independent, and the
count vector the attach/detach hooks keep must stay exact through any
sequence of hyper-thread sharing.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.contention import BandwidthContentionAllocator
from repro.machine.phases import PhaseProfile
from repro.machine.topology import HwThread
from repro.simkit.fluid import FluidResource, FluidTask
from repro.simkit.simulator import Simulator
from tests.machine.batch import batch_rates
from tests.machine.maxmin import grants, waterfill, waterfill_vec

demand_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=24,
)
capacities = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestWaterfillInvariants:
    """Each property holds for the vectorized reference and the engine body."""

    @given(demands=demand_lists, capacity=capacities)
    @settings(max_examples=200)
    def test_vectorized_feasible_and_demand_bounded(self, demands, capacity):
        for granted in (waterfill_vec(demands, capacity), grants(demands, capacity)):
            assert len(granted) == len(demands)
            assert float(sum(granted)) <= capacity * (1.0 + 1e-9) + 1e-6
            for g, d in zip(granted, demands):
                assert g <= d * (1.0 + 1e-12) + 1e-12
                assert g >= 0.0

    @given(demands=demand_lists, capacity=capacities)
    @settings(max_examples=200)
    def test_vectorized_matches_reference_fixpoint(self, demands, capacity):
        ref = waterfill(demands, capacity)
        vec = waterfill_vec(demands, capacity)
        np.testing.assert_allclose(vec, ref, rtol=1e-9, atol=1e-3)
        # The engine body walks the same arithmetic: equal to the last bit.
        assert grants(demands, capacity) == vec.tolist()

    @given(demands=demand_lists, capacity=capacities)
    @settings(max_examples=200)
    def test_vectorized_is_max_min_fair(self, demands, capacity):
        """Every grant is min(demand, level) for one shared water level."""
        for granted in (waterfill_vec(demands, capacity), grants(demands, capacity)):
            unsatisfied = [
                g for g, d in zip(granted, demands) if g < d * (1.0 - 1e-9) - 1e-12
            ]
            if unsatisfied:
                level = max(unsatisfied)
                # No unsatisfied task sits measurably below another's grant.
                assert min(unsatisfied) >= level * (1.0 - 1e-9) - 1e-6

    @given(demands=demand_lists, capacity=capacities)
    @settings(max_examples=100)
    def test_weights_equal_explicit_duplication(self, demands, capacity):
        """weights=k must allocate like k duplicated demand entries."""
        weights = [2] * len(demands)
        flat = waterfill_vec(np.repeat(demands, 2), capacity)
        for grouped in (
            waterfill_vec(demands, capacity, weights),
            grants(demands, capacity, weights),
        ):
            np.testing.assert_allclose(np.repeat(grouped, 2), flat, rtol=1e-9, atol=1e-6)

    @given(data=st.data(), capacity=capacities)
    @settings(max_examples=200)
    def test_weighted_groups_bit_identical_to_the_vectorized_reference(self, data, capacity):
        """Any number of weighted groups: the engine body and the numpy
        closed form agree to the last bit (the pricing pins rest on it)."""
        m = data.draw(st.integers(min_value=1, max_value=24))
        demands = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
                min_size=m,
                max_size=m,
            )
        )
        weights = data.draw(
            st.lists(st.integers(min_value=1, max_value=64), min_size=m, max_size=m)
        )
        vec = waterfill_vec(demands, capacity, weights)
        assert grants(demands, capacity, weights) == vec.tolist()


def _make_allocator():
    return BandwidthContentionAllocator(
        frequency_hz=1.4e9, bandwidth_bytes_per_s=90e9
    )


_PROFILES = [
    PhaseProfile("fft_z", 1.2, 0.9),
    PhaseProfile("fft_xy", 0.8, 2.1),
    PhaseProfile("pack", 1.9, 0.2),
    PhaseProfile("compute_free", 2.0, 0.0),
]


def _make_tasks(spec):
    """Build fluid tasks from (profile index, core, speed) triples."""
    sim = Simulator()
    tasks = []
    for k, (p, core, speed) in enumerate(spec):
        thread = HwThread(core=core, slot=k % 4, index=4 * core + k % 4, node=0)
        tasks.append(
            FluidTask(
                sim,
                1.0,
                meta={"profile": _PROFILES[p], "thread": thread, "speed": speed},
            )
        )
    return tasks


task_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(_PROFILES) - 1),
        st.integers(min_value=0, max_value=11),
        st.floats(
            min_value=0.5, max_value=1.5, allow_nan=False, allow_infinity=False
        ),
    ),
    min_size=1,
    max_size=32,
)


class TestAllocatorMemo:
    @given(spec=task_specs, seed=st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_cached_equals_fresh_under_permutation(self, spec, seed):
        """A warmed memo returns the same rates a cold allocator computes,
        for any permutation of the active set."""
        warm = _make_allocator()
        baseline = batch_rates(warm, _make_tasks(spec))

        permuted = list(range(len(spec)))
        seed.shuffle(permuted)
        spec_p = [spec[i] for i in permuted]

        warm_rates = batch_rates(warm, _make_tasks(spec_p))  # memo hit
        cold_rates = batch_rates(_make_allocator(), _make_tasks(spec_p))  # miss
        assert warm_rates == cold_rates
        for j, i in enumerate(permuted):
            assert warm_rates[j] == baseline[i]

    @given(spec=task_specs)
    @settings(max_examples=100)
    def test_rates_positive_and_speed_scaled(self, spec):
        alloc = _make_allocator()
        rates = batch_rates(alloc, _make_tasks(spec))
        assert all(r > 0.0 for r in rates)
        # Doubling a task's speed factor exactly doubles its rate (speed is
        # a pure post-multiplier outside the memoized base rates).
        doubled = [(p, core, 2.0 * s) for (p, core, s) in spec]
        rates2 = batch_rates(_make_allocator(), _make_tasks(doubled))
        for r1, r2 in zip(rates, rates2):
            assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    @given(spec=task_specs)
    @settings(max_examples=50)
    def test_notifications_leave_no_residue(self, spec):
        """Attaching and detaching an active set restores the incremental
        occupancy tracking and the count vector."""
        alloc = _make_allocator()
        batch_rates(alloc, _make_tasks(spec))
        assert not any(alloc._core_occ)
        assert not alloc._shared
        assert not any(alloc._counts)

    def test_hyperthread_sharing_halves_the_ceiling(self):
        """Two compute-bound hyper-threads on one core each run at ipc0/2."""
        alloc = _make_allocator()
        lone = batch_rates(alloc, _make_tasks([(3, 0, 1.0)]))[0]
        shared = batch_rates(alloc, _make_tasks([(3, 0, 1.0), (3, 0, 1.0)]))
        assert shared[0] == pytest.approx(lone / 2.0)
        assert shared[1] == pytest.approx(lone / 2.0)

    def test_cache_info_counts_hits_and_misses(self):
        alloc = _make_allocator()
        spec = [(0, 0, 1.0), (1, 1, 1.0)]
        batch_rates(alloc, _make_tasks(spec))
        batch_rates(alloc, _make_tasks(spec))
        info = alloc.cache_info()
        assert info["alloc_cache_misses"] == 1
        assert info["alloc_cache_hits"] == 1
        assert info["alloc_cache_size"] == 1

    def test_engine_path_equals_direct_path(self):
        """A fluid resource running the tasks prices them exactly like the
        protocol driven by hand."""
        spec = [(0, 0, 1.0), (1, 0, 1.1), (2, 1, 0.9), (1, 2, 1.0)]
        tasks = _make_tasks(spec)
        direct = batch_rates(_make_allocator(), tasks)

        sim = Simulator()
        resource = FluidResource(sim, _make_allocator())
        for task in tasks:
            resource.submit(1e9, meta=task.meta)
        assert [task.rate for task in resource.active_tasks] == direct


class TestMathEdgeCases:
    def test_zero_capacity_grants_nothing(self):
        assert waterfill([5.0, 1.0], 0.0) == [0.0, 0.0]
        assert grants([5.0, 1.0], 0.0) == [0.0, 0.0]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            waterfill([1.0], -1.0)
        with pytest.raises(ValueError):
            grants([1.0], -1.0)

    def test_all_zero_demands(self):
        assert grants([0.0] * 4, 7.0) == [0.0] * 4

    def test_level_is_finite_under_extreme_spread(self):
        granted = grants([1e-30, 1e30], 1.0)
        assert math.isfinite(sum(granted))
        assert granted[0] == pytest.approx(1e-30)


def _rebuilt_counts(alloc, active):
    """The count vector recomputed from scratch from the active records."""
    per_core = {}
    for _task, (_cid, core, _speed) in active:
        per_core[core] = per_core.get(core, 0) + 1
    counts = [0] * len(alloc._counts)
    for _task, (cid, core, _speed) in active:
        pid, _, node = alloc._keys[cid]
        counts[alloc._ids[pid, per_core[core], node]] += 1
    return counts


class TestIncrementalKey:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_count_vector_and_rates_track_any_attach_detach_sequence(self, data):
        """Tasks join and leave three cores on each of two nodes (occupancy
        rising and falling through 1-4+).  After every step the hooks'
        count vector equals one rebuilt from the active records, and the
        rates equal a fresh allocator's for the same active set."""
        alloc = _make_allocator()
        sim = Simulator()
        active = []  # (task, static record)
        for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
            if active and data.draw(st.booleans()):
                task, static = active.pop(data.draw(st.integers(0, len(active) - 1)))
                alloc.notify_detach(np.asarray(static, dtype=float))
            else:
                p = data.draw(st.integers(0, len(_PROFILES) - 1))
                node = data.draw(st.integers(0, 1))
                core = data.draw(st.integers(0, 2))
                thread = HwThread(core=core, slot=0, index=core, node=node)
                meta = {"profile": _PROFILES[p], "thread": thread, "speed": 1.0}
                task = FluidTask(sim, 1.0, meta=meta)
                static = alloc.prepare(task)
                alloc.notify_attach(static)
                active.append((task, static))
            assert alloc._counts == _rebuilt_counts(alloc, active)
            if active:
                statics = np.asarray([static for _, static in active], dtype=float)
                fresh = batch_rates(_make_allocator(), [task for task, _ in active])
                assert alloc.allocate_batch(statics).tolist() == fresh
        for _task, static in active:
            alloc.notify_detach(np.asarray(static, dtype=float))
        assert not any(alloc._counts)
        assert not any(alloc._core_occ)
        assert not alloc._shared
