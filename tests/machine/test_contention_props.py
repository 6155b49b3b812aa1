"""Property tests of the water-filling kernels and the allocation memo.

The contention engine has three implementations of the same max-min fair
allocation — the reference Python fixpoint (:func:`waterfill`), the
vectorized sort+cumsum version (:func:`waterfill_vec`) and its scalar twin
for tiny compositions (``waterfill_scalar``) — plus a composition-keyed
memo on top.  These tests pin the invariants that let them substitute for
each other: feasibility, demand-boundedness, max-min fairness, bit-level
agreement of the twin paths, and order/cache independence of the memoized
allocator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.contention import (
    BandwidthContentionAllocator,
    _SCALAR_MAX_GROUPS,
    waterfill_scalar,
    waterfill,
    waterfill_vec,
)
from repro.machine.phases import PhaseProfile
from repro.machine.topology import HwThread
from repro.simkit.fluid import FluidTask
from repro.simkit.simulator import Simulator

demand_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=24,
)
capacities = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
weight_lists = st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=24)


class TestWaterfillInvariants:
    @given(demands=demand_lists, capacity=capacities)
    @settings(max_examples=200)
    def test_vectorized_feasible_and_demand_bounded(self, demands, capacity):
        grants = waterfill_vec(np.asarray(demands), capacity)
        assert grants.shape == (len(demands),)
        assert float(grants.sum()) <= capacity * (1.0 + 1e-9) + 1e-6
        for g, d in zip(grants, demands):
            assert g <= d * (1.0 + 1e-12) + 1e-12
            assert g >= 0.0

    @given(demands=demand_lists, capacity=capacities)
    @settings(max_examples=200)
    def test_vectorized_matches_reference_fixpoint(self, demands, capacity):
        ref = waterfill(demands, capacity)
        vec = waterfill_vec(np.asarray(demands), capacity)
        np.testing.assert_allclose(vec, ref, rtol=1e-9, atol=1e-3)

    @given(demands=demand_lists, capacity=capacities)
    @settings(max_examples=200)
    def test_vectorized_is_max_min_fair(self, demands, capacity):
        """Every grant is min(demand, level) for one shared water level."""
        grants = waterfill_vec(np.asarray(demands), capacity)
        unsatisfied = [
            g for g, d in zip(grants, demands) if g < d * (1.0 - 1e-9) - 1e-12
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
        grouped = waterfill_vec(np.asarray(demands), capacity, np.asarray(weights))
        flat = waterfill_vec(np.asarray(np.repeat(demands, 2)), capacity)
        np.testing.assert_allclose(np.repeat(grouped, 2), flat, rtol=1e-9, atol=1e-6)


class TestScalarTwinBitExactness:
    @given(data=st.data(), capacity=capacities)
    @settings(max_examples=200)
    def test_scalar_twin_is_bit_identical_below_group_limit(self, data, capacity):
        m = data.draw(st.integers(min_value=1, max_value=_SCALAR_MAX_GROUPS))
        demands = data.draw(
            st.lists(
                st.floats(
                    min_value=0.0,
                    max_value=1e9,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=m,
                max_size=m,
            )
        )
        weights = data.draw(
            st.lists(st.integers(min_value=1, max_value=64), min_size=m, max_size=m)
        )
        vec = waterfill_vec(
            np.asarray(demands), capacity, np.asarray(weights, dtype=np.int64)
        )
        scalar = waterfill_scalar(demands, capacity, weights)
        # Bit-identical, not approximately equal: the memo must not depend
        # on which path priced a composition first.
        assert [float(v) for v in vec] == scalar


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
        baseline = warm.allocate(_make_tasks(spec))

        permuted = list(range(len(spec)))
        seed.shuffle(permuted)
        spec_p = [spec[i] for i in permuted]

        warm_rates = warm.allocate(_make_tasks(spec_p))  # memo hit
        cold_rates = _make_allocator().allocate(_make_tasks(spec_p))  # miss
        assert warm_rates == cold_rates
        for j, i in enumerate(permuted):
            assert warm_rates[j] == baseline[i]

    @given(spec=task_specs)
    @settings(max_examples=100)
    def test_rates_positive_and_speed_scaled(self, spec):
        alloc = _make_allocator()
        rates = alloc.allocate(_make_tasks(spec))
        assert all(r > 0.0 for r in rates)
        # Doubling a task's speed factor exactly doubles its rate (speed is
        # a pure post-multiplier outside the memoized base rates).
        doubled = [(p, core, 2.0 * s) for (p, core, s) in spec]
        rates2 = _make_allocator().allocate(_make_tasks(doubled))
        for r1, r2 in zip(rates, rates2):
            assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    @given(spec=task_specs)
    @settings(max_examples=50)
    def test_notifications_leave_no_residue(self, spec):
        """allocate() must restore the incremental occupancy tracking."""
        alloc = _make_allocator()
        alloc.allocate(_make_tasks(spec))
        assert alloc._core_occ == {}
        assert alloc._multi_cores == 0

    def test_hyperthread_sharing_halves_the_ceiling(self):
        """Two compute-bound hyper-threads on one core each run at ipc0/2."""
        alloc = _make_allocator()
        lone = alloc.allocate(_make_tasks([(3, 0, 1.0)]))[0]
        shared = alloc.allocate(_make_tasks([(3, 0, 1.0), (3, 0, 1.0)]))
        assert shared[0] == pytest.approx(lone / 2.0)
        assert shared[1] == pytest.approx(lone / 2.0)

    def test_cache_info_counts_hits_and_misses(self):
        alloc = _make_allocator()
        spec = [(0, 0, 1.0), (1, 1, 1.0)]
        alloc.allocate(_make_tasks(spec))
        alloc.allocate(_make_tasks(spec))
        info = alloc.cache_info()
        assert info["alloc_cache_misses"] == 1
        assert info["alloc_cache_hits"] == 1
        assert info["alloc_cache_size"] == 1

    def test_engine_path_equals_direct_path(self):
        """The batch protocol (statics array) and allocate() agree exactly."""
        alloc = _make_allocator()
        spec = [(0, 0, 1.0), (1, 0, 1.1), (2, 1, 0.9), (1, 2, 1.0)]
        tasks = _make_tasks(spec)
        direct = alloc.allocate(tasks)

        engine = _make_allocator()
        statics = [engine.prepare(t) for t in tasks]
        for s in statics:
            engine.notify_attach(s)
        arr = np.asarray(statics, dtype=float)
        batch = engine.allocate_batch(arr)
        assert direct == batch.tolist()


class TestMathEdgeCases:
    def test_zero_capacity_grants_nothing(self):
        assert waterfill([5.0, 1.0], 0.0) == [0.0, 0.0]
        assert waterfill_vec(np.array([5.0, 1.0]), 0.0).tolist() == [0.0, 0.0]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            waterfill([1.0], -1.0)
        with pytest.raises(ValueError):
            waterfill_vec(np.array([1.0]), -1.0)

    def test_all_zero_demands(self):
        assert waterfill_vec(np.zeros(4), 7.0).tolist() == [0.0] * 4

    def test_level_is_finite_under_extreme_spread(self):
        grants = waterfill_vec(np.array([1e-30, 1e30]), 1.0)
        assert math.isfinite(float(grants.sum()))
        assert float(grants[0]) == pytest.approx(1e-30)
