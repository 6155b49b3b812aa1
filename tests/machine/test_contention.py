"""Unit and property tests for the contention model (water filling + HT sharing).

``TestWaterfill`` checks the engine's one water-filling body
(:func:`~repro.machine.contention.water_level`) through
:func:`tests.machine.maxmin.grants`, which feeds it demands in any order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    BandwidthContentionAllocator,
    HwThread,
    NodeTopology,
    PhaseProfile,
)
from repro.simkit.fluid import FluidTask
from repro.simkit import Simulator
from tests.machine.batch import batch_rates
from tests.machine import maxmin


class TestWaterfill:
    def test_empty(self):
        assert maxmin.grants([], 10.0) == []

    def test_all_satisfied_when_capacity_ample(self):
        assert maxmin.grants([1.0, 2.0, 3.0], 100.0) == [1.0, 2.0, 3.0]

    def test_equal_split_when_all_demand_exceeds_fair_share(self):
        grants = maxmin.grants([10.0, 10.0, 10.0], 9.0)
        assert grants == pytest.approx([3.0, 3.0, 3.0])

    def test_small_demand_fully_served_slack_redistributed(self):
        # fair share is 4; the 1.0 demand is served fully, the rest split 11/2.
        grants = maxmin.grants([1.0, 10.0, 10.0], 12.0)
        assert grants[0] == pytest.approx(1.0)
        assert grants[1] == pytest.approx(5.5)
        assert grants[2] == pytest.approx(5.5)

    def test_zero_demands_get_zero(self):
        grants = maxmin.grants([0.0, 5.0], 4.0)
        assert grants == pytest.approx([0.0, 4.0])

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            maxmin.grants([1.0], -1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        demands=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=16),
        capacity=st.floats(min_value=0.1, max_value=200.0),
    )
    def test_waterfill_invariants(self, demands, capacity):
        grants = maxmin.grants(demands, capacity)
        assert len(grants) == len(demands)
        # No grant exceeds its demand; no grant negative.
        for g, d in zip(grants, demands):
            assert -1e-9 <= g <= d + 1e-9
        # Capacity respected.
        assert sum(grants) <= capacity * (1 + 1e-9)
        # Work conserving: either all demands met or capacity (nearly) exhausted.
        if sum(demands) >= capacity:
            assert sum(grants) == pytest.approx(capacity, rel=1e-6)
        else:
            assert grants == pytest.approx(demands)

    @settings(max_examples=40, deadline=None)
    @given(
        demands=st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=2, max_size=10),
        capacity=st.floats(min_value=0.1, max_value=100.0),
    )
    def test_waterfill_max_min_fairness(self, demands, capacity):
        """No task that got less than its demand received less than another task."""
        grants = maxmin.grants(demands, capacity)
        unsat = [g for g, d in zip(grants, demands) if g < d - 1e-9]
        if unsat:
            floor = min(unsat)
            assert all(g <= max(floor, d) + 1e-6 for g, d in zip(grants, demands))


def _task(sim, profile, thread, work=1e9):
    return FluidTask(sim, work, meta={"profile": profile, "thread": thread})


class TestBandwidthContentionAllocator:
    FREQ = 1.0e9
    BW = 8.0e9

    @pytest.fixture()
    def topo(self):
        return NodeTopology(n_cores=4, threads_per_core=2, frequency_hz=self.FREQ)

    @pytest.fixture()
    def alloc(self):
        return BandwidthContentionAllocator(self.FREQ, self.BW)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BandwidthContentionAllocator(0.0, 1.0)
        with pytest.raises(ValueError):
            BandwidthContentionAllocator(1.0, 0.0)

    def test_lone_task_runs_at_nominal_ipc(self, topo, alloc):
        sim = Simulator()
        p = PhaseProfile("x", ipc0=1.5, bytes_per_instr=0.1)
        rates = batch_rates(alloc, [_task(sim, p, topo.hw_thread(0, 0))])
        assert rates[0] == pytest.approx(1.5 * self.FREQ)
        assert alloc.effective_ipc(rates[0]) == pytest.approx(1.5)

    def test_hyperthreads_share_issue_linearly(self, topo, alloc):
        """Two hyper-threads on the same core each get half the nominal IPC —
        the paper's 'IPC cut in half' observation for 2x HT."""
        sim = Simulator()
        p = PhaseProfile("x", ipc0=1.0, bytes_per_instr=0.0)
        t0 = _task(sim, p, topo.hw_thread(0, 0))
        t1 = _task(sim, p, topo.hw_thread(0, 1))
        rates = batch_rates(alloc, [t0, t1])
        assert rates == pytest.approx([0.5 * self.FREQ, 0.5 * self.FREQ])

    def test_separate_cores_do_not_share_issue(self, topo, alloc):
        sim = Simulator()
        p = PhaseProfile("x", ipc0=1.0, bytes_per_instr=0.0)
        rates = batch_rates(alloc, 
            [_task(sim, p, topo.hw_thread(0, 0)), _task(sim, p, topo.hw_thread(1, 0))]
        )
        assert rates == pytest.approx([self.FREQ, self.FREQ])

    def test_bandwidth_throttles_synchronized_heavy_phases(self, topo, alloc):
        """4 cores each demanding 4 GB/s against an 8 GB/s node: halved."""
        sim = Simulator()
        p = PhaseProfile("heavy", ipc0=2.0, bytes_per_instr=2.0)  # demand 4e9 each
        tasks = [_task(sim, p, topo.hw_thread(c, 0)) for c in range(4)]
        rates = batch_rates(alloc, tasks)
        for r in rates:
            assert r == pytest.approx(self.BW / 4 / 2.0)  # grant / bpi = 1e9 instr/s
            assert alloc.effective_ipc(r) == pytest.approx(1.0)

    def test_desynchronization_raises_heavy_phase_ipc(self, topo, alloc):
        """The Fig. 7 mechanism: replacing two heavy co-runners with light ones
        gives the remaining heavy phases more bandwidth and higher IPC."""
        sim = Simulator()
        heavy = PhaseProfile("heavy", ipc0=2.0, bytes_per_instr=2.0)
        light = PhaseProfile("light", ipc0=0.06, bytes_per_instr=1.0)
        sync = [_task(sim, heavy, topo.hw_thread(c, 0)) for c in range(4)]
        sync_rate = batch_rates(alloc, sync)[0]
        mixed = [
            _task(sim, heavy, topo.hw_thread(0, 0)),
            _task(sim, heavy, topo.hw_thread(1, 0)),
            _task(sim, light, topo.hw_thread(2, 0)),
            _task(sim, light, topo.hw_thread(3, 0)),
        ]
        mixed_rates = batch_rates(alloc, mixed)
        assert mixed_rates[0] > sync_rate
        # Light phases are latency bound and unaffected.
        assert alloc.effective_ipc(mixed_rates[2]) == pytest.approx(0.06)

    def test_zero_traffic_phase_ignores_bandwidth(self, topo, alloc):
        sim = Simulator()
        p = PhaseProfile("cpu_only", ipc0=1.0, bytes_per_instr=0.0)
        heavy = PhaseProfile("heavy", ipc0=2.0, bytes_per_instr=10.0)
        tasks = [_task(sim, p, topo.hw_thread(0, 0))] + [
            _task(sim, heavy, topo.hw_thread(c, 0)) for c in range(1, 4)
        ]
        rates = batch_rates(alloc, tasks)
        assert rates[0] == pytest.approx(self.FREQ)

    def test_missing_metadata_raises(self, topo, alloc):
        sim = Simulator()
        bare = FluidTask(sim, 1.0, meta={})
        with pytest.raises(RuntimeError, match="metadata"):
            batch_rates(alloc, [bare])

    def test_far_node_indices_are_their_own_contention_domain(self):
        """Node 4096 is a node like node 1: its task neither shares a core
        nor bandwidth with the two bandwidth-bound tasks of node 0."""
        freq = 1.4e9
        alloc = BandwidthContentionAllocator(freq, 2.0e9)
        p = PhaseProfile("x", ipc0=1.0, bytes_per_instr=1.0)
        sim = Simulator()

        def rates(far_node):
            threads = [HwThread(0, 0, 0, 0), HwThread(1, 0, 1, 0), HwThread(0, 0, 0, far_node)]
            return batch_rates(alloc, [_task(sim, p, t) for t in threads])

        assert rates(1) == pytest.approx([1.0e9, 1.0e9, freq])
        assert rates(4096) == rates(1)
        assert rates(1 << 20) == rates(1)

    @settings(max_examples=30, deadline=None)
    @given(n_heavy=st.integers(min_value=1, max_value=8))
    def test_ipc_monotonically_nonincreasing_in_contention(self, n_heavy):
        """Adding one more synchronized heavy co-runner can never raise anyone's IPC."""
        freq, bw = 1.0e9, 5.0e9
        topo = NodeTopology(n_cores=16, threads_per_core=1, frequency_hz=freq)
        alloc = BandwidthContentionAllocator(freq, bw)
        heavy = PhaseProfile("heavy", ipc0=1.4, bytes_per_instr=1.0)
        sim = Simulator()

        def first_rate(k):
            tasks = [_task(sim, heavy, topo.hw_thread(c, 0)) for c in range(k)]
            return batch_rates(alloc, tasks)[0]

        assert first_rate(n_heavy) >= first_rate(n_heavy + 1) - 1e-6
