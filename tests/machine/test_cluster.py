"""Tests for the multi-node cluster topology and per-node contention."""

import pytest

from repro.machine import NodeTopology, PhaseProfile
from repro.machine.cluster import ClusterTopology
from repro.machine.contention import BandwidthContentionAllocator
from repro.simkit import Simulator
from repro.simkit.fluid import FluidTask
from tests.machine.batch import batch_rates

FREQ = 1.0e9


@pytest.fixture()
def node():
    return NodeTopology(n_cores=4, threads_per_core=2, frequency_hz=FREQ)


class TestClusterTopology:
    def test_invalid_node_count(self, node):
        with pytest.raises(ValueError):
            ClusterTopology(node, 0)

    def test_capacity(self, node):
        cluster = ClusterTopology(node, 3)
        assert cluster.n_hw_threads == 24
        assert cluster.frequency_hz == FREQ

    def test_block_placement_is_node_major(self, node):
        cluster = ClusterTopology(node, 2)
        placement = cluster.place(8)
        assert [t.node for t in placement] == [0, 0, 0, 0, 1, 1, 1, 1]
        # Within each node: spread across cores.
        assert [t.core for t in placement[:4]] == [0, 1, 2, 3]
        assert [t.core for t in placement[4:]] == [0, 1, 2, 3]

    def test_uneven_stream_count(self, node):
        cluster = ClusterTopology(node, 2)
        placement = cluster.place(6)
        assert [t.node for t in placement] == [0, 0, 0, 1, 1, 1]

    def test_grouped_placement_pairs_within_node(self, node):
        cluster = ClusterTopology(node, 2)
        placement = cluster.place_grouped(8, group=2)
        assert [t.node for t in placement] == [0] * 4 + [1] * 4
        assert (placement[0].core, placement[1].core) == (0, 0)
        assert placement[0].slot != placement[1].slot

    def test_oversubscription_rejected(self, node):
        cluster = ClusterTopology(node, 2)
        with pytest.raises(ValueError):
            cluster.place(17)

    def test_no_duplicate_threads_across_nodes(self, node):
        cluster = ClusterTopology(node, 2)
        placement = cluster.place(16)  # would collide without node identity
        assert len({(t.node, t.core, t.slot) for t in placement}) == 16


class TestPerNodeContention:
    def test_nodes_are_independent_bandwidth_domains(self, node):
        """4 heavy tasks on one node are throttled; 2+2 over two nodes not."""
        alloc = BandwidthContentionAllocator(FREQ, 4.0e9)
        heavy = PhaseProfile("heavy", ipc0=2.0, bytes_per_instr=1.0)  # 2 GB/s each
        sim = Simulator()
        cluster = ClusterTopology(node, 2)

        def rates(nodes_of_tasks):
            tasks = []
            for i, n in enumerate(nodes_of_tasks):
                t = cluster.place(8)[n * 4 + (i % 4)]
                tasks.append(FluidTask(sim, 1e9, meta={"profile": heavy, "thread": t}))
            return batch_rates(alloc, tasks)

        same_node = rates([0, 0, 0, 0])
        split = rates([0, 0, 1, 1])
        assert same_node[0] == pytest.approx(1.0e9)  # 4 GB/s / 4 / 1 B/instr
        assert split[0] == pytest.approx(2.0e9)  # unthrottled per node

    def test_hyperthread_sharing_stays_per_node_core(self, node):
        """Same (core, slot) on different nodes must not share issue."""
        alloc = BandwidthContentionAllocator(FREQ, 1e15)
        p = PhaseProfile("x", ipc0=1.0, bytes_per_instr=0.0)
        sim = Simulator()
        cluster = ClusterTopology(node, 2)
        placement = cluster.place(8)
        t_n0 = FluidTask(sim, 1.0, meta={"profile": p, "thread": placement[0]})
        t_n1 = FluidTask(sim, 1.0, meta={"profile": p, "thread": placement[4]})
        rates = batch_rates(alloc, [t_n0, t_n1])
        assert rates == pytest.approx([FREQ, FREQ])
