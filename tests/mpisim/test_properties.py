"""Hypothesis property tests for the simulated MPI collectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CpuModel, NodeTopology, PhaseProfile, PhaseTable
from repro.mpisim import MetaPayload, MpiWorld, NetworkModel
from repro.simkit import Simulator

FREQ = 1.0e9


def build_world(n_ranks):
    sim = Simulator()
    topo = NodeTopology(n_cores=max(n_ranks, 2), threads_per_core=2, frequency_hz=FREQ)
    table = PhaseTable([PhaseProfile("work", ipc0=1.0, bytes_per_instr=0.0)])
    cpu = CpuModel(sim, topo, table, bandwidth_bytes_per_s=1e12)
    net = NetworkModel(sim, capacity=8e9, injection_bw=1e9, latency=1e-6)
    return MpiWorld(sim, cpu, net, n_ranks=n_ranks)


class TestAlltoallProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        n_ranks=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_exchange_is_a_transpose(self, n_ranks, seed):
        """recv[i][j] == send[j][i] for arbitrary payload matrices."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(0, 5, size=(n_ranks, n_ranks))
        world = build_world(n_ranks)
        sent = {}
        received = {}

        def program(rank):
            parts = [
                np.full(sizes[rank.rank, j], 10.0 * rank.rank + j)
                for j in range(n_ranks)
            ]
            sent[rank.rank] = parts
            recv = yield rank.alltoall(world.comm_world, parts)
            received[rank.rank] = recv

        world.launch(program)
        world.run()
        for i in range(n_ranks):
            for j in range(n_ranks):
                np.testing.assert_array_equal(received[i][j], sent[j][i])

    @settings(max_examples=20, deadline=None)
    @given(
        n_ranks=st.integers(min_value=2, max_value=6),
        nbytes=st.floats(min_value=1.0, max_value=1e7),
    )
    def test_completion_time_scales_with_bytes(self, n_ranks, nbytes):
        """The alltoall never completes before the transport could move the
        off-diagonal volume at aggregate capacity."""
        world = build_world(n_ranks)
        finish = {}

        def program(rank):
            parts = [MetaPayload(nbytes)] * n_ranks
            yield rank.alltoall(world.comm_world, parts)
            finish[rank.rank] = rank.sim.now

        world.launch(program)
        world.run()
        total_bytes = n_ranks * (n_ranks - 1) * nbytes
        lower_bound = total_bytes / 8e9
        assert min(finish.values()) >= lower_bound * (1 - 1e-9)
