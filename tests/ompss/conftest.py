"""Shared fixtures: a 1-rank world with 4 hardware threads for task tests."""

import pytest

from repro.machine import CpuModel, NodeTopology, PhaseProfile, PhaseTable
from repro.mpisim import MpiWorld
from repro.simkit import Simulator
from tests.mpisim.helpers import one_node_network

FREQ = 1.0e9


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def world(sim):
    topo = NodeTopology(n_cores=8, threads_per_core=2, frequency_hz=FREQ)
    table = PhaseTable([PhaseProfile("work", ipc0=1.0, bytes_per_instr=0.0)])
    cpu = CpuModel(sim, topo, table, bandwidth_bytes_per_s=1.0e12)
    net = one_node_network(sim, 2, capacity=8.0e9, injection_bw=1.0e9, latency=1.0e-6)
    return MpiWorld(sim, cpu, net, n_ranks=2, threads_per_rank=4)


@pytest.fixture()
def rank(world):
    return world.ranks[0]
