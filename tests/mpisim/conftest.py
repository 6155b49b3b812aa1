"""Shared fixtures for mpisim tests: a small 8-rank world on a toy node."""

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
def cpu(sim):
    topo = NodeTopology(n_cores=16, threads_per_core=4, frequency_hz=FREQ)
    table = PhaseTable([PhaseProfile("work", ipc0=1.0, bytes_per_instr=0.0)])
    return CpuModel(sim, topo, table, bandwidth_bytes_per_s=1.0e12)


@pytest.fixture()
def network(sim):
    # Round numbers make hand-computed timings easy: 1 GB/s injection,
    # 8 GB/s aggregate, 1 us latency; room for the largest world (8 ranks).
    return one_node_network(sim, 8, capacity=8.0e9, injection_bw=1.0e9, latency=1.0e-6)


@pytest.fixture()
def world(sim, cpu, network):
    return MpiWorld(sim, cpu, network, n_ranks=8)


def make_world(sim, cpu, network, n_ranks, threads_per_rank=1):
    return MpiWorld(sim, cpu, network, n_ranks=n_ranks, threads_per_rank=threads_per_rank)
