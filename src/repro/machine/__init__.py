"""Machine model of an Intel Knights Landing (KNL) node.

This package is the substitute for the paper's physical test system (a single
KNL node: 68 cores at 1.4 GHz, 4-way hyper-threading).  It provides

* :mod:`~repro.machine.topology` — cores, hardware-thread slots, placement;
* :mod:`~repro.machine.phases` — per-phase *nominal* IPC and memory traffic
  (bytes per instruction), the inputs of the contention model;
* :mod:`~repro.machine.contention` — the rate allocator that converts the set
  of concurrently executing phases into effective per-thread IPC: linear
  issue-slot sharing between hyper-threads of a core, and max-min (water
  filling) sharing of the node memory bandwidth;
* :mod:`~repro.machine.cpu` — :class:`CpuModel`, the facade used by rank
  programs: ``yield cpu.compute(thread, phase, instructions)``;
* :mod:`~repro.machine.counters` — per-thread instruction/cycle accounting
  (the simulated PAPI counters the POP model consumes);
* :mod:`~repro.machine.knl` — the calibrated KNL preset used by all
  experiments.

The central design point: a phase's *effective* IPC is not an input, it is an
output of the allocator given everything else running on the node at the same
instant.  De-synchronising phases (the paper's Opt 2) therefore raises
average IPC in this model for the same structural reason it does on real KNL
hardware — high-demand phases overlap low-demand ones instead of colliding.
"""

from repro.machine.topology import HwThread, NodeTopology, Placement
from repro.machine.phases import PhaseProfile, PhaseTable
from repro.machine.contention import BandwidthContentionAllocator
from repro.machine.counters import CounterSet, PhaseCounters
from repro.machine.cpu import ComputeRecord, CpuModel
from repro.machine.knl import (
    WHATIF_MACHINES,
    KnlParameters,
    knl_parameters,
    knl_phase_table,
    knl_topology,
    whatif_machine,
)

__all__ = [
    "HwThread",
    "NodeTopology",
    "Placement",
    "PhaseProfile",
    "PhaseTable",
    "BandwidthContentionAllocator",
    "CounterSet",
    "PhaseCounters",
    "CpuModel",
    "ComputeRecord",
    "KnlParameters",
    "WHATIF_MACHINES",
    "whatif_machine",
    "knl_parameters",
    "knl_phase_table",
    "knl_topology",
]
