"""Calibrated Knights Landing preset.

The paper's test system is "a single KNL node with 68 cores at 1.4 GHz with
four-time hyper-threading" (Section III).  This module pins the topology and
the free parameters of the contention and network models.

Calibration policy (see DESIGN.md §5): the *anchor points* below are taken
from the paper's own measurements; everything else must emerge from the
mechanisms.

* Phase IPCs observed in the Fig. 3 timeline of the fully populated node:
  Psi preparation ~0.06 IPC, FFT along Z ~0.52 IPC, the central
  FFT-XY/VOFR phase ~0.77 IPC.  Working backwards through the water-filling
  model with 64 synchronized threads gives the effective node bandwidth and
  the relative memory intensities of the Z and XY transforms.
* Average compute IPC ~1.1 at 1x8 (Table I base column) pins the nominal
  (uncontended) IPCs.
* "IPC ... cut in half when going from 8x8 to 16x8" pins the linear
  hyper-thread issue sharing (no extra parameter needed).

The network parameters model on-node MPI over the shared memory system:
a per-rank injection bandwidth (a single core's copy throughput), an
aggregate transport capacity, and a per-message software latency.
"""

from __future__ import annotations

import dataclasses

from repro.machine.phases import PhaseProfile, PhaseTable
from repro.machine.topology import NodeTopology

__all__ = [
    "KnlParameters",
    "WHATIF_MACHINES",
    "whatif_machine",
    "knl_topology",
    "knl_phase_table",
    "knl_parameters",
]


@dataclasses.dataclass(frozen=True)
class KnlParameters:
    """All calibrated constants of the simulated KNL node."""

    n_cores: int = 68
    threads_per_core: int = 4
    frequency_hz: float = 1.4e9
    cores_per_tile: int = 2

    #: Effective shared memory bandwidth seen by the compute phases.  Derived
    #: from the Fig. 3 anchor: 64 synchronized threads in the XY phase at
    #: ~0.77 IPC with ~1 B/instr -> 0.77 * 1.4e9 * 64 ~= 6.9e10 B/s.
    mem_bandwidth: float = 6.9e10

    #: Concurrency ramp-up of the memory system (see
    #: ``BandwidthContentionAllocator``): achievable aggregate bandwidth is
    #: ``min(mem_bw_rampup_max * n/(n + mem_bw_rampup_half), mem_bandwidth)``.
    #: Fit through the Table I IPC-scalability anchors (xy-phase IPC ~1.4
    #: uncontended at 8 threads, ~1.3 at 16, ~1.05 at 32, 0.77 at 64).
    mem_bw_rampup_max: float = 1.277e11
    mem_bw_rampup_half: float = 54.5

    #: Per-rank MPI injection bandwidth (one core copying, B/s).
    net_injection_bw: float = 3.0e9

    #: Aggregate on-node MPI transport capacity (B/s); concurrent collectives
    #: share it through the network fluid resource.
    net_capacity: float = 4.5e10

    #: Per-message software latency of the MPI stack (s).
    net_latency: float = 3.0e-6

    #: Inter-node fabric (multi-node runs; Omni-Path-class 100 Gb/s links):
    #: per-node NIC bandwidth, per-message fabric latency.  The fabric's
    #: aggregate capacity is ``fabric_injection_bw * n_nodes / 2`` (full
    #: bisection), computed by the driver.
    fabric_injection_bw: float = 1.25e10
    fabric_latency: float = 2.0e-6

    #: Relative amplitude of per-execution compute-speed variability (cache
    #: state, TLB, OS noise — the run-to-run scatter real phases always
    #: show).  Statically synchronized executions re-align at every
    #: collective; dynamically scheduled tasks accumulate the drift, which
    #: is the seed of the paper's de-synchronization effect (Fig. 7).
    compute_jitter: float = 0.06

    #: Seed of the (deterministic) jitter stream.
    jitter_seed: int = 7


def knl_parameters() -> KnlParameters:
    """The default calibrated parameter set used by all experiments."""
    return KnlParameters()


#: The Dimemas-style what-if machines, each lifting one modelled bottleneck:
#: instantaneous MPI transport (the POP transfer-factor replay), no memory
#: contention (hyper-thread sharing and nominal IPCs remain), no noise.
WHATIF_MACHINES: dict[str, dict] = {
    "ideal_network": dict(net_latency=0.0, net_injection_bw=1e18, net_capacity=1e18),
    "infinite_bandwidth": dict(mem_bandwidth=1e18, mem_bw_rampup_max=None),
    "no_jitter": dict(compute_jitter=0.0),
}


def whatif_machine(name: str, base: KnlParameters | None = None) -> KnlParameters:
    """``base`` (default: the calibrated node) with one bottleneck lifted."""
    return dataclasses.replace(base or KnlParameters(), **WHATIF_MACHINES[name])


def knl_topology(params: KnlParameters | None = None) -> NodeTopology:
    """Topology of the paper's KNL test node."""
    p = params or KnlParameters()
    return NodeTopology(
        n_cores=p.n_cores,
        threads_per_core=p.threads_per_core,
        frequency_hz=p.frequency_hz,
        cores_per_tile=p.cores_per_tile,
    )


def knl_phase_table() -> PhaseTable:
    """Phase profiles of the FFTXlib compute phases on KNL.

    ``ipc0`` is the nominal (uncontended, full-core) IPC; ``bytes_per_instr``
    the main-memory traffic per instruction driving the bandwidth sharing.

    * ``prepare_psis`` — strided gather of G-vector coefficients into the 3D
      grid ("preparation of the Psis with very low IPC", Fig. 3): latency
      bound, intrinsically ~0.06 IPC, negligible bandwidth pressure.
    * ``pack_sticks`` / ``unpack_sticks`` — copy-like reshuffling of group
      sticks around the MPI_Alltoallv: moderate IPC, memory heavy.
    * ``fft_z`` — multi-band 1D FFTs along Z on the sticks: observed ~0.52
      IPC on the full node; nominal 1.10 with a relative memory intensity of
      0.77/0.52 vs. the XY phase (both saturate the same bandwidth).
    * ``scatter_reorder`` — local pencil<->plane reordering around the
      MPI_Alltoall.
    * ``fft_xy`` — multi-band 2D FFTs on the planes: the high-intensity main
      phase; nominal 1.40, throttled to ~0.77 when 64 threads collide.
    * ``vofr`` — pointwise application of the real-space potential:
      streaming, bandwidth bound.
    """
    return PhaseTable(
        [
            PhaseProfile("prepare_psis", ipc0=0.06, bytes_per_instr=1.0),
            PhaseProfile("pack_sticks", ipc0=0.45, bytes_per_instr=3.0),
            PhaseProfile("unpack_sticks", ipc0=0.45, bytes_per_instr=3.0),
            PhaseProfile("fft_z", ipc0=1.10, bytes_per_instr=1.481),
            PhaseProfile("scatter_reorder", ipc0=0.45, bytes_per_instr=3.0),
            PhaseProfile("fft_xy", ipc0=1.40, bytes_per_instr=1.0),
            PhaseProfile("vofr", ipc0=1.20, bytes_per_instr=1.2),
        ]
    )
