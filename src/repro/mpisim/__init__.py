"""Simulated MPI over the discrete-event engine.

This package replaces the MPI runtime of the paper's testbed.  Ranks are
coroutine processes sharing one :class:`~repro.simkit.simulator.Simulator`;
communication is *real* in the sense that numpy payloads actually move
between rank-local objects (so the FFT numerics are bit-honest), while the
*time* each operation takes comes from an on-node communication cost model:

* per-message software latency (the MPI stack),
* per-rank injection bandwidth (one core copying),
* a shared transport capacity modelled as a fluid resource, so concurrent
  collectives (and communication overlapped with other communication)
  genuinely contend.

Collective matching follows MPI semantics — the n-th collective on a
communicator matches the n-th on every other member — with an optional
explicit ``key`` for multi-threaded callers (the OmpSs per-FFT tasks issue
concurrent exchanges on one communicator; keys replace the call-order rule
that would be ill-defined there).

The FFT's only call is ``alltoallw`` over :class:`BlockType` descriptors;
``alltoall`` remains as the packed exchange it prices identically to.
Payloads are dual-mode (:mod:`~repro.mpisim.datatypes`): numpy arrays move
data *and* drive the cost model; meta blocks (``None`` buffers) and
:class:`MetaPayload` parts drive only the cost model, letting large
benchmark sweeps skip the memory traffic.
"""

from repro.faults.injector import MpiLinkError, MpiTimeoutError
from repro.mpisim.datatypes import BlockType, MetaPayload, nbytes_of, payload_like
from repro.mpisim.network import ClusterNetworkModel, NetworkModel
from repro.mpisim.communicator import Communicator, MpiSimError
from repro.mpisim.world import MpiRecord, MpiWorld, RankContext

__all__ = [
    "BlockType",
    "ClusterNetworkModel",
    "MetaPayload",
    "nbytes_of",
    "payload_like",
    "NetworkModel",
    "Communicator",
    "MpiSimError",
    "MpiLinkError",
    "MpiTimeoutError",
    "MpiWorld",
    "RankContext",
    "MpiRecord",
]
