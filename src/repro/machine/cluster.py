"""Cluster topology: the machine every run places its ranks on.

The paper evaluates on a single node but designed Opt 1 for "large scales
where the impact of the communication is very high and the computational
load is relatively rather small" (§IV).  :class:`ClusterTopology` places
ranks over ``n_nodes`` nodes — one for the paper's testbed — each an
independent contention domain (per-node issue sharing and per-node
bandwidth water-filling in
:class:`~repro.machine.contention.BandwidthContentionAllocator`) — while
the network layer (:class:`~repro.mpisim.network.NetworkModel`) charges
inter-node traffic at fabric, not memory, speeds.

Placement is node-major blocks: ranks fill node 0 first, then node 1, …,
so the original version's pack groups (T consecutive ranks) stay inside a
node whenever the per-node rank count is a multiple of T — the layout a
production MPI launcher would use for exactly that reason.
"""

from __future__ import annotations

from repro.machine.topology import HwThread, NodeTopology, Placement

__all__ = ["ClusterTopology"]


class ClusterTopology:
    """``n_nodes`` identical nodes; quacks like a big :class:`NodeTopology`."""

    def __init__(self, node: NodeTopology, n_nodes: int):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.node = node
        self.n_nodes = n_nodes

    @property
    def frequency_hz(self) -> float:
        """Core clock (same on every node)."""
        return self.node.frequency_hz

    @property
    def n_cores(self) -> int:
        """Cores per node (the contention domain size)."""
        return self.node.n_cores

    @property
    def threads_per_core(self) -> int:
        """Hyper-thread slots per core."""
        return self.node.threads_per_core

    @property
    def n_hw_threads(self) -> int:
        """Total hardware threads across the cluster."""
        return self.n_nodes * self.node.n_hw_threads

    def place(self, n_streams: int) -> Placement:
        """Node-major block placement; within a node, spread across cores."""
        threads = self._assign(n_streams, grouped=None)
        return Placement(topology=self.node, threads=threads)

    def place_grouped(self, n_streams: int, group: int) -> Placement:
        """Node-major blocks; within a node, core-sharing groups of ``group``."""
        threads = self._assign(n_streams, grouped=group)
        return Placement(topology=self.node, threads=threads)

    def _assign(self, n_streams: int, grouped: int | None) -> list[HwThread]:
        if n_streams < 1:
            raise ValueError(f"n_streams must be >= 1, got {n_streams}")
        if n_streams > self.n_hw_threads:
            raise ValueError(
                f"{n_streams} streams exceed the cluster's {self.n_hw_threads} "
                f"hardware threads"
            )
        per_node = -(-n_streams // self.n_nodes)
        if grouped is not None and per_node % grouped:
            raise ValueError(
                f"{per_node} streams per node do not split into core groups of {grouped}"
            )
        # One per-node template placement, re-labelled per node.
        if grouped is None:
            base = self.node.place(per_node)
        else:
            base = self.node.place_grouped(per_node, grouped)
        threads: list[HwThread] = []
        for i in range(n_streams):
            node = min(i // per_node, self.n_nodes - 1)
            local = i - node * per_node
            t = base[local]
            threads.append(
                HwThread(core=t.core, slot=t.slot, index=t.index, node=node)
            )
        return threads

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ClusterTopology({self.n_nodes} x {self.node!r})"
