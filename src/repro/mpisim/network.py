"""MPI transport cost model: each node's memory system plus the fabric.

One model serves every node count; a single KNL node is the ``n = 1`` case
(Verma et al., *Scalable Multi-node FFT on GPUs*, treat it the same way).
Every rank lives on a node (``node_of``, a per-rank tuple).  A sender's
bytes to ranks on its own node move through that node's transport fluid
resource; bytes to other nodes cross one shared fabric resource.

On-node constants (see :class:`~repro.machine.knl.KnlParameters`):

``latency``
    Per-message software overhead of the MPI stack (s).
``injection_bw``
    Peak copy bandwidth of a single rank (B/s) — the per-task cap of a
    node's transport fluid resource.
``capacity``
    Aggregate transport bandwidth of one node (B/s), shared by *all*
    concurrent transfers on it through the
    :class:`~repro.simkit.fluid.FluidResource`.

The fabric has the same three (``inter_*``); its injection cap applies per
*node* (the NIC), its capacity is the bisection bandwidth, and a
communicator spanning nodes pays ``inter_latency`` per message.

The latency term of an ``alltoall``/``alltoallw`` is ``latency * (P - 1)``
(pairwise exchange pattern).  Transfer time is not a formula — it comes out of the
fluid resources, so overlapping communication genuinely contends for
bandwidth (this is what makes the paper's Opt 1 overlap question
non-trivial in the model).
"""

from __future__ import annotations

import typing as _t
from collections import Counter

import numpy as np

from repro.faults.injector import MpiLinkError, MpiTimeoutError
from repro.machine.contention import water_level
from repro.simkit.events import Event
from repro.simkit.fluid import FluidResource, FluidTask

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.simkit.simulator import Simulator

__all__ = ["NetworkModel", "RankAwareAllocator"]


def _resolving_to(event: Event, value: object) -> Event:
    """``event`` itself, resolving to ``value`` when it succeeds.

    The transfer *is* its completion event (a fluid task's ``done``, or the
    condition over several): registered first, this callback swaps the
    payload before any waiter sees it — no second event per transfer.  A
    failed event passes through untouched.
    """

    def _swap(ev: Event) -> None:
        if ev._exception is None:
            ev._value = value

    event.add_callback(_swap)
    return event


class RankAwareAllocator:
    """Transport rate allocator with per-process injection sharing.

    A transfer's rate is capped by its sending process's injection bandwidth
    *divided among that process's concurrent transfers* (a multi-threaded MPI
    process does not inject N times faster because N tasks call MPI at once),
    then the aggregate capacity is divided max-min fairly over the resulting
    demands.  Every transfer names its sender in ``meta["rank"]``: a world
    rank on a node's transport, ``("node", n)`` (the NIC) on the fabric.

    The static record of a transfer is its sender, interned to a number.
    The rate computation is memoized on what the rates actually depend on —
    the multiset of per-sender transfer counts, not on *which* ranks are
    sending (the same handful of concurrent-transfer mixes — one rank
    alone, the all-ranks alltoall burst — recurs for the whole run, under
    ever-changing sender identities).
    """

    def __init__(self, capacity: float, injection_bw: float):
        self.capacity = capacity
        self.injection_bw = injection_bw
        #: Sender key (a rank, or ``("node", n)`` for a NIC) -> id.
        self._sender_ids: dict[object, int] = {}
        #: Per-sender counts, descending -> rate of one transfer by its
        #: sender's count.
        self._cache: dict[tuple, dict[int, float]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def cache_info(self) -> dict[str, int]:
        return {
            "alloc_cache_hits": self.cache_hits,
            "alloc_cache_misses": self.cache_misses,
            "alloc_cache_size": len(self._cache),
        }

    #: Static record layout: ``(sender id,)``.
    static_width = 1

    def prepare(self, task: FluidTask) -> tuple[int]:
        rank = task.meta["rank"]
        sid = self._sender_ids.get(rank)
        if sid is None:
            sid = self._sender_ids[rank] = len(self._sender_ids)
        return (sid,)

    def allocate_batch(self, statics: np.ndarray) -> np.ndarray:
        senders = statics[:, 0].tolist()
        per_sender = Counter(senders)
        key = tuple(sorted(per_sender.values(), reverse=True))
        rate_of = self._cache.get(key)
        if rate_of is None:
            self.cache_misses += 1
            rate_of = self._cache[key] = self._rates_by_count(key)
        else:
            self.cache_hits += 1
        return np.array([rate_of[per_sender[sid]] for sid in senders])

    def _rates_by_count(self, counts: tuple[int, ...]) -> dict[int, float]:
        """Rate of one transfer, by its sender's concurrent-transfer count.

        Transfers of the same sender have identical injection demands and so
        receive identical max-min grants; the water filling runs per sender
        with the transfer count as weight.  The total is summed in
        descending-count (so ascending-demand) order.
        """
        demands = [self.injection_bw / c for c in counts]
        total = 0.0
        for c, d in zip(counts, demands):
            total += c * d
        order = sorted(range(len(counts)), key=demands.__getitem__)
        level = water_level(self.capacity, total, sum(counts), order, demands, counts)
        return {c: min(d, level) for c, d in zip(counts, demands)}


class NetworkModel:
    """Per-node transport resources + the inter-node fabric + latencies.

    Parameters
    ----------
    node_of:
        Node index of every world rank, indexed by rank.
    capacity / injection_bw / latency:
        One node's transport (aggregate bandwidth, per-rank injection
        bandwidth, per-message latency).
    inter_capacity / inter_injection_bw / inter_latency:
        Fabric parameters (bisection bandwidth, per-node NIC bandwidth,
        per-message fabric latency).

    Per-link byte/message counters (:attr:`link_bytes`,
    :attr:`link_messages`, :attr:`inter_messages`) are always on — they
    feed the run manifest's ``internode`` section.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: float,
        injection_bw: float,
        latency: float,
        node_of: _t.Sequence[int],
        inter_capacity: float,
        inter_injection_bw: float,
        inter_latency: float,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if injection_bw <= 0:
            raise ValueError(f"injection_bw must be positive, got {injection_bw}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        if inter_capacity <= 0 or inter_injection_bw <= 0:
            raise ValueError("inter-node bandwidths must be positive")
        if inter_latency < 0:
            raise ValueError(f"inter_latency must be >= 0, got {inter_latency}")
        self.sim = sim
        self.capacity = capacity
        self.injection_bw = injection_bw
        self.latency = latency
        self.inter_latency = inter_latency
        self.node_of = tuple(node_of)
        #: One transport resource per node (nodes' memory systems are
        #: independent).
        self._node_resources = [
            FluidResource(
                sim, RankAwareAllocator(capacity, injection_bw), name=f"net-node{n}"
            )
            for n in range(max(self.node_of, default=0) + 1)
        ]
        self._fabric = FluidResource(
            sim,
            RankAwareAllocator(inter_capacity, inter_injection_bw),
            name="fabric",
        )
        #: Total bytes ever injected (diagnostics / tests).
        self.bytes_transferred = 0.0
        #: Bytes that crossed the fabric (diagnostics / tests).
        self.inter_bytes = 0.0
        #: Fabric-crossing sender bursts (one per transfer_parts call that
        #: had at least one off-node destination).
        self.inter_messages = 0
        #: Bytes per directed node pair ``(src_node, dst_node)``.
        self.link_bytes: dict[tuple[int, int], float] = {}
        #: Bursts per directed node pair.
        self.link_messages: dict[tuple[int, int], int] = {}
        #: Fault injector consulted per transfer (set by the driver when a
        #: fault scenario is active).  Degraded links inflate the fluid
        #: work of their transfers; droppable/killable links additionally
        #: wrap every transfer in the retry/timeout envelope of
        #: :class:`_GuardedTransfer`.
        self.faults: "FaultInjector | None" = None

    def transfer_parts(
        self, src_rank: int, parts: _t.Sequence[tuple[int, float]]
    ) -> Event:
        """Move per-destination payloads from one sender; fires when all moved.

        Bytes to ranks on the sender's node go through that node's
        transport, the rest through the fabric, whose allocator keys on the
        *node* (NIC sharing).  ``src_rank`` identifies the sending process
        for injection sharing (see :class:`RankAwareAllocator`).  Zero-byte
        transfers complete immediately (no latency — latency is accounted
        separately by the callers, per *message*, not per byte).

        With an active fault scenario the transfer may retransmit with
        exponential backoff (dropped messages), fail with
        :class:`~repro.faults.injector.MpiLinkError` /
        :class:`~repro.faults.injector.MpiTimeoutError`, or simply run
        slower (degraded link).
        """
        if self.faults is not None and self.faults.scenario.guards_transfers:
            return _GuardedTransfer(
                self.faults, self.sim, src_rank,
                lambda: self._attempt_parts(src_rank, parts),
            ).done
        return self._attempt_parts(src_rank, parts)

    def _attempt_parts(
        self, src_rank: int, parts: _t.Sequence[tuple[int, float]]
    ) -> Event:
        """One unconditional pass of ``parts`` through the transport."""
        node_of = self.node_of
        src_node = node_of[src_rank]
        intra = 0.0
        inter = 0.0
        per_dst_node: dict[int, float] = {}
        for dst, nbytes in parts:
            dst_node = node_of[dst]
            if dst_node == src_node:
                intra += nbytes
            else:
                inter += nbytes
                per_dst_node[dst_node] = per_dst_node.get(dst_node, 0.0) + nbytes
        self.bytes_transferred += intra + inter
        work_factor = (
            self.faults.transfer_work_factor(src_rank)
            if self.faults is not None
            else 1.0
        )
        pieces = []
        if intra > 0:
            task = self._node_resources[src_node].submit(
                intra * work_factor, meta={"rank": src_rank}
            )
            pieces.append(task.done)
        if inter > 0:
            self.inter_bytes += inter
            self.inter_messages += 1
            for dst_node, nbytes in per_dst_node.items():
                key = (src_node, dst_node)
                self.link_bytes[key] = self.link_bytes.get(key, 0.0) + nbytes
                self.link_messages[key] = self.link_messages.get(key, 0) + 1
            # NIC sharing: the fabric allocator keys on the *node*.
            task = self._fabric.submit(
                inter * work_factor, meta={"rank": ("node", src_node)}
            )
            pieces.append(task.done)
        if not pieces:
            return Event(self.sim, name="net-transfer").succeed(0.0)
        moved = pieces[0] if len(pieces) == 1 else self.sim.all_of(pieces)
        return _resolving_to(moved, intra + inter)

    def message_latency(self, ranks: _t.Sequence[int]) -> float:
        """Per-message latency for a communicator spanning ``ranks``."""
        node_of = self.node_of
        nodes = {node_of[r] for r in ranks}
        return self.inter_latency if len(nodes) > 1 else self.latency

    def close(self) -> None:
        """Drop the transfers in flight of a run that will not go on."""
        for res in [*self._node_resources, self._fabric]:
            res.close()

    def engine_stats(self) -> dict[str, int]:
        """Fluid-engine counters summed over the node and fabric resources."""
        total: dict[str, int] = {}
        for res in [*self._node_resources, self._fabric]:
            for k, v in res.stats().items():
                total[k] = total.get(k, 0) + v
        return total

    def internode_summary(self) -> dict:
        """Inter-node counters for the run manifest's ``internode`` section."""
        return {
            "inter_bytes": self.inter_bytes,
            "inter_messages": self.inter_messages,
            "link_bytes": {
                f"{src}->{dst}": nbytes
                for (src, dst), nbytes in sorted(self.link_bytes.items())
            },
            "link_messages": {
                f"{src}->{dst}": count
                for (src, dst), count in sorted(self.link_messages.items())
            },
        }

    @staticmethod
    def alltoall_messages(n_ranks: int) -> int:
        """Messages each rank sends in a pairwise-exchange alltoall."""
        return max(n_ranks - 1, 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"NetworkModel({len(self._node_resources)} nodes, "
            f"capacity={self.capacity:.3g} B/s, "
            f"injection={self.injection_bw:.3g} B/s, latency={self.latency:.3g} s)"
        )


class _GuardedTransfer:
    """Drop/retry/timeout envelope around one-shot transfer attempts;
    ``done`` fires when the transfer is through or has failed.

    Each attempt pays its full transport cost before the drop decision
    (the bytes moved, then were found corrupt/lost); retries back off
    exponentially from ``mpi_retry_backoff_s``.  Timeouts are checked at
    attempt boundaries against ``mpi_timeout_s`` — transfers always
    complete in simulated time, so a deadline check needs no watchdog
    timer (and the error carries the actual elapsed time).  The callbacks
    are bound methods, not two closures that call each other, so a
    finished transfer is freed by reference counting alone.
    """

    __slots__ = ("faults", "sim", "rank", "attempt", "done", "t0", "n_attempts")

    def __init__(
        self,
        faults: "FaultInjector",
        sim: "Simulator",
        rank: int,
        attempt: _t.Callable[[], Event],
    ):
        self.faults = faults
        self.sim = sim
        self.rank = rank
        self.attempt = attempt
        self.done = Event(sim, name="net-transfer")
        self.t0 = sim.now
        self.n_attempts = 0
        self.start()

    def start(self, _ev: Event | None = None) -> None:
        if self.done.triggered:
            return
        self.n_attempts += 1
        self.attempt().add_callback(self.finish)

    def finish(self, ev: Event) -> None:
        done, faults, rank = self.done, self.faults, self.rank
        if done.triggered:
            return
        scenario = faults.scenario
        elapsed = self.sim.now - self.t0
        timeout = scenario.mpi_timeout_s
        if timeout is not None and elapsed > timeout:
            faults.record("timeout", rank=rank, elapsed=elapsed)
            done.fail(
                MpiTimeoutError(
                    f"transfer from rank {rank} exceeded the MPI timeout "
                    f"({elapsed:.3g} s > {timeout:g} s)"
                )
            )
            return
        outcome = faults.transfer_outcome(rank)
        if outcome == "ok":
            if self.n_attempts > 1:
                faults.record(
                    "transfer_recovered", rank=rank, attempts=self.n_attempts
                )
            done.succeed(ev.value)
            return
        if outcome == "kill":
            done.fail(
                MpiLinkError(
                    f"injected hard link failure on transfer "
                    f"#{faults.transfer_count} (rank {rank})"
                )
            )
            return
        # Dropped: retransmit after exponential backoff, within budgets.
        if self.n_attempts > scenario.mpi_max_retries:
            done.fail(
                MpiLinkError(
                    f"transfer from rank {rank} lost after "
                    f"{self.n_attempts} attempts"
                )
            )
            return
        backoff = scenario.mpi_retry_backoff_s * (2.0 ** (self.n_attempts - 1))
        if timeout is not None and elapsed + backoff > timeout:
            faults.record("timeout", rank=rank, elapsed=elapsed)
            done.fail(
                MpiTimeoutError(
                    f"transfer from rank {rank} cannot retry within the "
                    f"MPI timeout ({timeout:g} s)"
                )
            )
            return
        faults.record(
            "retry", rank=rank, attempts=self.n_attempts, backoff=backoff
        )
        self.sim.timeout(backoff).add_callback(self.start)
