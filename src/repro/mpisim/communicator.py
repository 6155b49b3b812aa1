"""Communicators and collective operations.

A :class:`Communicator` is an ordered group of world ranks.  Collectives are
*matched* across members: by default the n-th collective call of each member
on a communicator matches the n-th of every other member (MPI ordering
semantics, enforced — mismatched operation types raise
:class:`MpiSimError`); multi-threaded callers pass an explicit ``key``
instead, because concurrent tasks issue collectives in scheduler-dependent
order (the paper's per-FFT OmpSs tasks do exactly this on the scatter
communicator).

The FFT's exchanges are all ``alltoallw`` (data movement is real when the
buffers are numpy arrays; cost accounting per :mod:`repro.mpisim.network`):

``alltoallw(sendbuf, recvbuf, send_blocks, recv_blocks)``
    Generalized redistribution with per-peer derived datatypes
    (:class:`~repro.mpisim.datatypes.BlockType`): the elements
    ``sendbuf[send_blocks[j]]`` of each member land directly at
    ``recvbuf_of_j[recv_blocks_of_j[i]]`` — *pack-free*, no intermediate
    concatenated exchange buffer on either side.  ``None`` buffers with
    meta blocks run the identical cost accounting without moving data.
``alltoall(parts)``
    ``parts[j]`` goes to local rank ``j``; the result for rank ``i`` is
    ``recv[j] = parts_of_rank_j[i]``.  Ragged part sizes make this double as
    MPI_Alltoallv.  It is the packed reference ``alltoallw`` prices
    identically to.
"""

from __future__ import annotations

import typing as _t

from repro.mpisim.datatypes import nbytes_of, payload_like
from repro.simkit.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.network import NetworkModel
    from repro.simkit.simulator import Simulator

__all__ = ["Communicator", "MpiEvent", "MpiSimError", "CollectiveResult"]

#: Fewest moved elements worth a fan slice of their own (the copy-pass
#: analogue of the kernel engine's ``MIN_POINTS``).
MOVE_MIN_POINTS = 1 << 15


class MpiSimError(RuntimeError):
    """Semantic misuse of the simulated MPI (mismatched collectives, bad args)."""


class MpiEvent(Event):
    """Completion of one blocking MPI call of one rank (named ``mpi:<call>``).

    The type, not the name, is the contract: a task runtime that suspends
    tasks blocked in MPI asks ``event.blocks_in_mpi``.
    """

    __slots__ = ()

    blocks_in_mpi = True


class CollectiveResult:
    """Per-rank outcome of a collective: the received value plus accounting.

    Attributes
    ----------
    value:
        Operation-specific result (e.g. the received parts of an alltoall).
    bytes_sent:
        Bytes this rank injected into the transport.
    sync_time:
        Time this rank spent waiting for the last participant to arrive —
        the 'synchronization' share of communication in the POP model.
    """

    __slots__ = ("value", "bytes_sent", "sync_time")

    def __init__(self, value: object, bytes_sent: float, sync_time: float):
        self.value = value
        self.bytes_sent = bytes_sent
        self.sync_time = sync_time


class _Pending:
    """A collective waiting for all members to arrive."""

    __slots__ = ("op", "key", "args", "events", "arrive_times")

    def __init__(self, op: str, key: object):
        self.op = op
        self.key = key
        self.args: dict[int, dict] = {}
        self.events: dict[int, Event] = {}
        self.arrive_times: dict[int, float] = {}


class Communicator:
    """An ordered group of world ranks supporting collective operations.

    Create via :meth:`MpiWorld.comm_world` / :meth:`MpiWorld.register_comm`;
    the constructor is internal.  A communicator knows the simulator and the
    network it charges, not the world that registered it.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "NetworkModel",
        comm_id: int,
        ranks: _t.Sequence[int],
        name: str,
    ):
        self.sim = sim
        self.network = network
        self.id = comm_id
        self.ranks = tuple(ranks)
        #: Number of member ranks.
        self.size = len(self.ranks)
        self.name = name
        if not self.size:
            raise ValueError(f"communicator {name!r} has no ranks")
        self._local_of = dict(zip(self.ranks, range(self.size)))
        if len(self._local_of) != self.size:
            raise ValueError(f"duplicate ranks in communicator: {ranks}")
        self._seq: dict[int, int] = {wr: 0 for wr in self.ranks}
        self._pending: dict[object, _Pending] = {}
        #: Verified Alltoallw descriptor sets -> per-sender ``(pairs, sent)``
        #: (see :meth:`_alltoallw_costs`).  The key is the members' block
        #: tuples themselves, so it keeps every descriptor alive and
        #: identity-hashed lookups can never alias a recycled object.
        self._alltoallw_verified: dict[tuple, list[tuple[list, float]]] = {}

    # -- group introspection -------------------------------------------------

    def local_rank(self, world_rank: int) -> int:
        """Local rank of a world rank (raises if not a member)."""
        try:
            return self._local_of[world_rank]
        except KeyError:
            raise MpiSimError(
                f"world rank {world_rank} is not a member of {self.name!r}"
            ) from None

    def world_rank(self, local_rank: int) -> int:
        """World rank of a local rank."""
        return self.ranks[local_rank]

    def __contains__(self, world_rank: int) -> bool:
        return world_rank in self._local_of

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Communicator {self.name!r} id={self.id} size={self.size}>"

    # -- collective entry points ----------------------------------------------

    def alltoall(self, caller: int, parts: _t.Sequence, key: object = None) -> Event:
        """All-to-all personalised exchange (ragged parts = alltoallv)."""
        if len(parts) != self.size:
            raise MpiSimError(
                f"alltoall on {self.name!r} needs {self.size} parts, got {len(parts)}"
            )
        return self._join("alltoall", caller, key, {"parts": list(parts)})

    def alltoallw(
        self,
        caller: int,
        sendbuf,
        recvbuf,
        send_blocks: _t.Sequence,
        recv_blocks: _t.Sequence,
        key: object = None,
        parts: tuple | None = None,
    ) -> Event:
        """Generalized all-to-all over per-peer block descriptors.

        ``send_blocks[j]`` describes the elements of this member's flat
        ``sendbuf`` destined for local rank ``j``; ``recv_blocks[j]`` the
        slots of ``recvbuf`` where local rank ``j``'s elements land.  They
        are what the exchange prices.  ``parts``, if given, is
        ``(send_parts, recv_parts)``: per peer, the live parts of each block
        — the only elements the host moves, the rest being known dead —
        paired item for item with the peer's own parts; by default a block
        is its own one part.  Data moves straight between the two buffers
        when both are arrays; ``None`` buffers (meta mode) charge the same
        cost without moving anything.  Resolves to this member's ``recvbuf``
        (or ``None``).
        """
        if len(send_blocks) != self.size or len(recv_blocks) != self.size:
            raise MpiSimError(
                f"alltoallw on {self.name!r} needs {self.size} send and recv "
                f"blocks, got {len(send_blocks)}/{len(recv_blocks)}"
            )
        if sendbuf is not None and not sendbuf.flags.c_contiguous:
            raise MpiSimError("alltoallw sendbuf must be C-contiguous")
        if recvbuf is not None and not recvbuf.flags.c_contiguous:
            raise MpiSimError("alltoallw recvbuf must be C-contiguous")
        return self._join(
            "alltoallw",
            caller,
            key,
            {
                "sendbuf": sendbuf,
                "recvbuf": recvbuf,
                "send_blocks": tuple(send_blocks),
                "recv_blocks": tuple(recv_blocks),
                "parts": parts,
            },
        )

    # -- matching engine ----------------------------------------------------------

    def _join(self, op: str, caller: int, key: object, args: dict) -> Event:
        local = self.local_rank(caller)
        if key is None:
            match_key = ("seq", self._seq[caller])
            self._seq[caller] += 1
        else:
            match_key = ("explicit", key)

        pending = self._pending.get(match_key)
        if pending is None:
            pending = _Pending(op, match_key)
            self._pending[match_key] = pending
        elif pending.op != op:
            raise MpiSimError(
                f"collective mismatch on {self.name!r}: rank {caller} called {op!r} "
                f"but matching call is {pending.op!r} (key={match_key})"
            )
        if local in pending.args:
            raise MpiSimError(
                f"rank {caller} joined {op!r} on {self.name!r} twice (key={match_key})"
            )

        sim = self.sim
        event = MpiEvent(sim, name=f"mpi:{op}")
        pending.args[local] = args
        pending.events[local] = event
        pending.arrive_times[local] = sim.now

        if len(pending.args) == self.size:
            del self._pending[match_key]
            self._execute(pending)
        return event

    # -- execution (all members arrived) ---------------------------------------

    def _execute(self, pending: _Pending) -> None:
        handler = getattr(self, f"_exec_{pending.op}")
        handler(pending)

    def _finish(
        self,
        pending: _Pending,
        values: dict[int, object],
        bytes_sent: dict[int, float],
        upstream: Event | None,
        latency_messages: float,
    ) -> None:
        """Complete every member's event after ``upstream`` (+ latency).

        Each member's event is scheduled once, directly at its completion
        time: the latency term is the delay of its own heap entry.  A failed
        upstream (a lost/timed-out transfer under fault injection) fails
        *every* member's event with the same exception — all participants of
        a collective observe the fault, exactly as a real MPI job would see
        the operation error out everywhere.
        """
        t_all = self.sim.now
        per_message = self.network.message_latency(self.ranks)
        delay = (
            latency_messages * per_message
            if latency_messages > 0 and per_message > 0
            else 0.0
        )

        def _complete(_ev: Event | None = None) -> None:
            if _ev is not None and _ev.exception is not None:
                _ev.defuse()
                for event in pending.events.values():
                    event.fail(_ev.exception)
                return
            arrive_times = pending.arrive_times
            for local, event in pending.events.items():
                event.succeed(
                    CollectiveResult(
                        values.get(local),
                        bytes_sent.get(local, 0.0),
                        t_all - arrive_times[local],
                    ),
                    delay,
                )

        if upstream is None:
            _complete()
        else:
            upstream.add_callback(_complete)

    def _exec_alltoall(self, pending: _Pending) -> None:
        net = self.network
        size = self.size
        values: dict[int, object] = {}
        bytes_sent: dict[int, float] = {}
        transfers = []
        for local in range(size):
            parts = pending.args[local]["parts"]
            # Off-diagonal traffic crosses the transport; the self part is a
            # local copy and free at this model's granularity.
            pairs = [
                (self.world_rank(j), nbytes_of(parts[j]))
                for j in range(size)
                if j != local and nbytes_of(parts[j]) > 0
            ]
            sent = sum(nbytes for _dst, nbytes in pairs)
            bytes_sent[local] = sent
            if sent > 0:
                transfers.append(net.transfer_parts(self.world_rank(local), pairs))
        for local in range(size):
            values[local] = [
                payload_like(pending.args[src]["parts"][local]) for src in range(size)
            ]
        upstream = self.sim.all_of(transfers) if transfers else None
        self._finish(pending, values, bytes_sent, upstream, net.alltoall_messages(size))

    def _alltoallw_costs(self, args: dict[int, dict]) -> list[tuple[list, float]]:
        """Per-sender ``(pairs, bytes sent)`` of one Alltoallw descriptor set.

        Verified and derived once per distinct set of block descriptors on
        this communicator — an exchange plan's derived datatypes are
        committed once and reused for every transform, so the steady state
        is one dictionary lookup per collective.
        """
        size = self.size
        key = tuple(
            args[local]["send_blocks"] + args[local]["recv_blocks"]
            for local in range(size)
        )
        costs = self._alltoallw_verified.get(key)
        if costs is not None:
            return costs
        # Conservation law, checked for every (src, dst) pair including the
        # diagonal: the elements src describes toward dst must exactly fill
        # the slots dst reserved for src.
        for src in range(size):
            send_blocks = args[src]["send_blocks"]
            for dst in range(size):
                sb = send_blocks[dst]
                rb = args[dst]["recv_blocks"][src]
                if sb.n_items != rb.n_items:
                    raise MpiSimError(
                        f"alltoallw on {self.name!r}: rank {self.world_rank(src)} "
                        f"sends {sb.n_items} elements to rank "
                        f"{self.world_rank(dst)}, which expects {rb.n_items}"
                    )
        # Cost accounting mirrors _exec_alltoall exactly (same per-sender
        # pair list, same latency term), so a plan whose block volumes equal
        # the old concatenated parts prices identically — byte-for-byte in
        # the simulated timeline.
        costs = []
        for local in range(size):
            send_blocks = args[local]["send_blocks"]
            pairs = [
                (self.world_rank(j), send_blocks[j].nbytes)
                for j in range(size)
                if j != local and send_blocks[j].nbytes > 0
            ]
            costs.append((pairs, sum(nbytes for _dst, nbytes in pairs)))
        self._alltoallw_verified[key] = costs
        return costs

    def _move(self, args: dict[int, dict]) -> None:
        """Direct data movement of every live part, from its source view
        straight into its destination slots — the pack-free path (no
        staging buffer): a strided-view copy or a single-axis fancy index
        wherever the part shapes allow, flat indices only for explicitly
        indexed blocks.  Parts land in disjoint slots, so they fan over the
        host's cores in ranges of the leading rows both sides share (a pair
        whose row counts differ moves whole)."""
        from repro import _fan  # data mode only: meta runs load no threads

        def parts(local: int, side: int, peer: int) -> tuple:
            given = args[local]["parts"]
            if given is None:
                return (args[local][("send_blocks", "recv_blocks")[side]][peer],)
            return given[side][peer]

        moves, items = [], []
        for src in range(self.size):
            sendbuf = args[src]["sendbuf"]
            for dst in range(self.size):
                recvbuf = args[dst]["recvbuf"]
                sps, rps = parts(src, 0, dst), parts(dst, 1, src)
                if len(sps) != len(rps) or any(
                    sp.n_items != rp.n_items for sp, rp in zip(sps, rps)
                ):
                    raise MpiSimError(
                        f"alltoallw on {self.name!r}: the live parts rank "
                        f"{self.world_rank(src)} sends rank {self.world_rank(dst)} "
                        f"do not pair with the parts it expects"
                    )
                if sendbuf is None or recvbuf is None:
                    continue
                for sp, rp in zip(sps, rps):
                    if sp.n_items:
                        rows = sp.lead if sp.lead == rp.lead else 1
                        moves.append((sp, rp, sendbuf.reshape(-1), recvbuf.reshape(-1)))
                        items.append((rows, sp.n_items // rows))

        def body(i, lo, hi):
            sp, rp, flat_src, flat_dst = moves[i]
            if hi - lo < items[i][0]:
                sp, rp = sp.rows(lo, hi), rp.rows(lo, hi)
            rp.put(flat_dst, sp.take(flat_src))

        _fan.over_rows(body, items, MOVE_MIN_POINTS)

    def _exec_alltoallw(self, pending: _Pending) -> None:
        net = self.network
        size = self.size
        args = pending.args
        costs = self._alltoallw_costs(args)
        for local in range(size):
            if args[local]["sendbuf"] is not None:
                self._move(args)
                break
        values: dict[int, object] = {}
        bytes_sent: dict[int, float] = {}
        transfers = []
        for local in range(size):
            pairs, sent = costs[local]
            bytes_sent[local] = sent
            if sent > 0:
                transfers.append(net.transfer_parts(self.world_rank(local), pairs))
            values[local] = args[local]["recvbuf"]
        upstream = self.sim.all_of(transfers) if transfers else None
        self._finish(pending, values, bytes_sent, upstream, net.alltoall_messages(size))
