"""Communicators and collective operations.

A :class:`Communicator` is an ordered group of world ranks.  Collectives are
*matched* across members: by default the n-th collective call of each member
on a communicator matches the n-th of every other member (MPI ordering
semantics, enforced — mismatched operation types raise
:class:`MpiSimError`); multi-threaded callers pass an explicit ``key``
instead, because concurrent tasks issue collectives in scheduler-dependent
order (the paper's per-FFT OmpSs tasks do exactly this on the scatter
communicator).

Semantics of each collective (data movement is real when payloads are numpy
arrays; cost accounting per :mod:`repro.mpisim.network`):

``alltoall(parts)``
    ``parts[j]`` goes to local rank ``j``; the result for rank ``i`` is
    ``recv[j] = parts_of_rank_j[i]``.  Ragged part sizes make this double as
    MPI_Alltoallv — the FFTXlib pack/unpack and scatter both map onto it.
``alltoallw(sendbuf, recvbuf, send_blocks, recv_blocks)``
    Generalized redistribution with per-peer derived datatypes
    (:class:`~repro.mpisim.datatypes.BlockType`): the elements
    ``sendbuf[send_blocks[j]]`` of each member land directly at
    ``recvbuf_of_j[recv_blocks_of_j[i]]`` — *pack-free*, no intermediate
    concatenated exchange buffer on either side.  ``None`` buffers with
    meta blocks run the identical cost accounting without moving data.
``barrier()``
    Pure synchronization.
``bcast(root, payload)``
    Everyone receives the root's payload.
``allreduce(array, op)``
    Elementwise sum/max/min over members; everyone gets the result.
``gather(root, payload)``
    Root receives the list of payloads in local-rank order.
``split(color, key)``
    Builds new communicators grouping members by ``color``, ordered by
    ``(key, world_rank)``; returns each caller's new communicator
    (or ``None`` for a negative color, like MPI_UNDEFINED).
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.mpisim.datatypes import MetaPayload, nbytes_of, payload_like
from repro.simkit.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.world import MpiWorld

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

    Create via :meth:`MpiWorld.comm_world` / :meth:`Communicator.split`; the
    constructor is internal.
    """

    def __init__(self, world: "MpiWorld", comm_id: int, ranks: _t.Sequence[int], name: str):
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in communicator: {ranks}")
        self.world = world
        self.id = comm_id
        self.ranks = tuple(ranks)
        #: Number of member ranks.
        self.size = len(self.ranks)
        self.name = name
        self._local_of = {wr: lr for lr, wr in enumerate(self.ranks)}
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

    def barrier(self, caller: int, key: object = None) -> Event:
        """Block until every member arrives."""
        return self._join("barrier", caller, key, {})

    def bcast(self, caller: int, root: int, payload: object = None, key: object = None) -> Event:
        """Broadcast the root's payload to all members (root is a local rank)."""
        self._check_root(root)
        return self._join("bcast", caller, key, {"root": root, "payload": payload})

    def allreduce(self, caller: int, array: object, op: str = "sum", key: object = None) -> Event:
        """Elementwise reduction over all members; everyone gets the result."""
        if op not in ("sum", "max", "min"):
            raise MpiSimError(f"unsupported allreduce op {op!r}")
        return self._join("allreduce", caller, key, {"array": array, "op": op})

    def gather(self, caller: int, root: int, payload: object, key: object = None) -> Event:
        """Gather payloads to the root (local rank order)."""
        self._check_root(root)
        return self._join("gather", caller, key, {"root": root, "payload": payload})

    def allgather(self, caller: int, payload: object, key: object = None) -> Event:
        """Every member receives every member's payload (local-rank order)."""
        return self._join("allgather", caller, key, {"payload": payload})

    def reduce(self, caller: int, root: int, array: object, op: str = "sum", key: object = None) -> Event:
        """Rooted elementwise reduction; only the root receives the result."""
        self._check_root(root)
        if op not in ("sum", "max", "min"):
            raise MpiSimError(f"unsupported reduce op {op!r}")
        return self._join("reduce", caller, key, {"root": root, "array": array, "op": op})

    def scatter_from_root(self, caller: int, root: int, parts: _t.Sequence | None, key: object = None) -> Event:
        """The root distributes ``parts[i]`` to local rank ``i`` (MPI_Scatter)."""
        self._check_root(root)
        return self._join("rscatter", caller, key, {"root": root, "parts": parts})

    def split(self, caller: int, color: int, order_key: int = 0, key: object = None) -> Event:
        """Partition the communicator by color (negative color -> ``None``)."""
        return self._join("split", caller, key, {"color": color, "order_key": order_key})

    def dup(self, caller: int, key: object = None) -> Event:
        """MPI_Comm_dup: a fresh communicator with the same group.

        Duplication is how real codes give concurrent collective streams
        their own matching context; the simulator's explicit keys make it
        optional, but the API would be incomplete without it.
        """
        return self._join("dup", caller, key, {})

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise MpiSimError(f"root {root} out of range for {self.name!r} (size {self.size})")

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

        sim = self.world.sim
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
        t_all = self.world.sim.now
        per_message = self.world.network.message_latency(self.ranks)
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

    def _exec_barrier(self, pending: _Pending) -> None:
        net = self.world.network
        self._finish(pending, {}, {}, None, net.tree_messages(self.size))

    def _exec_alltoall(self, pending: _Pending) -> None:
        net = self.world.network
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
        upstream = self.world.sim.all_of(transfers) if transfers else None
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
        net = self.world.network
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
        upstream = self.world.sim.all_of(transfers) if transfers else None
        self._finish(pending, values, bytes_sent, upstream, net.alltoall_messages(size))

    def _exec_bcast(self, pending: _Pending) -> None:
        net = self.world.network
        root = pending.args[0]["root"]
        for local, args in pending.args.items():
            if args["root"] != root:
                raise MpiSimError(
                    f"bcast root mismatch on {self.name!r}: {args['root']} vs {root}"
                )
        payload = pending.args[root]["payload"]
        nbytes = nbytes_of(payload) if payload is not None else 0.0
        values = {
            local: (payload if local == root else payload_like(payload))
            if payload is not None
            else None
            for local in pending.args
        }
        bytes_sent = {root: nbytes}
        upstream = None
        if nbytes > 0:
            # One copy toward each distinct destination node (tree between
            # nodes); on a single node this is exactly one transfer.
            reps: dict[int, int] = {}
            for local in pending.args:
                if local == root:
                    continue
                node = net.node_of(self.world_rank(local))
                reps.setdefault(node, self.world_rank(local))
            pairs = [(dst, nbytes) for dst in reps.values()]
            if pairs:
                upstream = net.transfer_parts(self.world_rank(root), pairs)
        self._finish(pending, values, bytes_sent, upstream, net.tree_messages(self.size))

    def _exec_allreduce(self, pending: _Pending) -> None:
        net = self.world.network
        op = pending.args[0]["op"]
        arrays = [pending.args[local]["array"] for local in range(self.size)]
        metas = [a for a in arrays if isinstance(a, MetaPayload)]
        if metas and len(metas) != len(arrays):
            raise MpiSimError("allreduce cannot mix array and meta payloads")
        if metas:
            result: object = metas[0]
        else:
            stack = np.stack([np.asarray(a) for a in arrays])
            if op == "sum":
                reduced = stack.sum(axis=0)
            elif op == "max":
                reduced = stack.max(axis=0)
            else:
                reduced = stack.min(axis=0)
            result = reduced
        nbytes = nbytes_of(arrays[0])
        values = {local: payload_like(result) for local in pending.args}
        bytes_sent = {local: 2.0 * nbytes for local in pending.args}
        transfers = (
            [
                net.transfer_parts(
                    self.world_rank(l),
                    [(self.world_rank((l + 1) % self.size), 2.0 * nbytes)],
                )
                for l in range(self.size)
            ]
            if nbytes > 0 and self.size > 1
            else []
        )
        upstream = self.world.sim.all_of(transfers) if transfers else None
        self._finish(pending, values, bytes_sent, upstream, 2 * net.tree_messages(self.size))

    def _exec_gather(self, pending: _Pending) -> None:
        net = self.world.network
        root = pending.args[0]["root"]
        for local, args in pending.args.items():
            if args["root"] != root:
                raise MpiSimError(
                    f"gather root mismatch on {self.name!r}: {args['root']} vs {root}"
                )
        payloads = [pending.args[local]["payload"] for local in range(self.size)]
        bytes_sent = {
            local: nbytes_of(payloads[local]) if local != root else 0.0
            for local in range(self.size)
        }
        transfers = [
            net.transfer_parts(self.world_rank(l), [(self.world_rank(root), b)])
            for l, b in bytes_sent.items()
            if b > 0
        ]
        values: dict[int, object] = {
            local: None for local in pending.args
        }
        values[root] = [payload_like(p) for p in payloads]
        upstream = self.world.sim.all_of(transfers) if transfers else None
        self._finish(pending, values, bytes_sent, upstream, net.tree_messages(self.size))

    def _exec_allgather(self, pending: _Pending) -> None:
        net = self.world.network
        payloads = [pending.args[local]["payload"] for local in range(self.size)]
        gathered_of = {
            local: [payload_like(p) for p in payloads] for local in pending.args
        }
        bytes_sent = {}
        transfers = []
        for local in range(self.size):
            nbytes = nbytes_of(payloads[local])
            # Ring allgather: each value traverses (P-1) hops; the injection
            # is charged on its owner, hop by hop toward the next member.
            sent = nbytes * max(self.size - 1, 0)
            bytes_sent[local] = sent
            if sent > 0:
                next_member = self.world_rank((local + 1) % self.size)
                transfers.append(
                    net.transfer_parts(self.world_rank(local), [(next_member, sent)])
                )
        upstream = self.world.sim.all_of(transfers) if transfers else None
        self._finish(
            pending, gathered_of, bytes_sent, upstream, net.alltoall_messages(self.size)
        )

    def _exec_reduce(self, pending: _Pending) -> None:
        net = self.world.network
        root = pending.args[0]["root"]
        op = pending.args[0]["op"]
        for local, args in pending.args.items():
            if args["root"] != root:
                raise MpiSimError(
                    f"reduce root mismatch on {self.name!r}: {args['root']} vs {root}"
                )
        arrays = [pending.args[local]["array"] for local in range(self.size)]
        metas = [a for a in arrays if isinstance(a, MetaPayload)]
        if metas and len(metas) != len(arrays):
            raise MpiSimError("reduce cannot mix array and meta payloads")
        if metas:
            result: object = metas[0]
        else:
            stack = np.stack([np.asarray(a) for a in arrays])
            result = {"sum": stack.sum, "max": stack.max, "min": stack.min}[op](axis=0)
        nbytes = nbytes_of(arrays[0])
        values: dict[int, object] = {local: None for local in pending.args}
        values[root] = result if metas else payload_like(result)
        # Reduction tree: every non-root sends its contribution once.
        bytes_sent = {
            local: (nbytes if local != root else 0.0) for local in range(self.size)
        }
        transfers = [
            net.transfer_parts(self.world_rank(l), [(self.world_rank(root), b)])
            for l, b in bytes_sent.items()
            if b > 0
        ]
        upstream = self.world.sim.all_of(transfers) if transfers else None
        self._finish(pending, values, bytes_sent, upstream, net.tree_messages(self.size))

    def _exec_rscatter(self, pending: _Pending) -> None:
        net = self.world.network
        root = pending.args[0]["root"]
        for local, args in pending.args.items():
            if args["root"] != root:
                raise MpiSimError(
                    f"scatter root mismatch on {self.name!r}: {args['root']} vs {root}"
                )
        parts = pending.args[root]["parts"]
        if parts is None or len(parts) != self.size:
            raise MpiSimError(
                f"scatter on {self.name!r} needs {self.size} parts at the root"
            )
        values = {local: payload_like(parts[local]) for local in pending.args}
        sent = sum(nbytes_of(parts[j]) for j in range(self.size) if j != root)
        bytes_sent = {root: sent}
        pairs = [
            (self.world_rank(j), nbytes_of(parts[j]))
            for j in range(self.size)
            if j != root and nbytes_of(parts[j]) > 0
        ]
        upstream = (
            net.transfer_parts(self.world_rank(root), pairs) if pairs else None
        )
        self._finish(pending, values, bytes_sent, upstream, net.tree_messages(self.size))

    def _exec_dup(self, pending: _Pending) -> None:
        net = self.world.network
        comm = self.world._register_comm(list(self.ranks), f"{self.name}+dup")
        values = {local: comm for local in pending.args}
        self._finish(pending, values, {}, None, net.tree_messages(self.size))

    def _exec_split(self, pending: _Pending) -> None:
        net = self.world.network
        by_color: dict[int, list[tuple[int, int]]] = {}
        for local in range(self.size):
            color = pending.args[local]["color"]
            order = pending.args[local]["order_key"]
            if color >= 0:
                by_color.setdefault(color, []).append((order, local))
        new_comms: dict[int, Communicator | None] = {local: None for local in range(self.size)}
        for color, members in sorted(by_color.items()):
            members.sort()
            world_ranks = [self.world_rank(local) for _order, local in members]
            comm = self.world._register_comm(world_ranks, f"{self.name}/c{color}")
            for _order, local in members:
                new_comms[local] = comm
        self._finish(pending, new_comms, {}, None, net.tree_messages(self.size))
