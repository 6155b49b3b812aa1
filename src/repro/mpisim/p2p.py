"""Point-to-point messaging (send/recv with tag matching).

The FFTXlib kernel itself is collective-only, but the MPI substrate would be
incomplete without p2p — and the test suite uses it to validate the transport
cost model in isolation.  Matching follows MPI: a receive posted for
``(source, tag)`` matches the oldest pending send with that signature on the
same communicator; sends and receives may be posted in either order.

Timing: the pair completes ``latency + transfer(nbytes)`` after both sides
have posted (an eager/rendezvous distinction is below this model's
granularity on a single node).
"""

from __future__ import annotations

import typing as _t
from collections import deque

from repro.mpisim.communicator import MpiEvent, MpiSimError
from repro.mpisim.datatypes import nbytes_of, payload_like
from repro.simkit.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.communicator import Communicator
    from repro.mpisim.world import MpiWorld

__all__ = ["P2PEngine"]


class P2PEngine:
    """Pending-message matching for all communicators of one world."""

    def __init__(self, world: "MpiWorld"):
        self.world = world
        # (comm_id, src_local, dst_local, tag) -> queue of (payload, send_event, post_time)
        self._sends: dict[tuple, deque] = {}
        # (comm_id, src_local, dst_local, tag) -> queue of (recv_event, post_time)
        self._recvs: dict[tuple, deque] = {}

    def send(self, comm: "Communicator", caller: int, dst_local: int, payload: object, tag: int) -> Event:
        """Post a send; the returned event fires when the message is delivered."""
        src_local = comm.local_rank(caller)
        if not 0 <= dst_local < comm.size:
            raise MpiSimError(f"send destination {dst_local} out of range on {comm.name!r}")
        sig = (comm.id, src_local, dst_local, tag)
        event = MpiEvent(self.world.sim, name="mpi:send")
        waiting = self._recvs.get(sig)
        if waiting:
            recv_event, _t0 = waiting.popleft()
            self._deliver(payload, event, recv_event, caller, comm.world_rank(dst_local))
        else:
            self._sends.setdefault(sig, deque()).append((payload, event, self.world.sim.now))
        return event

    def recv(self, comm: "Communicator", caller: int, src_local: int, tag: int) -> Event:
        """Post a receive; the returned event fires with the received payload."""
        dst_local = comm.local_rank(caller)
        if not 0 <= src_local < comm.size:
            raise MpiSimError(f"recv source {src_local} out of range on {comm.name!r}")
        sig = (comm.id, src_local, dst_local, tag)
        event = MpiEvent(self.world.sim, name="mpi:recv")
        pending = self._sends.get(sig)
        if pending:
            payload, send_event, _t0 = pending.popleft()
            self._deliver(
                payload, send_event, event, comm.world_rank(src_local), comm.world_rank(dst_local)
            )
        else:
            self._recvs.setdefault(sig, deque()).append((event, self.world.sim.now))
        return event

    def _deliver(
        self,
        payload: object,
        send_event: Event,
        recv_event: Event,
        sender_rank: int,
        dest_rank: int,
    ) -> None:
        net = self.world.network
        nbytes = nbytes_of(payload)
        latency = net.message_latency([sender_rank, dest_rank])

        def _complete(moved: Event | None = None) -> None:
            if moved is not None and moved.exception is not None:
                # A lost message fails both endpoints (the matched pair is
                # one logical operation); each side's waiter defuses.
                moved.defuse()
                send_event.fail(moved.exception)
                recv_event.fail(moved.exception)
                return
            send_event.succeed(nbytes, latency)
            recv_event.succeed(payload_like(payload), latency)

        if nbytes > 0:
            net.transfer_parts(sender_rank, [(dest_rank, nbytes)]).add_callback(_complete)
        else:
            _complete()
