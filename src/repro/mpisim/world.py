"""The MPI world: ranks, their hardware binding, and the rank-facing API.

:class:`MpiWorld` wires together the machine model (CPU + network) and the
communicator machinery, and launches *rank programs* — generator functions
receiving a :class:`RankContext`.  A rank context is the simulated analogue
of "an MPI process": it knows its world rank, its hardware threads (one for
the original FFTXlib, several for the OmpSs versions), and exposes compute
and communication verbs that all return simkit events::

    def program(rank: RankContext):
        yield rank.compute("fft_z", 1.0e9)
        recvbuf = yield rank.alltoallw(comm, sendbuf, recvbuf, send_blocks, recv_blocks)

With a :class:`~repro.telemetry.Trace` on ``MpiWorld.trace``, every MPI
call is appended to it as an :class:`MpiRecord` (begin/end time, bytes,
synchronization share) — the raw material of the timeline views and the
POP model's communication-efficiency factors.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.machine.cpu import CpuModel
from repro.machine.topology import HwThread, Placement
from repro.mpisim.communicator import CollectiveResult, Communicator
from repro.mpisim.network import NetworkModel
from repro.simkit.events import Event
from repro.simkit.process import Process
from repro.simkit.simulator import Simulator

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.trace import Trace

__all__ = ["MpiWorld", "RankContext", "MpiRecord"]


@dataclasses.dataclass(slots=True)
class MpiRecord:
    """One completed MPI call, as recorded in the run's trace.

    Built once per traced call on the simulator's hot path, hence slotted
    and not frozen; readers treat records as read-only.
    """

    stream: tuple
    call: str
    comm_id: int
    comm_name: str
    t_begin: float
    t_end: float
    bytes_sent: float
    sync_time: float

    @property
    def duration(self) -> float:
        """Wall (simulated) time spent inside the call."""
        return self.t_end - self.t_begin

    @property
    def transfer_time(self) -> float:
        """Non-synchronization share of the call."""
        return self.duration - self.sync_time


class MpiWorld:
    """A set of simulated MPI ranks bound to one machine.

    Parameters
    ----------
    sim:
        The simulator shared by machine, network and ranks.
    cpu:
        Machine compute model (provides topology and counters).
    network:
        Communication cost model.
    n_ranks:
        Number of MPI ranks.
    threads_per_rank:
        Hardware threads owned by each rank (1 for the pure-MPI FFTXlib,
        the OmpSs thread count for the task versions).
    placement:
        Optional explicit binding; defaults to
        ``cpu.topology.place(n_ranks * threads_per_rank)`` with the block
        layout (rank r, thread t) -> stream ``r * threads_per_rank + t``.
    """

    def __init__(
        self,
        sim: Simulator,
        cpu: CpuModel,
        network: NetworkModel,
        n_ranks: int,
        threads_per_rank: int = 1,
        placement: Placement | None = None,
    ):
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        if threads_per_rank < 1:
            raise ValueError(f"threads_per_rank must be >= 1, got {threads_per_rank}")
        self.sim = sim
        self.cpu = cpu
        self.network = network
        self.n_ranks = n_ranks
        self.threads_per_rank = threads_per_rank
        self.placement = placement or cpu.topology.place(n_ranks * threads_per_rank)
        if len(self.placement) < n_ranks * threads_per_rank:
            raise ValueError(
                f"placement provides {len(self.placement)} threads; "
                f"{n_ranks * threads_per_rank} needed"
            )
        self._comms: dict[int, Communicator] = {}
        self._next_comm_id = 0
        self.comm_world = self.register_comm(list(range(n_ranks)), "world")
        # The world holds its ranks and communicators; they hold the
        # simulator and the machine, never the world, so a finished run is
        # freed by reference counting alone.
        self.ranks = [RankContext(self, r) for r in range(n_ranks)]
        self._faults = None
        self._trace: "Trace | None" = None

    @property
    def faults(self):
        """Fault injector shared by this world's layers (set by the driver
        when a fault scenario is active); the OmpSs runtime reads it, off
        its rank, for task-failure injection."""
        return self._faults

    @faults.setter
    def faults(self, faults) -> None:
        self._faults = faults
        for rank in self.ranks:
            rank.faults = faults

    @property
    def trace(self) -> "Trace | None":
        """The run's one recorder (set by the driver when the run is
        traced): completed calls append to ``trace.mpi``, and the ranks'
        task runtimes append to ``trace.tasks``.  Each rank holds it too."""
        return self._trace

    @trace.setter
    def trace(self, trace: "Trace | None") -> None:
        self._trace = trace
        for rank in self.ranks:
            rank.trace = trace

    # -- communicator registry ----------------------------------------------

    def register_comm(self, ranks: _t.Sequence[int], name: str) -> Communicator:
        """A new communicator over the world ranks ``ranks``, in local-rank
        order.  Communicators are built before the rank programs run, as the
        FFT's setup builds its pack, scatter and pencil layers."""
        comm = Communicator(self.sim, self.network, self._next_comm_id, ranks, name)
        if min(comm.ranks) < 0 or max(comm.ranks) >= self.n_ranks:
            raise ValueError(
                f"ranks {[r for r in comm.ranks if not 0 <= r < self.n_ranks]} "
                f"of communicator {name!r} are not world ranks (0..{self.n_ranks - 1})"
            )
        self._comms[comm.id] = comm
        self._next_comm_id += 1
        return comm

    @property
    def communicators(self) -> dict[int, Communicator]:
        """All communicators ever created (id -> communicator)."""
        return dict(self._comms)

    # -- program launch ------------------------------------------------------------

    def launch(
        self,
        program: _t.Callable[["RankContext"], _t.Generator],
        ranks: _t.Iterable[int] | None = None,
    ) -> list[Process]:
        """Start ``program(rank_context)`` as a process on each rank."""
        selected = list(ranks) if ranks is not None else list(range(self.n_ranks))
        procs = []
        for r in selected:
            ctx = self.ranks[r]
            procs.append(self.sim.process(program(ctx), name=f"rank{r}"))
        return procs

    def run(self) -> float:
        """Run the simulation to completion; returns the final time."""
        self.sim.run()
        return self.sim.now

    def close(self) -> None:
        """Give up a run that will not go on (an attempt a fault ended):
        close the blocked processes, the work in flight on the machine and
        the pending collectives.  Blocked work and its owners refer to each
        other; once closed, the run is freed by reference counting alone."""
        self.sim.close()
        self.cpu.resource.close()
        self.network.close()
        for comm in self._comms.values():
            comm._pending.clear()


class RankContext:
    """The rank-facing API: compute and communication verbs returning events.

    Built by its :class:`MpiWorld`, whose simulator, CPU model, recorder and
    fault injector it shares; it keeps no reference to the world itself.
    """

    def __init__(self, world: MpiWorld, rank: int):
        self.rank = rank
        #: The shared simulator (for timeouts and bookkeeping).
        self.sim: Simulator = world.sim
        self.cpu = world.cpu
        #: The world's recorder and fault injector (kept in step by the
        #: world's setters).
        self.trace: "Trace | None" = None
        self.faults = None
        first = rank * world.threads_per_rank
        self._threads = tuple(
            world.placement[first + t] for t in range(world.threads_per_rank)
        )
        self._streams = tuple((rank, t) for t in range(world.threads_per_rank))

    @property
    def n_threads(self) -> int:
        """Hardware threads owned by this rank."""
        return len(self._threads)

    def thread(self, t: int = 0) -> HwThread:
        """The ``t``-th hardware thread of this rank."""
        if not 0 <= t < len(self._threads):
            raise ValueError(
                f"thread {t} out of range [0, {len(self._threads)}) on rank {self.rank}"
            )
        return self._threads[t]

    def stream(self, t: int = 0) -> tuple:
        """Analysis stream id of (this rank, thread ``t``)."""
        return (self.rank, t)

    # -- compute --------------------------------------------------------------

    def compute(self, phase: str, instructions: float, thread: int = 0) -> Event:
        """Execute a compute phase on one of this rank's hardware threads."""
        hw_thread = self.thread(thread)  # validates the index
        return self.cpu.compute(
            self._streams[thread], hw_thread, phase, instructions
        )

    # -- collectives -------------------------------------------------------------

    def alltoall(self, comm: Communicator, parts: _t.Sequence, key: object = None, thread: int = 0) -> Event:
        """MPI_Alltoall(v); resolves to the list of received parts."""
        return self._traced("alltoall", comm, comm.alltoall(self.rank, parts, key=key), thread)

    def alltoallw(
        self,
        comm: Communicator,
        sendbuf,
        recvbuf,
        send_blocks: _t.Sequence,
        recv_blocks: _t.Sequence,
        key: object = None,
        thread: int = 0,
        parts: tuple | None = None,
    ) -> Event:
        """MPI_Alltoallw (pack-free block redistribution); resolves to ``recvbuf``."""
        return self._traced(
            "alltoallw",
            comm,
            comm.alltoallw(
                self.rank, sendbuf, recvbuf, send_blocks, recv_blocks, key=key, parts=parts
            ),
            thread,
        )

    # -- internal: trace wrapping -----------------------------------------------

    def _traced(self, call: str, comm: Communicator, inner: Event, thread: int) -> Event:
        """Record the call in the world's trace when ``inner`` completes.

        The caller waits on the member event itself: registered first, the
        callback records the :class:`MpiRecord` and swaps the
        :class:`CollectiveResult` for the value the caller expects — one
        event per call, as :meth:`CpuModel.compute` does per phase.  A
        failed event passes through untouched (the waiter defuses it).
        """
        t0 = self.sim.now
        stream = self.stream(thread)
        # Not the communicator itself: it holds this event while the
        # collective is pending.
        comm_id, comm_name = comm.id, comm.name

        def _record(ev: Event) -> None:
            if ev._exception is not None:
                return
            result: CollectiveResult = ev._value  # type: ignore[assignment]
            trace = self.trace
            if trace is not None:
                trace.mpi.append(
                    MpiRecord(
                        stream, call, comm_id, comm_name, t0, self.sim.now,
                        result.bytes_sent, result.sync_time,
                    )
                )
            ev._value = result.value

        inner.add_callback(_record)
        return inner
