"""The FFT-phase step library and its instruction cost model.

Every executor (original, per-step tasks, per-FFT tasks, combined) composes
the *same* nine steps of the paper's Fig. 1 kernel, implemented here as
generator functions over a per-rank :class:`FftPhaseContext`:

    prepare -> pack -> fft_z(+1) -> scatter_fw -> fft_xy(+1)
            -> vofr -> fft_xy(-1) -> scatter_bw -> fft_z(-1) -> unpack

Each step charges its compute phase on the machine model (the phase name
selects the contention profile of :mod:`repro.machine.knl`) and, where the
paper's kernel communicates, performs the simulated MPI collective — with
real payloads in data mode, sizes only in meta mode.  Data transformations
are delegated to :mod:`~repro.core.wave`, :mod:`~repro.core.pack`,
:mod:`~repro.core.scatter` and :mod:`~repro.core.vofr`, so the numerics are
identical no matter which executor (or scheduler order) drives the steps.

Instruction budgets come from :class:`CostModel`: FFT steps use the standard
``5 n log2 n`` flop count (times a flops-to-instructions factor), with the
xy stage reduced to the lines that actually contain data — QE's
empty-line-skipping — computed from the stick geometry; marshalling and
pointwise steps are linear in the points touched.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.core import pack as pack_mod
from repro.core import redistribute as redist_mod
from repro.core import scatter as scatter_mod
from repro.core import wave as wave_mod
from repro.core.vofr import apply_potential
from repro.core.wave import extract_from_sticks
from repro.fft.backends.engine import default_engine
from repro.grids.descriptor import DistributedLayout
from repro.mpisim.datatypes import MetaPayload

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.communicator import Communicator
    from repro.mpisim.world import RankContext

__all__ = [
    "CostConstants",
    "CostModel",
    "FftPhaseContext",
    "band_chain_steps",
    "pencil_middle_steps",
]


@dataclasses.dataclass(frozen=True)
class CostConstants:
    """Calibrated instruction-count constants (see DESIGN.md §5).

    ``fft_instr_per_flop`` converts nominal FFT flops to instructions;
    the ``*_per_g``/``*_per_point`` constants are instructions per touched
    element for the gather/scatter-type steps.
    """

    prep_per_g: float = 10.0
    unpack_per_g: float = 10.0
    pack_per_point: float = 1.5
    scatter_per_point: float = 1.5
    fft_instr_per_flop: float = 0.6
    vofr_per_point: float = 4.0
    #: MPI-stack instructions per message of a collective (marshalling,
    #: matching, progress).  This is what makes the *total* instruction
    #: count grow slightly with the process count — the paper's
    #: instruction-scalability row declining from 100 % to ~98.9 %.
    instr_per_message: float = 5000.0


class CostModel:
    """Per-step instruction budgets for one distributed layout.

    All quantities are *per complex band* unless stated otherwise; process
    arguments are the layout's process indices.
    """

    def __init__(self, layout: DistributedLayout, constants: CostConstants | None = None):
        self.layout = layout
        self.c = constants or CostConstants()
        desc = layout.desc
        self._log_n3 = np.log2(max(desc.nr3, 2))
        self._log_n1 = np.log2(max(desc.nr1, 2))
        self._log_n2 = np.log2(max(desc.nr2, 2))
        # QE's cft_2xy transforms along x only the y-lines that carry sticks.
        self._nonempty_y_lines = desc.sticks.nonempty_y_lines

    # -- per-step budgets -----------------------------------------------------

    def prepare(self, p: int) -> float:
        """``prepare_psis`` for one band on process ``p``."""
        return self.c.prep_per_g * self.layout.ngw_of(p)

    def pack_expand(self, r: int) -> float:
        """Zero-fill + scatter-write of one band into the group stick block,
        plus the MPI-stack work of the pack Alltoallv's messages."""
        expand = self.c.pack_per_point * self.layout.nst_group(r) * self.layout.desc.nr3
        stack = self.c.instr_per_message * max(self.layout.T - 1, 0)
        return expand + stack

    def ngw_group(self, r: int) -> int:
        """Sphere coefficients held by pack group ``r``."""
        return sum(self.layout.ngw_of(self.layout.proc_of(r, t)) for t in range(self.layout.T))

    def unpack_extract(self, r: int) -> float:
        """Gathering one band's coefficients back out of the group block."""
        return self.c.unpack_per_g * self.ngw_group(r)

    def fft_z(self, r: int) -> float:
        """Batched z-transforms of pack group ``r``'s sticks (one band)."""
        flops = 5.0 * self.layout.nst_group(r) * self.layout.desc.nr3 * self._log_n3
        return self.c.fft_instr_per_flop * flops

    def scatter_marshal(self, r: int) -> float:
        """Slab extraction + plane assembly around one scatter (one band),
        plus the MPI-stack work of the Alltoall's messages."""
        desc = self.layout.desc
        send_points = self.layout.nst_group(r) * desc.nr3
        recv_points = desc.sticks.nsticks * self.layout.npp(r)
        stack = self.c.instr_per_message * max(self.layout.R - 1, 0)
        return self.c.scatter_per_point * (send_points + recv_points) + stack

    def fft_xy(self, r: int) -> float:
        """2D transforms of rank ``r``'s planes (one band), skipping empty lines."""
        desc = self.layout.desc
        per_plane = 5.0 * (
            self._nonempty_y_lines * desc.nr1 * self._log_n1
            + desc.nr1 * desc.nr2 * self._log_n2
        )
        return self.c.fft_instr_per_flop * self.layout.npp(r) * per_plane

    def vofr(self, r: int) -> float:
        """Pointwise potential application on rank ``r``'s planes (one band)."""
        desc = self.layout.desc
        return self.c.vofr_per_point * self.layout.npp(r) * desc.nr1 * desc.nr2

    def unpack(self, p: int) -> float:
        """Coefficient extraction for one band on process ``p``."""
        return self.c.unpack_per_g * self.layout.ngw_of(p)

    # -- pencil-decomposition budgets (see repro.grids.pencil) ----------------

    def _pencil(self):
        grid = self.layout.pencil
        if grid is None:
            raise ValueError("pencil costs need a pencil-decomposed layout")
        return grid

    def pencil_zy_marshal(self, r: int) -> float:
        """Brick re-slicing around the row-internal z->y transpose, plus the
        MPI-stack work of its Alltoallw messages (Pc - 1 peers)."""
        grid = self._pencil()
        i, j = grid.coords(r)
        desc = self.layout.desc
        send_points = self.layout.nst_group(r) * desc.nr3
        recv_points = grid.nx(i) * grid.nz(j) * desc.nr2
        stack = self.c.instr_per_message * max(grid.Pc - 1, 0)
        return self.c.scatter_per_point * (send_points + recv_points) + stack

    def pencil_yx_marshal(self, r: int) -> float:
        """Brick re-slicing around the column-internal y->x transpose
        (Pr - 1 peers)."""
        grid = self._pencil()
        i, j = grid.coords(r)
        desc = self.layout.desc
        y_points = grid.nx(i) * grid.nz(j) * desc.nr2
        x_points = grid.ny(i) * grid.nz(j) * desc.nr1
        stack = self.c.instr_per_message * max(grid.Pr - 1, 0)
        return self.c.scatter_per_point * (y_points + x_points) + stack

    def fft_y(self, r: int) -> float:
        """Batched 1D y-transforms of rank ``r``'s y-brick (one band)."""
        grid = self._pencil()
        i, j = grid.coords(r)
        nr2 = self.layout.desc.nr2
        flops = 5.0 * grid.nx(i) * grid.nz(j) * nr2 * self._log_n2
        return self.c.fft_instr_per_flop * flops

    def fft_x(self, r: int) -> float:
        """Batched 1D x-transforms of rank ``r``'s x-brick (one band)."""
        grid = self._pencil()
        i, j = grid.coords(r)
        nr1 = self.layout.desc.nr1
        flops = 5.0 * grid.ny(i) * grid.nz(j) * nr1 * self._log_n1
        return self.c.fft_instr_per_flop * flops

    def pencil_vofr(self, r: int) -> float:
        """Pointwise potential application on rank ``r``'s x-brick (one band)."""
        grid = self._pencil()
        i, j = grid.coords(r)
        return (
            self.c.vofr_per_point * grid.ny(i) * grid.nz(j) * self.layout.desc.nr1
        )


class FftPhaseContext:
    """Everything one rank's executor needs to run pipeline steps.

    Attributes
    ----------
    rank:
        The simulated MPI rank context.
    layout:
        The R x T data distribution (this rank is layout process
        ``rank.rank``).
    cost:
        Instruction budgets.
    pack_comm / scatter_comm:
        The two communicator layers (``pack_comm`` is ``None`` when T == 1,
        i.e. task groups are off).
    packed:
        ``(n_complex_bands, ngw_of(p))`` input coefficients, or ``None`` in
        meta mode.
    results:
        Output coefficients per band (filled by the unpack step).
    v_slab:
        This scatter rank's potential planes (``None`` in meta mode).
    workspace:
        This rank's data-plane buffer arena
        (:class:`~repro.core.workspace.Workspace`), or ``None`` to allocate
        every marshalling buffer fresh.  Results are bit-identical either
        way; the arena only recycles storage.
    kernels:
        The run's :class:`~repro.fft.backends.engine.KernelEngine` — every
        batched FFT the steps execute goes through it, which is what makes
        ``RunConfig.fft_backend`` / ``kernel_workers`` take effect.  When
        ``None`` the process-wide single-threaded default-backend engine is
        used.
    row_comm / col_comm:
        The pencil transpose communicators (row-internal z<->y over Pc
        ranks, column-internal y<->x over Pr ranks); ``None`` for the slab
        decomposition.  In pencil mode ``v_slab`` holds the x-brick
        potential block instead of the plane slab.
    redistribution:
        ``"packfree"`` routes every exchange through the Alltoallw block
        plans of :mod:`~repro.core.redistribute` (zero staging copies);
        ``"packed"`` keeps the legacy staged marshalling.  Identical
        results and identical simulated timings either way.
    """

    def __init__(
        self,
        rank: "RankContext",
        layout: DistributedLayout,
        cost: CostModel,
        pack_comm: "Communicator | None",
        scatter_comm: "Communicator",
        packed: np.ndarray | None,
        v_slab: np.ndarray | None,
        workspace=None,
        kernels=None,
        row_comm: "Communicator | None" = None,
        col_comm: "Communicator | None" = None,
        redistribution: str = "packfree",
    ):
        self.rank = rank
        self.layout = layout
        self.cost = cost
        self.pack_comm = pack_comm
        self.scatter_comm = scatter_comm
        self.packed = packed
        self.v_slab = v_slab
        self.workspace = workspace
        if kernels is None:
            kernels = default_engine()
        self.kernels = kernels
        self.row_comm = row_comm
        self.col_comm = col_comm
        if redistribution not in ("packed", "packfree"):
            raise ValueError(f"unknown redistribution {redistribution!r}")
        self.redistribution = redistribution
        #: Staging (pack/unpack) buffer passes performed by this rank's
        #: exchanges, data mode only — pinned to zero on the pack-free path.
        self.pack_copies = 0
        self.results: dict[int, np.ndarray] = {}
        #: Bands whose full chain finished on this rank (filled by the
        #: unpack step, both modes) — the driver's checkpoint granularity.
        self.completed: set[int] = set()
        self.r, self.t = layout.rt_of(rank.rank)
        self.data_mode = packed is not None

    @property
    def p(self) -> int:
        """This rank's layout process index."""
        return self.rank.rank

    def band_coefficients(self, band: int) -> np.ndarray | None:
        """Input packed coefficients of one band (``None`` in meta mode)."""
        if self.packed is None:
            return None
        return self.packed[band]

    # -- arena helpers --------------------------------------------------------
    #
    # Buffer-release discipline (why releasing mid-chain is safe):
    #
    # * The simulated collective *copies* every ndarray payload when the
    #   last member joins (``payload_like``), so once a rank's ``yield
    #   alltoall`` resumes its send buffers are free to recycle.
    # * Fault-injected task re-execution replays only communication-free
    #   tasks (``Task.did_mpi`` exemption), immediately and from their
    #   original (still checked-out or non-arena) inputs, so a replay never
    #   reads a buffer its own discarded execution released downstream.
    # * A generator killed mid-chain (attempt abort) leaks its checkouts;
    #   the arena tracks them weakly and tolerates the loss.

    def acquire(self, kind: str, shape: tuple) -> np.ndarray | None:
        """An arena buffer of the given kind/shape, or ``None`` without an
        arena (callees then allocate fresh — identical results)."""
        if self.workspace is None:
            return None
        return self.workspace.acquire(kind, shape)

    def release(self, *buffers) -> None:
        """Return arena buffers; ``None``/foreign/double releases are ignored."""
        if self.workspace is not None:
            self.workspace.release(*buffers)

    def recv_buffer(self, kind: str, plan) -> np.ndarray | None:
        """The receive buffer of a pack-free exchange plan (``None`` in meta
        mode).  Zero-filled when the plan's incoming blocks cover the buffer
        only sparsely; otherwise left uninitialized (fully overwritten)."""
        if not self.data_mode:
            return None
        buf = self.acquire(kind, plan.recv_shape)
        if buf is None:
            return (
                np.zeros(plan.recv_shape, dtype=np.complex128)
                if plan.zero_fill
                else np.empty(plan.recv_shape, dtype=np.complex128)
            )
        if plan.zero_fill:
            buf.fill(0)
        return buf


# ---------------------------------------------------------------------------
# Step generators.  Each yields compute/MPI events on the given hardware
# thread and returns the transformed data (None in meta mode).
# ---------------------------------------------------------------------------


def step_prepare(ctx: FftPhaseContext, bands: _t.Sequence[int], thread: int = 0):
    """Gather/reorder the group's packed coefficients (the low-IPC Psi prep).

    Band groups are consecutive bands (``it*T + t``), so the usual result is
    one ``(T, ngw_of(p))`` row-block view of the packed input — the batched
    multi-band form; non-contiguous band lists fall back to per-band row
    views.  Either way no copy is made: rows of ``ctx.packed`` are already
    C-contiguous and the collective copies payloads at delivery.
    """
    instructions = ctx.cost.prepare(ctx.p) * len(bands)
    yield ctx.rank.compute("prepare_psis", instructions, thread=thread)
    if not ctx.data_mode:
        return None
    first = bands[0]
    if list(bands) == list(range(first, first + len(bands))):
        return ctx.packed[first : first + len(bands)]
    return [ctx.packed[band] for band in bands]


def step_pack(ctx: FftPhaseContext, band_coeffs: list | None, key: object, thread: int = 0):
    """Pack Alltoallv + expansion: this rank ends up with band ``t`` on its
    group sticks.

    With task groups off (T == 1) there is no exchange; the expansion of the
    rank's own coefficients is charged to the ``prepare_psis`` phase (it is
    the same scatter-write, just without the communication around it).
    """
    layout = ctx.layout
    if ctx.pack_comm is None:
        yield ctx.rank.compute("prepare_psis", ctx.cost.pack_expand(ctx.r), thread=thread)
        if band_coeffs is None:
            return None
        out = ctx.acquire(
            "stick_block", (len(layout.sticks_of(ctx.p)), layout.desc.nr3)
        )
        return wave_mod.expand_to_sticks(layout, ctx.p, band_coeffs[0], out=out)
    if ctx.redistribution == "packfree":
        plan = redist_mod.pack_fw_plan(layout, ctx.p, ctx.data_mode)
        sendbuf = None
        if band_coeffs is not None:
            sendbuf = np.ascontiguousarray(band_coeffs)
        recvbuf = ctx.recv_buffer("stick_block", plan)
        yield ctx.rank.alltoallw(
            ctx.pack_comm, sendbuf, recvbuf,
            plan.send_blocks, plan.recv_blocks, key=key, thread=thread,
        )
        yield ctx.rank.compute("pack_sticks", ctx.cost.pack_expand(ctx.r), thread=thread)
        return recvbuf
    parts = pack_mod.pack_parts(layout, ctx.p, band_coeffs)
    received = yield ctx.rank.alltoall(ctx.pack_comm, parts, key=key, thread=thread)
    yield ctx.rank.compute("pack_sticks", ctx.cost.pack_expand(ctx.r), thread=thread)
    if any(isinstance(b, MetaPayload) for b in received):
        return None
    ctx.pack_copies += 1
    out = ctx.acquire("stick_block", (layout.nst_group(ctx.r), layout.desc.nr3))
    return wave_mod.expand_group_block(
        layout, ctx.r, received, out=out, workspace=ctx.workspace
    )


def step_fft_z(ctx: FftPhaseContext, group_block, sign: int, thread: int = 0):
    """Batched 1D transforms along z of the group sticks, in place.

    The linear chain's consumed block is dead, so the transform overwrites
    it (replayable task stages must not use this step — see
    :mod:`repro.core.exec_steps`).
    """
    yield ctx.rank.compute("fft_z", ctx.cost.fft_z(ctx.r), thread=thread)
    if group_block is None:
        return None
    return ctx.kernels.cft_1z(group_block, sign, out=group_block)


def step_scatter_fw(ctx: FftPhaseContext, group_block, key: object, thread: int = 0):
    """Forward scatter: sticks -> planes within the scatter group."""
    yield ctx.rank.compute("scatter_reorder", ctx.cost.scatter_marshal(ctx.r), thread=thread)
    if ctx.redistribution == "packfree":
        plan = redist_mod.scatter_fw_plan(ctx.layout, ctx.r, ctx.data_mode)
        recvbuf = ctx.recv_buffer("planes", plan)
        sendbuf = None if group_block is None else np.ascontiguousarray(group_block)
        yield ctx.rank.alltoallw(
            ctx.scatter_comm, sendbuf, recvbuf,
            plan.send_blocks, plan.recv_blocks, key=key, thread=thread,
        )
        # The resumed yield means the exchange executed (elements moved
        # straight from the stick block into every peer's planes), so the
        # block is free to recycle.
        ctx.release(group_block)
        return recvbuf
    parts = scatter_mod.scatter_fw_parts(ctx.layout, ctx.r, group_block)
    received = yield ctx.rank.alltoall(ctx.scatter_comm, parts, key=key, thread=thread)
    # The resumed yield means the collective executed and copied the send
    # views, so the stick block is free to recycle.
    ctx.release(group_block)
    desc = ctx.layout.desc
    out = None
    if group_block is not None:
        ctx.pack_copies += 1
        out = ctx.acquire("planes", (ctx.layout.npp(ctx.r), desc.nr1, desc.nr2))
    return scatter_mod.assemble_planes(
        ctx.layout, ctx.r, received, out=out, workspace=ctx.workspace
    )


def step_fft_xy(ctx: FftPhaseContext, planes, sign: int, thread: int = 0):
    """Batched 2D transforms of this rank's planes, in place, restricted to
    the stick support (the lines :meth:`CostModel.fft_xy` charges)."""
    yield ctx.rank.compute("fft_xy", ctx.cost.fft_xy(ctx.r), thread=thread)
    if planes is None:
        return None
    return ctx.kernels.cft_2xy(
        planes, sign, out=planes, support=ctx.layout.desc.sticks.xy_support
    )


def step_vofr(ctx: FftPhaseContext, planes, thread: int = 0, out=None):
    """Apply the real-space potential on this rank's planes — in place, or
    into ``out`` (what a replayable task stage passes)."""
    yield ctx.rank.compute("vofr", ctx.cost.vofr(ctx.r), thread=thread)
    if planes is None:
        return None
    return apply_potential(planes, ctx.v_slab, out=out)


def step_scatter_bw(ctx: FftPhaseContext, planes, key: object, thread: int = 0):
    """Backward scatter: planes -> sticks within the scatter group."""
    yield ctx.rank.compute("scatter_reorder", ctx.cost.scatter_marshal(ctx.r), thread=thread)
    layout = ctx.layout
    if ctx.redistribution == "packfree":
        plan = redist_mod.scatter_bw_plan(layout, ctx.r, ctx.data_mode)
        recvbuf = ctx.recv_buffer("stick_block", plan)
        # No-op for the common contiguous case; backends whose xy transform
        # hands back a strided view get one normalizing copy here.
        sendbuf = None if planes is None else np.ascontiguousarray(planes)
        yield ctx.rank.alltoallw(
            ctx.scatter_comm, sendbuf, recvbuf,
            plan.send_blocks, plan.recv_blocks, key=key, thread=thread,
        )
        ctx.release(planes)
        return recvbuf
    gather = None
    if planes is not None:
        ctx.pack_copies += 1
        nsticks = int(layout.scatter_stick_offsets()[-1])
        gather = ctx.acquire("sbw_gather", (nsticks, layout.npp(ctx.r)))
    parts = scatter_mod.scatter_bw_parts(layout, ctx.r, planes, out=gather)
    received = yield ctx.rank.alltoall(ctx.scatter_comm, parts, key=key, thread=thread)
    ctx.release(planes, gather)
    out = (
        ctx.acquire("stick_block", (layout.nst_group(ctx.r), layout.desc.nr3))
        if planes is not None
        else None
    )
    return scatter_mod.assemble_group_block_from_planes(
        layout, ctx.r, received, out=out
    )


def step_unpack(
    ctx: FftPhaseContext,
    group_block,
    bands: _t.Sequence[int],
    key: object,
    thread: int = 0,
    mark_completed: bool = True,
):
    """Extraction + unpack Alltoallv; stores per-band results.

    With task groups on, this rank extracts band ``t``'s coefficients from
    its group block (one share per member) and the Alltoallv returns every
    member its own-sticks share of every band; with task groups off the
    extraction is purely local.

    ``mark_completed=False`` leaves ``ctx.completed`` untouched — the task
    executors defer the marking to task *success*, so an execution that
    fault injection later discards never advances the checkpoint frontier.
    """
    if ctx.pack_comm is not None:
        yield ctx.rank.compute("unpack_sticks", ctx.cost.unpack_extract(ctx.r), thread=thread)
        if ctx.redistribution == "packfree":
            plan = redist_mod.pack_bw_plan(ctx.layout, ctx.p, ctx.data_mode)
            # Fresh (non-arena) receive rows: the per-band results outlive
            # the run, so they must not return to the buffer pool.
            recvbuf = (
                np.empty(plan.recv_shape, dtype=np.complex128)
                if group_block is not None
                else None
            )
            sendbuf = (
                None if group_block is None else np.ascontiguousarray(group_block)
            )
            yield ctx.rank.alltoallw(
                ctx.pack_comm, sendbuf, recvbuf,
                plan.send_blocks, plan.recv_blocks, key=key, thread=thread,
            )
            ctx.release(group_block)
            yield ctx.rank.compute("unpack_sticks", ctx.cost.unpack(ctx.p) * len(bands), thread=thread)
            if mark_completed:
                ctx.completed.update(bands)
            if recvbuf is not None:
                for t, band in enumerate(bands):
                    ctx.results[band] = recvbuf[t]
            return None
        gather = None
        member_coeffs = None
        if group_block is not None:
            ctx.pack_copies += 1
            ngw_group = int(ctx.layout.group_coeff_offsets(ctx.r)[-1])
            gather = ctx.acquire("coeff_gather", (ngw_group,))
            member_coeffs = wave_mod.extract_group_coefficients(
                ctx.layout, ctx.r, group_block, out=gather
            )
        parts = pack_mod.unpack_parts(ctx.layout, ctx.r, member_coeffs)
        received = yield ctx.rank.alltoall(ctx.pack_comm, parts, key=key, thread=thread)
        ctx.release(group_block, gather)
        yield ctx.rank.compute("unpack_sticks", ctx.cost.unpack(ctx.p) * len(bands), thread=thread)
        if mark_completed:
            ctx.completed.update(bands)
        if any(isinstance(b, MetaPayload) for b in received):
            return None
        for band, coeffs in zip(bands, received):
            ctx.results[band] = coeffs
        return None

    yield ctx.rank.compute("unpack_sticks", ctx.cost.unpack(ctx.p) * len(bands), thread=thread)
    if mark_completed:
        ctx.completed.update(bands)
    if group_block is None:
        return None
    # The gather owns fresh storage, so the consumed block can be recycled.
    # (In the task executors this path's input is a fresh array — the arena
    # block release matters for the linear executors and per-band chains.)
    ctx.results[bands[0]] = extract_from_sticks(ctx.layout, ctx.p, group_block)
    ctx.release(group_block)
    return None


def step_transpose_zy(
    ctx: FftPhaseContext, block, key: object, thread: int = 0, inverse: bool = False
):
    """Row-internal pencil transpose: z-stick block <-> y-brick (Pc ranks).

    Forward consumes the stick block and yields the zero-filled
    ``(nx_i, nz_j, nr2)`` y-brick; ``inverse=True`` swaps roles (the stick
    block comes back fully covered).  Always pack-free (Alltoallw).
    """
    yield ctx.rank.compute(
        "scatter_reorder", ctx.cost.pencil_zy_marshal(ctx.r), thread=thread
    )
    plan = redist_mod.pencil_zy_plan(ctx.layout, ctx.r, ctx.data_mode, inverse=inverse)
    recvbuf = ctx.recv_buffer("stick_block" if inverse else "ybrick", plan)
    sendbuf = None if block is None else np.ascontiguousarray(block)
    yield ctx.rank.alltoallw(
        ctx.row_comm, sendbuf, recvbuf,
        plan.send_blocks, plan.recv_blocks, key=key, thread=thread,
    )
    ctx.release(block)
    return recvbuf


def step_transpose_yx(
    ctx: FftPhaseContext, block, key: object, thread: int = 0, inverse: bool = False
):
    """Column-internal pencil transpose: y-brick <-> x-brick (Pr ranks)."""
    yield ctx.rank.compute(
        "scatter_reorder", ctx.cost.pencil_yx_marshal(ctx.r), thread=thread
    )
    plan = redist_mod.pencil_yx_plan(ctx.layout, ctx.r, ctx.data_mode, inverse=inverse)
    recvbuf = ctx.recv_buffer("ybrick" if inverse else "xbrick", plan)
    sendbuf = None if block is None else np.ascontiguousarray(block)
    yield ctx.rank.alltoallw(
        ctx.col_comm, sendbuf, recvbuf,
        plan.send_blocks, plan.recv_blocks, key=key, thread=thread,
    )
    ctx.release(block)
    return recvbuf


def step_fft_pencil(
    ctx: FftPhaseContext, brick, sign: int, axis: str, thread: int = 0
):
    """Batched 1D transforms along a pencil brick's last axis (y or x), in
    place.

    Bricks keep the transform axis contiguous and last, so the whole brick
    is one ``(rows, n)`` batched 1D call — the same kernel the z stage uses.
    The y stage skips the brick's stick-free x rows: zero before the G->R
    pass, never read back after the R->G one.
    Charged to the ``fft_z`` phase (same contention profile: batched 1D).
    """
    cost = ctx.cost.fft_y(ctx.r) if axis == "y" else ctx.cost.fft_x(ctx.r)
    yield ctx.rank.compute("fft_z", cost, thread=thread)
    if brick is None:
        return None
    rows = brick.reshape(-1, brick.shape[-1])
    support = ctx.layout.ybrick_row_runs(ctx.r) if axis == "y" else None
    ctx.kernels.cft_1z(rows, sign, out=rows, support=support)
    return brick


def step_pencil_vofr(ctx: FftPhaseContext, brick, thread: int = 0, out=None):
    """Apply the potential on this rank's x-brick (``v_slab`` holds the
    matching x-brick potential block in pencil mode) — in place, or into
    ``out``."""
    yield ctx.rank.compute("vofr", ctx.cost.pencil_vofr(ctx.r), thread=thread)
    if brick is None:
        return None
    return apply_potential(brick, ctx.v_slab, out=out)


def pencil_middle_steps(
    ctx: FftPhaseContext, group, my_band: int, key_prefix: object, thread: int = 0
):
    """The pencil replacement for the slab scatter/xy middle section.

    Takes the z-transformed stick block, runs the two forward transposes
    with the y/x 1D stages and VOFR, then the inverse transposes; returns
    the stick block ready for the inverse z transform.  The z+y+x 1D chain
    equals the slab z+xy 3D transform to roundoff.
    """
    brick = yield from step_transpose_zy(ctx, group, key=(key_prefix, "tzy", my_band), thread=thread)
    brick = yield from step_fft_pencil(ctx, brick, +1, "y", thread)
    xbrick = yield from step_transpose_yx(ctx, brick, key=(key_prefix, "tyx", my_band), thread=thread)
    xbrick = yield from step_fft_pencil(ctx, xbrick, +1, "x", thread)
    xbrick = yield from step_pencil_vofr(ctx, xbrick, thread)
    xbrick = yield from step_fft_pencil(ctx, xbrick, -1, "x", thread)
    brick = yield from step_transpose_yx(ctx, xbrick, key=(key_prefix, "txy", my_band), thread=thread, inverse=True)
    brick = yield from step_fft_pencil(ctx, brick, -1, "y", thread)
    group = yield from step_transpose_zy(ctx, brick, key=(key_prefix, "tyz", my_band), thread=thread, inverse=True)
    return group


def band_chain_steps(
    ctx: FftPhaseContext,
    bands: _t.Sequence[int],
    key_prefix: object,
    thread: int = 0,
    mark_completed: bool = True,
):
    """The full nine-step chain for one band group (Fig. 1's loop body).

    ``bands`` are the complex bands of this iteration in task-group order
    (``bands[t]`` is handled by pack-group member ``t``); this rank carries
    ``bands[ctx.t]`` through the z/scatter/xy middle section — or, in
    pencil mode, through the transpose_zy/fft_y/transpose_yx/fft_x middle
    (:func:`pencil_middle_steps`).
    """
    if len(bands) != ctx.layout.T:
        raise ValueError(f"band group must have T={ctx.layout.T} entries, got {len(bands)}")
    my_band = bands[ctx.t]
    blocks = yield from step_prepare(ctx, bands, thread)
    group = yield from step_pack(ctx, blocks, key=(key_prefix, "pack"), thread=thread)
    group = yield from step_fft_z(ctx, group, +1, thread)
    if ctx.layout.decomposition == "pencil":
        group = yield from pencil_middle_steps(ctx, group, my_band, key_prefix, thread)
    else:
        planes = yield from step_scatter_fw(ctx, group, key=(key_prefix, "sfw", my_band), thread=thread)
        planes = yield from step_fft_xy(ctx, planes, +1, thread)
        planes = yield from step_vofr(ctx, planes, thread)
        planes = yield from step_fft_xy(ctx, planes, -1, thread)
        group = yield from step_scatter_bw(ctx, planes, key=(key_prefix, "sbw", my_band), thread=thread)
    group = yield from step_fft_z(ctx, group, -1, thread)
    yield from step_unpack(
        ctx,
        group,
        bands,
        key=(key_prefix, "unpack"),
        thread=thread,
        mark_completed=mark_completed,
    )
