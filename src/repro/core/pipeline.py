"""The FFT-phase step chain, its instruction cost model and its stage bodies.

The paper's three versions (Fig. 1 original, Fig. 4 per-step tasks, Fig. 5
per-FFT tasks) are *one* kernel under three schedules.  This module declares
that kernel once, as a table of :class:`Stage` rows — :data:`SLAB_CHAIN`
(the paper's ten steps) and :data:`PENCIL_CHAIN` (the same ends around a
two-transpose middle) — and implements what each kind of stage does on one
rank; :mod:`repro.core.schedule` decides *when* the stages run:

    prepare -> pack -> fft_z(+1) -> scatter_fw -> fft_xy(+1)
            -> vofr -> fft_xy(-1) -> scatter_bw -> fft_z(-1) -> unpack

Each stage charges its compute phase on the machine model (the phase name
selects the contention profile of :mod:`repro.machine.knl`) and, where the
kernel communicates, joins a simulated ``MPI_Alltoallw`` over the block
plans of :mod:`~repro.core.redistribute` — real payloads moved straight
between flat buffers in data mode, sizes only in meta mode.  The data
transformations are :mod:`~repro.core.wave`, :mod:`~repro.core.vofr` and the
run's :class:`~repro.fft.backends.engine.KernelEngine`, so the numerics are
identical no matter which policy (or scheduler order) drives the stages.

Instruction budgets come from :class:`CostModel`: FFT stages use the standard
``5 n log2 n`` flop count (times a flops-to-instructions factor), with the
xy stage reduced to the lines that actually contain data — QE's
empty-line-skipping — computed from the stick geometry; marshalling and
pointwise stages are linear in the points touched.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

import numpy as np

from repro.core import redistribute as redist_mod
from repro.core import wave as wave_mod
from repro.core.vofr import apply_potential
from repro.grids.descriptor import DistributedLayout

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.communicator import Communicator
    from repro.mpisim.world import RankContext

__all__ = [
    "CostConstants",
    "CostModel",
    "FftPhaseContext",
    "Stage",
    "SLAB_CHAIN",
    "PENCIL_CHAIN",
    "Unit",
    "chain_of",
    "chain_plans",
    "receive_slots",
    "stage_rows",
    "unit_budgets",
    "run_stages",
    "issue_exchange",
    "finish_exchange",
    "apply_local",
    "real_space",
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


@dataclasses.dataclass(frozen=True)
class Stage:
    """One row of the step chain.

    ``kind`` selects the stage body: ``prepare`` / ``pack`` / ``unpack`` are
    the chain's fixed ends, ``local`` is a rank-local transform (a batched
    FFT or VOFR) and ``exchange`` an Alltoallw redistribution.
    """

    #: Stage name — also the task name under the staged-task policy.
    name: str
    kind: str
    #: Machine phase the stage's compute is charged to.
    phase: str
    #: The :class:`CostModel` method pricing one band of this stage.
    budget: str
    #: local: what its data half runs — a batched FFT along ``z`` / ``y``
    #: (direction ``sign``, +1 = G->R), or ``section``: the whole real-space
    #: section (:func:`real_space`).  Empty for the section's later stages,
    #: whose data half the section did: they pass their block on.
    op: str = ""
    sign: int = 0
    #: local FFT: which layout quantity counts its independent rows, and the
    #: ``RunConfig`` grainsize class (``z`` / ``xy``) that chunks them under
    #: the staged-task policy.  Empty for the unchunked VOFR.
    rows: str = ""
    grain: str = ""
    #: exchange: the :mod:`~repro.core.redistribute` plan builder (called
    #: with ``inverse=True`` for the way back), the context attribute
    #: holding its communicator and its collective-key tag.  Where its
    #: block lands follows from its place in the chain
    #: (:func:`receive_slots`).
    plan: str = ""
    inverse: bool = False
    comm: str = ""
    tag: str = ""


def _fft(name: str, phase: str, budget: str, op: str, sign: int, rows: str, grain: str) -> Stage:
    return Stage(name, "local", phase, budget, op=op, sign=sign, rows=rows, grain=grain)


def _real(
    name: str, phase: str, budget: str, rows: str = "", grain: str = "", runs: bool = False
) -> Stage:
    """A stage of the real-space section; ``runs`` marks the one whose data
    half is the section (:func:`real_space`)."""
    return Stage(
        name, "local", phase, budget, op="section" if runs else "", rows=rows, grain=grain
    )


def _exchange(name: str, budget: str, plan: str, comm: str, tag: str, inverse: bool = False) -> Stage:
    return Stage(
        name, "exchange", "scatter_reorder", budget,
        plan=plan, inverse=inverse, comm=comm, tag=tag,
    )


_HEAD = (
    Stage("prepare", "prepare", "prepare_psis", "prepare"),
    Stage("pack", "pack", "pack_sticks", "pack_expand"),
    _fft("fft_z_fw", "fft_z", "fft_z", "z", +1, "sticks", "z"),
)
_TAIL = (
    _fft("fft_z_bw", "fft_z", "fft_z", "z", -1, "sticks", "z"),
    Stage("unpack", "unpack", "unpack_sticks", "unpack"),
)

#: The paper's Fig. 1 kernel: sticks -> planes -> sticks over one scatter.
#: Its real-space section (xy FFT, VOFR, xy FFT back) runs on the host as
#: one operation, a chunk of planes at a time (:func:`real_space`).
SLAB_CHAIN: tuple[Stage, ...] = _HEAD + (
    _exchange("scatter_fw", "scatter_marshal", "scatter_fw_plan", "scatter_comm", "sfw"),
    _real("fft_xy_fw", "fft_xy", "fft_xy", "planes", "xy", runs=True),
    _real("vofr", "vofr", "vofr"),
    _real("fft_xy_bw", "fft_xy", "fft_xy", "planes", "xy"),
    _exchange("scatter_bw", "scatter_marshal", "scatter_bw_plan", "scatter_comm", "sbw"),
) + _TAIL

#: The pencil middle: row-internal z<->y and column-internal y<->x
#: transposes around batched 1D stages (charged to the ``fft_z`` phase —
#: same contention profile).  z+y+x equals the slab z+xy transform to
#: roundoff.  The real-space section is the x FFT, VOFR and the x FFT back.
PENCIL_CHAIN: tuple[Stage, ...] = _HEAD + (
    _exchange("transpose_zy", "pencil_zy_marshal", "pencil_zy_plan", "row_comm", "tzy"),
    _fft("fft_y_fw", "fft_z", "fft_y", "y", +1, "y_lines", "z"),
    _exchange("transpose_yx", "pencil_yx_marshal", "pencil_yx_plan", "col_comm", "tyx"),
    _real("fft_x_fw", "fft_z", "fft_x", "x_lines", "z", runs=True),
    _real("vofr", "vofr", "pencil_vofr"),
    _real("fft_x_bw", "fft_z", "fft_x", "x_lines", "z"),
    _exchange("transpose_xy", "pencil_yx_marshal", "pencil_yx_plan", "col_comm", "txy", inverse=True),
    _fft("fft_y_bw", "fft_z", "fft_y", "y", -1, "y_lines", "z"),
    _exchange("transpose_yz", "pencil_zy_marshal", "pencil_zy_plan", "row_comm", "tyz", inverse=True),
) + _TAIL


def chain_of(layout: DistributedLayout) -> tuple[Stage, ...]:
    """The stage table a layout's decomposition runs."""
    return PENCIL_CHAIN if layout.decomposition == "pencil" else SLAB_CHAIN


def receive_slots(chain: _t.Sequence[Stage]) -> dict[str, int]:
    """Per receiving stage name, the arena slot its block lands in.

    A rank needs two exchange buffers at once: the one it sends from and
    the one it receives into.  The pack receives into slot 0 and every
    later exchange into the slot its send block is not in, so the slots
    alternate down the chain (the unpack writes the run's coefficient rows).
    """
    names = [stage.name for stage in chain if stage.kind in ("pack", "exchange")]
    return {name: i % 2 for i, name in enumerate(names)}


def unit_budgets(cost: CostModel, chain: _t.Sequence[Stage], p: int) -> dict[str, float]:
    """Per stage name, process ``p``'s instructions for one unit (T bands).

    Each stage's :class:`CostModel` method prices one band on the scatter
    rank — or, for the chain's prepare/unpack ends, on the process, once
    per band of the unit.  With task groups on (T > 1) the unpack stage
    also extracts the group block before its Alltoallv
    (``"unpack_extract"``).  The stage bodies charge exactly these numbers;
    the autotuner sums them.
    """
    layout = cost.layout
    r, _t_own = layout.rt_of(p)
    budgets = {
        stage.name: (
            getattr(cost, stage.budget)(p) * layout.T
            if stage.kind in ("prepare", "unpack")
            else getattr(cost, stage.budget)(r)
        )
        for stage in chain
    }
    if layout.T > 1:
        budgets["unpack_extract"] = cost.unpack_extract(r)
    return budgets


def chain_plans(
    layout: DistributedLayout, chain: _t.Sequence[Stage], p: int, data_mode: bool
) -> dict[str, redist_mod.ExchangePlan]:
    """Per stage name, the :class:`~repro.core.redistribute.ExchangePlan`
    process ``p`` joins: every ``exchange`` stage's plan builder on the
    process's scatter rank and, with task groups on (T > 1), the pack and
    unpack Alltoallv."""
    r, _t_own = layout.rt_of(p)
    plans = {
        stage.name: getattr(redist_mod, stage.plan)(
            layout, r, data_mode, **({"inverse": True} if stage.inverse else {})
        )
        for stage in chain
        if stage.kind == "exchange"
    }
    if layout.T > 1:
        plans["pack"] = redist_mod.pack_fw_plan(layout, p, data_mode)
        plans["unpack"] = redist_mod.pack_bw_plan(layout, p, data_mode)
    return plans


def stage_rows(layout: DistributedLayout, stage: Stage, r: int) -> int:
    """Independent rows of a local FFT stage on scatter rank ``r`` (what the
    staged-task policy splits into grainsize chunks)."""
    if stage.rows == "sticks":
        return layout.nst_group(r)
    if stage.rows == "planes":
        return layout.npp(r)
    grid = layout.pencil
    i, j = grid.coords(r)
    return (grid.nx(i) if stage.rows == "y_lines" else grid.ny(i)) * grid.nz(j)


class FftPhaseContext:
    """Everything one rank needs to run chain stages.

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
    coeffs:
        The run's one global ``(n_complex_bands, ngw)`` coefficient array,
        shared by every rank (``None`` in meta mode).  ``prepare`` gathers
        this rank's G-vectors of one unit's bands out of its rows (a copy),
        and the unpack exchange writes the results back over them; no rank
        holds coefficients beyond the unit in flight.  A process's columns
        of a unit are written only by an unpack it joins, after its own
        prepare of that unit has read them.
    v_slab:
        This scatter rank's potential planes, a view of the run's one
        potential (``None`` in meta mode).
    workspace:
        This rank's data-plane buffer arena
        (:class:`~repro.core.workspace.Workspace`); every exchange receives
        into a buffer of one of its two receive slots (:meth:`recv_buffer`).
        ``None`` in meta mode, where no buffer is ever touched.
    kernels:
        The run's :class:`~repro.fft.backends.engine.KernelEngine` — every
        batched FFT the stages execute goes through it.  ``None`` in meta
        mode, where no kernel runs.
    row_comm / col_comm:
        The pencil transpose communicators (row-internal z<->y over Pc
        ranks, column-internal y<->x over Pr ranks); ``None`` for the slab
        decomposition.  In pencil mode ``v_slab`` is the x-brick view of
        the potential instead of the plane slab.
    chain / budgets / plans:
        The layout's stage table with, per stage name, this rank's
        instruction budget for one unit (:func:`unit_budgets`) and
        (exchanges) its :class:`~repro.core.redistribute.ExchangePlan`
        (:func:`chain_plans`) — resolved once here, not per stage execution.
    receives / slot_items / scratch_slot:
        Data mode only.  Per receiving stage name, its receive slot
        (:func:`receive_slots`), block shape and item count; per slot, the
        items of its buffers — the largest block the slot holds, sized
        here once from the plans; and the slot the real-space section
        borrows its scratch from (:func:`apply_local`), grown to at least
        one row of the section's chunks.
    """

    def __init__(
        self,
        rank: "RankContext",
        layout: DistributedLayout,
        cost: CostModel,
        pack_comm: "Communicator | None",
        scatter_comm: "Communicator",
        coeffs: np.ndarray | None,
        v_slab: np.ndarray | None,
        workspace=None,
        kernels=None,
        row_comm: "Communicator | None" = None,
        col_comm: "Communicator | None" = None,
    ):
        self.rank = rank
        self.layout = layout
        self.cost = cost
        self.pack_comm = pack_comm
        self.scatter_comm = scatter_comm
        self.coeffs = coeffs
        self.v_slab = v_slab
        self.workspace = workspace
        self.kernels = kernels
        self.row_comm = row_comm
        self.col_comm = col_comm
        #: Bands whose full chain finished on this rank (both modes) — the
        #: driver's checkpoint granularity, and in data mode the bands whose
        #: output rows hold this rank's G-vectors.
        self.completed: set[int] = set()
        self.r, self.t = layout.rt_of(rank.rank)
        self.data_mode = coeffs is not None

        self.chain = chain_of(layout)
        self.budgets = unit_budgets(cost, self.chain, self.p)
        self.plans = chain_plans(layout, self.chain, self.p, self.data_mode)
        if self.data_mode:
            shapes = {name: plan.recv_shape for name, plan in self.plans.items()}
            # T == 1: no pack exchange; the rank expands its own sticks.
            shapes.setdefault("pack", (layout.nst_group(self.r), layout.desc.nr3))
            self.receives = {
                name: (slot, shapes[name], math.prod(shapes[name]))
                for name, slot in receive_slots(self.chain).items()
            }
            self.slot_items = [
                max(items for slot, _shape, items in self.receives.values() if slot == s)
                for s in (0, 1)
            ]
            # The section's scratch is the slot its block is not in: the
            # one the exchange before it released.  It holds a chunk of
            # at least one dense plane (slab) or x line (pencil).
            entry = next(i for i, stage in enumerate(self.chain) if stage.op == "section")
            into = next(
                stage.name for stage in reversed(self.chain[:entry]) if stage.kind == "exchange"
            )
            self.scratch_slot = 1 - self.receives[into][0]
            desc = layout.desc
            row = desc.nr1 if layout.pencil is not None else desc.nr1 * desc.nr2
            self.slot_items[self.scratch_slot] = max(self.slot_items[self.scratch_slot], row)

    @property
    def p(self) -> int:
        """This rank's layout process index."""
        return self.rank.rank

    def recv_buffer(self, name: str) -> np.ndarray | None:
        """The receive block of stage ``name`` (``None`` in meta mode).

        A buffer of the stage's receive slot is checked out and its head
        handed out as the stage's block shape, with the plan's zero regions
        cleared; every other item is either written by the exchange or read
        by no later stage.  :func:`finish_exchange` releases the block's
        base, the buffer itself.
        """
        if not self.data_mode:
            return None
        slot, shape, items = self.receives[name]
        flat = self.workspace.acquire(slot, (self.slot_items[slot],))[:items]
        plan = self.plans.get(name)
        if plan is not None:
            # Unfanned: splitting a memset over two cores won nothing measurable.
            for region in plan.zero:
                region.zero(flat)
        return flat.reshape(shape)


class Unit:
    """One band group's trip down the chain on one rank.

    ``bands`` are the complex bands of outer-loop unit ``index`` in
    task-group order (``bands[t]`` is handled by pack-group member ``t``;
    this rank carries ``my_band`` through the middle section); ``key``
    prefixes every collective key and task name of the unit.

    ``held`` is the receive block the last exchange delivered.  The next
    exchange releases it once it has executed — by then every reader is
    done: the in-place linear chain transformed that very block, and under
    the staged-task policy the (out-of-place) tasks in between are
    finalized predecessors.  Why releasing mid-chain is safe:

    * the simulated collective moves every payload when the last member
      joins, so once a rank's ``yield`` on it resumes its send buffer is
      free to recycle;
    * fault-injected task re-execution replays only communication-free
      tasks (``Task.did_mpi`` exemption), from inputs no stage has
      overwritten, so a replay never reads a released buffer;
    * a generator killed mid-chain (attempt abort) leaks its checkout; the
      arena tracks checkouts weakly and tolerates the loss.
    """

    __slots__ = ("index", "key", "bands", "my_band", "held")

    def __init__(self, ctx: FftPhaseContext, label: str, index: int):
        T = ctx.layout.T
        self.index = index
        self.key = (label, index)
        self.bands = list(range(index * T, (index + 1) * T))
        self.my_band = self.bands[ctx.t]
        self.held: np.ndarray | None = None


def apply_local(ctx: FftPhaseContext, stage: Stage, block: np.ndarray, in_place: bool):
    """The data half of a ``local`` stage: transform ``block``.

    In place (the linear chain: the consumed block is dead) or into a fresh
    array that leaves ``block`` intact — what a replayable task needs, since
    a re-run of an in-place body would transform (or apply V) twice.  The
    section's entry stage runs the whole real-space section
    (:func:`real_space`) on a scratch checked out of the rank's free
    receive slot; the section's later stages hand ``block`` on as it is.
    Pencil bricks keep the transform axis contiguous and last, so a z or y
    pass is one ``(rows, n)`` batched 1D call over every row a block holds.
    """
    op = stage.op
    if not op:
        return block
    out = block if in_place else np.empty(block.shape, dtype=np.complex128)
    if op == "section":
        slot = ctx.scratch_slot
        scratch = ctx.workspace.acquire(slot, (ctx.slot_items[slot],))
        try:
            real_space(ctx.kernels, ctx.layout, ctx.v_slab, block, out, scratch)
        finally:
            ctx.workspace.release(scratch)
        return out
    rows = block.reshape(-1, block.shape[-1])
    ctx.kernels.cft_1z(rows, stage.sign, out=out.reshape(rows.shape))
    return out


def real_space(kernels, layout: DistributedLayout, v: np.ndarray, block, out, scratch) -> None:
    """The real-space section of one rank: G->R FFT, VOFR, R->G FFT, a chunk
    of dense rows at a time, from the compact ``block`` into ``out`` (which
    may be ``block`` itself).

    The compact block holds stick-carrying data only: on the slab
    ``(nst_all, npp)``, each stick's z-range of the rank's planes; on the
    pencil ``(ny_i, nz_j, n_live_x)``, the x-brick's stick-carrying x
    columns.  ``scratch`` (any flat complex128 buffer) holds a chunk of as
    many planes — on the pencil, x lines — as fit (at least one).  Per
    chunk the scratch is zeroed (on the pencil, its stick-free x columns
    alone), the compact rows are expanded into it (at
    :meth:`~repro.grids.descriptor.DistributedLayout.scatter_plane_index`
    on the slab, at
    :meth:`~repro.grids.descriptor.DistributedLayout.xbrick_columns` on
    the pencil), the kernels and VOFR run
    on it through their public names, and the stick slots are gathered
    back.  Every line FFT and VOFR product is the one a dense block would
    get: the result does not depend on the chunk size.
    """
    desc = layout.desc
    if layout.pencil is None:
        plane = desc.nr1 * desc.nr2
        pos = layout.scatter_plane_index()
        support = desc.sticks.xy_support
        npp = block.shape[1]
        step = scratch.size // plane
        for z0 in range(0, npp, step):
            z1 = min(z0 + step, npp)
            flat = scratch[: (z1 - z0) * plane].reshape(z1 - z0, plane)
            flat.fill(0)
            flat[:, pos] = block[:, z0:z1].T
            planes = flat.reshape(z1 - z0, desc.nr1, desc.nr2)
            kernels.cft_2xy(planes, +1, out=planes, support=support)
            apply_potential(planes, v[z0:z1])
            kernels.cft_2xy(planes, -1, out=planes, support=support)
            out[:, z0:z1] = flat[:, pos].T
        return
    # Pencil: a chunk is a (y, z) box of x lines — every z of some y when
    # those fit — so the potential's x-brick view slices with it.  The
    # expand writes the live columns whole, so only the stick-free ones
    # are zeroed.
    nr1 = desc.nr1
    ny, nz = block.shape[:2]
    lines = scratch.size // nr1
    ky, kz = (lines // nz, nz) if lines >= nz else (1, lines)
    col_of_x, _n_live = layout.xbrick_columns()
    runs = [(lo, hi, int(col_of_x[lo])) for lo, hi in desc.sticks.x_runs]
    edges = [0, *(x for lo, hi, _col in runs for x in (lo, hi)), nr1]
    gaps = [(lo, hi) for lo, hi in zip(edges[::2], edges[1::2]) if hi > lo]
    for y0 in range(0, ny, ky):
        y1 = min(y0 + ky, ny)
        for z0 in range(0, nz, kz):
            z1 = min(z0 + kz, nz)
            box = scratch[: (y1 - y0) * (z1 - z0) * nr1].reshape(y1 - y0, z1 - z0, nr1)
            for lo, hi in gaps:
                box[:, :, lo:hi] = 0
            for lo, hi, col in runs:
                box[:, :, lo:hi] = block[y0:y1, z0:z1, col : col + hi - lo]
            rows = box.reshape(-1, nr1)
            kernels.cft_1z(rows, +1, out=rows)
            apply_potential(box, v[y0:y1, z0:z1])
            kernels.cft_1z(rows, -1, out=rows)
            for lo, hi, col in runs:
                out[y0:y1, z0:z1, col : col + hi - lo] = box[:, :, lo:hi]


def _alltoallw(ctx: FftPhaseContext, plan, comm, block, recvbuf, key: object, thread: int):
    """Join the plan's Alltoallw; the returned event resolves once every
    member joined and the elements moved."""
    # No-op for the common contiguous case; a strided view gets one
    # normalizing copy here.
    sendbuf = None if block is None else np.ascontiguousarray(block)
    return ctx.rank.alltoallw(
        comm, sendbuf, recvbuf, plan.send_blocks, plan.recv_blocks,
        key=key, thread=thread, parts=(plan.send_parts, plan.recv_parts),
    )


def issue_exchange(ctx: FftPhaseContext, unit: Unit, stage: Stage, block, thread: int = 0):
    """Join an ``exchange`` stage's Alltoallw without waiting; returns
    ``(event, recvbuf)``.

    The receive block is checked out (with the plan's zero regions cleared)
    *before* joining — the live parts land in it when the last member
    joins.  The caller keeps ``block`` checked out until the
    event resolves, then calls :func:`finish_exchange`.
    """
    plan = ctx.plans[stage.name]
    recvbuf = ctx.recv_buffer(stage.name)
    event = _alltoallw(
        ctx, plan, getattr(ctx, stage.comm), block, recvbuf,
        (unit.key, stage.tag, unit.my_band), thread,
    )
    return event, recvbuf


def finish_exchange(ctx: FftPhaseContext, unit: Unit, recvbuf) -> None:
    """After an exchange resolved: recycle the block the previous exchange
    delivered (see :class:`Unit`) and hold the new one.  Pop-then-release,
    so a hypothetical second call releases nothing.  A block is a view of
    its slot buffer's head, so the buffer released is its base."""
    held, unit.held = unit.held, recvbuf
    if held is not None:
        ctx.workspace.release(held.base)


def run_stages(
    ctx: FftPhaseContext,
    unit: Unit,
    stages: _t.Sequence[Stage],
    block=None,
    thread: int = 0,
    mark_completed: bool = True,
):
    """Run consecutive chain stages for one unit, in place and in program
    order, on hardware thread ``thread``; returns the last stage's block
    (``None`` in meta mode).

    ``mark_completed=False`` leaves ``ctx.completed`` untouched — the task
    policies defer the marking to task *success*, so an execution that
    fault injection later discards never advances the checkpoint frontier.
    """
    rank = ctx.rank
    budgets = ctx.budgets
    for stage in stages:
        kind = stage.kind
        if kind == "local":
            yield rank.compute(stage.phase, budgets[stage.name], thread=thread)
            if block is not None:
                block = apply_local(ctx, stage, block, in_place=True)
        elif kind == "exchange":
            yield rank.compute(stage.phase, budgets[stage.name], thread=thread)
            event, block = issue_exchange(ctx, unit, stage, block, thread)
            yield event
            finish_exchange(ctx, unit, block)
        elif kind == "prepare":
            # Gather this rank's G-vectors of the unit's consecutive bands
            # out of the global rows (the low-IPC Psi prep): one
            # C-contiguous (T, ngw_of(p)) block — ``take``, not
            # ``rows[:, g_idx]``, whose result is F-ordered — dropped once
            # the pack has moved it.
            yield rank.compute(stage.phase, budgets[stage.name], thread=thread)
            if ctx.data_mode:
                block = np.take(
                    ctx.coeffs[unit.bands[0] : unit.bands[-1] + 1],
                    ctx.layout.local_g_table(ctx.p)[0],
                    axis=1,
                )
        elif kind == "pack":
            block = yield from _pack(ctx, unit, stage, block, thread)
        else:
            block = yield from _unpack(ctx, unit, stage, block, thread, mark_completed)
    return block


def _pack(ctx: FftPhaseContext, unit: Unit, stage: Stage, rows, thread: int):
    """Pack Alltoallv + expansion: this rank ends up with band ``t`` on its
    group sticks.

    With task groups off (T == 1) there is no exchange; the expansion of the
    rank's own coefficients is charged to the ``prepare_psis`` phase (it is
    the same scatter-write, just without the communication around it).
    """
    budget = ctx.budgets[stage.name]
    if ctx.pack_comm is None:
        yield ctx.rank.compute("prepare_psis", budget, thread=thread)
        block = None
        if rows is not None:
            block = wave_mod.expand_to_sticks(
                ctx.layout, ctx.p, rows[0], out=ctx.recv_buffer(stage.name)
            )
    else:
        plan = ctx.plans[stage.name]
        block = ctx.recv_buffer(stage.name)
        yield _alltoallw(ctx, plan, ctx.pack_comm, rows, block, (unit.key, "pack"), thread)
        yield ctx.rank.compute(stage.phase, budget, thread=thread)
    unit.held = block
    return block


def _unpack(
    ctx: FftPhaseContext, unit: Unit, stage: Stage, block, thread: int,
    mark_completed: bool,
):
    """Extraction + unpack Alltoallv over the unit's rows of the run's array.

    With task groups on, this rank's group block holds band ``t`` (one share
    per member) and the Alltoallv writes every member's own-sticks share of
    every band straight into the unit's rows; with task groups off
    the extraction is purely local.
    """
    rank = ctx.rank
    bands = unit.bands
    budget = ctx.budgets[stage.name]
    if ctx.pack_comm is None:
        yield rank.compute(stage.phase, budget, thread=thread)
        if block is not None:
            g_idx = ctx.layout.local_g_table(ctx.p)[0]
            ctx.coeffs[bands[0]][g_idx] = wave_mod.extract_from_sticks(
                ctx.layout, ctx.p, block
            )
        finish_exchange(ctx, unit, None)
    else:
        yield rank.compute(stage.phase, ctx.budgets["unpack_extract"], thread=thread)
        plan = ctx.plans[stage.name]
        rows = None if block is None else ctx.coeffs[bands[0] : bands[-1] + 1]
        yield _alltoallw(ctx, plan, ctx.pack_comm, block, rows, (unit.key, "unpack"), thread)
        finish_exchange(ctx, unit, None)
        yield rank.compute(stage.phase, budget, thread=thread)
    if mark_completed:
        ctx.completed.update(bands)
