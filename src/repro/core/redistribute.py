"""Redistribution plans: Alltoallw block descriptors per layout.

Every exchange of the step chain is described as per-peer
:class:`~repro.mpisim.datatypes.BlockType` descriptors into the flat source
and destination buffers, so the simulated ``MPI_Alltoallw`` moves elements
straight from their source view into their destination slots — no per-peer
slab extraction, no concatenated staging buffer, no assembly pass on the
receive side (the derived-datatype scheme of Dalcin/Mortensen/Keyes,
PAPERS.md).

The simulated collective prices per-peer bytes from the descriptor volumes
(``n_items * 16``), which equal what a packed Alltoall of the same exchange
would carry — so meta-mode descriptors of the same counts reproduce the
data-mode timeline exactly.

What the host moves is each priced block's *live* part, stated once per
data-mode plan: the whole block, except across the pencil y<->x transpose.
A pencil y-brick stores only the x rows that carry sticks
(:meth:`~repro.grids.descriptor.DistributedLayout.ybrick_x_runs`), and an
x-brick only the x columns that do, so that transpose is priced at the
dense brick volume (meta blocks) and moves the stick rows alone.  A
receive buffer is an uninitialised arena block, so each plan also names
its *zero regions*: exactly the slots a later stage reads that no live
part writes.  No exchange delivers dense real space: the slab scatter and
the y->x transpose receive compact blocks that arrive live in every slot
(no zero region), and the real-space section
(:func:`repro.core.pipeline.real_space`) builds dense planes or x lines
from them a chunk at a time.

Four slab plans (forward/backward of each MPI layer) and two pencil
transposes (plus inverses) cover the data plane:

* ``pack_fw`` / ``pack_bw`` — the task-group pack/unpack Alltoallv
  (T members): contiguous coefficient rows -> scattered (stick, z) slots of
  the group stick block -> the unit's rows of the run's global output
  array, via the layout's cached index maps.
* ``scatter_fw`` / ``scatter_bw`` — the slab scatter (R members): z-ranges
  of stick columns (strided) <-> one contiguous row run per peer of the
  compact ``(nst_all, npp)`` stick-major block.
* ``pencil_zy`` / ``pencil_yx`` and inverses — the two pencil transposes
  (row-internal over Pc ranks, column-internal over Pr ranks): zy is
  strided <-> outer (irregular stick positions x regular z step), yx
  moves subarrays on both sides; an inverse plan is its forward plan with
  send/recv roles swapped.

Only the pack blocks carry an explicit index array (the layout's cached
G-vector and flat index maps); every other block moves as a strided view
or a fancy index over its stick positions alone.  A live part is a
subarray, and so is a zero region: no index array either.

Plans are built once per (layout, endpoint, mode) and cached on the layout
(like the workspace arenas), so descriptor construction never rides the
steady-state path.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.grids.descriptor import DistributedLayout
from repro.mpisim.datatypes import BlockType

__all__ = [
    "ExchangePlan",
    "pack_fw_plan",
    "pack_bw_plan",
    "scatter_fw_plan",
    "scatter_bw_plan",
    "pencil_zy_plan",
    "pencil_yx_plan",
]

_LOCK = threading.Lock()
_PLAN_ATTR = "_redistribute_plans"


class ExchangePlan:
    """One endpoint's half of an Alltoallw exchange.

    ``send_blocks[j]`` / ``recv_blocks[j]`` index this endpoint's flat send
    and receive buffers for communicator-local peer ``j``; peer ``local``
    is the endpoint itself.  They are what the simulated network prices.
    ``send_parts[j]`` / ``recv_parts[j]`` are the live parts of those
    blocks — what the host actually moves; by default each block is its own
    one live part.  ``recv_shape`` is the receive buffer to allocate and
    ``zero`` its zero regions: the slots to clear before the moves land.
    """

    __slots__ = (
        "send_blocks", "recv_blocks", "send_parts", "recv_parts", "recv_shape", "zero",
        "local",
    )

    def __init__(
        self, send_blocks, recv_blocks, recv_shape, local,
        send_parts=None, recv_parts=None, zero=(),
    ):
        self.send_blocks = list(send_blocks)
        self.recv_blocks = list(recv_blocks)
        self.send_parts = _parts(self.send_blocks, send_parts)
        self.recv_parts = _parts(self.recv_blocks, recv_parts)
        self.recv_shape = tuple(int(n) for n in recv_shape)
        self.zero = tuple(zero)
        self.local = int(local)

    def swapped(self, recv_shape) -> "ExchangePlan":
        """The inverse exchange: send what was received, receive what was
        sent.  Its receive buffer needs no zero region: every slot a later
        stage reads arrives live."""
        return ExchangePlan(
            self.recv_blocks, self.send_blocks, recv_shape, self.local,
            self.recv_parts, self.send_parts,
        )

    def sent_bytes(self) -> float:
        """Bytes this endpoint puts on the wire: every send block but its
        own — what the simulated Alltoallw charges it."""
        return sum(
            block.nbytes for j, block in enumerate(self.send_blocks) if j != self.local
        )


def _parts(blocks, parts) -> tuple:
    """Per peer, the live parts of its block (the block itself by default)."""
    if parts is None:
        return tuple((block,) for block in blocks)
    return tuple(tuple(peer) for peer in parts)


def _whole(shape) -> tuple:
    """The zero regions covering an entire ``shape`` buffer: its rows."""
    rows, per = shape[0], math.prod(shape[1:])
    return (BlockType.subarray(0, (rows, per), (per, 1)),)


def _cache(layout: DistributedLayout) -> dict:
    cache = getattr(layout, _PLAN_ATTR, None)
    if cache is None:
        with _LOCK:
            cache = getattr(layout, _PLAN_ATTR, None)
            if cache is None:
                cache = {}
                setattr(layout, _PLAN_ATTR, cache)
    return cache


def _cached(layout: DistributedLayout, key: tuple, build):
    cache = _cache(layout)
    plan = cache.get(key)
    if plan is None:
        plan = build()
        cache[key] = plan
    return plan


# -- pack layer (T members; peers are task-group indices) ---------------------


def pack_fw_plan(layout: DistributedLayout, p: int, data_mode: bool) -> ExchangePlan:
    """Pack Alltoallv of process ``p``: band rows -> group stick block.

    Send side is the ``(T, ngw_of(p))`` contiguous band-row block
    ``prepare`` gathers; row ``t'`` goes whole to member ``t'``.  Receive
    side is the ``(nst_group(r), nr3)`` group stick block, zeroed whole;
    member ``t''``'s coefficients land at its segment of the cached group
    flat index map.
    """
    return _cached(layout, ("pack_fw", p, data_mode), lambda: _build_pack(layout, p, data_mode))


def pack_bw_plan(layout: DistributedLayout, p: int, data_mode: bool) -> ExchangePlan:
    """Unpack Alltoallv: group stick block -> the unit's ``(T, ngw)`` row
    block of the run's global coefficients.  Member ``t'``'s share
    lands in row ``t'`` at ``p``'s own G-vectors — one index array for
    every row, offset ``t' * ngw``."""

    def build() -> ExchangePlan:
        fw = pack_fw_plan(layout, p, data_mode)
        ngw = layout.desc.ngw
        recv = fw.send_blocks
        if data_mode:
            g_idx = layout.local_g_table(p)[0]
            recv = [BlockType.indexed(g_idx, offset=t * ngw) for t in range(layout.T)]
        return ExchangePlan(fw.recv_blocks, recv, (layout.T, ngw), fw.local)

    return _cached(layout, ("pack_bw", p, data_mode), build)


def _build_pack(layout: DistributedLayout, p: int, data_mode: bool) -> ExchangePlan:
    r, t_own = layout.rt_of(p)
    T = layout.T
    ngw_p = layout.ngw_of(p)
    recv_shape = (layout.nst_group(r), layout.desc.nr3)
    if not data_mode:
        send = [BlockType.meta(ngw_p) for _ in range(T)]
        recv = [
            BlockType.meta(layout.ngw_of(layout.proc_of(r, t))) for t in range(T)
        ]
        return ExchangePlan(send, recv, recv_shape, t_own)
    send = [BlockType.strided(t * ngw_p, 1, ngw_p, max(ngw_p, 1)) for t in range(T)]
    offsets = layout.group_coeff_offsets(r)
    flat = layout.group_flat_index(r)
    recv = [
        BlockType.indexed(flat[int(offsets[t]) : int(offsets[t + 1])])
        for t in range(T)
    ]
    # Sphere coefficients cover the sticks sparsely; the z FFT reads them all.
    return ExchangePlan(send, recv, recv_shape, t_own, zero=_whole(recv_shape))


# -- slab scatter layer (R members; peers are scatter ranks) ------------------


def scatter_fw_plan(layout: DistributedLayout, r: int, data_mode: bool) -> ExchangePlan:
    """Forward slab scatter of rank ``r``: stick block -> compact block.

    Sends peer ``j`` the z-range ``z_slice(j)`` of every group stick
    (strided over the ``(nst_group(r), nr3)`` block); receives peer ``j``'s
    sticks, each over this rank's planes, as rows
    ``scatter_stick_offsets()[j:j+2]`` of the ``(nst_all, npp(r))``
    stick-major block: one contiguous run, every slot live, nothing to
    zero.  The real-space section expands the rows into planes at
    :meth:`~repro.grids.descriptor.DistributedLayout.scatter_plane_index`.
    """
    return _cached(
        layout, ("scatter_fw", r, data_mode), lambda: _build_scatter(layout, r, data_mode)
    )


def scatter_bw_plan(layout: DistributedLayout, r: int, data_mode: bool) -> ExchangePlan:
    """Backward slab scatter: compact block -> stick block (full z
    coverage)."""

    def build() -> ExchangePlan:
        fw = scatter_fw_plan(layout, r, data_mode)
        return fw.swapped((layout.nst_group(r), layout.desc.nr3))

    return _cached(layout, ("scatter_bw", r, data_mode), build)


def _build_scatter(layout: DistributedLayout, r: int, data_mode: bool) -> ExchangePlan:
    desc = layout.desc
    R = layout.R
    npp_r = layout.npp(r)
    recv_shape = (desc.sticks.nsticks, npp_r)
    if not data_mode:
        send = [
            BlockType.meta(layout.nst_group(r) * layout.npp(j)) for j in range(R)
        ]
        recv = [
            BlockType.meta(layout.nst_group(j) * npp_r) for j in range(R)
        ]
        return ExchangePlan(send, recv, recv_shape, r)
    send = [
        BlockType.strided(layout.z_offset(j), layout.nst_group(r), layout.npp(j), desc.nr3)
        for j in range(R)
    ]
    # Peer j's sticks are rows offsets[j]:offsets[j+1] of the compact block,
    # each the z-range of this rank's planes: one contiguous run.
    offsets = layout.scatter_stick_offsets()
    recv = [
        BlockType.strided(int(offsets[j]) * npp_r, layout.nst_group(j), npp_r, npp_r)
        for j in range(R)
    ]
    return ExchangePlan(send, recv, recv_shape, r)


# -- pencil transposes (row / column internal) --------------------------------


def pencil_zy_plan(
    layout: DistributedLayout, r: int, data_mode: bool, inverse: bool = False
) -> ExchangePlan:
    """Row-internal transpose of rank ``r = (i, j)``: z-sticks <-> y-brick.

    Forward sends row peer ``(i, j')`` the ``Z_{j'}`` z-range of every
    group stick and receives each peer's sticks at their ``(row, *, iy)``
    positions of the ``ybrick_shape(r)`` y-brick, ``row`` being the stick's
    x row among the brick's.  The y FFT transforms the whole brick, so the
    whole brick is zeroed.  The inverse swaps roles; its strided receive
    covers the stick block's full z extent.
    """

    def build() -> ExchangePlan:
        fw = _cached(
            layout,
            ("pencil_zy", r, data_mode),
            lambda: _build_pencil_zy(layout, r, data_mode),
        )
        if not inverse:
            return fw
        return fw.swapped((layout.nst_group(r), layout.desc.nr3))

    return _cached(layout, ("pencil_zy", r, data_mode, inverse), build)


def pencil_yx_plan(
    layout: DistributedLayout, r: int, data_mode: bool, inverse: bool = False
) -> ExchangePlan:
    """Column-internal transpose of rank ``r = (i, j)``: y-brick <-> x-brick.

    Priced dense, both ways: the blocks are meta blocks of the full
    ``(nx, nz_j, ny)`` volumes, as if every x row travelled.  Live are the
    rows a y-brick holds, the x rows that carry sticks, and they land in
    the compact x-brick ``(ny_i, nz_j, n_live_x)`` whose last axis holds
    only the grid's stick-carrying x columns (``x_runs``, ascending).
    Every slot arrives live, so nothing is zeroed; the real-space section
    expands the columns into dense x lines.  The way back fills the
    y-brick whole.
    """

    def build() -> ExchangePlan:
        fw = _cached(
            layout,
            ("pencil_yx", r, data_mode),
            lambda: _build_pencil_yx(layout, r, data_mode),
        )
        if not inverse:
            return fw
        return fw.swapped(layout.ybrick_shape(r))

    return _cached(layout, ("pencil_yx", r, data_mode, inverse), build)


def _pencil_grid(layout: DistributedLayout):
    grid = layout.pencil
    if grid is None:
        raise ValueError("pencil plans need a pencil-decomposed layout")
    return grid


def _row_of_x(runs, nr1: int) -> np.ndarray:
    """Per grid x of the ``runs``, its row among their x rows (counted in
    ascending x)."""
    live = np.zeros(nr1, dtype=np.int64)
    for lo, hi in runs:
        live[lo:hi] = 1
    return np.cumsum(live) - 1


def _build_pencil_zy(layout: DistributedLayout, r: int, data_mode: bool) -> ExchangePlan:
    grid = _pencil_grid(layout)
    desc = layout.desc
    i, j = grid.coords(r)
    nst_r = layout.nst_group(r)
    nzj = grid.nz(j)
    recv_shape = layout.ybrick_shape(r)
    if not data_mode:
        send = [BlockType.meta(nst_r * grid.nz(jj)) for jj in range(grid.Pc)]
        recv = [
            BlockType.meta(layout.nst_group(grid.rank_of(i, jj)) * nzj)
            for jj in range(grid.Pc)
        ]
        return ExchangePlan(send, recv, recv_shape, j)
    send = [
        BlockType.strided(grid.z_span(jj)[0], nst_r, grid.nz(jj), desc.nr3)
        for jj in range(grid.Pc)
    ]
    row_of_x = _row_of_x(layout.ybrick_x_runs(r), desc.nr1)
    recv = []
    for jj in range(grid.Pc):
        coords = layout.stick_coords(layout.group_sticks(grid.rank_of(i, jj)))
        base = row_of_x[coords[:, 0]] * (nzj * desc.nr2) + coords[:, 1]
        recv.append(BlockType.outer(base, (nzj,), (desc.nr2,)))
    return ExchangePlan(send, recv, recv_shape, j, zero=_whole(recv_shape))


def _build_pencil_yx(layout: DistributedLayout, r: int, data_mode: bool) -> ExchangePlan:
    grid = _pencil_grid(layout)
    desc = layout.desc
    nr2 = desc.nr2
    i, j = grid.coords(r)
    nxi, nzj, nyi = grid.nx(i), grid.nz(j), grid.ny(i)
    col_of_x, n_live = layout.xbrick_columns()
    recv_shape = layout.xbrick_shape(r)
    send = [BlockType.meta(nxi * nzj * grid.ny(ii)) for ii in range(grid.Pr)]
    recv = [BlockType.meta(grid.nx(ii) * nzj * nyi) for ii in range(grid.Pr)]
    if not data_mode:
        return ExchangePlan(send, recv, recv_shape, i)
    # One strided copy per run of stick rows: peer ii's y-range of the run's
    # rows of this y-brick, into the same x rows of this x-brick viewed
    # x-major (peer ii's runs on the receive side), at their compact column.
    runs = layout.ybrick_x_runs(r)
    row_of_x = _row_of_x(runs, desc.nr1)
    send_parts = [
        [
            BlockType.subarray(
                int(row_of_x[lo]) * nzj * nr2 + grid.y_span(ii)[0],
                (hi - lo, nzj, grid.ny(ii)), (nzj * nr2, nr2, 1),
            )
            for lo, hi in runs
        ]
        for ii in range(grid.Pr)
    ]
    recv_parts = [
        [
            BlockType.subarray(
                int(col_of_x[lo]), (hi - lo, nzj, nyi), (1, n_live, nzj * n_live)
            )
            for lo, hi in layout.ybrick_x_runs(grid.rank_of(ii, j))
        ]
        for ii in range(grid.Pr)
    ]
    return ExchangePlan(send, recv, recv_shape, i, send_parts, recv_parts)
