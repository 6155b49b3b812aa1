"""Redistribution plans: Alltoallw block descriptors per layout.

Every exchange of the step chain is described as per-peer
:class:`~repro.mpisim.datatypes.BlockType` descriptors into the flat source
and destination buffers, so the simulated ``MPI_Alltoallw`` moves each
element exactly once, straight from its source view into its destination
slot — no per-peer slab extraction, no concatenated staging buffer, no
assembly pass on the receive side (the derived-datatype scheme of
Dalcin/Mortensen/Keyes, PAPERS.md).

The simulated collective prices per-peer bytes from the descriptor volumes
(``n_items * 16``), which equal what a packed Alltoall of the same exchange
would carry — so meta-mode descriptors of the same counts reproduce the
data-mode timeline exactly.

Four slab plans (forward/backward of each MPI layer) and two pencil
transposes (plus inverses) cover the data plane:

* ``pack_fw`` / ``pack_bw`` — the task-group pack/unpack Alltoallv
  (T members): contiguous coefficient rows <-> scattered (stick, z) slots
  of the group stick block via the layout's cached flat index maps.
* ``scatter_fw`` / ``scatter_bw`` — the slab scatter (R members): z-ranges
  of stick columns (strided) <-> stick positions inside xy planes, once
  per plane (outer: irregular positions x regular z step).
* ``pencil_zy`` / ``pencil_yx`` and inverses — the two pencil transposes
  (row-internal over Pc ranks, column-internal over Pr ranks): zy is
  strided <-> outer like the scatter, yx is a subarray on both sides; an
  inverse plan is its forward plan with send/recv roles swapped.

Only the pack blocks carry an explicit index array (the layout's cached
flat index map); every other block moves as a strided view or a fancy
index over its stick positions alone.

Plans are built once per (layout, endpoint, mode) and cached on the layout
(like the workspace arenas), so descriptor construction never rides the
steady-state path.
"""

from __future__ import annotations

import threading

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
    is the endpoint itself.  ``recv_shape`` is the receive buffer to
    allocate; ``zero_fill`` says whether its untouched slots are
    semantically zero (sparse stick coverage) or the incoming blocks cover
    it completely.
    """

    __slots__ = ("send_blocks", "recv_blocks", "recv_shape", "zero_fill", "local")

    def __init__(self, send_blocks, recv_blocks, recv_shape, zero_fill, local):
        self.send_blocks = list(send_blocks)
        self.recv_blocks = list(recv_blocks)
        self.recv_shape = tuple(int(n) for n in recv_shape)
        self.zero_fill = bool(zero_fill)
        self.local = int(local)

    def swapped(self, recv_shape, zero_fill) -> "ExchangePlan":
        """The inverse exchange: send what was received, receive what was sent."""
        return ExchangePlan(
            self.recv_blocks, self.send_blocks, recv_shape, zero_fill, self.local
        )

    def sent_bytes(self) -> float:
        """Bytes this endpoint puts on the wire: every send block but its
        own — what the simulated Alltoallw charges it."""
        return sum(
            block.nbytes for j, block in enumerate(self.send_blocks) if j != self.local
        )


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

    Send side is the ``(T, ngw_of(p))`` contiguous band-row block from
    ``prepare``; row ``t'`` goes whole to member ``t'``.  Receive side is
    the zero-filled ``(nst_group(r), nr3)`` group stick block; member
    ``t''``'s coefficients land at its segment of the cached group flat
    index map — the scatter-write ``expand_group_block`` used to stage.
    """
    return _cached(layout, ("pack_fw", p, data_mode), lambda: _build_pack(layout, p, data_mode))


def pack_bw_plan(layout: DistributedLayout, p: int, data_mode: bool) -> ExchangePlan:
    """Unpack Alltoallv: group stick block -> per-band coefficient rows."""

    def build() -> ExchangePlan:
        fw = pack_fw_plan(layout, p, data_mode)
        return fw.swapped((layout.T, layout.ngw_of(p)), zero_fill=False)

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
        return ExchangePlan(send, recv, recv_shape, zero_fill=True, local=t_own)
    send = [BlockType.strided(t * ngw_p, 1, ngw_p, max(ngw_p, 1)) for t in range(T)]
    offsets = layout.group_coeff_offsets(r)
    flat = layout.group_flat_index(r)
    recv = [
        BlockType.indexed(flat[int(offsets[t]) : int(offsets[t + 1])])
        for t in range(T)
    ]
    return ExchangePlan(send, recv, recv_shape, zero_fill=True, local=t_own)


# -- slab scatter layer (R members; peers are scatter ranks) ------------------


def scatter_fw_plan(layout: DistributedLayout, r: int, data_mode: bool) -> ExchangePlan:
    """Forward slab scatter of rank ``r``: stick block -> xy planes.

    Sends peer ``j`` the z-range ``z_slice(j)`` of every group stick
    (strided over the ``(nst_group(r), nr3)`` block); receives peer ``j``'s
    sticks at their (ix, iy) plane positions for every owned plane
    (indexed into the zero-filled ``(npp(r), nr1, nr2)`` planes).
    """
    return _cached(
        layout, ("scatter_fw", r, data_mode), lambda: _build_scatter(layout, r, data_mode)
    )


def scatter_bw_plan(layout: DistributedLayout, r: int, data_mode: bool) -> ExchangePlan:
    """Backward slab scatter: xy planes -> stick block (full z coverage)."""

    def build() -> ExchangePlan:
        fw = scatter_fw_plan(layout, r, data_mode)
        return fw.swapped(
            (layout.nst_group(r), layout.desc.nr3), zero_fill=False
        )

    return _cached(layout, ("scatter_bw", r, data_mode), build)


def _build_scatter(layout: DistributedLayout, r: int, data_mode: bool) -> ExchangePlan:
    desc = layout.desc
    R = layout.R
    npp_r = layout.npp(r)
    recv_shape = (npp_r, desc.nr1, desc.nr2)
    if not data_mode:
        send = [
            BlockType.meta(layout.nst_group(r) * layout.npp(j)) for j in range(R)
        ]
        recv = [
            BlockType.meta(layout.nst_group(j) * npp_r) for j in range(R)
        ]
        return ExchangePlan(send, recv, recv_shape, zero_fill=True, local=r)
    send = [
        BlockType.strided(layout.z_offset(j), layout.nst_group(r), layout.npp(j), desc.nr3)
        for j in range(R)
    ]
    # Peer j's sticks land at their (ix, iy) plane position, once per owned
    # plane: an irregular base (the positions) times a regular z step.
    offsets = layout.scatter_stick_offsets()
    plane_pos = layout.scatter_plane_index()
    recv = [
        BlockType.outer(
            plane_pos[int(offsets[j]) : int(offsets[j + 1])],
            (npp_r,),
            (desc.nr1 * desc.nr2,),
        )
        for j in range(R)
    ]
    return ExchangePlan(send, recv, recv_shape, zero_fill=True, local=r)


# -- pencil transposes (row / column internal) --------------------------------


def pencil_zy_plan(
    layout: DistributedLayout, r: int, data_mode: bool, inverse: bool = False
) -> ExchangePlan:
    """Row-internal transpose of rank ``r = (i, j)``: z-sticks <-> y-brick.

    Forward sends row peer ``(i, j')`` the ``Z_{j'}`` z-range of every
    group stick and receives each peer's sticks at their ``(ix - xlo, *,
    iy)`` positions of the zero-filled ``(nx_i, nz_j, nr2)`` y-brick.
    The inverse swaps roles; its strided receive covers the stick block's
    full z extent, so no zero fill.
    """

    def build() -> ExchangePlan:
        fw = _cached(
            layout,
            ("pencil_zy", r, data_mode),
            lambda: _build_pencil_zy(layout, r, data_mode),
        )
        if not inverse:
            return fw
        return fw.swapped((layout.nst_group(r), layout.desc.nr3), zero_fill=False)

    return _cached(layout, ("pencil_zy", r, data_mode, inverse), build)


def pencil_yx_plan(
    layout: DistributedLayout, r: int, data_mode: bool, inverse: bool = False
) -> ExchangePlan:
    """Column-internal transpose of rank ``r = (i, j)``: y-brick <-> x-brick.

    Both directions are dense (every brick slot carries data), so neither
    receive buffer needs zero fill.
    """

    def build() -> ExchangePlan:
        fw = _cached(
            layout,
            ("pencil_yx", r, data_mode),
            lambda: _build_pencil_yx(layout, r, data_mode),
        )
        if not inverse:
            return fw
        grid = layout.pencil
        assert grid is not None
        i, j = grid.coords(r)
        return fw.swapped((grid.nx(i), grid.nz(j), layout.desc.nr2), zero_fill=False)

    return _cached(layout, ("pencil_yx", r, data_mode, inverse), build)


def _pencil_grid(layout: DistributedLayout):
    grid = layout.pencil
    if grid is None:
        raise ValueError("pencil plans need a pencil-decomposed layout")
    return grid


def _build_pencil_zy(layout: DistributedLayout, r: int, data_mode: bool) -> ExchangePlan:
    grid = _pencil_grid(layout)
    desc = layout.desc
    i, j = grid.coords(r)
    nst_r = layout.nst_group(r)
    nzj = grid.nz(j)
    recv_shape = (grid.nx(i), nzj, desc.nr2)
    if not data_mode:
        send = [BlockType.meta(nst_r * grid.nz(jj)) for jj in range(grid.Pc)]
        recv = [
            BlockType.meta(layout.nst_group(grid.rank_of(i, jj)) * nzj)
            for jj in range(grid.Pc)
        ]
        return ExchangePlan(send, recv, recv_shape, zero_fill=True, local=j)
    send = [
        BlockType.strided(grid.z_span(jj)[0], nst_r, grid.nz(jj), desc.nr3)
        for jj in range(grid.Pc)
    ]
    xlo, _xhi = grid.x_span(i)
    recv = []
    for jj in range(grid.Pc):
        coords = layout.stick_coords(layout.group_sticks(grid.rank_of(i, jj)))
        base = (coords[:, 0] - xlo) * (nzj * desc.nr2) + coords[:, 1]
        recv.append(BlockType.outer(base, (nzj,), (desc.nr2,)))
    return ExchangePlan(send, recv, recv_shape, zero_fill=True, local=j)


def _build_pencil_yx(layout: DistributedLayout, r: int, data_mode: bool) -> ExchangePlan:
    grid = _pencil_grid(layout)
    desc = layout.desc
    i, j = grid.coords(r)
    nxi, nzj, nyi = grid.nx(i), grid.nz(j), grid.ny(i)
    recv_shape = (nyi, nzj, desc.nr1)
    if not data_mode:
        send = [BlockType.meta(nxi * nzj * grid.ny(ii)) for ii in range(grid.Pr)]
        recv = [BlockType.meta(grid.nx(ii) * nzj * nyi) for ii in range(grid.Pr)]
        return ExchangePlan(send, recv, recv_shape, zero_fill=False, local=i)
    # Both sides are (x, z, y) subarrays: peer ii's y-range of this
    # (nxi, nzj, nr2) y-brick, and peer ii's x-range of this (nyi, nzj, nr1)
    # x-brick viewed x-major — the transpose is one strided copy.
    send = [
        BlockType.subarray(
            grid.y_span(ii)[0], (nxi, nzj, grid.ny(ii)), (nzj * desc.nr2, desc.nr2, 1)
        )
        for ii in range(grid.Pr)
    ]
    recv = [
        BlockType.subarray(
            grid.x_span(ii)[0], (grid.nx(ii), nzj, nyi), (1, desc.nr1, nzj * desc.nr1)
        )
        for ii in range(grid.Pr)
    ]
    return ExchangePlan(send, recv, recv_shape, zero_fill=False, local=i)
