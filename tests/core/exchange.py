"""Test-side stand-in for the simulated ``MPI_Alltoallw`` payload movement.

Lets numerics-only tests drive the shipping ``ExchangePlan``s of
:mod:`repro.core.redistribute` by hand — no simulator, no cost model.
"""

import numpy as np

from repro.core import redistribute as redist


def exchanges(layout, data_mode=True):
    """Every exchange of ``layout``'s chain, one communicator at a time:
    ``(kind, members, forward plans, backward plans)``, with the members
    (processes for ``pack``, scatter ranks otherwise) and their plans in
    communicator order.  A forward member sends a buffer of its backward
    plan's ``recv_shape`` and vice versa, except that the pack's forward
    send is the ``(T, ngw_of(p))`` block ``prepare`` gathers, while its
    backward receive is the unit's ``(T, ngw)`` rows of the global output."""
    grid = layout.pencil
    if layout.T > 1:
        for r in range(layout.R):
            members = [layout.proc_of(r, t) for t in range(layout.T)]
            yield (
                "pack", members,
                [redist.pack_fw_plan(layout, p, data_mode) for p in members],
                [redist.pack_bw_plan(layout, p, data_mode) for p in members],
            )
    if grid is None:
        members = list(range(layout.R))
        yield (
            "scatter", members,
            [redist.scatter_fw_plan(layout, r, data_mode) for r in members],
            [redist.scatter_bw_plan(layout, r, data_mode) for r in members],
        )
        return
    for kind, groups, build in (
        ("pencil_zy", [grid.row_ranks(i) for i in range(grid.Pr)], redist.pencil_zy_plan),
        ("pencil_yx", [grid.col_ranks(j) for j in range(grid.Pc)], redist.pencil_yx_plan),
    ):
        for members in groups:
            yield (
                kind, members,
                [build(layout, r, data_mode) for r in members],
                [build(layout, r, data_mode, inverse=True) for r in members],
            )


def alltoallw(plans, sendbufs):
    """Exchange among the members whose plans are ``plans`` (communicator
    order) the way the pipeline does: each receive buffer starts as NaN
    (an uninitialised arena block), gets its plan's zero regions cleared,
    and then member ``src``'s live parts toward ``dst`` land in the parts
    ``dst`` reserved for ``src``.  Returns each member's receive buffer;
    slots no stage reads stay NaN."""
    recvbufs = [np.full(plan.recv_shape, np.nan, dtype=np.complex128) for plan in plans]
    for plan, recvbuf in zip(plans, recvbufs):
        for region in plan.zero:
            region.zero(recvbuf.reshape(-1))
    for src, (plan, sendbuf) in enumerate(zip(plans, sendbufs)):
        flat = np.ascontiguousarray(sendbuf).reshape(-1)
        for dst, recvbuf in enumerate(recvbufs):
            for sp, rp in zip(plan.send_parts[dst], plans[dst].recv_parts[src]):
                rp.put(recvbuf.reshape(-1), sp.take(flat))
    return recvbufs
