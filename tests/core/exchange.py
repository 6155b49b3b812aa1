"""Test-side stand-in for the simulated ``MPI_Alltoallw`` payload movement.

Lets numerics-only tests drive the shipping ``ExchangePlan``s of
:mod:`repro.core.redistribute` by hand — no simulator, no cost model.
"""

import numpy as np


def alltoallw(plans, sendbufs):
    """Exchange among the members whose plans are ``plans`` (communicator
    order): member ``src``'s block toward ``dst`` lands in the slots ``dst``
    reserved for ``src``.  Returns each member's receive buffer
    (zero-initialised, so sparsely covered buffers read zero elsewhere)."""
    recvbufs = [np.zeros(plan.recv_shape, dtype=np.complex128) for plan in plans]
    for src, (plan, sendbuf) in enumerate(zip(plans, sendbufs)):
        flat = np.ascontiguousarray(sendbuf).reshape(-1)
        for dst, recvbuf in enumerate(recvbufs):
            items = plan.send_blocks[dst].take(flat)
            plans[dst].recv_blocks[src].put(recvbuf.reshape(-1), items)
    return recvbufs
