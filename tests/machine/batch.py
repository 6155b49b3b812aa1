"""Drive a rate allocator the way :class:`~repro.simkit.fluid.FluidResource` does.

One active set is priced by ``prepare`` (per task) -> ``notify_attach``
(per record) -> one ``allocate_batch`` over the ``(n, static_width)``
record array -> ``notify_detach`` (per record row), so the allocator is
left with no active task.  Calling :func:`batch_rates` repeatedly on one
allocator reuses its memo exactly as successive rebalances do.
"""

import numpy as np

from repro.machine.phases import PhaseProfile
from repro.machine.topology import HwThread
from repro.simkit.fluid import FluidTask
from repro.simkit.simulator import Simulator


def batch_rates(alloc, tasks) -> list[float]:
    """Rates of ``tasks`` as one active set, in order."""
    statics = [alloc.prepare(task) for task in tasks]
    batch = np.asarray(statics, dtype=float).reshape(len(statics), alloc.static_width)
    attach = getattr(alloc, "notify_attach", None)
    detach = getattr(alloc, "notify_detach", None)
    if attach is not None:
        for static in statics:
            attach(static)
    try:
        return alloc.allocate_batch(batch).tolist()
    finally:
        if detach is not None:
            for row in batch:
                detach(row)


def compute_tasks(spec, profiles) -> list[FluidTask]:
    """CPU fluid tasks from ``(profile index, node, core, speed)`` tuples."""
    sim = Simulator()
    return [
        FluidTask(
            sim,
            1.0,
            meta={
                "profile": profiles[p],
                "thread": HwThread(core=core, slot=k % 4, index=k, node=node),
                "speed": speed,
            },
        )
        for k, (p, node, core, speed) in enumerate(spec)
    ]


def transfer_tasks(senders) -> list[FluidTask]:
    """Transport fluid tasks, one per sender key."""
    sim = Simulator()
    return [FluidTask(sim, 1.0, meta={"rank": rank}) for rank in senders]


def profile(ipc0: float, bytes_per_instr: float) -> PhaseProfile:
    return PhaseProfile(f"p{ipc0}-{bytes_per_instr}", ipc0, bytes_per_instr)
