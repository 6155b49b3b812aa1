"""Helpers of the simkit unit tests.

The simulator's own allocators live in :mod:`repro.machine.contention`;
:class:`EqualShareAllocator` is the textbook processor-sharing rule, small
enough that a test's expected finish times can be worked out by hand.
"""

import numpy as np

#: Slack when comparing the equal share against the per-task cap.
_ABS_EPS = 1e-15


class EqualShareAllocator:
    """Classic processor sharing: ``capacity`` split equally, capped per task.

    Parameters
    ----------
    capacity:
        Total work-units per second the resource can sustain.
    per_task_cap:
        Optional ceiling for a single task (e.g. a single link cannot exceed
        its own bandwidth even when alone).
    """

    #: No per-task statics needed.
    static_width = 0

    def __init__(self, capacity: float, per_task_cap: float | None = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if per_task_cap is not None and per_task_cap <= 0:
            raise ValueError(f"per_task_cap must be positive, got {per_task_cap}")
        self.capacity = float(capacity)
        self.per_task_cap = per_task_cap

    def prepare(self, task) -> tuple:
        return ()

    def allocate_batch(self, statics: np.ndarray) -> np.ndarray:
        n = len(statics)
        share = self.capacity / n
        cap = self.per_task_cap
        if cap is not None and share >= cap - _ABS_EPS:
            share = cap
        return np.full(n, share)


def run_value(sim, proc):
    """Run ``sim`` until no event is left and return ``proc``'s value."""
    sim.run()
    return proc.value
