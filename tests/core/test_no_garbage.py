"""A run leaves no garbage: everything it built is freed by reference
counting, with nothing left for the cyclic collector.

The world holds its ranks and communicators, which hold the simulator and
the machine but not the world; a task graph hands ready tasks back to its
runtime instead of holding the runtime's methods; a fluid task's event does
not carry the task.  A fault that ends an attempt leaves blocked work that
refers to its owners, so the driver closes the dead attempt's world.

Each cell warms its config once (geometry, plans and arenas), then runs it
again with the collector off and drops the result: ``gc.collect()`` must
find nothing.  Every version x {slab, pencil} x {meta, data} x telemetry
on/off, on 1 and 2 nodes, and a fault run resumed once.  The quick grid
with 16 bands keeps the 82 cells to seconds: the cycles a run can leave are
per run, per task and per event, so every family shows at any band count
(before the fix this matrix left 512 to 50 282 objects per run at 64 bands).
"""

import gc
import itertools

import pytest

from repro.core import RunConfig, run_fft_phase
from repro.core.config import VERSIONS
from repro.faults import FaultScenario

QUICK = dict(ecutwfc=30.0, alat=10.0, nbnd=16, ranks=4, taskgroups=2)

CELLS = list(
    itertools.product(VERSIONS, ("slab", "pencil"), (False, True), (False, True), (1, 2))
)


def _leftover(config: RunConfig) -> int:
    """Unreachable objects one warm run of ``config`` leaves behind."""
    run_fft_phase(config)
    gc.collect()
    gc.disable()
    try:
        result = run_fft_phase(config)
        del result
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "version,decomposition,data_mode,telemetry,n_nodes",
    CELLS,
    ids=[
        f"{v}-{d}-{'data' if m else 'meta'}-tel{int(t)}-{n}node"
        for v, d, m, t, n in CELLS
    ],
)
def test_warm_run_leaves_no_garbage(version, decomposition, data_mode, telemetry, n_nodes):
    config = RunConfig(
        **QUICK,
        version=version,
        decomposition=decomposition,
        data_mode=data_mode,
        telemetry=telemetry,
        n_nodes=n_nodes,
    )
    assert _leftover(config) == 0


@pytest.mark.parametrize("version", ["original", "ompss_steps"])
def test_resumed_fault_run_leaves_no_garbage(version):
    config = RunConfig(
        **QUICK,
        version=version,
        data_mode=True,
        telemetry=True,
        faults=FaultScenario(kill_transfer=5, max_resumes=1),
    )
    result = run_fft_phase(config)
    assert result.n_attempts == 2 and not result.failed
    del result
    assert _leftover(config) == 0
