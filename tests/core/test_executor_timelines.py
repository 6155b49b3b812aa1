"""Cross-commit pin of every executor's simulated timeline and numerics.

``fixtures/executor_timelines.json`` was recorded once, at the commit
*before* the five ``core/exec_*.py`` spellings of the step chain were
collapsed into one stage table under three scheduling policies.  It holds,
for 5 versions x {slab, pencil} x {meta, data} on the ``SMALL`` grid, the
exact ``repr(phase_time)``, ``sim.n_dispatched``,
``repr(cpu.counters.total_instructions())`` and (data mode) the sha256 of
the output coefficients — plus the fault-replay scenario of
``tests/faults/test_task_reexec.py`` on the two staged-task versions.

Any executor refactor must reproduce every cell exactly: same
``rank.compute`` / ``alltoallw`` sequence, same collective keys, same task
names, same bytes out.  The fixture is **not** regenerated to make a
refactor pass; re-record only for a change that is *meant* to move
simulated time, and say so in the PR::

    PYTHONPATH=src python -c \
      "from tests.core.test_executor_timelines import write_fixture; write_fixture()"

CI runs this module under two ``PYTHONHASHSEED`` values: the executors keep
band sets and region dicts, and the pin must not depend on hash order.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.core import RunConfig, run_fft_phase
from repro.core.config import VERSIONS
from repro.faults import FaultScenario

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "executor_timelines.json"

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8, ranks=4, taskgroups=2)

CELLS = [
    (version, decomposition, data_mode)
    for version in VERSIONS
    for decomposition in ("slab", "pencil")
    for data_mode in (False, True)
]
REPLAY_CELLS = [
    (version, decomposition)
    for version in ("ompss_steps", "ompss_combined")
    for decomposition in ("slab", "pencil")
]


def cell_id(version, decomposition, data_mode):
    return f"{version}-{decomposition}-{'data' if data_mode else 'meta'}"


def replay_scenario():
    """Every cell discards and replays some VOFR/FFT task execution."""
    return FaultScenario(task_failure_rate=0.3, task_max_retries=50)


def observe(result):
    """The pinned observables of one run."""
    out = {
        "phase_time": repr(float(result.phase_time)),
        "n_dispatched": result.sim.n_dispatched,
        "total_instructions": repr(float(result.cpu.counters.total_instructions())),
        "output_sha256": None,
    }
    if result.config.data_mode:
        coeffs = np.ascontiguousarray(result.output_coefficients())
        out["output_sha256"] = hashlib.sha256(coeffs.tobytes()).hexdigest()
    return out


def run_cell(version, decomposition, data_mode, faults=None):
    cfg = RunConfig(
        **SMALL, version=version, decomposition=decomposition, data_mode=data_mode
    )
    return run_fft_phase(cfg, faults=faults)


def write_fixture(path=FIXTURE):
    """Record the fixture (see the module docstring before calling this)."""
    cells = {
        cell_id(*cell): observe(run_cell(*cell)) for cell in CELLS
    }
    replay = {
        f"{version}-{decomposition}": observe(
            run_cell(version, decomposition, True, faults=replay_scenario())
        )
        for version, decomposition in REPLAY_CELLS
    }
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        json.dumps({"grid": SMALL, "cells": cells, "fault_replay": replay}, indent=2)
        + "\n"
    )


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(pinned):
    assert pinned["grid"] == SMALL
    assert sorted(pinned["cells"]) == sorted(cell_id(*cell) for cell in CELLS)
    assert sorted(pinned["fault_replay"]) == sorted(
        f"{version}-{decomposition}" for version, decomposition in REPLAY_CELLS
    )


@pytest.mark.parametrize(
    "version,decomposition,data_mode", CELLS, ids=[cell_id(*c) for c in CELLS]
)
def test_timeline_and_output_exact(pinned, version, decomposition, data_mode):
    result = run_cell(version, decomposition, data_mode)
    assert observe(result) == pinned["cells"][cell_id(version, decomposition, data_mode)]
    if data_mode:
        assert result.validate() < 1e-12


@pytest.mark.parametrize("version,decomposition", REPLAY_CELLS)
def test_fault_replay_exact_and_correct(pinned, version, decomposition):
    """Replayed stage tasks are idempotent: the run recovers, matches the
    dense reference, and re-executes on the pinned timeline."""
    result = run_cell(version, decomposition, True, faults=replay_scenario())
    assert not result.failed
    assert result.fault_report["counters"]["task_recovered"] > 10
    assert result.validate() < 1e-12
    assert observe(result) == pinned["fault_replay"][f"{version}-{decomposition}"]
