"""A data-mode run holds one copy of its coefficients and of V.

A run's coefficients live in one global array: each rank gathers one
unit's G-vectors out of its rows and the unpack exchange writes the results
back over them, so a run allocates, beyond its own bookkeeping, only that
array and the unit in flight.  A generated input is drawn straight into
it; a caller's input is copied into it once and never written.  VOFR reads
the potential through views of the one ``V`` (the slab's planes, the
pencil's x-bricks), so no rank copies it.  The ``tracemalloc`` peak of one
warm run (geometry, plans and arenas built by a first run) is pinned to
that one array plus a fixed slack (plus, for generated data, the
generators' arrays); a second coefficient array, a returning
per-process copy of the coefficients, or a rearranged copy of V fails here.

The quick grid (the CLI's ``--quick`` workload) with 64 bands, not the
SMALL grid: on SMALL the run's bookkeeping (~160 KiB) is thirty times one
coefficient array (5 KiB), so no fixed slack could tell a copy from noise.
Here one array (1.36 MiB) is larger than the slack, so a copy fails
whatever the bookkeeping weighs; the slack is also below the bookkeeping
plus one potential (335 KiB), so a rearranged copy of V fails the peak
bound too.  A caller's input and potential are made before the traced
window, so what the window counts is the run's own.

Once the run has returned, its result holds its one array, a caller's
input and potential, and its bookkeeping, nothing more: the rank contexts
and their views are gone, and an input or potential the run generated is
not held (``RunResult.input_coeffs`` and ``RunResult.potential`` rebuild
them).  A run leaves no reference cycles (``tests/core/test_no_garbage.py``),
so ``current`` counts what is held without a collection first.

A resumed attempt reads its input from the same array, so it first puts
the input back into the rows of every unit the dead attempt left unfinished:
a process may already have unpacked its columns of such a unit.  The
killed runs below die just after that happened.
"""

import hashlib
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from repro.core import RunConfig, run_fft_phase
from repro.faults import FaultScenario

QUICK = dict(ecutwfc=30.0, alat=10.0, nbnd=64)
#: Bookkeeping of one warm run: simulator, records, kernel engine, fan
#: slices.  Measured at 315-357 KiB (slab) and 332-362 KiB (pencil) on
#: CPython 3.11, so bookkeeping plus one potential (335 KiB) exceeds it.
SLACK = 512 * 1024
#: What a returned result holds beyond its arrays (simulator, records,
#: completed-band sets): measured at ~175 KiB on both decompositions.  One
#: potential (335 KiB here) does not fit.
HELD_SLACK = 256 * 1024

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)
PINS_PATH = pathlib.Path(__file__).parent / "fixtures/output_pins.json"
#: case -> (decomposition, taskgroups, version, kill_transfer): on the SMALL
#: grid with 4 ranks, the transfer whose kill ends the first attempt after
#: some process's unpack of a unit past the checkpoint has landed.
LANDED_KILLS = {
    "slab_t1": ("slab", 1, "ompss_steps", 25),
    "slab_t2": ("slab", 2, "original", 25),
    "pencil_t1": ("pencil", 1, "original", 16),
    "pencil_t2": ("pencil", 2, "original", 37),
}


def _config(decomposition):
    return RunConfig(
        **QUICK, ranks=4, taskgroups=2, data_mode=True, decomposition=decomposition
    )


@pytest.mark.parametrize("decomposition", ["slab", "pencil"])
def test_warm_run_allocates_one_output_array(decomposition):
    config = _config(decomposition)
    warm = run_fft_phase(config)
    coeffs, potential = warm.input_coeffs, warm.potential
    assert coeffs.nbytes > SLACK
    del warm
    caller = coeffs.copy()
    tracemalloc.start()
    try:
        result = run_fft_phase(config, input_coeffs=caller, potential=potential)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.layout.T == 2
    assert peak <= coeffs.nbytes + SLACK
    assert current <= coeffs.nbytes + HELD_SLACK
    assert result.input_coeffs is caller
    assert caller.tobytes() == coeffs.tobytes()


@pytest.mark.parametrize("decomposition", ["slab", "pencil"])
def test_generated_run_result_holds_no_potential(decomposition):
    """A generated run holds one coefficient array.  Its peak adds the
    generators' arrays: the coefficients' float scratch (half an array)
    and the potential."""
    config = _config(decomposition)
    warm = run_fft_phase(config)
    coeffs, potential = warm.input_coeffs, warm.potential
    assert coeffs.nbytes > HELD_SLACK
    del warm
    tracemalloc.start()
    try:
        result = run_fft_phase(config)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.caller_input is None
    assert result.caller_potential is None
    assert peak <= coeffs.nbytes + coeffs.nbytes // 2 + potential.nbytes + SLACK
    assert current <= coeffs.nbytes + HELD_SLACK


@pytest.mark.parametrize("case", sorted(LANDED_KILLS))
def test_resume_restores_the_rows_of_unfinished_units(case):
    decomposition, taskgroups, version, kill = LANDED_KILLS[case]
    config = RunConfig(
        **SMALL, ranks=4, taskgroups=taskgroups, version=version,
        data_mode=True, decomposition=decomposition,
    )
    dead = run_fft_phase(config, faults=FaultScenario(kill_transfer=kill, max_resumes=0))
    assert dead.failed
    first = dead.fault_report["attempts"][0]["completed_units"] * dead.layout.T
    assert first < config.n_complex_bands
    assert np.any(dead.output_coeffs[first:] != dead.input_coeffs[first:])

    resumed = run_fft_phase(config, faults=FaultScenario(kill_transfer=kill, max_resumes=1))
    assert resumed.n_attempts == 2
    pin = json.loads(PINS_PATH.read_text())[f"{decomposition}_original_t{taskgroups}"]
    digest = hashlib.sha256(resumed.output_coefficients().tobytes()).hexdigest()
    assert digest == pin["output_sha256"]
