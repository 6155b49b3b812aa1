"""A data-mode run holds one copy of its coefficients and of V.

Each rank gathers one unit's G-vectors out of the run's global input rows
and the unpack exchange writes them straight into one global output
array, so a run allocates, beyond its own bookkeeping, only that output
array and the unit in flight.  VOFR reads the potential through views of
the one ``V`` (the slab's planes, the pencil's x-bricks), so no rank copies
it.  The ``tracemalloc`` peak of one warm run (geometry, plans and arenas
built by a first run) is pinned to input + output + potential + a fixed
slack; a returning per-process copy of the coefficients adds a whole input
array on top and fails here, and so does a rearranged copy of V.

The quick grid (the CLI's ``--quick`` workload) with 64 bands, not the
SMALL grid: on SMALL the run's bookkeeping (~160 KiB) is thirty times one
coefficient array (5 KiB), so no fixed slack could tell a copy from noise.
Here one array (1.36 MiB) is larger than the slack, so a copy fails
whatever the bookkeeping weighs; the slack is also below the bookkeeping
plus one potential (335 KiB), so a rearranged copy of V fails the peak
bound too.  Input and potential are copied inside
the traced window, so they count once and their generators' temporaries
do not.

Once the run has returned, its result holds its input and output arrays,
a caller's potential, and its bookkeeping, nothing more: the rank
contexts and their views are gone, and a potential the run generated is
not held (``RunResult.potential`` rebuilds it).  A run leaves no reference
cycles (``tests/core/test_no_garbage.py``), so ``current`` counts what is
held without a collection first.
"""

import tracemalloc

import pytest

from repro.core import RunConfig, run_fft_phase

QUICK = dict(ecutwfc=30.0, alat=10.0, nbnd=64)
#: Bookkeeping of one warm run: simulator, records, kernel engine, fan
#: slices.  Measured at 315-357 KiB (slab) and 332-362 KiB (pencil) on
#: CPython 3.11, so bookkeeping plus one potential (335 KiB) exceeds it.
SLACK = 512 * 1024
#: What a returned result holds beyond its arrays (simulator, records,
#: completed-band sets): measured at ~175 KiB on both decompositions.  One
#: potential (335 KiB here) does not fit.
HELD_SLACK = 256 * 1024


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
    tracemalloc.start()
    try:
        result = run_fft_phase(
            config, input_coeffs=coeffs.copy(), potential=potential.copy()
        )
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.layout.T == 2
    assert peak <= 2 * coeffs.nbytes + potential.nbytes + SLACK
    assert current <= 2 * coeffs.nbytes + potential.nbytes + HELD_SLACK


@pytest.mark.parametrize("decomposition", ["slab", "pencil"])
def test_generated_run_result_holds_no_potential(decomposition):
    config = _config(decomposition)
    coeffs = run_fft_phase(config).input_coeffs
    assert coeffs.nbytes > HELD_SLACK
    tracemalloc.start()
    try:
        result = run_fft_phase(config)
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.caller_potential is None
    assert current <= 2 * coeffs.nbytes + HELD_SLACK
