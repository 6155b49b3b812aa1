"""The real-space section, a chunk at a time, against the dense sequence.

:func:`repro.core.pipeline.real_space` runs G->R FFT, VOFR and R->G FFT on
a compact block (the slab's ``(nst_all, npp)`` sticks over the rank's
planes, the pencil's x-brick of stick-carrying x columns), building dense
planes or x lines a chunk at a time in a scratch.  Its output must be,
bit for bit, what the unfused sequence gives on the dense block — the
kernel engine's ``cft_2xy`` (``cft_1z``) forward, ``apply_potential``, then
backward, with the stick slots read back — whatever the chunk: one plane
(line), a number that does not divide the rank's planes (lines), or all of
them.  A staged run that replays failed tasks must reproduce a clean run's
output bytes.
"""

import hashlib

import numpy as np
import pytest

from repro.core import RunConfig, run_fft_phase
from repro.core.pipeline import real_space
from repro.core.vofr import apply_potential
from repro.core.wave import make_potential, potential_block, potential_slab
from repro.faults import FaultScenario
from repro.fft.backends.engine import KernelEngine
from repro.grids import Cell, DistributedLayout, FftDescriptor

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8, ranks=4, taskgroups=2)


@pytest.fixture(scope="module")
def desc():
    return FftDescriptor(Cell(alat=5.0), ecutwfc=12.0)


def _compact_and_v(layout, r):
    """A random compact block of rank ``r`` and its potential view."""
    desc = layout.desc
    rng = np.random.default_rng(11 + r)
    potential = make_potential(desc.grid_shape, seed=3)
    if layout.pencil is None:
        shape = (desc.sticks.nsticks, layout.npp(r))
        v = potential_slab(layout, r, potential)
    else:
        shape = layout.xbrick_shape(r)
        v = potential_block(layout, r, potential)
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return block, v


def _dense_sequence(layout, v, block):
    """The unfused sequence on the dense block: expand, forward FFT, VOFR,
    backward FFT, read the stick slots back."""
    desc = layout.desc
    engine = KernelEngine()
    if layout.pencil is None:
        pos = layout.scatter_plane_index()
        flat = np.zeros((block.shape[1], desc.nr1 * desc.nr2), dtype=np.complex128)
        flat[:, pos] = block.T
        planes = flat.reshape(-1, desc.nr1, desc.nr2)
        support = desc.sticks.xy_support
        engine.cft_2xy(planes, +1, out=planes, support=support)
        apply_potential(planes, v)
        engine.cft_2xy(planes, -1, out=planes, support=support)
        return flat[:, pos].T.copy()
    cols = np.concatenate([np.arange(lo, hi) for lo, hi in desc.sticks.x_runs])
    brick = np.zeros((*block.shape[:2], desc.nr1), dtype=np.complex128)
    brick[:, :, cols] = block
    rows = brick.reshape(-1, desc.nr1)
    engine.cft_1z(rows, +1, out=rows)
    apply_potential(brick, v)
    engine.cft_1z(rows, -1, out=rows)
    return brick[:, :, cols]


def _row_items(layout):
    """Items of one chunk row: a dense plane (slab) or x line (pencil)."""
    desc = layout.desc
    return desc.nr1 if layout.pencil is not None else desc.nr1 * desc.nr2


def _chunks(layout, r):
    """Rows per chunk to try: one, a non-divisor of the rank's rows, all."""
    if layout.pencil is None:
        total = layout.npp(r)
    else:
        ny, nz, _nr1 = layout.pencil.x_brick_shape(r)
        total = ny * nz
    odd = next(k for k in range(2, total) if total % k)
    return (1, odd, total)


CASES = [("slab", 2, r) for r in range(2)] + [("pencil", 4, r) for r in range(4)]


@pytest.mark.parametrize(
    "decomposition,R,r", CASES, ids=[f"{d}-r{r}" for d, _R, r in CASES]
)
@pytest.mark.parametrize("in_place", [True, False], ids=["in_place", "fresh"])
def test_section_equals_the_dense_sequence_at_every_chunk(desc, decomposition, R, r, in_place):
    layout = DistributedLayout(desc, R, 2, decomposition)
    block, v = _compact_and_v(layout, r)
    want = _dense_sequence(layout, v, block)
    chunks = _chunks(layout, r)
    for rows in chunks:
        work = block.copy()
        out = work if in_place else np.empty_like(work)
        # Uninitialised scratch: every slot a chunk reads is zeroed or written.
        scratch = np.full(rows * _row_items(layout), np.nan, dtype=np.complex128)
        engine = KernelEngine()
        real_space(engine, layout, v, work, out, scratch)
        assert out.tobytes() == want.tobytes(), rows
        if not in_place:
            assert work.tobytes() == block.tobytes()
        # Every plane (line) transformed once each way, in one call per
        # chunk and direction.
        assert engine.kernel_rows == 2 * chunks[-1]
        assert engine.kernel_calls >= 2 * -(-chunks[-1] // rows)


def _sha(result) -> str:
    coeffs = np.ascontiguousarray(result.output_coefficients())
    return hashlib.sha256(coeffs.tobytes()).hexdigest()


@pytest.mark.parametrize(
    "decomposition,entry", [("slab", "fft_xy_fw[0]:"), ("pencil", "fft_x_fw[0]:")]
)
def test_replayed_section_tasks_change_no_output_bit(decomposition, entry):
    """Under ``ompss_steps`` the section runs out of place in its entry
    stage's first chunk task; a discarded execution replays from the
    untouched compact block into a fresh one."""
    config = RunConfig(
        **SMALL, data_mode=True, version="ompss_steps", decomposition=decomposition
    )
    clean = run_fft_phase(config)
    faulty = run_fft_phase(
        config, faults=FaultScenario(seed=2, task_failure_rate=0.4, task_max_retries=50)
    )
    report = faulty.fault_report
    replayed = [
        e for e in report["events"]
        if e["kind"] == "task_failure" and e["task"].startswith(entry)
    ]
    assert replayed and not faulty.failed
    assert _sha(faulty) == _sha(clean)
