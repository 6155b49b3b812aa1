"""No stage ever reads a receive-buffer slot that nothing wrote.

Arena checkouts are uninitialised by contract
(:class:`~repro.core.workspace.Workspace`): an exchange's receive buffer
holds whatever the pool last kept in it, until the plan's moves and its
zero regions overwrite what a later stage reads.  Here every checkout is
poisoned with NaN before the run sees it, so a slot that is read without
being written — a y-brick row that no stick lands in, a scratch chunk of
the real-space section left unzeroed that the dense x FFT sums over —
turns the output into NaN.  The poisoned run must reproduce the clean
run's output bytes exactly, across every version, both decompositions,
one and two nodes, and the staged-task versions under task replay.
"""

import hashlib

import numpy as np
import pytest

from repro.core import RunConfig, run_fft_phase
from repro.core.config import VERSIONS
from repro.core.workspace import Workspace
from repro.faults import FaultScenario

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8, ranks=4, taskgroups=2)

CELLS = [
    (version, decomposition, n_nodes)
    for version in VERSIONS
    for decomposition in ("slab", "pencil")
    for n_nodes in (1, 2)
]
REPLAY_CELLS = [
    (version, decomposition)
    for version in ("ompss_steps", "ompss_combined")
    for decomposition in ("slab", "pencil")
]


def _sha(result) -> str:
    coeffs = np.ascontiguousarray(result.output_coefficients())
    return hashlib.sha256(coeffs.tobytes()).hexdigest()


def _run(poisoned: bool, faults=None, **kw):
    """The run's output digest, with every arena checkout NaN-filled when
    ``poisoned``."""
    if not poisoned:
        return _sha(run_fft_phase(RunConfig(**SMALL, data_mode=True, **kw), faults=faults))
    real = Workspace.acquire

    def acquire(self, kind, shape, dtype=np.complex128):
        buf = real(self, kind, shape, dtype)
        buf.fill(complex(np.nan, np.nan))
        return buf

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Workspace, "acquire", acquire)
        result = run_fft_phase(RunConfig(**SMALL, data_mode=True, **kw), faults=faults)
    assert np.isfinite(result.output_coefficients()).all()
    return _sha(result)


@pytest.mark.parametrize(
    "version,decomposition,n_nodes", CELLS,
    ids=[f"{v}-{d}-{n}node" for v, d, n in CELLS],
)
def test_poisoned_arena_changes_no_output_bit(version, decomposition, n_nodes):
    kw = dict(version=version, decomposition=decomposition, n_nodes=n_nodes)
    assert _run(True, **kw) == _run(False, **kw)


@pytest.mark.parametrize("version,decomposition", REPLAY_CELLS)
def test_poisoned_arena_under_task_replay(version, decomposition):
    """Replayed stage tasks re-read their inputs; none of those reads may
    reach an unwritten slot either."""
    kw = dict(version=version, decomposition=decomposition)
    scenario = FaultScenario(task_failure_rate=0.3, task_max_retries=50)
    assert _run(True, faults=scenario, **kw) == _run(False, faults=scenario, **kw)
