"""``RunResult.potential`` of a generated run is rebuilt, bit for bit.

A result does not hold a potential the run generated: the property
rebuilds it from ``(desc.grid_shape, config.seed)`` on each access.  It
must equal ``make_potential`` of those and the very array the ranks'
views were taken of.  A caller's potential is held and returned by
identity; a meta-mode result has none.  ``RunResult.input_coeffs`` follows
the same rule: the run's one coefficient array ends up holding the output,
so a generated input is rebuilt from ``(desc.ngw, config.n_complex_bands,
config.seed)`` and must equal the array the run drew.
"""

import numpy as np
import pytest

from repro.core import RunConfig, driver, run_fft_phase
from repro.core.wave import make_potential

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8, ranks=2, taskgroups=2)


@pytest.mark.parametrize(
    "decomposition,view", [("slab", "potential_slab"), ("pencil", "potential_block")]
)
def test_generated_potential_is_the_applied_array(monkeypatch, decomposition, view):
    applied = []
    real = getattr(driver, view)

    def spy(layout, r, potential):
        applied.append(potential)
        return real(layout, r, potential)

    monkeypatch.setattr(driver, view, spy)
    config = RunConfig(**SMALL, data_mode=True, decomposition=decomposition, seed=11)
    result = run_fft_phase(config)
    assert applied and all(v is applied[0] for v in applied)
    rebuilt = result.potential
    assert rebuilt.tobytes() == applied[0].tobytes()
    assert rebuilt.tobytes() == make_potential(result.desc.grid_shape, 11).tobytes()
    assert result.caller_potential is None
    assert result.potential is not rebuilt  # rebuilt on access, not held
    assert result.validate() < 1e-12


def test_caller_potential_is_returned_by_identity():
    config = RunConfig(**SMALL, data_mode=True)
    desc = run_fft_phase(config).desc
    v = 2.0 + np.random.default_rng(3).random((desc.nr3, desc.nr1, desc.nr2))
    result = run_fft_phase(config, potential=v)
    assert result.potential is v
    assert result.caller_potential is v
    assert result.validate() < 1e-12


def test_meta_run_has_no_potential():
    assert run_fft_phase(RunConfig(**SMALL)).potential is None


def test_generated_input_is_the_drawn_array(monkeypatch):
    drawn = []
    real = driver.make_band_coefficients

    def spy(*args):
        coeffs = real(*args)
        drawn.append(coeffs.copy())
        return coeffs

    monkeypatch.setattr(driver, "make_band_coefficients", spy)
    result = run_fft_phase(RunConfig(**SMALL, data_mode=True, seed=11))
    assert len(drawn) == 1
    rebuilt = result.input_coeffs
    assert rebuilt.tobytes() == drawn[0].tobytes()
    assert result.caller_input is None
    assert result.input_coeffs is not rebuilt  # rebuilt on access, not held
    assert result.validate() < 1e-12


def test_meta_run_has_no_input():
    assert run_fft_phase(RunConfig(**SMALL)).input_coeffs is None
