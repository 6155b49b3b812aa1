"""The data generators write in place, bit for bit the plain expressions.

``make_band_coefficients`` draws both halves through one float scratch
into one preallocated complex array, and ``make_potential`` scales its
draw in place.  Each must equal, byte for byte, the expression it
replaced — ``(re + 1j * im) / np.sqrt(2.0)`` and ``1.0 + 0.5 * draw`` —
because seeded inputs are what every output pin and reference digest
rests on.
"""

import numpy as np
import pytest

from repro.core.wave import make_band_coefficients, make_potential
from repro.simkit.rng import substream

SEEDS = (0, 7, 11, 2017)


def plain_coefficients(ngw, n_complex_bands, seed):
    rng = substream(seed)
    re = rng.standard_normal((n_complex_bands, ngw))
    im = rng.standard_normal((n_complex_bands, ngw))
    return (re + 1j * im) / np.sqrt(2.0)


def plain_potential(grid_shape, seed):
    nr1, nr2, nr3 = grid_shape
    rng = substream(seed + 1)
    return 1.0 + 0.5 * rng.random((nr3, nr1, nr2))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ngw,n_complex_bands", [(1, 1), (7, 1), (1, 4), (333, 17), (1001, 3)])
def test_band_coefficients_equal_the_plain_expression(seed, ngw, n_complex_bands):
    coeffs = make_band_coefficients(ngw, n_complex_bands, seed)
    expected = plain_coefficients(ngw, n_complex_bands, seed)
    assert coeffs.dtype == np.complex128 and coeffs.flags.c_contiguous
    assert coeffs.shape == expected.shape
    assert coeffs.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("grid_shape", [(1, 1, 1), (5, 7, 3), (24, 24, 24)])
def test_potential_equals_the_plain_expression(seed, grid_shape):
    v = make_potential(grid_shape, seed)
    expected = plain_potential(grid_shape, seed)
    assert v.dtype == np.float64 and v.shape == expected.shape
    assert v.tobytes() == expected.tobytes()
