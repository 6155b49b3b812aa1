"""Hypothesis property tests of the kernel engine.

:mod:`tests.fft.test_property_kernels` pins these DFT identities for the
pure-python reference kernels; this file runs them through
:class:`~repro.fft.backends.KernelEngine`, so a convention mapping that is
subtly wrong (a missing ``1/N``, a conjugated exponent) fails on
mathematics, not just on the differential diff:

* **linearity** — ``F(a·x + b·y) == a·F(x) + b·F(y)``;
* **Parseval** — for the unscaled ``sign=+1`` transform,
  ``‖F(x)‖² == N·‖x‖²``;
* **inverse round-trip** — ``sign=-1`` then ``sign=+1`` is the identity
  (the QE scaling puts ``1/N`` on the R→G direction, so the pair composes
  to 1 with no extra factor).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft.backends import KernelEngine

#: (nbatch, n) grid for the 1D properties; n is a QE-admissible 2/3/5 size.
N_BATCH = 4
SIZES = (12, 20, 24, 36)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.sampled_from(SIZES)


def _batch(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((N_BATCH, n)) + 1j * rng.standard_normal((N_BATCH, n))


class TestEngineProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, n=sizes)
    def test_linearity(self, seed, n):
        cft = KernelEngine().cft_1z
        x = _batch(seed, n)
        y = _batch(seed + 1, n)
        a, b = 1.25, -0.5 + 2.0j
        combined = cft(a * x + b * y, 1)
        separate = a * cft(x, 1) + b * cft(y, 1)
        np.testing.assert_allclose(combined, separate, rtol=1e-10, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, n=sizes)
    def test_parseval_unscaled_forward(self, seed, n):
        x = _batch(seed, n)
        spectrum = KernelEngine().cft_1z(x, 1)
        energy_x = np.sum(np.abs(x) ** 2, axis=-1)
        energy_f = np.sum(np.abs(spectrum) ** 2, axis=-1)
        np.testing.assert_allclose(energy_f, n * energy_x, rtol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, n=sizes)
    def test_roundtrip_is_identity(self, seed, n):
        cft = KernelEngine().cft_1z
        x = _batch(seed, n)
        np.testing.assert_allclose(cft(cft(x, -1), 1), x, rtol=1e-10, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, n=sizes)
    def test_roundtrip_2d_is_identity(self, seed, n):
        cft = KernelEngine().cft_2xy
        rng = np.random.default_rng(seed)
        shape = (3, n, 10)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        np.testing.assert_allclose(cft(cft(x, -1), 1), x, rtol=1e-10, atol=1e-12)
