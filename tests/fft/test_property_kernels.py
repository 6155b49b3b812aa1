"""Property tests over the kernel-path size sweep: seeded random spectra.

The plan machinery routes a size to one of three kernel paths — pure
mixed-radix Cooley–Tukey chains, chains whose factors are pairwise coprime
(the Good–Thomas-eligible sizes, including the single 7/11 factors QE's
``good_fft_order`` admits), and the Bluestein chirp-z fallback for large
prime factors.  For every path this file checks, on hypothesis-seeded
random spectra:

* round-trip identity ``ifft(fft(x)) == x``,
* agreement with ``numpy.fft`` in both directions,
* for real input, the Hermitian symmetry of the spectrum.

Unlike :mod:`tests.fft.test_transforms` (which sweeps small sizes), the
sweep here deliberately includes primes above 64 and sizes with repeated
prime factors — the corners where a decimation bug or a mis-sized chirp
pad would hide.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft import fft, get_plan, ifft

#: Pure small-radix chains (2/3/5 products: the good-order grid sizes).
MIXED_RADIX_SIZES = [48, 60, 90, 96, 120, 144, 150, 180]

#: Pairwise-coprime factorisations (Good–Thomas-eligible), incl. the QE
#: good-order single factors of 7 and 11.
COPRIME_SIZES = [35, 63, 77, 99, 105, 112, 176]

#: Sizes whose plan bottoms out in the Bluestein chirp-z fallback —
#: primes above the radix table, including primes > 64.
BLUESTEIN_SIZES = [17, 31, 67, 97, 101, 127]

#: Repeated prime factors (prime powers and near-powers).
REPEATED_FACTOR_SIZES = [27, 49, 81, 121, 125, 169, 243]

ALL_SIZES = (
    MIXED_RADIX_SIZES + COPRIME_SIZES + BLUESTEIN_SIZES + REPEATED_FACTOR_SIZES
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def seeded_spectrum(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestPlanPaths:
    """The size classes really exercise the paths they claim to."""

    @pytest.mark.parametrize("n", BLUESTEIN_SIZES)
    def test_bluestein_sizes_use_bluestein(self, n):
        assert get_plan(n, -1).uses_bluestein

    @pytest.mark.parametrize("n", MIXED_RADIX_SIZES + REPEATED_FACTOR_SIZES)
    def test_composite_sizes_avoid_bluestein(self, n):
        assert not get_plan(n, -1).uses_bluestein

    @pytest.mark.parametrize("n", ALL_SIZES)
    def test_plan_decomposition_multiplies_back(self, n):
        plan = get_plan(n, -1)
        product = plan.base_n
        for level in plan.levels:
            product *= level.r
        assert product == n


class TestRoundTrip:
    @pytest.mark.parametrize("n", ALL_SIZES)
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_ifft_inverts_fft(self, n, seed):
        x = seeded_spectrum(seed, n)
        np.testing.assert_allclose(ifft(fft(x)), x, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n", ALL_SIZES)
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_fft_inverts_ifft(self, n, seed):
        x = seeded_spectrum(seed, n)
        np.testing.assert_allclose(fft(ifft(x)), x, rtol=1e-9, atol=1e-9)


class TestAgainstNumpy:
    @pytest.mark.parametrize("n", ALL_SIZES)
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_forward_matches_numpy(self, n, seed):
        x = seeded_spectrum(seed, n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n", ALL_SIZES)
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_inverse_matches_numpy(self, n, seed):
        x = seeded_spectrum(seed, n)
        np.testing.assert_allclose(ifft(x), np.fft.ifft(x), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n", [105, 97, 121])
    @settings(max_examples=5, deadline=None)
    @given(seed=seeds)
    def test_batched_last_axis(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 4, n)) + 1j * rng.standard_normal((3, 4, n))
        np.testing.assert_allclose(
            fft(x), np.fft.fft(x, axis=-1), rtol=1e-9, atol=1e-9
        )


class TestRealHermitian:
    """Real input: Hermitian spectrum, one size per kernel path."""

    EVEN_SIZES = [48, 90, 112, 176, 2 * 67, 2 * 97, 2 * 121]

    @pytest.mark.parametrize("n", EVEN_SIZES)
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_full_spectrum_is_hermitian(self, n, seed):
        x = np.random.default_rng(seed).standard_normal(n)
        spectrum = fft(x)
        k = np.arange(n)
        np.testing.assert_allclose(
            spectrum[(-k) % n], np.conj(spectrum), rtol=1e-9, atol=1e-9
        )
