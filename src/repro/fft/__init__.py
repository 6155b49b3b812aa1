"""Batched complex FFTs: the kernel engine and its independent reference.

FFTXlib delegates its 1D/2D transforms to vendor libraries (FFTW, DFTI),
and so does a data-mode run here: :mod:`repro.fft.backends` is numpy's
pocketfft restricted to the stick support.  The rest of this package is
the reproduction's own from-scratch implementation — the *independent
reference* behind ``--validate``, :mod:`repro.qe.dense` and
:mod:`repro.core.observables`, which the engine is checked against:

* :mod:`~repro.fft.goodfft` — QE-style ``good_fft_order``: grid sizes are
  rounded up to products of small radices (2, 3, 5, with at most one factor
  of 7 or 11), exactly as the FFTXlib descriptor machinery does;
* :mod:`~repro.fft.plan` — mixed-radix decimation-in-time plans with cached
  twiddle factors (the analogue of FFTW plans);
* :mod:`~repro.fft.mixed_radix` — the vectorised Cooley–Tukey kernel,
  operating on the last axis of arbitrarily batched arrays;
* :mod:`~repro.fft.bluestein` — chirp-z fallback for sizes with large prime
  factors (completeness; good grids never need it);
* :mod:`~repro.fft.batched` — the FFTXlib-facing API: ``fft`` / ``ifft``
  along any axis, and the ``cft_1z`` / ``cft_2xy`` kernels with Quantum
  ESPRESSO's normalisation convention (backward/G→R unscaled, forward/R→G
  scaled by 1/N).

The reference is validated against ``numpy.fft`` in the test suite,
including hypothesis property tests (linearity, Parseval, round trips), and
calls numpy's FFT nowhere itself.
"""

from repro._lazy import lazy_exports
from repro.fft.goodfft import allowed_fft_order, good_fft_order

# The kernels load on first access: grid sizing (``goodfft``) and the
# kernel engine import this package without ever running a reference kernel.
__getattr__ = lazy_exports(
    __name__,
    {
        "repro.fft.plan": ("Plan", "get_plan"),
        "repro.fft.batched": (
            "cfft3d", "cft_1z", "cft_2xy", "fft", "fft2", "ifft", "ifft2", "fwfft", "invfft",
        ),
    },
)

__all__ = [
    "allowed_fft_order",
    "good_fft_order",
    "Plan",
    "get_plan",
    "fft",
    "ifft",
    "fft2",
    "ifft2",
    "fwfft",
    "invfft",
    "cft_1z",
    "cft_2xy",
    "cfft3d",
]
