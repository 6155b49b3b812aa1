"""From-scratch batched complex FFTs (the ``fft_scalar`` substrate).

FFTXlib delegates its 1D/2D transforms to vendor libraries (FFTW, DFTI);
this package is the reproduction's own implementation, so that the compute
substrate of the pipeline is real code rather than a stub:

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

Everything is validated against ``numpy.fft`` in the test suite, including
hypothesis property tests (linearity, Parseval, round trips); numpy's FFT is
used nowhere in the library itself.
"""

from repro._lazy import lazy_exports
from repro.fft.goodfft import allowed_fft_order, good_fft_order

# The kernels load on first access: grid sizing (``goodfft``) and the
# backend plane import this package without ever running a native kernel.
__getattr__ = lazy_exports(
    __name__,
    {
        "repro.fft.plan": ("Plan", "get_plan"),
        "repro.fft.batched": (
            "cfft3d", "cft_1z", "cft_2xy", "fft", "fft2", "ifft", "ifft2", "fwfft", "invfft",
        ),
        "repro.fft.realfft": ("irfft", "rfft"),
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
    "rfft",
    "irfft",
]
