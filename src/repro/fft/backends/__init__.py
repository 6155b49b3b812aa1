"""The kernel plane: one engine, numpy's pocketfft over the stick support.

:class:`~repro.fft.backends.engine.KernelEngine` is the only provider — the
per-run object the pipeline's FFT stages call.  It is held numerically
equal to the repo's own mixed-radix kernels (:mod:`repro.fft.batched`, the
independent reference) by ``tests/fft/test_backend_conformance.py``.
"""

from repro.fft.backends.engine import KernelEngine

__all__ = ["KernelEngine"]
