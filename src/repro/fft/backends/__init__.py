"""Pluggable FFT backend plane (PR 8).

Public surface:

* :class:`~repro.fft.backends.base.FftBackend` / ``plan(kind, shape,
  dtype, layout)`` — the backend interface (``c2c_1d``/``c2c_2d``/``rfft``
  × AoS/SoA × complex64/complex128, QE sign/scaling conventions).
* :func:`~repro.fft.backends.registry.get_backend` /
  ``available_backends`` / ``backend_info`` — discovery (numpy default,
  scipy/pyFFTW probed by ``find_spec`` and imported on first plan, native
  mixed-radix).
* :class:`~repro.fft.backends.engine.KernelEngine` — the per-run facade
  the executors call, with plan caching and multicore fan-out.
* :class:`~repro.fft.backends.pool.KernelPool` — shared-memory process
  pool behind ``kernel_workers>1`` for backends without internal threads
  (``multiprocessing``/``mmap``: loaded on first access).

Every backend is held numerically equivalent to the pocketfft reference by
``tests/fft/test_backend_conformance.py``.
"""

from repro.fft.backends.base import (
    CONFORMANCE_ATOL,
    CONFORMANCE_RTOL,
    KINDS,
    LAYOUTS,
    BackendUnavailableError,
    FftBackend,
    PlanSpec,
)
from repro._lazy import lazy_exports
from repro.fft.backends.engine import KernelEngine, default_engine
from repro.fft.backends.registry import (
    DEFAULT_BACKEND,
    available_backends,
    backend_info,
    get_backend,
    known_backends,
)
from repro.fft.backends.soa import from_soa, to_soa

__getattr__ = lazy_exports(
    __name__, {"repro.fft.backends.pool": ("KernelPool", "KernelPoolError", "shared_pool")}
)

__all__ = [
    "KINDS",
    "LAYOUTS",
    "CONFORMANCE_RTOL",
    "CONFORMANCE_ATOL",
    "BackendUnavailableError",
    "FftBackend",
    "PlanSpec",
    "KernelEngine",
    "default_engine",
    "KernelPool",
    "KernelPoolError",
    "shared_pool",
    "DEFAULT_BACKEND",
    "available_backends",
    "backend_info",
    "get_backend",
    "known_backends",
    "to_soa",
    "from_soa",
]
