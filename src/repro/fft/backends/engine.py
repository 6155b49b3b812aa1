"""The kernel engine: what the data plane actually calls.

One :class:`KernelEngine` is built per run from ``RunConfig.fft_backend``
and ``RunConfig.kernel_workers``; the pipeline's FFT steps call its
:meth:`cft_1z` / :meth:`cft_2xy` / :meth:`rfft` instead of importing the
kernels directly.  The engine caches backend executables per
``(kind, shape, dtype, layout)`` — band after band hits a ready plan —
and decides how a call goes multicore:

* ``workers == 1``: plain single-threaded executable (the default; output
  byte-identical to the pre-backend-plane data plane with
  ``fft_backend="native"``, and to plain ``np.fft`` with ``"numpy"``).
* ``workers > 1`` and the backend threads internally (scipy, pyFFTW):
  pass ``workers=`` straight into the executable — zero-copy multicore.
* ``workers > 1`` otherwise (numpy, native): fan row chunks across the
  shared-memory process pool for the c2c kinds.  Sub-batch transforms are
  row-independent for pocketfft, so the result is byte-identical to
  ``workers=1`` (pinned by ``tests/core/test_kernel_workers.py``).

``cft_1z`` / ``cft_2xy`` take the block's stick *support* (see
:mod:`repro.fft.backends.base`) and forward it to backends that honour it,
so a run-restricted stage is still one engine call; ``out`` may alias the
input, which is how the linear band chain transforms in place.

Call and row counters feed the ``dataplane.*`` telemetry gauges through
:meth:`stats`.
"""

from __future__ import annotations

import numpy as np

from repro.fft.backends.base import FftBackend
from repro.fft.backends.registry import DEFAULT_BACKEND, get_backend

__all__ = ["KernelEngine", "default_engine"]

#: Don't fan a batch to processes below this many rows — the pipe/copy
#: overhead swamps the kernel for tiny batches.
_MIN_POOL_ROWS = 2


class KernelEngine:
    """Per-run facade over one backend + one multicore strategy."""

    def __init__(self, backend: str = DEFAULT_BACKEND, workers: int = 1):
        if workers < 1:
            raise ValueError(f"kernel_workers must be >= 1, got {workers}")
        self.backend: FftBackend = get_backend(backend)
        self.workers = int(workers)
        self._plans: dict = {}
        self.kernel_calls = 0
        self.kernel_rows = 0
        self.pool_batches = 0
        self.pool_rows = 0

    # -- planning -----------------------------------------------------------

    def plan(self, kind: str, shape, dtype=np.complex128, layout: str = "aos"):
        """Cached backend executable for the spec (also the public API)."""
        key = (kind, tuple(shape), np.dtype(dtype).name, layout)
        exe = self._plans.get(key)
        if exe is None:
            exe = self.backend.plan(kind, tuple(shape), dtype=dtype, layout=layout)
            self._plans[key] = exe
        return exe

    # -- execution ----------------------------------------------------------

    def _run_c2c(self, kind: str, x: np.ndarray, sign: int, out, support=None):
        self.kernel_calls += 1
        self.kernel_rows += x.shape[0]
        if self.workers > 1:
            if self.backend.supports_workers:
                exe = self.plan(kind, x.shape, dtype=x.dtype)
                return exe(x, sign, out=out, workers=self.workers)
            if x.shape[0] >= _MIN_POOL_ROWS:
                from repro.fft.backends.pool import shared_pool

                pool = shared_pool(self.workers)
                res = pool.run(self.backend.name, kind, x, sign, out=out)
                self.pool_batches += 1
                self.pool_rows += x.shape[0]
                return res
        exe = self.plan(kind, x.shape, dtype=x.dtype)
        if support is not None and self.backend.honours_support:
            return exe(x, sign, out=out, support=support)
        return exe(x, sign, out=out)

    def cft_1z(self, sticks: np.ndarray, sign: int, out=None, support=None) -> np.ndarray:
        """Batched 1D transforms along z: ``(nsticks, nz)``, QE conventions.

        ``support`` is the runs of rows that carry data (``None`` = all).
        """
        sticks = np.asarray(sticks)
        if sticks.ndim != 2:
            raise ValueError(f"cft_1z expects (nsticks, nz), got shape {sticks.shape}")
        if not np.issubdtype(sticks.dtype, np.complexfloating):
            sticks = sticks.astype(np.complex128)
        return self._run_c2c("c2c_1d", sticks, sign, out, support)

    def cft_2xy(self, planes: np.ndarray, sign: int, out=None, support=None) -> np.ndarray:
        """Batched 2D transforms: ``(nplanes, nx, ny)``, QE conventions.

        ``support`` is the ``(x_runs, y_runs)`` stick support of a plane
        (``StickMap.xy_support``; ``None`` = dense).
        """
        planes = np.asarray(planes)
        if planes.ndim != 3:
            raise ValueError(f"cft_2xy expects (nplanes, nx, ny), got shape {planes.shape}")
        if not np.issubdtype(planes.dtype, np.complexfloating):
            planes = planes.astype(np.complex128)
        return self._run_c2c("c2c_2d", planes, sign, out, support)

    def rfft(self, x: np.ndarray, out=None) -> np.ndarray:
        """Batched real-input forward DFT along the last axis."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"rfft expects (nbatch, n), got shape {x.shape}")
        if not np.issubdtype(x.dtype, np.floating):
            x = x.astype(np.float64)
        self.kernel_calls += 1
        self.kernel_rows += x.shape[0]
        exe = self.plan("rfft", x.shape, dtype=x.dtype)
        workers = self.workers if self.backend.supports_workers and self.workers > 1 else None
        return exe(x, -1, out=out, workers=workers)

    # -- telemetry ----------------------------------------------------------

    def stats(self) -> dict:
        """Counters merged into the run's ``dataplane`` manifest section."""
        return {
            "kernel_backend": self.backend.name,
            "kernel_workers": self.workers,
            "kernel_calls": self.kernel_calls,
            "kernel_rows": self.kernel_rows,
            "kernel_pool_batches": self.pool_batches,
            "kernel_pool_rows": self.pool_rows,
        }


_DEFAULT: KernelEngine | None = None


def default_engine() -> KernelEngine:
    """Process-wide single-threaded default-backend engine.

    Used by contexts constructed without an explicit engine (unit tests,
    ad-hoc pipeline steps) so kernel routing never needs a None check.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = KernelEngine(DEFAULT_BACKEND, workers=1)
    return _DEFAULT
