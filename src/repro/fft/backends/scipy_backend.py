"""Optional scipy.fft backend (threaded pocketfft).

scipy ships the same pocketfft core as numpy but adds a ``workers=``
argument that splits the batch across threads *inside* the C extension —
the cheapest multicore mode when scipy is importable, because no data
crosses a process boundary.  Batch rows are computed independently, so
``workers=N`` output is byte-identical to single-threaded output (pinned
by ``tests/core/test_kernel_workers.py``).

scipy is imported on the first ``plan()``
(:class:`~repro.fft.backends.base.LibraryBackend`): when it is missing or
broken the backend reports unavailable with the reason and the conformance
suite skips it cleanly.
"""

from __future__ import annotations

import numpy as np

from repro.fft.backends.base import (
    LibraryBackend,
    PlanSpec,
    check_input,
    complex_dtype_of,
    deliver,
    real_dtype_of,
)

__all__ = ["ScipyBackend"]


class ScipyBackend(LibraryBackend):
    name = "scipy"
    library = "scipy"
    supports_workers = True

    def _import(self) -> tuple:
        import scipy
        import scipy.fft

        return scipy.fft, f"scipy {scipy.__version__} (pocketfft, workers=)"

    def _plan_aos(self, spec: PlanSpec):
        _sfft = self.load()
        cplx = complex_dtype_of(spec)

        if spec.kind == "rfft":
            rdt = real_dtype_of(spec)

            def exe(x, sign=-1, out=None, workers=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                res = _sfft.rfft(x.astype(rdt, copy=False), axis=-1, workers=workers)
                return deliver(res, out, cplx)

        elif spec.kind == "c2c_1d":

            def exe(x, sign, out=None, workers=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                x = x.astype(cplx, copy=False)
                if sign == 1:
                    res = _sfft.ifft(x, axis=-1, norm="forward", workers=workers)
                else:
                    res = _sfft.fft(x, axis=-1, norm="forward", workers=workers)
                return deliver(res, out, cplx)

        else:  # c2c_2d

            def exe(x, sign, out=None, workers=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                x = x.astype(cplx, copy=False)
                if sign == 1:
                    res = _sfft.ifftn(x, axes=(-2, -1), norm="forward", workers=workers)
                else:
                    res = _sfft.fftn(x, axes=(-2, -1), norm="forward", workers=workers)
                return deliver(res, out, cplx)

        exe.spec = spec
        return exe
