"""Optional pyFFTW backend (FFTW3 bindings), imported on the first plan.

FFTW is the performance reference of the source paper's era and the
backend the RISC-V FFTW study (PAPERS.md) identifies as the dominant
lever; when ``pyfftw`` is importable this backend plans real FFTW
transforms through the ``pyfftw.interfaces.numpy_fft`` layer with the
plan cache enabled, and passes ``threads=`` for in-library multicore.

When pyfftw is missing (the common case in this container — no new
dependencies are installed) the backend stays registered but reports
unavailable with a reason, the conformance suite skips it visibly, and
selecting it via ``RunConfig.fft_backend`` raises a clean
:class:`~repro.fft.backends.base.BackendUnavailableError`.
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

__all__ = ["PyfftwBackend"]


class PyfftwBackend(LibraryBackend):
    name = "pyfftw"
    library = "pyfftw"
    supports_workers = True

    def _import(self) -> tuple:  # pragma: no cover - needs pyfftw
        import pyfftw
        from pyfftw.interfaces import numpy_fft

        pyfftw.interfaces.cache.enable()
        return numpy_fft, f"pyfftw {pyfftw.__version__} (FFTW3)"

    def _plan_aos(self, spec: PlanSpec):  # pragma: no cover - needs pyfftw
        _wfft = self.load()
        cplx = complex_dtype_of(spec)

        if spec.kind == "rfft":
            rdt = real_dtype_of(spec)

            def exe(x, sign=-1, out=None, workers=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                res = _wfft.rfft(x.astype(rdt, copy=False), axis=-1, threads=workers or 1)
                return deliver(res, out, cplx)

        elif spec.kind == "c2c_1d":

            def exe(x, sign, out=None, workers=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                x = x.astype(cplx, copy=False)
                n = spec.shape[-1]
                if sign == 1:
                    # pyfftw ifft is scaled 1/n; QE's +i transform is unscaled.
                    res = _wfft.ifft(x, axis=-1, threads=workers or 1) * n
                else:
                    res = _wfft.fft(x, axis=-1, threads=workers or 1) / n
                return deliver(res, out, cplx)

        else:  # c2c_2d

            def exe(x, sign, out=None, workers=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                x = x.astype(cplx, copy=False)
                n = spec.shape[-2] * spec.shape[-1]
                if sign == 1:
                    res = _wfft.ifftn(x, axes=(-2, -1), threads=workers or 1) * n
                else:
                    res = _wfft.fftn(x, axes=(-2, -1), threads=workers or 1) / n
                return deliver(res, out, cplx)

        exe.spec = spec
        return exe
