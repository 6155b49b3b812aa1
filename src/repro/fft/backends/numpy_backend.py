"""The default backend: numpy's bundled pocketfft.

Mapping QE conventions onto numpy's ``norm="forward"`` mode:

* ``sign=+1`` (G→R, exponent ``+i``, unscaled) is ``np.fft.ifft(..,
  norm="forward")`` — forward-norm puts the ``1/n`` on the *forward*
  transform, leaving the inverse unscaled.
* ``sign=-1`` (R→G, exponent ``-i``, scaled ``1/n``) is ``np.fft.fft(..,
  norm="forward")``.

pocketfft preserves ``complex64`` end to end, so the single-precision
conformance lane exercises a genuine single-precision kernel.  numpy has
no ``workers=`` knob — multicore execution for this backend goes through
the shared-memory process pool (``repro.fft.backends.pool``), which is
byte-deterministic because pocketfft computes batch rows independently.

The c2c executables write straight into ``out`` through ``np.fft``'s own
``out=`` (numpy >= 2.0) — ``out`` may be the input itself — and the 2-D
kind runs as two 1-D passes in ``fftn``'s order (last axis first), so the
bits equal ``fftn``'s.  They honour the ``support`` hint (see
:class:`~repro.fft.backends.base.FftBackend`): only lines inside the
stick support are transformed.
"""

from __future__ import annotations

import numpy as np

from repro.fft.backends.base import (
    FftBackend,
    PlanSpec,
    check_input,
    complex_dtype_of,
    deliver,
    real_dtype_of,
)

__all__ = ["NumpyBackend"]


def _transform(x, sign, axis, out):
    fn = np.fft.ifft if sign == 1 else np.fft.fft
    return fn(x, axis=axis, norm="forward", out=out)


def _zero_outside(out, runs, axis):
    """Zero ``out`` along ``axis`` everywhere outside the ``runs``."""
    index = [slice(None)] * out.ndim
    edge = 0
    for lo, hi in (*runs, (out.shape[axis], out.shape[axis])):
        if lo > edge:
            index[axis] = slice(edge, lo)
            out[tuple(index)] = 0
        edge = hi


def _transform_runs(x, sign, axis, out, runs, run_axis):
    """One 1-D pass over the ``runs`` of ``run_axis`` only; rows outside
    them are left as they are in ``out``."""
    index = [slice(None)] * x.ndim
    for lo, hi in runs:
        index[run_axis] = slice(lo, hi)
        window = tuple(index)
        _transform(x[window], sign, axis, out[window])


class NumpyBackend(FftBackend):
    name = "numpy"
    supports_workers = False
    honours_support = True

    def availability(self) -> tuple[bool, str]:
        return True, f"numpy {np.__version__} (pocketfft)"

    def _plan_aos(self, spec: PlanSpec):
        cplx = complex_dtype_of(spec)

        if spec.kind == "rfft":
            rdt = real_dtype_of(spec)

            def exe(x, sign=-1, out=None, workers=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                res = np.fft.rfft(x.astype(rdt, copy=False), axis=-1)
                return deliver(res, out, cplx)

        elif spec.kind == "c2c_1d":

            def exe(x, sign, out=None, workers=None, support=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                x = x.astype(cplx, copy=False)
                if support is None:
                    return _transform(x, sign, -1, out)
                if out is None:
                    out = np.empty(spec.shape, dtype=cplx)
                _transform_runs(x, sign, -1, out, support, 0)
                if sign == 1 and out is not x:
                    _zero_outside(out, support, 0)
                return out

        else:  # c2c_2d

            def exe(x, sign, out=None, workers=None, support=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                x = x.astype(cplx, copy=False)
                if support is None:
                    out = _transform(x, sign, -1, out)
                    return _transform(out, sign, -2, out)
                x_runs, y_runs = support
                if sign == 1:
                    # G->R: x rows without sticks are zero and stay zero
                    # through the y pass.
                    if out is None:
                        out = np.empty(spec.shape, dtype=cplx)
                    _transform_runs(x, sign, -1, out, x_runs, 1)
                    if out is not x:
                        _zero_outside(out, x_runs, 1)
                    return _transform(out, sign, -2, out)
                # R->G: only the y columns carrying sticks are read back.
                out = _transform(x, sign, -1, out)
                _transform_runs(out, sign, -2, out, y_runs, 2)
                return out

        exe.spec = spec
        return exe
