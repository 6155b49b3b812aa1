"""The kernel engine: what the data plane actually calls.

One :class:`KernelEngine` is built per data-mode run; the pipeline's FFT
stages call its :meth:`~KernelEngine.cft_1z` / :meth:`~KernelEngine.cft_2xy`.
The transforms are numpy's bundled pocketfft, in complex128, in Quantum
ESPRESSO's conventions (the same as :func:`repro.fft.batched.cft_1z` /
:func:`~repro.fft.batched.cft_2xy`, the independent reference the engine is
tested against), mapped onto numpy's ``norm="forward"`` mode:

* ``sign=+1`` (G→R, exponent ``+i``, unscaled) is ``np.fft.ifft(..,
  norm="forward")`` — forward-norm puts the ``1/n`` on the *forward*
  transform, leaving the inverse unscaled.
* ``sign=-1`` (R→G, exponent ``-i``, scaled ``1/n``) is ``np.fft.fft(..,
  norm="forward")``.

Every pass writes straight into ``out`` through ``np.fft``'s own ``out=``
(numpy >= 2.0) — ``out`` may be the input itself, which is how the linear
band chain transforms in place — and the 2-D kind runs as two 1-D passes in
``fftn``'s order (last axis first), so a dense call's bits equal ``fftn``'s.

Both kinds take the block's stick *support*, as half-open index runs
(:data:`repro.grids.sticks.Runs`): for ``cft_1z`` the runs of batch rows
that carry data, for ``cft_2xy`` the pair ``(x_runs, y_runs)`` of non-empty
x rows / y columns of a plane (``StickMap.xy_support``).  By passing it the
caller promises that lines outside the support are zero on input when
``sign=+1`` and are never read from the output when ``sign=-1``; only
supported lines are transformed (``sign=+1`` leaves zeros outside them,
``sign=-1`` leaves those output lines unspecified), and a run-restricted
stage is still one engine call.

Call and row counters feed the ``dataplane.*`` telemetry gauges through
:meth:`KernelEngine.stats`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KernelEngine"]

#: Batched array rank per transform kind.
_NDIM = {"c2c_1d": 2, "c2c_2d": 3}


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


def _check(kind, shape, x, sign):
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    if x.shape != shape:
        raise ValueError(f"{kind} executable planned for shape {shape}, got {x.shape}")


def _executable(kind: str, shape: tuple):
    """``exe(x, sign, out=None, support=None)`` for one batched shape."""
    if kind == "c2c_1d":

        def exe(x, sign, out=None, support=None):
            _check(kind, shape, x, sign)
            if support is None:
                return _transform(x, sign, -1, out)
            if out is None:
                out = np.empty(shape, dtype=np.complex128)
            _transform_runs(x, sign, -1, out, support, 0)
            if sign == 1 and out is not x:
                _zero_outside(out, support, 0)
            return out

    else:  # c2c_2d

        def exe(x, sign, out=None, support=None):
            _check(kind, shape, x, sign)
            if support is None:
                out = _transform(x, sign, -1, out)
                return _transform(out, sign, -2, out)
            x_runs, y_runs = support
            if sign == 1:
                # G->R: x rows without sticks are zero and stay zero
                # through the y pass.
                if out is None:
                    out = np.empty(shape, dtype=np.complex128)
                _transform_runs(x, sign, -1, out, x_runs, 1)
                if out is not x:
                    _zero_outside(out, x_runs, 1)
                return _transform(out, sign, -2, out)
            # R->G: only the y columns carrying sticks are read back.
            out = _transform(x, sign, -1, out)
            _transform_runs(out, sign, -2, out, y_runs, 2)
            return out

    return exe


class KernelEngine:
    """One run's batched FFT kernels, with a per-shape executable cache."""

    def __init__(self) -> None:
        self._plans: dict = {}
        self.kernel_calls = 0
        self.kernel_rows = 0

    def plan(self, kind: str, shape):
        """Cached executable ``exe(x, sign, out=None, support=None)`` for a
        batched shape — ``(nbatch, n)`` for ``c2c_1d``, ``(nbatch, nx, ny)``
        for ``c2c_2d`` (also the public API)."""
        key = (kind, tuple(shape))
        exe = self._plans.get(key)
        if exe is None:
            if kind not in _NDIM:
                raise ValueError(f"unknown transform kind {kind!r}; choose from {tuple(_NDIM)}")
            if len(key[1]) != _NDIM[kind] or any(s < 1 for s in key[1]):
                raise ValueError(
                    f"{kind} expects a batched shape of {_NDIM[kind]} positive axes, got {key[1]}"
                )
            exe = self._plans[key] = _executable(*key)
        return exe

    def _run_c2c(self, kind: str, x: np.ndarray, sign: int, out, support):
        self.kernel_calls += 1
        self.kernel_rows += x.shape[0]
        return self.plan(kind, x.shape)(x, sign, out=out, support=support)

    def cft_1z(self, sticks: np.ndarray, sign: int, out=None, support=None) -> np.ndarray:
        """Batched 1D transforms along z: ``(nsticks, nz)``, QE conventions.

        ``support`` is the runs of rows that carry data (``None`` = all).
        """
        sticks = np.asarray(sticks, dtype=np.complex128)
        if sticks.ndim != 2:
            raise ValueError(f"cft_1z expects (nsticks, nz), got shape {sticks.shape}")
        return self._run_c2c("c2c_1d", sticks, sign, out, support)

    def cft_2xy(self, planes: np.ndarray, sign: int, out=None, support=None) -> np.ndarray:
        """Batched 2D transforms: ``(nplanes, nx, ny)``, QE conventions.

        ``support`` is the ``(x_runs, y_runs)`` stick support of a plane
        (``StickMap.xy_support``; ``None`` = dense).
        """
        planes = np.asarray(planes, dtype=np.complex128)
        if planes.ndim != 3:
            raise ValueError(f"cft_2xy expects (nplanes, nx, ny), got shape {planes.shape}")
        return self._run_c2c("c2c_2d", planes, sign, out, support)

    def rfft(self, x: np.ndarray, out=None) -> np.ndarray:
        """Batched real-input forward DFT along the last axis."""
        # No run calls this: ``benchmarks/e2e/ledger.py`` resolves the name
        # from this class and is its only reader.
        x = np.asarray(x)
        self.kernel_calls += 1
        self.kernel_rows += x.shape[0]
        return np.fft.rfft(x, axis=-1, out=out)

    def stats(self) -> dict:
        """Counters merged into the run's ``dataplane`` manifest section."""
        return {"kernel_calls": self.kernel_calls, "kernel_rows": self.kernel_rows}
