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
(numpy >= 2.0) — ``out`` is the input itself (how the linear band chain
transforms in place) or an array disjoint from it, and always a complex128
array of the planned shape — and the 2-D kind runs as two 1-D passes in
``fftn``'s order (last axis first), so a dense call's bits equal ``fftn``'s.

``cft_2xy`` takes a plane's stick *support*: the pair ``(x_runs, y_runs)``
of half-open runs (:data:`repro.grids.sticks.Runs`) of non-empty x rows /
y columns (``StickMap.xy_support``).  Only supported lines are transformed,
and a run-restricted stage is still one engine call.  The dead-line rule: a
line outside the support is *dead* — what it holds means nothing — and the
engine does not read it, with one exception: an in-place ``sign=+1`` call,
whose second pass runs along x through every x row, so there the caller
promises zeros on the dead x rows — the data plane's one caller, the
real-space section (:func:`repro.core.pipeline.real_space`), zeroes each
chunk of planes before it expands the sticks into it, and reads back only
the stick positions, which lie on live lines.  Into a separate ``out``,
``sign=+1`` zeroes the dead x rows and ``sign=-1`` leaves the dead y
columns unspecified.  ``cft_1z`` takes no support: it transforms every row of its
batch (a pencil y-brick holds only stick-carrying rows; an x line is built
whole, zeros and all, by the real-space section).

**Fan-out (the paper's Opt 1 on the host).**  Every call splits batch axis 0
into ``k`` contiguous, near-equal slices — one per CPU (:mod:`repro._fan`,
the data plane's one pool), none holding fewer than :data:`MIN_POINTS`
points — and runs the same pass body on each.  pocketfft releases the GIL;
the transform axis is never axis 0, so the slices are disjoint, and a row's
bits do not depend on the slice that carried it: every ``k`` gives the
``k = 1`` result bit for bit.  numpy's pocketfft plans a length on its
first use, in a cache that takes no lock, so an executable runs unfanned
until one call has used each of its transform lengths on the calling
thread.  Pool threads call only the pass helpers below, never a
:class:`KernelEngine` method.

Call and row counters feed the ``dataplane.*`` telemetry gauges through
:meth:`KernelEngine.stats`; they tick once per engine call, however it fans.
"""

from __future__ import annotations

import math

import numpy as np

from repro import _fan

__all__ = ["KernelEngine"]

#: Batched array rank per transform kind.
_NDIM = {"c2c_1d": 2, "c2c_2d": 3}

#: Fewest transformed points worth a slice of their own.  Handing a slice
#: to a pool thread costs ~50 us on a shared 2-vCPU x86-64 host, what
#: pocketfft spends on ~15 000 points at n = 120: there a (256, 120) stick
#: batch runs slower in two slices (107 -> 146 us), a (640, 120) one faster
#: (275 -> 230 us).
MIN_POINTS = 1 << 15


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


def _pass_2xy(x, sign, out, support, zero):
    """``cft_2xy`` on a batch of planes (or one slice of it)."""
    if support is None:
        _transform(x, sign, -1, out)
        _transform(out, sign, -2, out)
        return
    x_runs, y_runs = support
    if sign == 1:
        # G->R: x rows without sticks are zero and stay zero through the
        # y pass.
        _transform_runs(x, sign, -1, out, x_runs, 1)
        if zero:
            _zero_outside(out, x_runs, 1)
        _transform(out, sign, -2, out)
        return
    # R->G: only the y columns carrying sticks are read back.
    _transform(x, sign, -1, out)
    _transform_runs(out, sign, -2, out, y_runs, 2)


def _fan_batch(body, shape, fan):
    """``body(lo, hi)`` over contiguous, near-equal slices of batch axis 0
    that together cover it, returning once every slice is done; one slice
    unless ``fan``."""
    rows = shape[0]
    k = min(rows, _fan.width(math.prod(shape), MIN_POINTS)) if fan else 1
    cuts = [rows * s // k for s in range(k + 1)]
    _fan.run(body, list(zip(cuts, cuts[1:])))


def _check(kind, shape, x, sign, out, support):
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    if x.shape != shape:
        raise ValueError(f"{kind} executable planned for shape {shape}, got {x.shape}")
    if out is not None and (out.shape != shape or out.dtype != np.complex128):
        raise ValueError(
            f"{kind} out= must be complex128 of shape {shape}, got {out.dtype} {out.shape}"
        )
    if support is not None and kind == "c2c_1d":
        raise ValueError("c2c_1d transforms every row; it takes no support")


def _executable(kind: str, shape: tuple):
    """``exe(x, sign, out=None, support=None)`` for one batched shape
    (``support``: ``c2c_2d`` only)."""
    # pocketfft plans (and caches) a length on its first use, so calls run
    # on the calling thread alone until one has used every transform length.
    planned = False

    def exe(x, sign, out=None, support=None):
        nonlocal planned
        _check(kind, shape, x, sign, out, support)
        zero = sign == 1 and out is not x
        if out is None:
            out = np.empty(shape, dtype=np.complex128)
        if kind == "c2c_1d":
            _fan_batch(lambda lo, hi: _transform(x[lo:hi], sign, -1, out[lo:hi]), shape, planned)
        else:
            _fan_batch(
                lambda lo, hi: _pass_2xy(x[lo:hi], sign, out[lo:hi], support, zero),
                shape, planned,
            )
        # An empty run list transforms, and so plans, nothing on its axis.
        planned = planned or support is None or all(support)
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
        for ``c2c_2d`` (also the public API; ``support`` is ``c2c_2d``'s)."""
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

    def cft_1z(self, sticks: np.ndarray, sign: int, out=None) -> np.ndarray:
        """Batched 1D transforms along z: ``(nsticks, nz)``, QE conventions;
        every row is transformed."""
        sticks = np.asarray(sticks, dtype=np.complex128)
        if sticks.ndim != 2:
            raise ValueError(f"cft_1z expects (nsticks, nz), got shape {sticks.shape}")
        return self._run_c2c("c2c_1d", sticks, sign, out, None)

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
