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

Both kinds take the block's stick *support*, as half-open index runs
(:data:`repro.grids.sticks.Runs`): for ``cft_1z`` the runs of batch rows
that carry data, for ``cft_2xy`` the pair ``(x_runs, y_runs)`` of non-empty
x rows / y columns of a plane (``StickMap.xy_support``).  Only supported
lines are transformed, and a run-restricted stage is still one engine call.
The dead-line rule: a line outside the support is *dead* — what it holds
means nothing — and the engine neither reads it nor makes it live, with one
exception.  ``cft_1z`` leaves dead rows as they are when transforming in
place and zeroes them in a separate ``out`` on a ``sign=+1`` call;
``sign=-1`` leaves dead output lines unspecified.  The exception is an
in-place ``sign=+1`` ``cft_2xy``, whose second pass runs along x through
every x row: there the caller promises zeros on the x rows outside the
support.

**Fan-out (the paper's Opt 1 on the host).**  Every call splits batch axis 0
into ``k`` contiguous slices — one per CPU (:mod:`repro._fan`, the data
plane's one pool), none holding fewer than :data:`MIN_POINTS` transformed
points — and runs the same pass body on each.  pocketfft releases the GIL;
the transform axis is never axis 0, so the slices are disjoint, and a row's
bits do not depend on the slice that carried it: every ``k`` gives the
``k = 1`` result bit for bit.
``cft_1z``'s row runs are clipped to each slice, with the cuts placed so
each slice gets an equal share of the *supported* rows.  numpy's pocketfft
plans a length on its first use, in a cache that takes no lock, so an
executable runs unfanned until one call has used each of its transform
lengths on the calling thread.  Pool threads call only the pass helpers
below, never a :class:`KernelEngine` method.

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


def _pass_1z(x, sign, out, runs, zero):
    """``cft_1z`` on a batch (or one slice of it); ``zero`` clears the
    rows outside ``runs`` after a G->R pass into a separate ``out``."""
    if runs is None:
        _transform(x, sign, -1, out)
        return
    _transform_runs(x, sign, -1, out, runs, 0)
    if zero:
        _zero_outside(out, runs, 0)


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


def _clip(runs, lo, hi):
    """``runs`` restricted to rows ``[lo, hi)``, relative to ``lo``."""
    return tuple((max(a, lo) - lo, min(b, hi) - lo) for a, b in runs if a < hi and b > lo)


def _cuts(rows, runs, k):
    """``k + 1`` ascending row cuts giving each slice an equal share (to a
    row) of the rows in ``runs``; ``k`` is at most that many rows."""
    total = sum(hi - lo for lo, hi in runs)
    cuts, done = [0], 0
    for lo, hi in runs:
        while len(cuts) < k and total * len(cuts) // k < done + hi - lo:
            cuts.append(lo + total * len(cuts) // k - done)
        done += hi - lo
    return cuts + [rows]


def _fan_batch(body, shape, runs, fan):
    """``body(lo, hi)`` over contiguous slices of batch axis 0 that together
    cover it, returning once every slice is done; one slice unless ``fan``.
    ``runs`` (``None``: every row) are the rows that carry work."""
    if runs is None:
        runs = ((0, shape[0]),)
    rows = sum(hi - lo for lo, hi in runs)
    k = min(rows, _fan.width(rows * math.prod(shape[1:]), MIN_POINTS)) if fan else 1
    cuts = _cuts(shape[0], runs, k) if k > 1 else (0, shape[0])
    _fan.run(body, list(zip(cuts, cuts[1:])))


def _check(kind, shape, x, sign, out):
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    if x.shape != shape:
        raise ValueError(f"{kind} executable planned for shape {shape}, got {x.shape}")
    if out is not None and (out.shape != shape or out.dtype != np.complex128):
        raise ValueError(
            f"{kind} out= must be complex128 of shape {shape}, got {out.dtype} {out.shape}"
        )


def _executable(kind: str, shape: tuple):
    """``exe(x, sign, out=None, support=None)`` for one batched shape."""
    # pocketfft plans (and caches) a length on its first use, so calls run
    # on the calling thread alone until one has used every transform length.
    planned = False

    def exe(x, sign, out=None, support=None):
        nonlocal planned
        _check(kind, shape, x, sign, out)
        zero = sign == 1 and out is not x
        if out is None:
            out = np.empty(shape, dtype=np.complex128)
        if kind == "c2c_1d":

            def body(lo, hi):
                runs = None if support is None else _clip(support, lo, hi)
                _pass_1z(x[lo:hi], sign, out[lo:hi], runs, zero)

            _fan_batch(body, shape, support, planned)
            restricted = (support,)
        else:
            _fan_batch(
                lambda lo, hi: _pass_2xy(x[lo:hi], sign, out[lo:hi], support, zero),
                shape, None, planned,
            )
            restricted = support
        # An empty run list transforms, and so plans, nothing on its axis.
        planned = planned or support is None or all(restricted)
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
