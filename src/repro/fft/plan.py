"""FFT plans: a size's decimation-in-time decomposition, with cached twiddles.

A :class:`Plan` for size ``n`` is a chain of Cooley–Tukey levels
``n = r0 * (r1 * (... * base))`` where every ``r`` is a small radix and the
base case is a direct small-DFT matrix multiply (or a Bluestein fallback for
large prime factors).  Plans are immutable and cached per ``(n, sign)``, the
moral equivalent of FFTW's plan cache that ``fft_scalar`` keeps per grid
dimension.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict

import numpy as np

from repro import telemetry as _telemetry
from repro.fft.goodfft import factorize
from repro.fft.twiddle import dft_matrix, twiddle_block

__all__ = ["Plan", "PlanLevel", "get_plan", "plan_cache_stats", "clear_plan_cache"]

#: Radix preference for each decomposition level (8/4 amortise Python-level
#: overhead; larger first keeps the recursion shallow).
_RADICES = (8, 4, 2, 3, 5, 7, 11, 13)

#: Largest size handled by a direct DFT-matrix base case.
_DIRECT_MAX = 16


@dataclasses.dataclass(frozen=True)
class PlanLevel:
    """One Cooley–Tukey level: split ``n`` into radix ``r`` times ``m``."""

    n: int
    r: int
    m: int
    twiddles: np.ndarray  # (r, m) read-only
    radix_dft: np.ndarray  # (r, r) read-only
    #: Precomputed ``np.einsum_path`` for the level's combine contraction —
    #: computed once at plan build, so the kernel skips the per-call
    #: ``optimize=True`` path search.  The same optimized-path machinery
    #: executes the contraction, so results are bit-identical.
    contract_path: list = dataclasses.field(default_factory=list)


class Plan:
    """Decomposition of a 1D complex FFT of size ``n`` with direction ``sign``.

    Attributes
    ----------
    n:
        Transform size.
    sign:
        Exponent sign: ``-1`` (the conventional forward direction) or ``+1``.
    levels:
        Cooley–Tukey levels from the outermost split inwards.
    base_n:
        Size of the innermost sub-transform.
    base_matrix:
        Direct DFT matrix of ``base_n`` if small enough, else ``None``
        (Bluestein handles it).
    flops:
        Nominal real-operation count ``5 n log2 n`` — the standard FFT cost
        accounting the performance model uses for instruction budgets.
    """

    def __init__(self, n: int, sign: int):
        if n < 1:
            raise ValueError(f"Plan needs n >= 1, got {n}")
        if sign not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {sign}")
        self.n = n
        self.sign = sign
        self.levels: list[PlanLevel] = []
        m = n
        while m > _DIRECT_MAX:
            r = self._pick_radix(m)
            if r is None:
                break  # prime (or stubborn) remainder: Bluestein base case
            sub = m // r
            radix_dft = dft_matrix(r, sign)
            # The contraction path is shape-class independent for a
            # two-operand einsum; a 1-batch probe operand stands in for any
            # batch at execution time.
            path = np.einsum_path(
                "ks,...sm->...km",
                radix_dft,
                np.empty((1, r, sub), dtype=np.complex128),
                optimize=True,
            )[0]
            self.levels.append(
                PlanLevel(
                    n=m,
                    r=r,
                    m=sub,
                    twiddles=twiddle_block(m, r, sub, sign),
                    radix_dft=radix_dft,
                    contract_path=path,
                )
            )
            m = sub
        self.base_n = m
        self.base_matrix = dft_matrix(m, sign) if m <= _DIRECT_MAX else None

    @staticmethod
    def _pick_radix(m: int) -> int | None:
        for r in _RADICES:
            if m % r == 0 and m // r >= 1:
                return r
        # Any remaining factor is a prime > 13.
        return None

    @property
    def uses_bluestein(self) -> bool:
        """Whether the innermost sub-transform needs the chirp-z fallback."""
        return self.base_matrix is None

    @property
    def flops(self) -> float:
        """Nominal ``5 n log2 n`` real operations of one transform."""
        return 5.0 * self.n * np.log2(max(self.n, 2))

    def describe(self) -> str:
        """Human-readable decomposition, e.g. ``'60 = 4 x 3 x 5'``."""
        radices = [lvl.r for lvl in self.levels]
        tail = str(self.base_n) if self.base_n > 1 or not radices else None
        parts = [str(r) for r in radices] + ([tail] if tail else [])
        return f"{self.n} = {' x '.join(parts) if parts else '1'}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Plan {self.describe()} sign={self.sign:+d}>"


# Explicit LRU plan cache.  functools.lru_cache is itself thread-safe, but
# the telemetry accounting around it (cache_info deltas) raced under the
# sweep thread executor, and an unbounded survey of exotic sizes could pin
# arbitrary twiddle memory.  One lock covers lookup, construction, insertion
# and eviction: concurrent callers of the same size always receive the same
# Plan object.
_PLAN_CACHE_MAX = 512
_plan_lock = threading.Lock()
_plan_cache: "OrderedDict[tuple[int, int], Plan]" = OrderedDict()
_plan_hits = 0
_plan_misses = 0
_plan_evictions = 0


def get_plan(n: int, sign: int) -> Plan:
    """Cached plan lookup (the public entry point) — thread-safe, bounded.

    Hit/miss counts feed the ``fft.plan_cache_hits`` / ``fft.plan_cache_misses``
    telemetry metrics — the simulated analogue of FFTW wisdom reuse, and the
    witness that a run amortises planning across its 64 band FFTs; evictions
    of the LRU bound land on ``fft.plan_cache_evictions``.
    """
    global _plan_hits, _plan_misses, _plan_evictions
    key = (n, sign)
    evicted = False
    with _plan_lock:
        plan = _plan_cache.get(key)
        hit = plan is not None
        if hit:
            _plan_cache.move_to_end(key)
            _plan_hits += 1
        else:
            # Built inside the lock so two threads racing on a new size both
            # receive the same Plan object (identity matters to plan tests).
            plan = Plan(n, sign)
            _plan_cache[key] = plan
            _plan_misses += 1
            if len(_plan_cache) > _PLAN_CACHE_MAX:
                _plan_cache.popitem(last=False)
                _plan_evictions += 1
                evicted = True
    tel = _telemetry.current()
    if tel.enabled:
        tel.metrics.count("fft.plan_cache_hits" if hit else "fft.plan_cache_misses")
        if evicted:
            tel.metrics.count("fft.plan_cache_evictions")
    return plan


def plan_cache_stats() -> dict:
    """Cache counters (hits, misses, evictions, size, maxsize)."""
    with _plan_lock:
        return {
            "hits": _plan_hits,
            "misses": _plan_misses,
            "evictions": _plan_evictions,
            "size": len(_plan_cache),
            "maxsize": _PLAN_CACHE_MAX,
        }


def clear_plan_cache() -> None:
    """Drop all cached plans and reset counters (test isolation hook)."""
    global _plan_hits, _plan_misses, _plan_evictions
    with _plan_lock:
        _plan_cache.clear()
        _plan_hits = 0
        _plan_misses = 0
        _plan_evictions = 0

