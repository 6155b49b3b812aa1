"""The data plane's one host thread pool and the slicing rule its passes share.

A fanned pass cuts its work into ``k`` disjoint slices — one per CPU this
process may run on (``os.sched_getaffinity``, so ``taskset`` and cgroup
limits count), none holding fewer than the pass's points floor — and runs
slice 0 on the calling thread, the others on a process-wide thread pool
built on the first call that fans (and again in a forked child).  The
passes (the kernel engine's batched FFTs, the exchange moves, VOFR) release
the GIL in numpy, write disjoint slots per slice and compute each slot the
same way whichever slice carries it, so every ``k`` gives the ``k = 1``
result bit for bit.

Only data mode imports this module: a meta-mode run loads no thread
machinery.  Apart from the pool numpy's OpenBLAS starts at import (one
thread per further CPU unless ``OPENBLAS_NUM_THREADS`` says otherwise),
these are the only threads a run starts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

__all__ = ["over_rows", "run", "width"]

#: ``pid -> pool``: the fan-out threads of this process, built on its first
#: fanned call.  Keyed by pid so a forked child, which inherits the parent's
#: pool object but none of its threads, builds its own.
_pools: dict[int, ThreadPoolExecutor] = {}


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _executor() -> ThreadPoolExecutor:
    pid = os.getpid()
    pool = _pools.get(pid)
    if pool is None:
        # ``setdefault`` is atomic: racing first callers share one pool (a
        # losing executor was never submitted to, so it started no thread).
        pool = _pools.setdefault(
            pid, ThreadPoolExecutor(max(1, _cpus() - 1), thread_name_prefix="dataplane-fan")
        )
    return pool


def width(points: int, floor: int) -> int:
    """Slices ``points`` of work are worth: one per CPU, none under
    ``floor`` points (at least one)."""
    return max(1, min(_cpus(), points // floor))


def run(body, slices) -> None:
    """``body(*s)`` for every ``s`` in ``slices``: the first on the calling
    thread, the rest on the pool; returns once every slice is done."""
    if len(slices) == 1:
        body(*slices[0])
        return
    pool = _executor()
    futures = [pool.submit(body, *s) for s in slices[1:]]
    try:
        body(*slices[0])
    finally:
        # Never return (or raise) while a pool thread still writes.
        wait(futures)
    for future in futures:
        future.result()


def _shares(items, k: int, total: int) -> list[list[tuple[int, int, int]]]:
    """The rows of ``items`` (``(rows, points per row)`` pairs), in order,
    cut into at most ``k`` shares of near-equal points: per share, its
    ``(item, lo, hi)`` pieces.  Rows without points go nowhere."""
    shares: list[list[tuple[int, int, int]]] = [[]]
    done = 0
    for i, (rows, per) in enumerate(items):
        lo = 0 if per else rows
        while lo < rows:
            s = len(shares) - 1
            room = total * (s + 1) // k - done
            n = rows - lo if s == k - 1 else min(rows - lo, (room + per // 2) // per)
            if n <= 0:
                shares.append([])
                continue
            shares[-1].append((i, lo, lo + n))
            lo += n
            done += n * per
    return [share for share in shares if share]


def over_rows(body, items, floor: int) -> None:
    """``body(i, lo, hi)`` over rows ``[lo, hi)`` of every item ``i`` —
    ``items`` are ``(rows, points per row)`` pairs — so that the calls
    cover every row with points once, fanned by :func:`width` with the
    pass's points ``floor``."""
    total = sum(rows * per for rows, per in items)
    k = width(total, floor)
    if k == 1:
        for i, (rows, _per) in enumerate(items):
            body(i, 0, rows)
        return

    def share_body(pieces):
        for piece in pieces:
            body(*piece)

    run(share_body, [(share,) for share in _shares(items, k, total)])
