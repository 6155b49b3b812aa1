"""Stick maps and their balanced distribution.

A *stick* is an ``(ix, iy)`` column of the FFT grid that contains at least
one sphere point; the 1D z-transforms operate on whole sticks, so sticks are
the distribution unit of the G-space side of the parallel FFT.  A
:class:`StickMap` is built from a per-column point count
(:func:`repro.grids.gvectors.column_counts`), never from the G list: which
stick a given G-vector lies on is a data-plane question, answered by the
descriptor's lazily built ``stick_of_g``.  Because the sphere is round,
sticks near the axis carry many more G-vectors than sticks near the rim —
QE balances *G-vector counts*, not stick counts, with a greedy
longest-first assignment; we reproduce that (it is what gives the paper its
near-perfect load-balance rows in Tables I/II).
"""

from __future__ import annotations

import numpy as np

__all__ = ["StickMap", "distribute_sticks", "index_runs", "clip_runs"]

#: Half-open ``(lo, hi)`` index ranges, ascending and non-adjacent.
Runs = tuple[tuple[int, int], ...]


def index_runs(indices: np.ndarray) -> Runs:
    """The maximal contiguous runs covering a set of integer indices.

    Sorted, not ``np.unique``d: a repeat is a zero step, never a break, and
    plain ``np.unique`` imports ``numpy.ma`` on a cold start.
    """
    values = np.sort(indices, axis=None)
    if not len(values):
        return ()
    breaks = np.flatnonzero(np.diff(values) > 1)
    starts = np.concatenate(([values[0]], values[breaks + 1]))
    stops = np.concatenate((values[breaks], [values[-1]])) + 1
    return tuple((int(lo), int(hi)) for lo, hi in zip(starts, stops))


def clip_runs(runs: Runs, lo: int, hi: int) -> Runs:
    """``runs`` restricted to ``[lo, hi)``."""
    clipped = ((max(a, lo), min(b, hi)) for a, b in runs)
    return tuple((a, b) for a, b in clipped if a < b)


class StickMap:
    """The sticks of a G-sphere on a given grid.

    Attributes
    ----------
    coords:
        ``(nsticks, 2)`` wrapped grid coordinates (ix, iy) of each stick,
        in lexicographic ``(ix, iy)`` order.
    counts:
        ``(nsticks,)`` number of sphere G-vectors on each stick.
    """

    def __init__(self, coords: np.ndarray, counts: np.ndarray):
        self.coords = coords
        self.counts = counts
        #: The stick *support*: runs of x rows / y columns of an xy plane
        #: that carry at least one stick.  Everything outside is zero in G
        #: space, which is what lets the xy stage skip those lines (QE's
        #: empty-line skipping) — the cost models charge exactly these
        #: lines and the host kernels transform exactly these lines.
        self.x_runs: Runs = index_runs(coords[:, 0])
        self.y_runs: Runs = index_runs(coords[:, 1])

    @property
    def nsticks(self) -> int:
        """Number of sticks."""
        return len(self.coords)

    @property
    def xy_support(self) -> tuple[Runs, Runs]:
        """``(x_runs, y_runs)`` — the ``support=`` hint of ``cft_2xy``."""
        return (self.x_runs, self.y_runs)

    @property
    def nonempty_y_lines(self) -> int:
        """y columns carrying sticks — the x-lines ``cft_2xy`` transforms."""
        return sum(hi - lo for lo, hi in self.y_runs)

    @property
    def total_g(self) -> int:
        """Total sphere points across sticks (= the sphere's ngm)."""
        return int(self.counts.sum())

    @classmethod
    def from_column_counts(cls, plane: np.ndarray) -> "StickMap":
        """The stick map of an ``(nr1, nr2)`` per-column point count.

        Every column with a point is a stick; C order over the plane is
        lexicographic ``(ix, iy)`` order.
        """
        columns = np.nonzero(plane)
        return cls(np.column_stack(columns), plane[columns])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StickMap(nsticks={self.nsticks}, total_g={self.total_g})"


def distribute_sticks(counts: np.ndarray, n_procs: int) -> np.ndarray:
    """Greedy balanced assignment of sticks to processes.

    Sticks are assigned heaviest-first to the currently lightest process
    (ties broken by lowest process index, so the result is deterministic).
    Returns ``(nsticks,)`` owner indices.

    This is the classic LPT heuristic QE's ``sticks_base`` uses; with the
    round sphere it yields per-process G counts within a few percent of
    perfect balance, matching the paper's ~97 % load-balance factors.
    """
    if n_procs < 1:
        raise ValueError(f"n_procs must be >= 1, got {n_procs}")
    counts = np.asarray(counts)
    owners = np.empty(len(counts), dtype=np.int64)
    loads = np.zeros(n_procs, dtype=np.int64)
    # Heaviest first; stable tie-break on stick index for determinism.
    order = np.argsort(-counts, kind="stable")
    for stick in order:
        p = int(np.argmin(loads))  # argmin takes the lowest index on ties
        owners[stick] = p
        loads[p] += counts[stick]
    return owners
