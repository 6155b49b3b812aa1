"""G-sphere generation and FFT-grid sizing.

The wave function is expanded on Miller-index vectors with
``|bg @ m|^2 <= gkcut`` (a sphere of radius ``sqrt(gkcut)`` in tpiba units);
the FFT grid must hold the *density* sphere (``dual * ecutwfc``, dual = 4 by
default), so each dimension is at least ``2*sqrt(gcut)*|at_i| + 1`` rounded
up to a good FFT order — the standard QE formulas.

One enumeration walks the sphere's Miller box one x plane at a time and
decides membership with the exact ``Cell.g_norm2(m) <= gcut + 1e-12`` test.
It serves two consumers: :func:`build_sphere` keeps every member (the G
list the data plane reads), and :func:`column_counts` keeps only the number
of members on each ``(ix, iy)`` column — the stick map, which is all the
parallel layout needs (QE's ``sticks_map_set`` counts the same way).

Ordering matters for reproducibility: G-vectors are sorted by ``|G|^2`` with
a deterministic Miller-index tie-break, mirroring QE's canonical ``gvect``
ordering (tests rely on the layout being identical across runs and across
process counts).
"""

from __future__ import annotations

import numpy as np

from repro.fft.goodfft import good_fft_order
from repro.grids.lattice import Cell, finite_positive

__all__ = ["GSphere", "build_sphere", "column_counts", "grid_dimensions"]


def grid_dimensions(cell: Cell, gcut: float) -> tuple[int, int, int]:
    """Good FFT orders covering the sphere of squared radius ``gcut``.

    ``gcut`` is in tpiba^2 units (use the *density* cutoff here).
    """
    radius = np.sqrt(finite_positive("gcut", gcut))
    dims = []
    for i in range(3):
        extent = np.linalg.norm(cell.at[:, i])
        n_min = 2 * int(radius * extent) + 1
        dims.append(good_fft_order(n_min))
    return tuple(dims)  # type: ignore[return-value]


def _check_extent(lo: np.ndarray, hi: np.ndarray, dims: tuple[int, int, int]) -> None:
    """Raise unless Miller indices in ``[lo, hi]`` wrap onto ``dims`` without
    aliasing."""
    nr = np.asarray(dims)
    if np.any(hi > (nr - 1) // 2) or np.any(lo < -(nr // 2)):
        raise ValueError(f"grid {dims} too small for sphere extent [{lo}, {hi}]")


class GSphere:
    """The set of Miller indices inside a cutoff sphere, canonically ordered.

    Attributes
    ----------
    millers:
        ``(ngm, 3)`` integer array, sorted by ``|G|^2`` (tie-break on index).
    g2:
        ``(ngm,)`` squared norms in tpiba^2 units.
    gcut:
        The cutoff used to build the sphere.
    """

    def __init__(self, millers: np.ndarray, g2: np.ndarray, gcut: float):
        self.millers = millers
        self.g2 = g2
        self.gcut = gcut

    @property
    def ngm(self) -> int:
        """Number of G-vectors in the sphere."""
        return len(self.millers)

    def grid_indices(self, dims: tuple[int, int, int]) -> np.ndarray:
        """Wrap Miller indices onto the periodic FFT grid ``dims``.

        Returns ``(ngm, 3)`` non-negative grid coordinates; raises if the
        grid is too small to represent the sphere without aliasing.
        """
        nr = np.asarray(dims)
        m = self.millers
        _check_extent(m.min(axis=0), m.max(axis=0), dims)
        # In range by the check above, so wrapping is one conditional add.
        return np.where(m < 0, m + nr, m)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GSphere(ngm={self.ngm}, gcut={self.gcut:g})"


def _sphere_planes(cell: Cell, gcut: float):
    """The sphere's members, one x plane of the Miller box at a time.

    Yields ``(millers, g2)`` for every plane ``m_0 = -b_0 .. b_0``: the
    plane's points with ``|bg @ m|^2 <= gcut``, in lexicographic Miller
    order, so the planes concatenated are the lexicographic sphere.  Only
    one plane's candidates are alive at a time.
    """
    radius = np.sqrt(finite_positive("gcut", gcut))
    # Conservative per-axis bound: |m_i| <= radius * |at_i| (exact for
    # orthogonal cells; for general cells at is the right metric because
    # m_i = a_i . G / tpiba and |a_i . G| <= |a_i| |G|).
    bounds = [int(np.ceil(radius * np.linalg.norm(cell.at[:, i]))) for i in range(3)]
    # |G|^2 over a plane, one Cartesian component at a time: G is linear in
    # m, so each component is a sum of three per-axis terms and broadcasts.
    # Roughly half the box lies outside the sphere; only points inside a
    # slightly widened sphere go on to the exact ``g_norm2``, so the kept
    # set and its g2 values are those a full-box evaluation gives.
    mi, mj, mk = (np.arange(-b, b + 1, dtype=float) for b in bounds)
    widened = gcut + 1e-9 * (1.0 + gcut)
    for x, m0 in enumerate(mi):
        estimate = 0.0
        for b0, b1, b2 in cell.bg:
            g = m0 * b0 + mj[:, None] * b1 + mk[None, :] * b2
            estimate = estimate + g * g
        j, k = np.nonzero(estimate <= widened)
        millers = np.column_stack((np.full_like(j, x - bounds[0]), j - bounds[1], k - bounds[2]))
        g2 = cell.g_norm2(millers)
        keep = g2 <= gcut + 1e-12
        yield millers[keep], g2[keep]


def build_sphere(cell: Cell, gcut: float) -> GSphere:
    """All Miller indices with ``|bg @ m|^2 <= gcut``, canonically ordered."""
    planes = list(_sphere_planes(cell, gcut))
    millers = np.concatenate([m for m, _g2 in planes])
    g2 = np.concatenate([g2 for _m, g2 in planes])
    # Canonical order: by |G|^2, then lexicographic Miller tie-break.  The
    # planes are in lexicographic Miller order, so one stable sort on |G|^2
    # is that order.
    order = np.argsort(np.round(g2, 10), kind="stable")
    return GSphere(millers[order], g2[order], gcut)


def column_counts(cell: Cell, gcut: float, dims: tuple[int, int, int]) -> np.ndarray:
    """``(nr1, nr2)`` sphere points on each wrapped ``(ix, iy)`` column.

    The stick map without the sphere: the same plane walk as
    :func:`build_sphere`, each plane reduced to its per-``m_1`` counts as
    it goes, so no G-level array outlives its plane.  Raises like
    :meth:`GSphere.grid_indices` when ``dims`` cannot hold the sphere.
    """
    nr1, nr2, _nr3 = dims
    plane = np.zeros((nr1, nr2), dtype=np.int64)
    lo = hi = (0, 0, 0)  # G = 0 is always a member
    for millers, _g2 in _sphere_planes(cell, gcut):
        if not len(millers):
            continue
        m0 = int(millers[0, 0])
        m1, m2 = millers[:, 1], millers[:, 2]
        first = int(m1[0])  # the plane's rows ascend in m_1
        lo = (min(lo[0], m0), min(lo[1], first), min(lo[2], int(m2.min())))
        hi = (max(hi[0], m0), max(hi[1], int(m1[-1])), max(hi[2], int(m2.max())))
        counts = np.bincount(m1 - first)
        present = np.flatnonzero(counts)
        plane[m0 % nr1, (present + first) % nr2] = counts[present]
    # Checked after the walk, like grid_indices over the whole sphere: an
    # aliased write above only happens on a grid this rejects.
    _check_extent(np.array(lo), np.array(hi), dims)
    return plane
