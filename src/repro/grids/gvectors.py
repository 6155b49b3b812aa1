"""G-sphere generation and FFT-grid sizing.

The wave function is expanded on Miller-index vectors with
``|bg @ m|^2 <= gkcut`` (a sphere of radius ``sqrt(gkcut)`` in tpiba units);
the FFT grid must hold the *density* sphere (``dual * ecutwfc``, dual = 4 by
default), so each dimension is at least ``2*sqrt(gcut)*|at_i| + 1`` rounded
up to a good FFT order — the standard QE formulas.

Ordering matters for reproducibility: G-vectors are sorted by ``|G|^2`` with
a deterministic Miller-index tie-break, mirroring QE's canonical ``gvect``
ordering (tests rely on the layout being identical across runs and across
process counts).
"""

from __future__ import annotations

import numpy as np

from repro.fft.goodfft import good_fft_order
from repro.grids.lattice import Cell

__all__ = ["GSphere", "build_sphere", "grid_dimensions"]


def grid_dimensions(cell: Cell, gcut: float) -> tuple[int, int, int]:
    """Good FFT orders covering the sphere of squared radius ``gcut``.

    ``gcut`` is in tpiba^2 units (use the *density* cutoff here).
    """
    if gcut <= 0:
        raise ValueError(f"gcut must be positive, got {gcut}")
    radius = np.sqrt(gcut)
    dims = []
    for i in range(3):
        extent = np.linalg.norm(cell.at[:, i])
        n_min = 2 * int(radius * extent) + 1
        dims.append(good_fft_order(n_min))
    return tuple(dims)  # type: ignore[return-value]


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

    def minus_index(self) -> np.ndarray:
        """Index of ``-G`` for every sphere member (the Gamma-trick table).

        ``millers[minus_index()[i]] == -millers[i]``.  The sphere is
        inversion symmetric by construction, so the mapping is a
        permutation (an involution fixing only G = 0).
        """
        lookup = {tuple(m): i for i, m in enumerate(self.millers)}
        out = np.empty(self.ngm, dtype=np.int64)
        for i, m in enumerate(self.millers):
            try:
                out[i] = lookup[(-m[0], -m[1], -m[2])]
            except KeyError:  # pragma: no cover - sphere symmetry guarantee
                raise RuntimeError(f"sphere is not inversion symmetric at G={m}") from None
        return out

    def grid_indices(self, dims: tuple[int, int, int]) -> np.ndarray:
        """Wrap Miller indices onto the periodic FFT grid ``dims``.

        Returns ``(ngm, 3)`` non-negative grid coordinates; raises if the
        grid is too small to represent the sphere without aliasing.
        """
        nr = np.asarray(dims)
        m = self.millers
        half = (nr - 1) // 2
        if np.any(m.max(axis=0) > half) or np.any(m.min(axis=0) < -(nr // 2)):
            raise ValueError(
                f"grid {dims} too small for sphere extent "
                f"[{m.min(axis=0)}, {m.max(axis=0)}]"
            )
        # In range by the check above, so wrapping is one conditional add.
        return np.where(m < 0, m + nr, m)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GSphere(ngm={self.ngm}, gcut={self.gcut:g})"


def build_sphere(cell: Cell, gcut: float) -> GSphere:
    """All Miller indices with ``|bg @ m|^2 <= gcut``, canonically ordered."""
    if gcut <= 0:
        raise ValueError(f"gcut must be positive, got {gcut}")
    radius = np.sqrt(gcut)
    # Conservative per-axis bound: |m_i| <= radius * |at_i| (exact for
    # orthogonal cells; for general cells at is the right metric because
    # m_i = a_i . G / tpiba and |a_i . G| <= |a_i| |G|).
    bounds = [int(np.ceil(radius * np.linalg.norm(cell.at[:, i]))) for i in range(3)]
    # |G|^2 over the bounding box, one Cartesian component at a time: G is
    # linear in m, so each component is a sum of three per-axis terms and
    # broadcasts.  Roughly half the box lies outside the sphere; only points
    # inside a slightly widened sphere go on to the exact ``g_norm2``, so
    # the kept set, its g2 values and their order are those a full-box
    # evaluation gives.
    mi, mj, mk = (np.arange(-b, b + 1, dtype=float) for b in bounds)
    estimate = 0.0
    for b0, b1, b2 in cell.bg:
        g = mi[:, None, None] * b0 + mj[None, :, None] * b1 + mk[None, None, :] * b2
        estimate = estimate + g * g
    inside = np.nonzero(estimate <= gcut + 1e-9 * (1.0 + gcut))
    millers = np.column_stack(inside) - bounds
    g2 = cell.g_norm2(millers)
    keep = g2 <= gcut + 1e-12
    millers = millers[keep]
    g2 = g2[keep]
    # Canonical order: by |G|^2, then lexicographic Miller tie-break.  The
    # rows are already in lexicographic Miller order (C-order box scan), so
    # one stable sort on |G|^2 is that order.
    order = np.argsort(np.round(g2, 10), kind="stable")
    return GSphere(millers[order], g2[order], gcut)
