"""Simulation cell: direct and reciprocal lattice in QE conventions.

Lengths are in Bohr; the lattice parameter ``alat`` scales the (dimensionless)
direct lattice vectors ``at`` (columns, units of ``alat``), and the reciprocal
vectors ``bg`` are in units of ``tpiba = 2*pi/alat`` so that a G-vector with
Miller indices ``m`` is ``G = tpiba * (bg @ m)`` and kinetic-energy cutoffs in
Rydberg translate to ``|bg @ m|^2 <= ecut / tpiba^2`` (Rydberg atomic units,
where the kinetic energy of a plane wave is ``|G|^2``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Cell", "finite_positive"]


def finite_positive(name: str, value: float) -> float:
    """``value`` as a float, or a ``ValueError`` naming ``name``.

    NaN fails every comparison, so ``value > 0`` alone lets it through;
    infinity passes it and fails later as an untyped conversion error.
    """
    value = float(value)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


class Cell:
    """A periodic simulation cell.

    Parameters
    ----------
    alat:
        Lattice parameter in Bohr (the paper's workload uses 20).
    at:
        3x3 matrix of direct lattice vectors as *columns*, in units of
        ``alat``; defaults to simple cubic (the FFTXlib test default).
    """

    def __init__(self, alat: float, at: np.ndarray | None = None):
        self.alat = finite_positive("alat", alat)
        self.at = np.eye(3) if at is None else np.asarray(at, dtype=float)
        if self.at.shape != (3, 3):
            raise ValueError(f"at must be 3x3, got shape {self.at.shape}")
        if not np.isfinite(self.at).all():
            raise ValueError(f"at must be finite, got {self.at.tolist()}")
        det = np.linalg.det(self.at)
        if abs(det) < 1e-12:
            raise ValueError("lattice vectors are singular")
        # Reciprocal lattice in tpiba units: bg^T @ at = identity.
        self.bg = np.linalg.inv(self.at).T

    @property
    def tpiba(self) -> float:
        """``2*pi/alat`` — the natural reciprocal-space unit (Bohr^-1)."""
        return 2.0 * np.pi / self.alat

    @property
    def tpiba2(self) -> float:
        """``tpiba**2`` (cutoff conversions)."""
        return self.tpiba**2

    @property
    def volume(self) -> float:
        """Cell volume in Bohr^3."""
        return abs(np.linalg.det(self.at)) * self.alat**3

    def g_norm2(self, millers: np.ndarray) -> np.ndarray:
        """``|G|^2`` in tpiba^2 units for Miller-index rows ``(n, 3)``."""
        m = np.atleast_2d(np.asarray(millers, dtype=float))
        g = m @ self.bg.T  # row i -> bg @ m_i
        return np.einsum("ij,ij->i", g, g)

    def gcut_from_ecut(self, ecut_ry: float) -> float:
        """Cutoff radius^2 in tpiba^2 units for an energy cutoff in Rydberg."""
        return finite_positive("ecut_ry", ecut_ry) / self.tpiba2

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Cell(alat={self.alat:g}, volume={self.volume:.6g})"
