"""VOFR: apply the real-space (diagonal) potential.

The inner loop of the kernel: once a band is in real space, the operator is
a pointwise multiply by ``V(r)`` on this rank's plane slab.  The potential is
real, so the Gamma-trick band pairing (two real bands in one complex field)
commutes with it — both packed bands are multiplied correctly at once.
The multiply fans over the host's cores in slices of the leading axis
(:mod:`repro._fan`); each element's product is the same in any slice.
The potential is read where it lives: the slab's planes and the pencil's
x-brick are both views of the run's one ``V`` (:mod:`repro.core.wave`),
so no rank holds a copy of it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["apply_potential"]

#: Fewest multiplied elements worth a fan slice of their own.
MIN_POINTS = 1 << 16


def apply_potential(
    planes: np.ndarray | None,
    v_slab: np.ndarray | None,
    out: np.ndarray | None = None,
) -> np.ndarray | None:
    """Multiply plane data by the potential slab and return the product —
    written over ``planes`` itself unless ``out`` is given.  ``v_slab`` may
    be any view of the right shape (the pencil's is strided).

    Both arguments are ``None`` in meta mode (cost-only runs).
    """
    if planes is None:
        return None
    if v_slab is None:
        raise ValueError("data-mode VOFR needs a potential slab")
    if planes.shape != v_slab.shape:
        raise ValueError(
            f"planes shape {planes.shape} does not match potential slab {v_slab.shape}"
        )
    if out is None:
        out = planes
    from repro import _fan  # data mode only: meta runs load no threads

    _fan.over_rows(
        lambda _i, lo, hi: np.multiply(planes[lo:hi], v_slab[lo:hi], out=out[lo:hi]),
        [(planes.shape[0], int(np.prod(planes.shape[1:])))],
        MIN_POINTS,
    )
    return out
