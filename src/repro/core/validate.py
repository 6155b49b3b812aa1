"""Dense single-grid reference and validation helpers.

The distributed pipeline applies ``psi_out = FW( V(r) * BW(psi_in) )`` band
by band.  The reference computes the same operator on one full 3D grid with
the library's own (numpy-validated) transforms; every executor, on every
process grid and in any task schedule, must match it to near machine
precision — the strongest correctness statement the test suite makes.
"""

from __future__ import annotations

import numpy as np

from repro.grids.descriptor import FftDescriptor

__all__ = ["dense_reference", "max_relative_error"]


def dense_reference(
    desc: FftDescriptor, coeffs: np.ndarray, potential: np.ndarray
) -> np.ndarray:
    """Apply the kernel's operator densely.

    Parameters
    ----------
    desc:
        Global FFT geometry.
    coeffs:
        ``(n_bands, ngw)`` packed sphere coefficients.
    potential:
        ``V[iz, ix, iy]`` real-space potential (plane-major layout).

    Returns the ``(n_bands, ngw)`` output coefficients.
    """
    from repro.fft import cfft3d  # the native kernels load with the first reference

    if coeffs.ndim != 2 or coeffs.shape[1] != desc.ngw:
        raise ValueError(f"coeffs must be (n_bands, {desc.ngw}), got {coeffs.shape}")
    idx = desc.grid_idx
    v_xyz = potential.transpose(1, 2, 0)  # V[ix, iy, iz]
    out = np.empty_like(coeffs)
    for b in range(coeffs.shape[0]):
        field = np.zeros(desc.grid_shape, dtype=np.complex128)
        field[idx[:, 0], idx[:, 1], idx[:, 2]] = coeffs[b]
        field = cfft3d(field, +1)
        field *= v_xyz
        field = cfft3d(field, -1)
        out[b] = field[idx[:, 0], idx[:, 1], idx[:, 2]]
    return out


def max_relative_error(result: np.ndarray, reference: np.ndarray) -> float:
    """``max |a - b| / max |b|`` — scale-free comparison for the tests."""
    scale = np.abs(reference).max()
    if scale == 0.0:
        return float(np.abs(result).max())
    return float(np.abs(result - reference).max() / scale)
