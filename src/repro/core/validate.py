"""Dense single-grid reference and validation helpers.

The distributed pipeline applies ``psi_out = FW( V(r) * BW(psi_in) )`` band
by band.  The reference computes the same operator on one full 3D grid with
the library's own (numpy-validated) transforms; every executor, on every
process grid and in any task schedule, must match it to near machine
precision — the strongest correctness statement the test suite makes.
"""

from __future__ import annotations

import numpy as np

from repro.grids.descriptor import DistributedLayout, FftDescriptor

__all__ = ["dense_reference", "gather_results", "max_relative_error"]


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


def gather_results(
    layout: DistributedLayout, per_rank_results: list[dict[int, np.ndarray]], n_bands: int
) -> np.ndarray:
    """Assemble the distributed per-band outputs into global coefficients.

    ``per_rank_results[p]`` maps band -> that process's packed output slice
    (its own G-vectors, ascending global order).
    """
    out = np.zeros((n_bands, layout.desc.ngw), dtype=np.complex128)
    seen = np.zeros((n_bands, layout.desc.ngw), dtype=bool)
    for p, results in enumerate(per_rank_results):
        g_idx, _sl, _iz = layout.local_g_table(p)
        for band, values in results.items():
            if values.shape != g_idx.shape:
                raise ValueError(
                    f"rank {p} band {band}: {values.shape[0]} coefficients for "
                    f"{len(g_idx)} owned G-vectors"
                )
            out[band, g_idx] = values
            seen[band, g_idx] = True
    if not seen.all():
        missing = np.argwhere(~seen)
        raise ValueError(
            f"{len(missing)} coefficients were never produced "
            f"(first: band {missing[0][0]}, G {missing[0][1]})"
        )
    return out


def max_relative_error(result: np.ndarray, reference: np.ndarray) -> float:
    """``max |a - b| / max |b|`` — scale-free comparison for the tests."""
    scale = np.abs(reference).max()
    if scale == 0.0:
        return float(np.abs(result).max())
    return float(np.abs(result - reference).max() / scale)
