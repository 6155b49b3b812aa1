"""Wavefunction and potential data (data mode) and stick-buffer helpers.

128 real bands pack pairwise into 64 complex fields; the pipeline operates
on the packed fields directly (the paper's 64 FFTs).  Coefficients live on
the wave G-sphere in the canonical global ordering, one ``(n_bands, ngw)``
array per run; a process's share is the columns of its sticks' G-vectors.

The helpers here are the *data-mode* halves of the pipeline steps: expanding
packed coefficients into stick columns (``prepare_psis``), extracting them
back (``unpack``), and the real-space potential views VOFR applies.
All are deterministic functions of the config seed, so every executor sees
identical inputs and must produce identical outputs.
"""

from __future__ import annotations

import numpy as np

from repro.grids.descriptor import DistributedLayout
from repro.simkit.rng import substream

__all__ = [
    "make_band_coefficients",
    "make_potential",
    "distribute_coefficients",
    "expand_to_sticks",
    "extract_from_sticks",
    "expand_group_block",
    "extract_group_coefficients",
    "potential_slab",
    "potential_block",
]


def make_band_coefficients(ngw: int, n_complex_bands: int, seed: int) -> np.ndarray:
    """Global packed coefficients, shape ``(n_complex_bands, ngw)``.

    Each packed field is ``psi_{2b} + i * psi_{2b+1}`` of two random real
    bands (unit-variance complex Gaussians serve the same purpose and keep
    the generator simple); deterministic in ``seed``.
    """
    rng = substream(seed)
    coeffs = np.empty((n_complex_bands, ngw), dtype=np.complex128)
    draw = np.empty((n_complex_bands, ngw))
    # Each draw lands in its half through one float scratch, scaled by the
    # factor numpy's complex / real division applies to both halves of
    # ``(re + 1j * im) / sqrt(2)``: bit for bit that expression, without
    # its complex temporaries.
    scale = 1.0 / (np.sqrt(2.0) + 0.0 * 0.0)
    for half in (coeffs.real, coeffs.imag):
        rng.standard_normal(out=draw)
        np.multiply(draw, scale, out=half)
    return coeffs


def make_potential(grid_shape: tuple[int, int, int], seed: int) -> np.ndarray:
    """A real, positive, smooth-ish potential on the full grid.

    Layout is ``V[iz, ix, iy]`` (plane-major, matching the pipeline's plane
    blocks).  Smoothness is irrelevant to the kernel; positivity keeps the
    result well-conditioned for relative-error checks.
    """
    nr1, nr2, nr3 = grid_shape
    rng = substream(seed + 1)
    v = rng.random((nr3, nr1, nr2))
    v *= 0.5
    v += 1.0
    return v


def distribute_coefficients(
    layout: DistributedLayout, coeffs: np.ndarray
) -> list[np.ndarray]:
    """Split global packed coefficients by stick ownership.

    Returns one ``(n_bands, ngw_of(p))`` array per process, columns in the
    process's ascending global-G order.  No run makes these copies: a rank
    gathers one unit's rows at a time and the unpack writes back over them
    in the run's one global array.
    """
    out = []
    for p in range(layout.P):
        g_idx, _stick_local, _iz = layout.local_g_table(p)
        out.append(np.take(coeffs, g_idx, axis=1))
    return out


def expand_to_sticks(
    layout: DistributedLayout, p: int, packed: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``prepare_psis``: scatter packed coefficients into stick columns.

    ``packed`` is ``(ngw_of(p),)``; the result is ``(nst_p, nr3)`` with
    zeros outside the sphere.  ``out``, when given, is the (arena-owned)
    destination block — fully overwritten, returned in place of a fresh
    allocation, bit-identical either way.
    """
    flat = layout.local_flat_index(p)
    if packed.shape != flat.shape:
        raise ValueError(
            f"packed coefficients have {packed.shape[0] if packed.ndim else 0} "
            f"entries; process {p} owns {len(flat)} G-vectors"
        )
    shape = (len(layout.sticks_of(p)), layout.desc.nr3)
    if out is None:
        block = np.zeros(shape, dtype=np.complex128)
    else:
        block = out
        block.fill(0)
    block.reshape(-1)[flat] = packed
    return block


def extract_from_sticks(
    layout: DistributedLayout, p: int, block: np.ndarray
) -> np.ndarray:
    """Inverse of :func:`expand_to_sticks`: gather the sphere coefficients."""
    expected = (len(layout.sticks_of(p)), layout.desc.nr3)
    if block.shape != expected:
        raise ValueError(f"stick block shape {block.shape}; expected {expected}")
    return np.take(block.reshape(-1), layout.local_flat_index(p))


def expand_group_block(
    layout: DistributedLayout,
    r: int,
    member_coeffs: list,
    out: np.ndarray | None = None,
    workspace=None,
) -> np.ndarray:
    """Expand the pack group's received coefficients into the group stick block.

    ``member_coeffs[t]`` holds one band's packed coefficients on member
    ``t``'s sticks (what the pack Alltoallv delivered); each member's values
    land in its segment of the concatenated group buffer, at its own
    (stick, z) positions.  Result: ``(nst_group(r), nr3)``.

    The members' values are concatenated (into ``workspace`` staging when
    available) and written with one fancy put over the group's cached flat
    index map — the batched form of the old per-member scatter-write loop,
    touching exactly the same positions with the same values.
    """
    offsets = layout.group_coeff_offsets(r)
    for t, coeffs in enumerate(member_coeffs):
        ngw_t = int(offsets[t + 1] - offsets[t])
        if coeffs.shape != (ngw_t,):
            raise ValueError(
                f"member {t} of group {r} sent {coeffs.shape} coefficients; "
                f"owns {ngw_t} G-vectors"
            )
    shape = (layout.nst_group(r), layout.desc.nr3)
    if out is None:
        block = np.zeros(shape, dtype=np.complex128)
    else:
        block = out
        block.fill(0)
    ngw_group = int(offsets[-1])
    stage = (
        workspace.acquire("coeff_stage", (ngw_group,))
        if workspace is not None
        else np.empty(ngw_group, dtype=np.complex128)
    )
    np.concatenate(member_coeffs, out=stage)
    block.reshape(-1)[layout.group_flat_index(r)] = stage
    if workspace is not None:
        workspace.release(stage)
    return block


def extract_group_coefficients(
    layout: DistributedLayout, r: int, block: np.ndarray, out: np.ndarray | None = None
) -> list[np.ndarray]:
    """Inverse of :func:`expand_group_block`: per-member packed coefficients.

    One vectorized take over the cached flat index map gathers all members'
    coefficients at once; the returned per-member arrays are contiguous row
    slices of that gather (of ``out`` when given — the caller then owns the
    backing buffer and its lifetime).
    """
    expected = (layout.nst_group(r), layout.desc.nr3)
    if block.shape != expected:
        raise ValueError(f"group block shape {block.shape}; expected {expected}")
    # mode="clip" skips numpy's bounds-check buffering of the out array; the
    # cached index map is in range by construction, so values are identical.
    gathered = np.take(block.reshape(-1), layout.group_flat_index(r), out=out, mode="clip")
    offsets = layout.group_coeff_offsets(r)
    return [
        gathered[int(offsets[t]) : int(offsets[t + 1])] for t in range(layout.T)
    ]


def potential_slab(layout: DistributedLayout, r: int, potential: np.ndarray) -> np.ndarray:
    """Scatter-rank ``r``'s z-plane slab of the potential ``V[iz, ix, iy]``."""
    expected = (layout.desc.nr3, layout.desc.nr1, layout.desc.nr2)
    if potential.shape != expected:
        raise ValueError(f"potential shape {potential.shape}; expected {expected}")
    return potential[layout.z_slice(r)]


def potential_block(layout: DistributedLayout, r: int, potential: np.ndarray) -> np.ndarray:
    """Pencil rank ``r``'s x-brick of the potential ``V[iz, ix, iy]``.

    The pencil pipeline applies VOFR on the x-brick ``(ny_i, nz_j, nr1)``
    (full x-lines for ``iy in Y_i``, ``iz in Z_j``); this is a view of the
    potential restricted and transposed to that brick layout, as
    :func:`potential_slab` is for the slab.  No rank copies V: VOFR
    multiplies the brick through the view, element for element the product
    a contiguous copy would give.
    """
    grid = layout.pencil
    if grid is None:
        raise ValueError("potential_block needs a pencil-decomposed layout")
    expected = (layout.desc.nr3, layout.desc.nr1, layout.desc.nr2)
    if potential.shape != expected:
        raise ValueError(f"potential shape {potential.shape}; expected {expected}")
    i, j = grid.coords(r)
    zlo, zhi = grid.z_span(j)
    ylo, yhi = grid.y_span(i)
    return potential[zlo:zhi, :, ylo:yhi].transpose(2, 0, 1)
