"""Non-cubic cells through the whole stack (lattice -> pipeline -> reference).

The driver's RunConfig is cubic (as the paper's workload is), but every
layer below it supports general lattices; these tests exercise tetragonal
and sheared cells end to end against the dense reference.
"""

import numpy as np
import pytest

from repro.core.validate import dense_reference, max_relative_error
from repro.core.wave import make_potential
from repro.fft import allowed_fft_order
from repro.grids import Cell, DistributedLayout, FftDescriptor

TETRAGONAL = np.diag([1.0, 1.0, 1.6])
SHEARED = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.2]])


def run_distributed(desc, coeffs, potential, R, T):
    """Drive the shipping exchange plans by hand (no simulator: numerics
    only).  The pack layer uses the serial reference marshalling."""
    from repro.core.redistribute import scatter_bw_plan, scatter_fw_plan
    from repro.core.wave import (
        distribute_coefficients,
        expand_group_block,
        extract_group_coefficients,
        potential_slab,
    )
    from repro.fft import cft_1z, cft_2xy
    from tests.core.exchange import alltoallw

    layout = DistributedLayout(desc, R, T)
    per_proc = distribute_coefficients(layout, coeffs)
    fw = [scatter_fw_plan(layout, r, True) for r in range(R)]
    bw = [scatter_bw_plan(layout, r, True) for r in range(R)]
    out = np.zeros_like(coeffs)
    for band in range(coeffs.shape[0]):
        # Pack semantics: scatter rank r assembles the band from the shares
        # of every pack-group member.
        groups = [
            cft_1z(
                expand_group_block(
                    layout, r, [per_proc[layout.proc_of(r, t)][band] for t in range(T)]
                ),
                +1,
            )
            for r in range(R)
        ]
        # The scatter delivers each rank's sticks over its planes; the dense
        # planes are built (and read back) at the sticks' plane positions.
        compact = alltoallw(fw, groups)
        pos = layout.scatter_plane_index()
        for r in range(R):
            flat = np.zeros((layout.npp(r), desc.nr1 * desc.nr2), dtype=np.complex128)
            flat[:, pos] = compact[r].T
            p = cft_2xy(flat.reshape(-1, desc.nr1, desc.nr2), +1)
            p *= potential_slab(layout, r, potential)
            compact[r] = cft_2xy(p, -1).reshape(flat.shape)[:, pos].T
        for r, block in enumerate(alltoallw(bw, compact)):
            block = cft_1z(block, -1)
            for t, coeff in enumerate(extract_group_coefficients(layout, r, block)):
                g_idx, _sl, _iz = layout.local_g_table(layout.proc_of(r, t))
                out[band, g_idx] = coeff
    return out


class TestNonCubicCells:
    @pytest.mark.parametrize("at", [TETRAGONAL, SHEARED], ids=["tetragonal", "sheared"])
    def test_descriptor_geometry(self, at):
        desc = FftDescriptor(Cell(alat=5.0, at=at), ecutwfc=12.0)
        assert desc.ngw > 0
        for n in desc.grid_shape:
            assert allowed_fft_order(n)
        # Anisotropic cells get anisotropic grids.
        if at is TETRAGONAL:
            assert desc.nr3 > desc.nr1

    @pytest.mark.parametrize("at", [TETRAGONAL, SHEARED], ids=["tetragonal", "sheared"])
    def test_sphere_respects_metric(self, at):
        cell = Cell(alat=5.0, at=at)
        desc = FftDescriptor(cell, ecutwfc=12.0)
        np.testing.assert_allclose(
            desc.sphere.g2, cell.g_norm2(desc.sphere.millers), rtol=1e-12
        )
        assert np.all(desc.sphere.g2 <= desc.gkcut + 1e-9)

    @pytest.mark.parametrize("at", [TETRAGONAL, SHEARED], ids=["tetragonal", "sheared"])
    @pytest.mark.parametrize("grid", [(2, 2), (4, 1), (1, 4)])
    def test_distributed_kernel_matches_dense(self, at, grid):
        R, T = grid
        desc = FftDescriptor(Cell(alat=5.0, at=at), ecutwfc=12.0)
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((T * 2, desc.ngw)) + 1j * rng.standard_normal(
            (T * 2, desc.ngw)
        )
        potential = make_potential(desc.grid_shape, seed=5)
        got = run_distributed(desc, coeffs, potential, R, T)
        want = dense_reference(desc, coeffs, potential)
        assert max_relative_error(got, want) < 1e-12
