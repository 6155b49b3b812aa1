"""Tests for wave data helpers and the pack/scatter marshalling."""

import numpy as np
import pytest

from repro.core.pack import pack_part_bytes, pack_parts, unpack_parts
from repro.core.scatter import (
    assemble_group_block_from_planes,
    assemble_planes,
    scatter_bw_parts,
    scatter_fw_parts,
    scatter_part_bytes,
)
from repro.core.vofr import apply_potential
from repro.core.wave import (
    distribute_coefficients,
    expand_group_block,
    expand_to_sticks,
    extract_from_sticks,
    extract_group_coefficients,
    make_band_coefficients,
    make_potential,
    potential_slab,
)
from repro.grids import Cell, DistributedLayout, FftDescriptor
from repro.mpisim import MetaPayload

RNG = np.random.default_rng(99)


@pytest.fixture(scope="module")
def desc():
    return FftDescriptor(Cell(alat=5.0), ecutwfc=12.0)


@pytest.fixture(scope="module")
def layout(desc):
    return DistributedLayout(desc, n_scatter=2, n_groups=2)


class TestWaveData:
    def test_coefficients_deterministic(self, desc):
        a = make_band_coefficients(desc.ngw, 4, seed=7)
        b = make_band_coefficients(desc.ngw, 4, seed=7)
        np.testing.assert_array_equal(a, b)
        c = make_band_coefficients(desc.ngw, 4, seed=8)
        assert not np.array_equal(a, c)

    def test_distribution_partitions_coefficients(self, desc, layout):
        coeffs = make_band_coefficients(desc.ngw, 3, seed=1)
        per_proc = distribute_coefficients(layout, coeffs)
        assert sum(p.shape[1] for p in per_proc) == desc.ngw
        total = np.concatenate([p[0] for p in per_proc])
        # Same multiset of values (order differs by ownership).
        np.testing.assert_allclose(
            np.sort(np.abs(total)), np.sort(np.abs(coeffs[0]))
        )

    def test_expand_extract_roundtrip(self, desc, layout):
        coeffs = make_band_coefficients(desc.ngw, 1, seed=3)
        per_proc = distribute_coefficients(layout, coeffs)
        for p in range(layout.P):
            block = expand_to_sticks(layout, p, per_proc[p][0])
            assert block.shape == (len(layout.sticks_of(p)), desc.nr3)
            back = extract_from_sticks(layout, p, block)
            np.testing.assert_allclose(back, per_proc[p][0])

    def test_expand_rejects_wrong_length(self, layout):
        with pytest.raises(ValueError, match="G-vectors"):
            expand_to_sticks(layout, 0, np.zeros(3, dtype=np.complex128))

    def test_extract_rejects_wrong_shape(self, layout):
        with pytest.raises(ValueError, match="expected"):
            extract_from_sticks(layout, 0, np.zeros((2, 2), dtype=np.complex128))

    def test_group_expand_extract_roundtrip(self, desc, layout):
        coeffs = make_band_coefficients(desc.ngw, 1, seed=5)
        per_proc = distribute_coefficients(layout, coeffs)
        for r in range(layout.R):
            members = [per_proc[layout.proc_of(r, t)][0] for t in range(layout.T)]
            block = expand_group_block(layout, r, members)
            assert block.shape == (layout.nst_group(r), desc.nr3)
            back = extract_group_coefficients(layout, r, block)
            for t in range(layout.T):
                np.testing.assert_allclose(back[t], members[t])

    def test_group_expansion_covers_whole_sphere(self, desc, layout):
        """Every sphere coefficient of the group lands in the block once."""
        coeffs = np.ones((1, desc.ngw), dtype=np.complex128)
        per_proc = distribute_coefficients(layout, coeffs)
        placed = 0
        for r in range(layout.R):
            members = [per_proc[layout.proc_of(r, t)][0] for t in range(layout.T)]
            block = expand_group_block(layout, r, members)
            placed += int(np.count_nonzero(block))
        assert placed == desc.ngw

    def test_potential_properties(self, desc):
        v = make_potential(desc.grid_shape, seed=1)
        assert v.shape == (desc.nr3, desc.nr1, desc.nr2)
        assert np.isrealobj(v)
        assert v.min() >= 1.0

    def test_potential_slabs_tile_grid(self, desc, layout):
        v = make_potential(desc.grid_shape, seed=1)
        slabs = [potential_slab(layout, r, v) for r in range(layout.R)]
        np.testing.assert_allclose(np.concatenate(slabs, axis=0), v)

    def test_potential_slab_shape_check(self, layout):
        with pytest.raises(ValueError, match="expected"):
            potential_slab(layout, 0, np.zeros((2, 2, 2)))


class TestPackMarshalling:
    def test_part_bytes_are_coefficient_sized(self, layout):
        for p in range(layout.P):
            assert pack_part_bytes(layout, p) == layout.ngw_of(p) * 16

    def test_meta_parts(self, layout):
        parts = pack_parts(layout, 0, None)
        assert len(parts) == layout.T
        assert all(isinstance(x, MetaPayload) for x in parts)
        assert parts[0].nbytes == pack_part_bytes(layout, 0)

    def test_data_parts_validated(self, layout):
        ngw = layout.ngw_of(0)
        good = [np.zeros(ngw, dtype=np.complex128)] * layout.T
        assert len(pack_parts(layout, 0, good)) == layout.T
        with pytest.raises(ValueError, match="band"):
            pack_parts(layout, 0, [np.zeros(ngw + 1, dtype=np.complex128)] * layout.T)
        with pytest.raises(ValueError, match="arrays"):
            pack_parts(layout, 0, [np.zeros(ngw, dtype=np.complex128)])

    def test_unpack_meta_parts_sized_per_member(self, layout):
        parts = unpack_parts(layout, 0, None)
        for t, part in enumerate(parts):
            assert part.nbytes == pack_part_bytes(layout, layout.proc_of(0, t))


class TestScatterMarshalling:
    def test_part_bytes(self, layout):
        assert scatter_part_bytes(layout, 0, 1) == (
            layout.nst_group(0) * layout.npp(1) * 16
        )

    def test_fw_roundtrip_through_planes(self, desc, layout):
        """fw parts -> planes -> bw parts -> group block reproduces the input."""
        blocks = {
            r: (
                RNG.standard_normal((layout.nst_group(r), desc.nr3))
                + 1j * RNG.standard_normal((layout.nst_group(r), desc.nr3))
            )
            for r in range(layout.R)
        }
        # Simulate the alltoall exchange by hand.
        fw_parts = {r: scatter_fw_parts(layout, r, blocks[r]) for r in range(layout.R)}
        planes = {
            r: assemble_planes(
                layout, r, [fw_parts[src][r] for src in range(layout.R)]
            )
            for r in range(layout.R)
        }
        bw_parts = {r: scatter_bw_parts(layout, r, planes[r]) for r in range(layout.R)}
        for r in range(layout.R):
            back = assemble_group_block_from_planes(
                layout, r, [bw_parts[src][r] for src in range(layout.R)]
            )
            np.testing.assert_allclose(back, blocks[r])

    def test_planes_zero_off_sticks(self, desc, layout):
        blocks = {
            r: np.ones((layout.nst_group(r), desc.nr3), dtype=np.complex128)
            for r in range(layout.R)
        }
        fw_parts = {r: scatter_fw_parts(layout, r, blocks[r]) for r in range(layout.R)}
        planes = assemble_planes(layout, 0, [fw_parts[src][0] for src in range(layout.R)])
        assert int(np.count_nonzero(planes[0])) == desc.sticks.nsticks

    def test_meta_mode_passthrough(self, layout):
        parts = scatter_fw_parts(layout, 0, None)
        assert all(isinstance(x, MetaPayload) for x in parts)
        assert assemble_planes(layout, 0, parts) is None
        assert assemble_group_block_from_planes(layout, 0, parts) is None

    def test_shape_validation(self, desc, layout):
        bad = [np.zeros((1, 1), dtype=np.complex128) for _ in range(layout.R)]
        with pytest.raises(ValueError, match="expected"):
            assemble_planes(layout, 0, bad)
        with pytest.raises(ValueError, match="expected"):
            assemble_group_block_from_planes(layout, 0, bad)


class TestVofr:
    def test_applies_pointwise(self):
        planes = np.full((2, 3, 3), 2.0 + 0j)
        v = np.full((2, 3, 3), 1.5)
        out = apply_potential(planes, v)
        np.testing.assert_allclose(out, 3.0)
        assert out is planes  # in place

    def test_out_leaves_the_input_untouched(self):
        """What a replayable task stage relies on: same product, written
        elsewhere, so a second execution starts from unmodified input."""
        planes = np.full((2, 3, 3), 2.0 + 1j)
        v = np.full((2, 3, 3), 1.5)
        out = np.empty_like(planes)
        assert apply_potential(planes, v, out=out) is out
        np.testing.assert_array_equal(planes, 2.0 + 1j)
        np.testing.assert_array_equal(out, apply_potential(planes.copy(), v))

    def test_meta_mode(self):
        assert apply_potential(None, None) is None

    def test_missing_potential_rejected(self):
        with pytest.raises(ValueError, match="potential"):
            apply_potential(np.zeros((1, 2, 2), dtype=complex), None)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            apply_potential(np.zeros((1, 2, 2), dtype=complex), np.zeros((1, 3, 3)))
