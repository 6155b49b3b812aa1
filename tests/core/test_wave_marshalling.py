"""Tests for wave data helpers and the pack/scatter exchange plans."""

import numpy as np
import pytest

from repro.core.redistribute import (
    pack_bw_plan,
    pack_fw_plan,
    scatter_bw_plan,
    scatter_fw_plan,
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
from tests.core.exchange import alltoallw

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
    """The task-group pack/unpack Alltoallv, as ``pack_fw_plan`` /
    ``pack_bw_plan`` describe it."""

    def test_part_bytes_are_coefficient_sized(self, layout):
        for p in range(layout.P):
            for block in pack_fw_plan(layout, p, True).send_blocks:
                assert block.nbytes == layout.ngw_of(p) * 16

    def test_meta_parts(self, layout):
        plan = pack_fw_plan(layout, 0, False)
        assert len(plan.send_blocks) == layout.T
        assert all(block.is_meta for block in plan.send_blocks)
        assert plan.send_blocks[0].nbytes == layout.ngw_of(0) * 16

    def test_data_parts_validated(self, desc, layout):
        """The pack exchange fills each member's group stick block exactly
        as the serial reference marshalling does, and unpack writes each
        member's G-vectors back into the global rows."""
        coeffs = make_band_coefficients(desc.ngw, layout.T, seed=11)
        per_proc = distribute_coefficients(layout, coeffs)
        for r in range(layout.R):
            members = [layout.proc_of(r, t) for t in range(layout.T)]
            fw = [pack_fw_plan(layout, p, True) for p in members]
            blocks = alltoallw(fw, [per_proc[p] for p in members])
            for t, block in enumerate(blocks):
                # Member t assembles band t from every member's share.
                want = expand_group_block(
                    layout, r, [per_proc[p][t] for p in members]
                )
                np.testing.assert_array_equal(block, want)
            bw = [pack_bw_plan(layout, p, True) for p in members]
            for p, rows in zip(members, alltoallw(bw, blocks)):
                g_idx = layout.local_g_table(p)[0]
                np.testing.assert_array_equal(rows[:, g_idx], coeffs[:, g_idx])

    def test_unpack_meta_parts_sized_per_member(self, layout):
        plan = pack_bw_plan(layout, layout.proc_of(0, 0), False)
        for t, block in enumerate(plan.send_blocks):
            assert block.nbytes == layout.ngw_of(layout.proc_of(0, t)) * 16


class TestScatterMarshalling:
    """The slab scatter Alltoall, as ``scatter_fw_plan`` / ``scatter_bw_plan``
    describe it."""

    def test_part_bytes(self, layout):
        assert scatter_fw_plan(layout, 0, True).send_blocks[1].nbytes == (
            layout.nst_group(0) * layout.npp(1) * 16
        )

    def test_fw_roundtrip_through_the_compact_block(self, desc, layout):
        """stick blocks -> compact blocks -> stick blocks reproduces the input."""
        blocks = [
            RNG.standard_normal((layout.nst_group(r), desc.nr3))
            + 1j * RNG.standard_normal((layout.nst_group(r), desc.nr3))
            for r in range(layout.R)
        ]
        fw = [scatter_fw_plan(layout, r, True) for r in range(layout.R)]
        compact = alltoallw(fw, blocks)
        for r in range(layout.R):
            assert compact[r].shape == (desc.sticks.nsticks, layout.npp(r))
        bw = [scatter_bw_plan(layout, r, True) for r in range(layout.R)]
        for back, block in zip(alltoallw(bw, compact), blocks):
            np.testing.assert_array_equal(back, block)

    def test_compact_block_holds_every_stick(self, desc, layout):
        """Rank ``r`` receives, stick after stick in scatter order, each
        group stick's z-range of its planes: no zero region, no plane."""
        blocks = [
            RNG.standard_normal((layout.nst_group(r), desc.nr3)) + 0j
            for r in range(layout.R)
        ]
        fw = [scatter_fw_plan(layout, r, True) for r in range(layout.R)]
        compact = alltoallw(fw, blocks)
        offsets = layout.scatter_stick_offsets()
        for r, plan in enumerate(fw):
            assert plan.zero == ()
            want = np.concatenate([block[:, layout.z_slice(r)] for block in blocks])
            np.testing.assert_array_equal(compact[r], want)
            for j, block in enumerate(plan.recv_blocks):
                np.testing.assert_array_equal(
                    block.indices(),
                    np.arange(offsets[j] * layout.npp(r), offsets[j + 1] * layout.npp(r)),
                )

    def test_meta_mode_passthrough(self, layout):
        """Size-only plans carry the data plans' volumes and no indices."""
        for build in (scatter_fw_plan, scatter_bw_plan):
            meta, data = build(layout, 0, False), build(layout, 0, True)
            assert meta.recv_shape == data.recv_shape
            for side in ("send_blocks", "recv_blocks"):
                for m, d in zip(getattr(meta, side), getattr(data, side)):
                    assert m.is_meta and m.nbytes == d.nbytes

    def test_shape_validation(self, layout):
        """The conservation law the collective enforces: what ``src``
        describes toward ``dst`` exactly fills the slots ``dst`` reserved."""
        for build in (scatter_fw_plan, scatter_bw_plan):
            plans = [build(layout, r, True) for r in range(layout.R)]
            for src, plan in enumerate(plans):
                for dst, peer in enumerate(plans):
                    assert plan.send_blocks[dst].n_items == peer.recv_blocks[src].n_items


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

    @pytest.mark.parametrize("in_place", [True, False])
    def test_every_fan_width_gives_the_same_bits(self, monkeypatch, in_place):
        from repro import _fan
        from repro.core import vofr

        monkeypatch.setattr(vofr, "MIN_POINTS", 1)
        planes = RNG.standard_normal((5, 4, 6)) + 1j * RNG.standard_normal((5, 4, 6))
        v = RNG.standard_normal((5, 4, 6))
        products = []
        for width in (1, 2, 3, 4):
            monkeypatch.setattr(_fan, "_cpus", lambda width=width: width)
            work = planes.copy()
            out = apply_potential(work, v, out=None if in_place else np.empty_like(work))
            products.append(out.tobytes())
            if not in_place:
                np.testing.assert_array_equal(work, planes)
        assert products == [(planes * v).tobytes()] * 4

    def test_meta_mode(self):
        assert apply_potential(None, None) is None

    def test_missing_potential_rejected(self):
        with pytest.raises(ValueError, match="potential"):
            apply_potential(np.zeros((1, 2, 2), dtype=complex), None)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            apply_potential(np.zeros((1, 2, 2), dtype=complex), np.zeros((1, 3, 3)))
