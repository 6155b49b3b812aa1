"""Tests for stick maps, distribution balance, and the R x T layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grids import Cell, DistributedLayout, FftDescriptor, distribute_sticks
from repro.grids.sticks import StickMap, clip_runs, index_runs


@pytest.fixture(scope="module")
def desc():
    # Small but non-trivial workload: grid ~ 27^3, a few hundred sticks.
    return FftDescriptor(Cell(alat=6.0), ecutwfc=30.0)


class TestStickMap:
    def test_total_g_matches_sphere(self, desc):
        assert desc.sticks.total_g == desc.ngw

    def test_every_g_is_on_its_stick(self, desc):
        xy = desc.grid_idx[:, :2]
        for g in range(0, desc.ngw, max(desc.ngw // 50, 1)):
            stick = desc.stick_of_g[g]
            np.testing.assert_array_equal(desc.sticks.coords[stick], xy[g])

    def test_counts_sum_per_stick(self, desc):
        recount = np.bincount(desc.stick_of_g, minlength=desc.sticks.nsticks)
        np.testing.assert_array_equal(recount, desc.sticks.counts)

    def test_stick_count_approximates_circle(self, desc):
        """Sticks fill a disc of radius sqrt(gkcut)*alat/2pi-ish in (i,j)."""
        radius = np.sqrt(desc.gkcut)
        expected = np.pi * radius**2
        assert desc.sticks.nsticks == pytest.approx(expected, rel=0.15)


class TestStickSupport:
    """The support runs: the one source both cost models and the host
    kernels read for QE's empty-line skipping."""

    def test_runs_cover_exactly_the_stick_rows_and_columns(self, desc):
        for axis, runs in ((0, desc.sticks.x_runs), (1, desc.sticks.y_runs)):
            covered = np.concatenate([np.arange(lo, hi) for lo, hi in runs])
            np.testing.assert_array_equal(covered, np.unique(desc.sticks.coords[:, axis]))
            # Maximal: consecutive runs are separated by a real gap.
            assert all(b[0] > a[1] for a, b in zip(runs, runs[1:]))

    def test_sphere_wraps_into_two_runs(self, desc):
        # Negative Miller indices wrap to the top of the grid.
        assert len(desc.sticks.y_runs) == 2
        assert desc.sticks.y_runs[0][0] == 0 and desc.sticks.y_runs[-1][1] == desc.nr2

    def test_nonempty_y_lines_is_the_distinct_column_count(self, desc):
        assert desc.sticks.nonempty_y_lines == len(np.unique(desc.sticks.coords[:, 1]))

    @given(
        members=st.sets(st.integers(0, 40)),
        lo=st.integers(0, 40),
        width=st.integers(0, 40),
    )
    def test_clip_runs_matches_set_arithmetic(self, members, lo, width):
        runs = index_runs(np.array(sorted(members), dtype=np.int64))
        got = clip_runs(runs, lo, lo + width)
        want = index_runs(
            np.array([m for m in members if lo <= m < lo + width], dtype=np.int64)
        )
        assert got == want

    def test_ybrick_rows_carry_every_stick_of_the_pencil_row(self, desc):
        """A y-brick holds one row per x of its pencil row's sticks: the
        stick-carrying x of the row's x-range, and no other."""
        layout = DistributedLayout(desc, 4, 1, decomposition="pencil")
        grid = layout.pencil
        ix = desc.sticks.coords[:, 0]
        for r in range(layout.R):
            i, j = grid.coords(r)
            lo, hi = grid.x_span(i)
            mine = ix[(ix >= lo) & (ix < hi)]
            assert mine.size
            assert layout.ybrick_x_runs(r) == index_runs(mine)
            assert layout.ybrick_shape(r) == (len(np.unique(mine)), grid.nz(j), desc.nr2)
        with pytest.raises(ValueError, match="pencil"):
            DistributedLayout(desc, 4, 1).ybrick_x_runs(0)

    def test_xbrick_columns_pack_the_stick_carrying_x(self, desc):
        """The compact x-brick has one column per x that carries a stick,
        in ascending x; every other x has none."""
        layout = DistributedLayout(desc, 4, 1, decomposition="pencil")
        grid = layout.pencil
        live = np.unique(desc.sticks.coords[:, 0])
        col_of_x, n_live = layout.xbrick_columns()
        assert n_live == len(live) < desc.nr1
        np.testing.assert_array_equal(col_of_x[live], np.arange(n_live))
        assert (np.delete(col_of_x, live) == -1).all()
        for r in range(layout.R):
            i, j = grid.coords(r)
            assert layout.xbrick_shape(r) == (grid.ny(i), grid.nz(j), n_live)


class TestDistribution:
    def test_all_sticks_assigned(self, desc):
        owners = distribute_sticks(desc.sticks.counts, 7)
        assert owners.min() >= 0 and owners.max() < 7
        assert len(owners) == desc.sticks.nsticks

    def test_balance_quality(self, desc):
        """Greedy LPT gets per-proc G loads within ~10% of the mean."""
        for nproc in (2, 4, 8):
            owners = distribute_sticks(desc.sticks.counts, nproc)
            loads = np.array(
                [desc.sticks.counts[owners == p].sum() for p in range(nproc)]
            )
            assert loads.min() > 0
            assert loads.max() / loads.mean() < 1.1

    def test_single_proc_owns_everything(self, desc):
        owners = distribute_sticks(desc.sticks.counts, 1)
        assert np.all(owners == 0)

    def test_deterministic(self, desc):
        a = distribute_sticks(desc.sticks.counts, 5)
        b = distribute_sticks(desc.sticks.counts, 5)
        np.testing.assert_array_equal(a, b)

    def test_invalid_nproc(self):
        with pytest.raises(ValueError):
            distribute_sticks(np.array([1, 2]), 0)

    @settings(max_examples=30, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=60),
        nproc=st.integers(min_value=1, max_value=8),
    )
    def test_lpt_never_exceeds_heaviest_plus_mean(self, counts, nproc):
        """Classic LPT bound: max load <= mean + max item."""
        counts = np.array(counts)
        owners = distribute_sticks(counts, nproc)
        loads = np.array([counts[owners == p].sum() for p in range(nproc)])
        assert loads.max() <= counts.sum() / nproc + counts.max() + 1e-9


class TestLayout:
    def test_process_grid_mapping(self, desc):
        lay = DistributedLayout(desc, n_scatter=4, n_groups=2)
        assert lay.P == 8
        assert lay.proc_of(3, 1) == 7
        assert lay.rt_of(7) == (3, 1)
        with pytest.raises(ValueError):
            lay.proc_of(4, 0)
        with pytest.raises(ValueError):
            lay.rt_of(8)

    def test_paper_communicator_structure(self, desc):
        """R pack groups of T consecutive ranks; T scatter groups of R strided ranks."""
        lay = DistributedLayout(desc, n_scatter=8, n_groups=8)
        assert lay.pack_group(0) == list(range(8))
        assert lay.pack_group(1) == list(range(8, 16))
        assert lay.scatter_group(1) == [1, 9, 17, 25, 33, 41, 49, 57]

    def test_sticks_partition_processes(self, desc):
        lay = DistributedLayout(desc, n_scatter=3, n_groups=2)
        seen = np.concatenate([lay.sticks_of(p) for p in range(lay.P)])
        assert len(seen) == desc.sticks.nsticks
        assert len(np.unique(seen)) == desc.sticks.nsticks

    def test_ngw_partition(self, desc):
        lay = DistributedLayout(desc, n_scatter=4, n_groups=2)
        assert sum(lay.ngw_of(p) for p in range(lay.P)) == desc.ngw

    def test_group_sticks_concatenate_members(self, desc):
        lay = DistributedLayout(desc, n_scatter=2, n_groups=3)
        for r in range(2):
            group = lay.group_sticks(r)
            offsets = lay.group_offsets(r)
            for t in range(3):
                seg = group[offsets[t]: offsets[t + 1]]
                np.testing.assert_array_equal(seg, lay.sticks_of(lay.proc_of(r, t)))

    def test_planes_partition_grid(self, desc):
        lay = DistributedLayout(desc, n_scatter=5, n_groups=1)
        assert sum(lay.npp(r) for r in range(5)) == desc.nr3
        assert lay.z_offset(0) == 0
        # Contiguous, ordered slabs.
        for r in range(4):
            assert lay.z_offset(r) + lay.npp(r) == lay.z_offset(r + 1)

    def test_plane_balance(self, desc):
        lay = DistributedLayout(desc, n_scatter=7, n_groups=1)
        npps = [lay.npp(r) for r in range(7)]
        assert max(npps) - min(npps) <= 1

    def test_more_scatter_ranks_than_planes_allowed(self, desc):
        """The degenerate case task groups exist to avoid must still work."""
        lay = DistributedLayout(desc, n_scatter=desc.nr3 + 3, n_groups=1)
        npps = [lay.npp(r) for r in range(lay.R)]
        assert sum(npps) == desc.nr3
        assert min(npps) == 0

    def test_local_g_table_roundtrip(self, desc):
        """Expanding with the table must place each G on its own stick/z."""
        lay = DistributedLayout(desc, n_scatter=2, n_groups=2)
        covered = []
        for p in range(lay.P):
            g_idx, stick_local, iz = lay.local_g_table(p)
            covered.append(g_idx)
            sticks = lay.sticks_of(p)
            # each listed G is on a stick owned by p, at its own z coordinate
            np.testing.assert_array_equal(
                desc.stick_of_g[g_idx], sticks[stick_local]
            )
            np.testing.assert_array_equal(desc.grid_idx[g_idx, 2], iz)
        covered = np.concatenate(covered)
        assert len(np.unique(covered)) == desc.ngw

    def test_invalid_grid(self, desc):
        with pytest.raises(ValueError):
            DistributedLayout(desc, 0, 1)


class TestDescriptor:
    def test_paper_descriptor_scale(self):
        """The paper's workload: ecutwfc=80, alat=20 -> 120^3 grid."""
        desc = FftDescriptor(Cell(alat=20.0), ecutwfc=80.0)
        assert desc.grid_shape == (120, 120, 120)
        # Sphere radius sqrt(810) ~ 28.5: ngw ~ 97k, sticks ~ 2.5k.
        assert 80000 < desc.ngw < 110000
        assert 2300 < desc.sticks.nsticks < 2800

    def test_dual_validation(self):
        with pytest.raises(ValueError):
            FftDescriptor(Cell(alat=5.0), ecutwfc=10.0, dual=0.5)

    def test_nnr(self, desc):
        assert desc.nnr == desc.nr1 * desc.nr2 * desc.nr3
