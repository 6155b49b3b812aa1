"""The arena is an optimization, never a semantic layer.

Every test here pins the data-plane contract: runs on warm arena pools are
*byte-identical* (outputs and simulated timing) to runs on a freshly built
layout whose pools are empty — every buffer a fresh allocation — across
executors, process grids, and warm reruns, and both match the dense
reference; the cached index maps equal a from-scratch recompute; and the
no-copy marshal paths really do avoid copies.
"""

import math
import threading

import numpy as np
import pytest

from repro.core import RunConfig, run_fft_phase
from repro.core import driver as driver_mod
from repro.core.driver import build_geometry
from repro.core.wave import distribute_coefficients, make_band_coefficients
from repro.core.workspace import aggregate_stats, layout_workspaces
from repro.grids.descriptor import Cell, DistributedLayout, FftDescriptor
from repro.telemetry.manifest import build_manifest, validate_manifest

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


def small_config(**kwargs):
    return RunConfig(**{**SMALL, **kwargs})


def as_bytes(x):
    return np.ascontiguousarray(x).view(np.float64)


def run_cold(cfg):
    """Run on a freshly built layout: no arena exists yet, so the pools
    start empty and the first checkout of every buffer allocates."""
    build_geometry.cache_clear()
    res = run_fft_phase(cfg)
    assert res.dataplane["alloc_misses"] > 0
    return res


GRID_CASES = [
    ("original", 4, 2),
    ("pipelined", 4, 2),
    ("ompss_steps", 4, 2),
    ("ompss_perfft", 4, 1),
    ("ompss_combined", 4, 1),
    ("original", 4, 1),
]


class TestHostDoesTheChargedWork:
    """``CostModel.fft_xy`` charges QE's empty-line skipping; the host xy
    stage must transform exactly the lines it charges, no more."""

    def test_lines_transformed_per_plane_equal_lines_charged(self, monkeypatch):
        from repro import _fan
        from repro.core.pipeline import CostConstants, CostModel
        from repro.fft.backends import KernelEngine
        from repro.fft.backends import engine as engine_mod

        desc = FftDescriptor(Cell(alat=6.0), ecutwfc=30.0)
        layout = DistributedLayout(desc, 2, 1)
        sticks = desc.sticks
        lines: dict[tuple[int, int], int] = {}
        # The passes run on the engine's fan-out threads: count under a lock.
        lock = threading.Lock()

        def spy(fn):
            def counted(a, n=None, axis=-1, norm=None, out=None):
                key = (axis, a.shape[axis])
                with lock:
                    lines[key] = lines.get(key, 0) + a.size // a.shape[axis]
                return fn(a, n=n, axis=axis, norm=norm, out=out)

            return counted

        npp = layout.npp(0)
        planes = np.zeros((npp, desc.nr1, desc.nr2), dtype=np.complex128)
        support = sticks.xy_support
        x_rows = sum(hi - lo for lo, hi in sticks.x_runs)
        engine = KernelEngine()
        # Three slices per call from the second call of the shape on (the
        # first plans pocketfft's lengths unfanned).
        monkeypatch.setattr(_fan, "_cpus", lambda: 3)
        monkeypatch.setattr(engine_mod, "MIN_POINTS", 1)
        engine.cft_2xy(planes, -1, out=planes, support=support)
        monkeypatch.setattr(np.fft, "fft", spy(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", spy(np.fft.ifft))

        engine.cft_2xy(planes, -1, out=planes, support=support)
        assert lines == {
            (-1, desc.nr2): npp * desc.nr1,                    # dense y pass
            (-2, desc.nr1): npp * sticks.nonempty_y_lines,     # stick columns only
        }
        cost = CostModel(layout)
        charged = CostConstants().fft_instr_per_flop * 5.0 * sum(
            count * n * np.log2(n) for (_axis, n), count in lines.items()
        )
        assert charged == pytest.approx(cost.fft_xy(0), rel=1e-12)

        lines.clear()
        engine.cft_2xy(planes, +1, out=planes, support=support)
        assert lines == {
            (-1, desc.nr2): npp * x_rows,                      # stick rows only
            (-2, desc.nr1): npp * desc.nr2,                    # dense x pass
        }
        # The sphere is symmetric under x <-> y on this cubic cell, so the
        # G->R direction does the same number of lines.
        assert x_rows == sticks.nonempty_y_lines and desc.nr1 == desc.nr2


class TestArenaIdentity:
    @pytest.mark.parametrize("version,taskgroups,ranks", GRID_CASES)
    def test_arena_matches_fresh_allocation(self, version, taskgroups, ranks):
        cfg = small_config(
            ranks=ranks, taskgroups=taskgroups, version=version, data_mode=True
        )
        fresh = run_cold(cfg)
        arena = run_fft_phase(cfg)
        assert arena.layout is fresh.layout
        assert arena.dataplane["alloc_misses"] == 0
        np.testing.assert_array_equal(
            as_bytes(arena.output_coefficients()),
            as_bytes(fresh.output_coefficients()),
        )
        assert arena.phase_time == fresh.phase_time
        assert fresh.validate() < 1e-12

    @pytest.mark.parametrize("version", ["original", "pipelined", "ompss_steps"])
    def test_warm_rerun_identical(self, version):
        """A second run reuses pooled buffers; stale contents must not leak
        into any band (full-overwrite discipline)."""
        cfg = small_config(ranks=2, taskgroups=4, version=version, data_mode=True)
        first = run_fft_phase(cfg)
        second = run_fft_phase(cfg)
        np.testing.assert_array_equal(
            as_bytes(first.output_coefficients()),
            as_bytes(second.output_coefficients()),
        )
        # The warm run should actually have recycled buffers.
        assert second.dataplane["reuse_hits"] > 0

    def test_seed_isolation_under_arena(self):
        """Pooled buffers from seed A must not contaminate a seed-B run."""
        cfg_a = small_config(ranks=2, taskgroups=2, data_mode=True, seed=1)
        cfg_b = small_config(ranks=2, taskgroups=2, data_mode=True, seed=2)
        run_fft_phase(cfg_a)  # warm the pools
        warm_b = run_fft_phase(cfg_b)
        cold_b = run_cold(cfg_b)
        np.testing.assert_array_equal(
            as_bytes(warm_b.output_coefficients()),
            as_bytes(cold_b.output_coefficients()),
        )

    @pytest.mark.parametrize(
        "version",
        ["original", "pipelined", "ompss_perfft", "ompss_steps", "ompss_combined"],
    )
    def test_dense_reference_roundtrip(self, version):
        """Batched marshalling + arena still matches the dense cfft3d chain."""
        cfg = small_config(ranks=2, taskgroups=2, version=version, data_mode=True)
        res = run_fft_phase(cfg)
        assert res.validate() < 1e-12


class TestIndexMapCaching:
    @pytest.fixture(scope="class")
    def layouts(self):
        desc_a = FftDescriptor(Cell(alat=5.0), ecutwfc=12.0)
        desc_b = FftDescriptor(Cell(alat=5.0), ecutwfc=12.0)
        return (
            DistributedLayout(desc_a, n_scatter=2, n_groups=2),
            DistributedLayout(desc_b, n_scatter=2, n_groups=2),
        )

    def test_cached_maps_equal_fresh_recompute(self, layouts):
        warm, cold = layouts
        # Warm every cache, then compare against the untouched twin layout.
        for p in range(warm.P):
            warm.local_flat_index(p)
            warm.local_g_table(p)
        for r in range(warm.R):
            warm.group_flat_index(r)
            warm.group_coeff_offsets(r)
        warm.scatter_plane_index()
        for p in range(warm.P):
            np.testing.assert_array_equal(
                warm.local_flat_index(p), cold.local_flat_index(p)
            )
            for a, b in zip(warm.local_g_table(p), cold.local_g_table(p)):
                np.testing.assert_array_equal(a, b)
        for r in range(warm.R):
            np.testing.assert_array_equal(
                warm.group_flat_index(r), cold.group_flat_index(r)
            )
            np.testing.assert_array_equal(
                warm.group_coeff_offsets(r), cold.group_coeff_offsets(r)
            )
        np.testing.assert_array_equal(
            warm.scatter_plane_index(), cold.scatter_plane_index()
        )

    def test_maps_cached_by_identity(self, layouts):
        layout, _ = layouts
        assert layout.local_flat_index(0) is layout.local_flat_index(0)
        assert layout.group_flat_index(0) is layout.group_flat_index(0)
        assert layout.scatter_plane_index() is layout.scatter_plane_index()

    def test_flat_index_consistent_with_g_table(self, layouts):
        layout, _ = layouts
        nr3 = layout.desc.nr3
        for p in range(layout.P):
            _g, stick_local, iz = layout.local_g_table(p)
            np.testing.assert_array_equal(
                layout.local_flat_index(p), stick_local * nr3 + iz
            )


class TestNoCopyMarshalling:
    @pytest.fixture(scope="class")
    def layout(self):
        desc = FftDescriptor(Cell(alat=5.0), ecutwfc=12.0)
        return DistributedLayout(desc, n_scatter=2, n_groups=2)

    def test_distribute_coefficients_rows_fresh_and_contiguous(self, layout):
        coeffs = make_band_coefficients(layout.desc.ngw, 4, seed=0)
        per_proc = distribute_coefficients(layout, coeffs)
        assert len(per_proc) == layout.P
        for p, arr in enumerate(per_proc):
            assert arr.shape == (4, layout.ngw_of(p))
            assert arr.flags.c_contiguous
            # Fresh storage: mutating the split must not touch the source.
            assert not np.shares_memory(arr, coeffs)


class TestDataplaneStats:
    @pytest.mark.parametrize("decomposition,exchanges", [("slab", 3), ("pencil", 5)])
    def test_linear_chain_checks_out_one_block_per_exchange(self, decomposition, exchanges):
        """The FFT stages of the linear chain transform in place: the only
        arena checkouts are the exchanges' receive buffers (pack, then the
        scatter pair or the four transposes; unpack receives into fresh
        result rows) and the real-space section's one scratch."""
        cfg = small_config(
            ranks=4, taskgroups=2, data_mode=True, decomposition=decomposition
        )
        res = run_fft_phase(cfg)
        chains = (cfg.n_complex_bands // cfg.taskgroups) * cfg.ranks * cfg.taskgroups
        assert res.dataplane["acquires"] == (exchanges + 1) * chains

    def test_pencil_arenas_hold_the_stick_rows_of_each_y_brick(self):
        """A linear pencil run keeps one buffer per receive slot and
        process: slot 0 holds the stick block and the compact x-brick of
        the stick-carrying x columns (never live together), sized for the
        larger; slot 1 holds the y-brick of the stick-carrying x rows alone,
        and lends the real-space section its scratch — byte for byte what
        the layout says."""
        cfg = small_config(ranks=4, taskgroups=2, data_mode=True, decomposition="pencil")
        res = run_cold(cfg)
        layout, grid = res.layout, res.layout.pencil
        items = dense = 0
        for p in range(layout.P):
            r, _t = layout.rt_of(p)
            stick = layout.nst_group(r) * layout.desc.nr3
            items += max(stick, math.prod(layout.xbrick_shape(r)))
            items += math.prod(layout.ybrick_shape(r))
            dense += math.prod(grid.y_brick_shape(r)) - math.prod(layout.ybrick_shape(r))
        assert res.dataplane["bytes_resident"] == 16 * items
        assert dense > 0  # the grid has stick-free x rows to leave out

    def test_data_mode_run_reports_dataplane(self):
        cfg = small_config(ranks=2, taskgroups=2, data_mode=True)
        res = run_fft_phase(cfg)
        dp = res.dataplane
        assert dp is not None
        assert dp["acquires"] > 0
        # Balanced checkouts: nothing left live after a clean run.
        assert dp["live"] == 0
        assert dp["acquires"] == dp["releases"]
        assert dp["allocations_avoided"] == dp["reuse_hits"]
        assert dp["bytes_resident"] > 0
        assert dp["live_peak"] > 0

    def test_meta_mode_and_disabled_have_no_dataplane(self, monkeypatch):
        """Meta mode touches no buffer, so it asks for no arena and has no
        dataplane section; a data-mode run cannot disable the arena any
        more."""

        def no_arena(layout, p):
            raise AssertionError(f"meta-mode process {p} asked for an arena")

        monkeypatch.setattr(driver_mod, "workspace_for", no_arena)
        meta = run_fft_phase(small_config(ranks=2, taskgroups=2, data_mode=False))
        assert meta.dataplane is None
        monkeypatch.undo()
        with pytest.raises(TypeError, match="use_workspace"):
            run_fft_phase(
                small_config(ranks=2, taskgroups=2, data_mode=True),
                use_workspace=False,
            )

    def test_arenas_attach_to_layout_and_balance(self):
        cfg = small_config(ranks=2, taskgroups=2, data_mode=True)
        res = run_fft_phase(cfg)
        arenas = layout_workspaces(res.layout)
        assert set(arenas) == set(range(res.layout.P))
        total = aggregate_stats(arenas.values())
        assert total["live"] == 0
        assert total["acquires"] == total["releases"]

    def test_dataplane_gauges_exported_to_telemetry(self):
        cfg = small_config(ranks=2, taskgroups=2, data_mode=True, telemetry=True)
        res = run_fft_phase(cfg)
        snapshot = res.telemetry.metrics.snapshot()
        for name in ("dataplane.acquires", "dataplane.reuse_hits", "dataplane.live"):
            assert name in snapshot, name
            assert snapshot[name]["kind"] == "gauge"

    def test_manifest_carries_dataplane_section(self):
        cfg = small_config(ranks=2, taskgroups=2, data_mode=True, telemetry=True)
        res = run_fft_phase(cfg)
        manifest = build_manifest(res, wall_time_s=0.1)
        assert validate_manifest(manifest) == []
        assert manifest["dataplane"] == res.dataplane

    def test_manifest_omits_dataplane_when_disabled(self):
        cfg = small_config(ranks=2, taskgroups=2, data_mode=False, telemetry=True)
        res = run_fft_phase(cfg)
        manifest = build_manifest(res, wall_time_s=0.1)
        assert validate_manifest(manifest) == []
        assert "dataplane" not in manifest
