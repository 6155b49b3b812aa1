"""Unit tests for the data-plane workspace arena."""

import gc
import threading

import numpy as np
import pytest

from repro.core.workspace import (
    Workspace,
    aggregate_stats,
    layout_workspaces,
    workspace_for,
)
from repro.grids.descriptor import Cell, DistributedLayout, FftDescriptor


@pytest.fixture(scope="module")
def layout():
    desc = FftDescriptor(Cell(alat=5.0), ecutwfc=12.0)
    return DistributedLayout(desc, n_scatter=2, n_groups=2)


class TestAcquireRelease:
    def test_acquire_properties(self):
        ws = Workspace()
        buf = ws.acquire("blk", (3, 5))
        assert buf.shape == (3, 5)
        assert buf.dtype == np.complex128
        assert buf.flags.c_contiguous
        other = ws.acquire("blk", (4,), dtype=np.float64)
        assert other.dtype == np.float64

    def test_release_then_acquire_reuses_object(self):
        ws = Workspace()
        buf = ws.acquire("blk", (8, 8))
        ws.release(buf)
        again = ws.acquire("blk", (8, 8))
        assert again is buf
        stats = ws.stats()
        assert stats["reuse_hits"] == 1
        assert stats["alloc_misses"] == 1
        assert stats["acquires"] == 2

    def test_pool_keys_separate_kind_shape_dtype(self):
        ws = Workspace()
        a = ws.acquire("a", (4, 4))
        ws.release(a)
        # Different kind, different shape, different dtype: none may reuse a.
        assert ws.acquire("b", (4, 4)) is not a
        assert ws.acquire("a", (4, 5)) is not a
        assert ws.acquire("a", (4, 4), dtype=np.complex64) is not a
        assert ws.acquire("a", (4, 4)) is a

    def test_two_checkouts_are_distinct(self):
        ws = Workspace()
        a = ws.acquire("blk", (4,))
        b = ws.acquire("blk", (4,))
        assert a is not b

    def test_contents_unspecified_but_buffer_usable(self):
        ws = Workspace()
        buf = ws.acquire("blk", (16,))
        buf[:] = 7.0 + 1j
        ws.release(buf)
        again = ws.acquire("blk", (16,))
        again[:] = 0.0
        np.testing.assert_array_equal(again, np.zeros(16, dtype=np.complex128))


class TestTolerantRelease:
    def test_release_none_is_noop(self):
        ws = Workspace()
        ws.release(None, None)
        assert ws.stats()["foreign_releases"] == 0
        assert ws.stats()["releases"] == 0

    def test_release_foreign_array_counted_not_raised(self):
        ws = Workspace()
        ws.release(np.zeros(4, dtype=np.complex128))
        stats = ws.stats()
        assert stats["foreign_releases"] == 1
        assert stats["releases"] == 0
        assert stats["pooled"] == 0

    def test_double_release_counted_as_foreign(self):
        ws = Workspace()
        buf = ws.acquire("blk", (4,))
        ws.release(buf)
        ws.release(buf)
        stats = ws.stats()
        assert stats["releases"] == 1
        assert stats["foreign_releases"] == 1
        assert stats["pooled"] == 1  # not pooled twice

    def test_view_of_checked_out_buffer_is_foreign(self):
        ws = Workspace()
        buf = ws.acquire("blk", (4, 4))
        ws.release(buf[0])
        assert ws.stats()["foreign_releases"] == 1
        assert ws.stats()["live"] == 1

    def test_variadic_release(self):
        ws = Workspace()
        a = ws.acquire("blk", (4,))
        b = ws.acquire("blk", (4,))
        ws.release(a, None, b)
        stats = ws.stats()
        assert stats["releases"] == 2
        assert stats["live"] == 0


class TestLeakTolerance:
    def test_leaked_buffer_is_pruned_not_kept_alive(self):
        ws = Workspace()
        buf = ws.acquire("blk", (64,))
        assert ws.stats()["live"] == 1
        del buf
        gc.collect()
        ws.begin_run()  # prunes dead checkouts
        stats = ws.stats()
        assert stats["live"] == 0
        assert stats["live_peak"] == 0
        # The leaked buffer never re-enters the pool.
        assert stats["pooled"] == 0

    def test_bytes_resident_tracks_pool_and_checkouts(self):
        ws = Workspace()
        buf = ws.acquire("blk", (8,))  # 8 * 16 bytes
        assert ws.stats()["bytes_resident"] == 128
        ws.release(buf)
        assert ws.stats()["bytes_resident"] == 128  # pooled now
        del buf
        gc.collect()
        assert ws.stats()["bytes_resident"] == 128  # pool keeps it alive


class TestPeakTracking:
    def test_live_peak_and_begin_run_reset(self):
        ws = Workspace()
        bufs = [ws.acquire("blk", (4,)) for _ in range(3)]
        assert ws.stats()["live_peak"] == 3
        ws.release(*bufs)
        assert ws.stats()["live_peak"] == 3  # sticky within a run
        ws.begin_run()
        assert ws.stats()["live_peak"] == 0
        one = ws.acquire("blk", (4,))
        assert ws.stats()["live_peak"] == 1
        ws.release(one)


class TestLayoutAttachment:
    def test_workspace_for_is_per_layout_process(self, layout):
        a = workspace_for(layout, 0)
        assert workspace_for(layout, 0) is a
        assert workspace_for(layout, 1) is not a

    def test_layout_workspaces_snapshot(self, layout):
        workspace_for(layout, 0)
        workspace_for(layout, 3)
        snap = layout_workspaces(layout)
        assert set(snap) >= {0, 3}
        assert snap[0] is workspace_for(layout, 0)

    def test_fresh_layout_has_no_arenas(self):
        desc = FftDescriptor(Cell(alat=5.0), ecutwfc=8.0)
        fresh = DistributedLayout(desc, n_scatter=2, n_groups=1)
        assert layout_workspaces(fresh) == {}

    def test_aggregate_stats_sums(self):
        a, b = Workspace(), Workspace()
        a.release(a.acquire("x", (4,)))
        b.acquire("y", (2,))
        total = aggregate_stats([a, b])
        assert total["acquires"] == 2
        assert total["releases"] == 1
        assert total["live"] == 1
        assert aggregate_stats([]) == {}


class TestThreadSafety:
    def test_hammer_no_double_ownership(self):
        ws = Workspace()
        errors: list[str] = []
        barrier = threading.Barrier(8)

        def worker(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            held = []
            for _ in range(200):
                if held and rng.random() < 0.5:
                    buf = held.pop()
                    # Ownership check: our sentinel must still be intact —
                    # nobody else may have been handed this buffer.
                    if buf[0] != complex(seed):
                        errors.append("buffer handed to two owners")
                    ws.release(buf)
                else:
                    buf = ws.acquire("blk", (32,))
                    buf[0] = complex(seed)
                    held.append(buf)
            ws.release(*held)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = ws.stats()
        assert stats["live"] == 0
        assert stats["acquires"] == stats["releases"]
        assert stats["foreign_releases"] == 0
