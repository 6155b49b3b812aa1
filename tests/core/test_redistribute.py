"""The Alltoallw redistribution: size-only payloads drive the same timeline.

Every exchange moves through the block plans of
:mod:`repro.core.redistribute`; there is no second, staged path and no knob
selecting one.  Meta mode replaces the payloads with size-only descriptors
of the same volumes, so the simulated timeline must not move at all — the
sweep harness and the autotuner's search rungs depend on it.  What the host
moves inside those volumes — each plan's live parts and zero regions — is
held against the priced blocks here too.  (Plan-level data movement is
pinned in ``test_wave_marshalling.py``; the per-executor timelines and
outputs in ``test_executor_timelines.py``.)
"""

import copy
import functools
import json

import numpy as np
import pytest

from repro.analysis import analyze_pair
from repro.core import RunConfig, run_fft_phase
from repro.grids import Cell, DistributedLayout, FftDescriptor
from repro.telemetry.manifest import build_manifest, validate_manifest
from repro.tuning import workload_digest
from tests.core.exchange import exchanges

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)

#: Plan geometry grids: the tests' SMALL one and the paper's 120^3.
GRIDS = {"small": dict(alat=5.0, ecutwfc=12.0), "paper": dict(alat=20.0, ecutwfc=80.0)}
#: (grid, decomposition, T), with R = 2 slab ranks or a 2 x 2 pencil grid
#: (the e2e data workloads' shapes at T = 2).
LAYOUTS = [(g, d, T) for g in GRIDS for d in ("slab", "pencil") for T in (1, 2)]
PENCIL_LAYOUTS = [case for case in LAYOUTS if case[1] == "pencil"]


@functools.lru_cache(maxsize=None)
def _desc(grid):
    kw = GRIDS[grid]
    return FftDescriptor(Cell(alat=kw["alat"]), ecutwfc=kw["ecutwfc"])


def plan_layout(grid, decomposition, T):
    """A fresh layout (its plans are built here, not shared with any run)."""
    R = 4 if decomposition == "pencil" else 2
    return DistributedLayout(_desc(grid), R, T, decomposition)


def _slots(blocks, size):
    """How often each slot of a ``size`` buffer is named by ``blocks``."""
    idx = [b.indices() for b in blocks]
    return np.bincount(np.concatenate(idx) if idx else np.empty(0, np.intp), minlength=size)


@pytest.fixture(scope="module", params=LAYOUTS, ids=["-".join(map(str, c)) for c in LAYOUTS])
def any_layout(request):
    return plan_layout(*request.param)


class TestLiveMoves:
    """Each data-mode plan's live parts and zero regions against its priced
    blocks: the host moves a subset of what the network prices, every
    received slot once, and zeroes exactly what a later stage reads that
    no part writes."""

    def test_live_parts_pair_up_inside_their_priced_blocks(self, any_layout):
        for name, _members, fw, bw in exchanges(any_layout):
            for plans, back in ((fw, bw), (bw, fw)):
                for src, plan in enumerate(plans):
                    send_size = int(np.prod(back[src].recv_shape))
                    for dst, peer in enumerate(plans):
                        sps, rps = plan.send_parts[dst], peer.recv_parts[src]
                        assert [p.n_items for p in sps] == [p.n_items for p in rps], name
                        recv_size = int(np.prod(peer.recv_shape))
                        for parts, block, size in (
                            (sps, plan.send_blocks[dst], send_size),
                            (rps, peer.recv_blocks[src], recv_size),
                        ):
                            live = _slots(parts, size)
                            assert len(live) == size and live.max(initial=0) <= 1, name
                            if block.is_meta:
                                # Priced by volume alone (pencil y<->x).
                                assert live.sum() <= block.n_items, name
                            else:
                                assert not (live & (_slots([block], size) == 0)).any(), name

    @pytest.mark.parametrize(
        "case", PENCIL_LAYOUTS, ids=["-".join(map(str, c)) for c in PENCIL_LAYOUTS]
    )
    def test_yx_parts_move_each_grid_point_to_itself(self, case):
        """Across the y<->x transpose every moved item leaves and lands at
        the same (x, y, z) grid point: the y-brick side addresses its
        compact rows, the x-brick side its compact columns (the grid's
        stick-carrying x in ascending order), cut at the same runs."""
        layout = plan_layout(*case)
        grid = layout.pencil
        nr2 = layout.desc.nr2
        x_of_col = np.concatenate([np.arange(lo, hi) for lo, hi in layout.desc.sticks.x_runs])
        n_live = len(x_of_col)

        def items(parts):
            return np.concatenate([p.indices() for p in parts] + [np.empty(0, np.intp)])

        for kind, members, fw, _bw in exchanges(layout):
            if kind != "pencil_yx":
                continue
            for s, (src, plan) in enumerate(zip(members, fw)):
                runs = layout.ybrick_x_runs(src)
                x_of_row = np.concatenate([np.arange(lo, hi) for lo, hi in runs])
                assert plan.send_parts[0] and len(x_of_row) == layout.ybrick_shape(src)[0]
                nzj = grid.nz(grid.coords(src)[1])
                for d, (dst, peer) in enumerate(zip(members, fw)):
                    sent, got = items(plan.send_parts[d]), items(peer.recv_parts[s])
                    assert [p.lead for p in plan.send_parts[d]] == [hi - lo for lo, hi in runs]
                    ylo = grid.y_span(grid.coords(dst)[0])[0]
                    assert peer.recv_shape == (grid.ny(grid.coords(dst)[0]), nzj, n_live)
                    np.testing.assert_array_equal(
                        x_of_row[sent // (nzj * nr2)], x_of_col[got % n_live]
                    )
                    np.testing.assert_array_equal(sent // nr2 % nzj, got // n_live % nzj)
                    np.testing.assert_array_equal(sent % nr2, ylo + got // (nzj * n_live))

    def test_zero_regions_cover_what_no_live_part_writes(self, any_layout):
        layout = any_layout
        for kind, members, fw, bw in exchanges(layout):
            for inverse, plans in ((False, fw), (True, bw)):
                for member, plan in zip(members, plans):
                    size = int(np.prod(plan.recv_shape))
                    live = _slots([p for peer in plan.recv_parts for p in peer], size)
                    zero = _slots(plan.zero, size)
                    assert live.max(initial=0) <= 1 and zero.max(initial=0) <= 1, kind
                    if inverse:
                        # Every slot the next stage reads arrives live.
                        assert plan.zero == (), kind
                    elif kind in ("scatter", "pencil_yx"):
                        # The compact blocks the real-space section reads:
                        # every slot arrives live, nothing is zeroed.
                        assert plan.zero == (), kind
                        assert (live == 1).all(), kind
                    elif kind == "pencil_zy":
                        # The compact y-brick, zeroed whole for the y FFT;
                        # every row of it receives sticks.
                        assert plan.recv_shape == layout.ybrick_shape(member), kind
                        assert (zero == 1).all(), kind
                        assert live.reshape(plan.recv_shape[0], -1).any(axis=1).all(), kind
                    else:
                        assert (zero == 1).all(), kind  # sparse receive: zeroed whole

    def test_no_receive_holds_a_dense_plane_or_line(self, any_layout):
        """The real-space section builds dense planes (x lines) a chunk at
        a time in a scratch; no exchange delivers one.  The slab receives
        stick blocks and the compact ``(nst_all, npp)`` block, never
        planes; a pencil brick holds the stick-carrying x rows (y-brick)
        or x columns (x-brick) alone."""
        layout = any_layout
        desc, grid = layout.desc, layout.pencil
        assert layout.xbrick_columns()[1] < desc.nr1
        for kind, members, fw, bw in exchanges(layout):
            for plans in (fw, bw):
                for member, plan in zip(members, plans):
                    if kind == "pack":
                        assert plan.recv_shape in (
                            (layout.nst_group(layout.rt_of(member)[0]), desc.nr3),
                            (layout.T, desc.ngw),
                        )
                    elif grid is None:
                        assert plan.recv_shape in (
                            (desc.sticks.nsticks, layout.npp(member)),
                            (layout.nst_group(member), desc.nr3),
                        )
                    else:
                        assert plan.recv_shape in (
                            layout.xbrick_shape(member),
                            layout.ybrick_shape(member),
                            (layout.nst_group(member), desc.nr3),
                        ), kind

    def test_yx_moves_only_stick_rows_but_prices_the_brick(self, any_layout):
        layout = any_layout
        x_live = sum(hi - lo for lo, hi in layout.desc.sticks.x_runs)
        for kind, _members, fw, bw in exchanges(layout):
            for plans in (fw, bw):
                moved = sum(p.n_items for plan in plans for peer in plan.send_parts for p in peer)
                priced = sum(b.n_items for plan in plans for b in plan.send_blocks)
                if kind == "pencil_yx":
                    assert moved * layout.desc.nr1 == priced * x_live < priced * layout.desc.nr1
                else:
                    assert moved == priced, kind

    def test_priced_volumes_equal_the_meta_plans(self, any_layout):
        """What the network sees is what it saw before live parts: the same
        bytes per endpoint and the same per-sender pair list."""
        from tests.mpisim.test_properties import build_world

        for (kind, _m, fw, bw), (_k, _mm, mfw, mbw) in zip(
            exchanges(any_layout), exchanges(any_layout, data_mode=False)
        ):
            for plans, metas in ((fw, mfw), (bw, mbw)):
                assert [p.sent_bytes() for p in plans] == [m.sent_bytes() for m in metas]
                comm = build_world(len(plans)).comm_world
                costs = [
                    comm._alltoallw_costs({
                        m: {"send_blocks": tuple(p.send_blocks), "recv_blocks": tuple(p.recv_blocks)}
                        for m, p in enumerate(side)
                    })
                    for side in (plans, metas)
                ]
                assert costs[0] == costs[1], kind


class TestMetaModeParity:
    @pytest.mark.parametrize(
        "decomposition", ["slab", "pencil"], ids=["slab-packfree", "pencil-packfree"]
    )
    def test_meta_mode_reproduces_data_mode_timeline(self, decomposition):
        """Size-only payloads must drive the cost model identically to real
        arrays — the sweep harness depends on it."""
        times, instrs = [], []
        for data_mode in (True, False):
            cfg = RunConfig(
                ranks=4,
                taskgroups=2,
                version="original",
                data_mode=data_mode,
                decomposition=decomposition,
                **SMALL,
            )
            res = run_fft_phase(cfg)
            times.append(res.phase_time)
            instrs.append(res.cpu.counters.total_instructions())
        assert times[0] == pytest.approx(times[1], rel=1e-14)
        assert instrs[0] == pytest.approx(instrs[1], rel=1e-9)

    def test_redistribution_knob_is_gone(self):
        """The packed twin was retired with its selector: naming it is an
        unknown field at construction, not a silently ignored option."""
        with pytest.raises(TypeError, match="redistribution"):
            RunConfig(ranks=2, taskgroups=2, redistribution="packed", **SMALL)
        assert not hasattr(RunConfig(ranks=2, taskgroups=2, **SMALL), "redistribution")


def test_artifacts_written_before_the_retirement_still_read(tmp_path):
    """A wisdom record and a run manifest written while ``redistribution``
    / ``pack_copies`` and ``fft_backend`` / ``kernel_workers`` still existed
    keep working: the stored knob vector applies (the retired keys are
    ignored, the live ones take effect), the manifest validates, and an
    old-vs-new ``perf diff`` blames nothing."""
    wisdom = tmp_path / "wisdom.jsonl"
    cfg = RunConfig(
        ranks=2, taskgroups=2, data_mode=True, telemetry=True,
        tuning="consult", wisdom_path=str(wisdom), **SMALL,
    )
    old_record = {
        "schema": 1, "digest": workload_digest(cfg), "score": 1.0e-4,
        "predicted_s": None, "source": "search", "provenance": {},
        "knobs": {
            "taskgroups": 2, "scheduler": "fifo", "grainsize_xy": 10,
            "grainsize_z": 200, "decomposition": "pencil",
            "redistribution": "packfree", "fft_backend": "numpy",
            "kernel_workers": 1,
        },
    }
    wisdom.write_text(json.dumps(old_record) + "\n")
    res = run_fft_phase(cfg)
    assert res.tuning["hit"] and res.tuning["applied"]
    assert res.config.decomposition == "pencil"

    new = build_manifest(res, created="(test)")
    old = copy.deepcopy(new)
    old["config"].update(redistribution="packfree", fft_backend="numpy", kernel_workers=1)
    old["dataplane"].update(
        redistribution="packfree", pack_copies=0,
        kernel_backend="numpy", kernel_workers=1,
        kernel_pool_batches=0, kernel_pool_rows=0,
    )
    old["metrics"]["dataplane.pack_copies"] = copy.deepcopy(
        new["metrics"]["dataplane.live"]
    )
    assert validate_manifest(old) == []
    assert validate_manifest(new) == []
    report = analyze_pair(old, new)
    assert report.verdict == "neutral"
    assert [(f.kind, f.delta) for f in report.findings] == [("runtime", 0.0)]
