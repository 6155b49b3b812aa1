"""Structural correspondence with the paper's code listings (Figs. 1, 4, 5).

Fig. 1 gives the kernel's step order; these tests assert that the traced
execution of each executor realizes exactly that structure — step sequence
per stream for the original, per-step task graphs for Opt 1, one task per
FFT for Opt 2.
"""

import pytest

from repro.core import RunConfig, trace_run

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)

#: Fig. 1's loop body, as phase names (MPI calls interleave around them).
FIG1_COMPUTE_SEQUENCE = [
    "prepare_psis",    # pack NTG bands (the Psi preparation)
    "pack_sticks",     # expansion around the pack Alltoallv
    "fft_z",           # multi-band FW-FFT along Z
    "scatter_reorder", # multi-band scatter (fw)
    "fft_xy",          # multi-band FW-FFT along XY
    "vofr",            # VOFR
    "fft_xy",          # multi-band BW-FFT along XY
    "scatter_reorder", # multi-band scatter (bw)
    "fft_z",           # multi-band BW-FFT along Z
    "unpack_sticks",   # extraction around the unpack Alltoallv
    "unpack_sticks",
]


class TestFig1Original:
    @pytest.fixture(scope="class")
    def trace(self):
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, version="original")
        _res, trace = trace_run(cfg)
        return trace

    def test_step_sequence_matches_fig1(self, trace):
        seq = [r.phase for r in trace.compute_of((0, 0))]
        n_iterations = 2  # nbnd/2=4 complex bands / T=2
        assert seq == FIG1_COMPUTE_SEQUENCE * n_iterations

    def test_mpi_sequence_interleaves_two_layers(self, trace):
        calls = [(r.call, r.comm_name.rstrip("0123456789")) for r in trace.mpi_of((0, 0))]
        per_iteration = [
            ("alltoallw", "pack"),     # pack NTG bands (pack-free datatypes)
            ("alltoallw", "scatter"),  # fw scatter
            ("alltoallw", "scatter"),  # bw scatter
            ("alltoallw", "pack"),     # unpack NTG bands
        ]
        assert calls == per_iteration * 2

    def test_every_stream_runs_the_same_program(self, trace):
        sequences = {
            stream: tuple(r.phase for r in trace.compute_of(stream))
            for stream in trace.streams
        }
        assert len(set(sequences.values())) == 1


class TestFig5PerFft:
    def test_one_task_per_fft(self):
        """Fig. 5: each loop iteration (one complex band FFT) is one task."""
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, version="ompss_perfft")
        _res, trace = trace_run(cfg)
        per_rank: dict[int, list] = {}
        for rank, rec in trace.tasks:
            per_rank.setdefault(rank, []).append(rec.name)
        for rank, names in per_rank.items():
            assert sorted(names) == [f"fft_band{b}" for b in range(4)], rank

    def test_tasks_are_independent(self):
        """No task ever waits on another task's region (distinct bands)."""
        cfg = RunConfig(**SMALL, ranks=1, taskgroups=2, version="ompss_perfft")
        res, trace = trace_run(cfg)
        # All bands' tasks started before any finished would be the extreme
        # proof; weaker but schedule-robust: with 2 workers and 4 bands,
        # at least two tasks overlap in time on every rank.
        spans = [
            (rec.started_at, rec.finished_at) for _r, rec in trace.tasks
        ]
        overlaps = sum(
            1
            for i, (s1, e1) in enumerate(spans)
            for s2, _e2 in spans[i + 1:]
            if s1 < s2 < e1
        )
        assert overlaps >= 1


class TestFig4PerStep:
    def test_step_tasks_created(self):
        """Fig. 4: every pipeline step of every iteration is a task."""
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, version="ompss_steps")
        _res, trace = trace_run(cfg)
        names = [rec.name for rank, rec in trace.tasks if rank == 0]
        for step in ("prepare", "pack", "fft_z_fw", "scatter_fw", "fft_xy_fw",
                     "vofr", "fft_xy_bw", "scatter_bw", "fft_z_bw", "unpack"):
            assert any(n.startswith(step) for n in names), step

    def test_flow_dependency_orders_steps_within_iteration(self):
        cfg = RunConfig(**SMALL, ranks=1, taskgroups=2, version="ompss_steps")
        _res, trace = trace_run(cfg)
        recs = {rec.name: rec for rank, rec in trace.tasks if rank == 0}
        it0 = [recs[n] for n in recs if str(("it", 0)) in n]
        prepare = next(r for r in it0 if r.name.startswith("prepare"))
        unpack = next(r for r in it0 if r.name.startswith("unpack"))
        assert prepare.finished_at <= unpack.started_at
