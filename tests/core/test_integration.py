"""Integration tests: every executor, every shape, validated against the
dense reference — and all executors must agree bit-for-bit on the numerics.
"""

import numpy as np
import pytest

from repro.core import RunConfig, run_fft_phase
from repro.telemetry import Trace

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


def small_config(**kwargs):
    merged = {**SMALL, **kwargs}
    return RunConfig(**merged)


class TestCorrectness:
    @pytest.mark.parametrize(
        "version",
        ["original", "pipelined", "ompss_perfft", "ompss_steps", "ompss_combined"],
    )
    def test_all_versions_match_dense_reference(self, version):
        cfg = small_config(ranks=2, taskgroups=2, version=version, data_mode=True)
        res = run_fft_phase(cfg)
        assert res.validate() < 1e-12

    @pytest.mark.parametrize(
        "ranks,taskgroups",
        [(1, 1), (1, 4), (4, 1), (2, 2), (3, 2), (2, 4)],
    )
    def test_original_over_process_grids(self, ranks, taskgroups):
        cfg = small_config(ranks=ranks, taskgroups=taskgroups, version="original", data_mode=True)
        res = run_fft_phase(cfg)
        assert res.validate() < 1e-12

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_perfft_over_rank_counts(self, ranks):
        cfg = small_config(ranks=ranks, taskgroups=4, version="ompss_perfft", data_mode=True)
        res = run_fft_phase(cfg)
        assert res.validate() < 1e-12

    def test_all_versions_agree_exactly(self):
        """Identical inputs -> identical outputs regardless of executor."""
        outputs = {}
        for version in ["original", "pipelined", "ompss_perfft", "ompss_steps", "ompss_combined"]:
            cfg = small_config(ranks=2, taskgroups=2, version=version, data_mode=True)
            outputs[version] = run_fft_phase(cfg).output_coefficients()
        base = outputs.pop("original")
        for version, out in outputs.items():
            np.testing.assert_array_equal(out, base, err_msg=version)

    def test_schedule_invariance(self):
        """LIFO and FIFO schedules must not change the numerics."""
        outs = []
        for policy in ("fifo", "lifo"):
            cfg = small_config(
                ranks=2, taskgroups=2, version="ompss_combined", data_mode=True, scheduler=policy
            )
            outs.append(run_fft_phase(cfg).output_coefficients())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_seed_changes_data(self):
        a = run_fft_phase(small_config(ranks=1, taskgroups=2, data_mode=True, seed=1))
        b = run_fft_phase(small_config(ranks=1, taskgroups=2, data_mode=True, seed=2))
        assert not np.array_equal(a.output_coefficients(), b.output_coefficients())

    def test_single_process_single_group(self):
        """The fully serial degenerate case still works end to end."""
        cfg = small_config(ranks=1, taskgroups=1, version="original", data_mode=True)
        res = run_fft_phase(cfg)
        assert res.validate() < 1e-12


class TestMetaDataModeConsistency:
    def test_same_event_structure(self):
        """Meta mode must execute the same instructions as data mode."""
        times, instrs = [], []
        for data_mode in (True, False):
            cfg = small_config(ranks=2, taskgroups=2, version="original", data_mode=data_mode)
            res = run_fft_phase(cfg)
            times.append(res.phase_time)
            instrs.append(res.cpu.counters.total_instructions())
        assert times[0] == pytest.approx(times[1], rel=1e-12)
        assert instrs[0] == pytest.approx(instrs[1], rel=1e-12)

    def test_meta_mode_has_no_outputs(self):
        res = run_fft_phase(small_config(ranks=1, taskgroups=2, data_mode=False))
        with pytest.raises(RuntimeError, match="data mode"):
            res.output_coefficients()
        with pytest.raises(RuntimeError, match="data mode"):
            res.validate()


class TestRunResult:
    def test_counters_cover_all_streams(self):
        cfg = small_config(ranks=2, taskgroups=2, version="original")
        res = run_fft_phase(cfg)
        assert len(res.cpu.counters.streams) == cfg.total_streams

    def test_phase_time_positive_and_finite(self):
        res = run_fft_phase(small_config(ranks=2, taskgroups=2))
        assert 0 < res.phase_time < 10.0

    def test_observers_wired(self):
        cfg = small_config(ranks=2, taskgroups=2, version="ompss_perfft")
        trace = Trace()
        run_fft_phase(cfg, trace=trace)
        assert any(r.call in ("alltoall", "alltoallw") for r in trace.mpi)
        assert any(r.phase == "fft_xy" for r in trace.compute)
        assert len(trace.tasks) == cfg.n_complex_bands * cfg.n_mpi_ranks

    def test_completed_bands_recorded_per_process(self):
        cfg = small_config(ranks=2, taskgroups=2)
        res = run_fft_phase(cfg)
        assert list(res.completed) == list(range(4))
        bands = frozenset(range(cfg.n_complex_bands))
        assert all(done == bands for done in res.completed.values())


class TestPerformanceShape:
    """Cheap versions of the paper's qualitative claims on the small workload
    (the full-workload claims live in the benchmark harness)."""

    def test_more_ranks_reduce_runtime_serial_region(self):
        # Disable the per-message MPI-stack instructions: on this toy
        # workload they dominate and strong scaling genuinely inverts
        # (realistic, but not what this test probes).
        from repro.core import CostConstants

        cc = CostConstants(instr_per_message=0.0)
        t1 = run_fft_phase(small_config(ranks=1, taskgroups=2), cost_constants=cc).phase_time
        t4 = run_fft_phase(small_config(ranks=4, taskgroups=2), cost_constants=cc).phase_time
        assert t4 < t1

    def test_original_does_not_scale_linearly(self):
        """The paper's headline problem: poor scaling of the FFT phase."""
        t1 = run_fft_phase(small_config(ranks=1, taskgroups=2)).phase_time
        t4 = run_fft_phase(small_config(ranks=4, taskgroups=2)).phase_time
        assert t1 / t4 < 4.0
