"""Tests for RunConfig validation and derived execution parameters."""

import pytest

from repro.core import RunConfig

NAN, INF = float("nan"), float("inf")


class TestValidation:
    def test_paper_defaults(self):
        cfg = RunConfig()
        assert cfg.ecutwfc == 80.0
        assert cfg.alat == 20.0
        assert cfg.nbnd == 128
        assert cfg.taskgroups == 8
        assert cfg.n_complex_bands == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"version": "nope"},
            {"nbnd": 0},
            {"nbnd": 7},
            {"ranks": 0},
            {"taskgroups": 0},
            {"nbnd": 12, "taskgroups": 4},  # 6 complex bands not divisible by 4
            {"n_nodes": 0},
            {"grainsize_xy": 0},
            {"grainsize_z": 0},
            {"ecutwfc": 0.0},
            {"ecutwfc": NAN},
            {"ecutwfc": INF},
            {"alat": -1.0},
            {"alat": NAN},
            {"dual": 0.5},
            {"dual": NAN},
            {"dual": INF},
            {"ecutwfc": -1.0},
            {"alat": 0.0},
            {"alat": INF},
            {"ranks": 3, "taskgroups": 1, "n_nodes": 2},  # uneven over nodes
            {"decomposition": "cube"},
            {"tuning": "always"},
            {"scheduler": "bogus"},
            {"seed": -1, "data_mode": True},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    @pytest.mark.parametrize(
        "field", ["ecutwfc", "alat", "dual"]
    )
    def test_non_finite_float_error_names_its_field(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            RunConfig(**{field: NAN})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"scheduler": "bogus"}, r"^scheduler must be one of \('fifo', "),
            ({"seed": -1}, r"^seed must be >= 0, got -1$"),
        ],
        ids=["scheduler", "seed"],
    )
    def test_knob_error_names_its_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**kwargs)

    def test_scheduler_names_match_the_policy_table(self):
        from repro.core.config import SCHEDULERS
        from repro.ompss.scheduler import _POLICIES

        assert tuple(_POLICIES) == SCHEDULERS


class TestDerived:
    def test_original_mapping(self):
        cfg = RunConfig(ranks=8, taskgroups=8, version="original")
        assert cfg.n_mpi_ranks == 64
        assert cfg.threads_per_rank == 1
        assert cfg.layout_scatter == 8
        assert cfg.layout_groups == 8
        assert cfg.bands_in_flight == 8
        assert cfg.n_iterations == 8
        assert cfg.total_streams == 64
        assert not cfg.is_task_version

    def test_perfft_mapping(self):
        """The OmpSs version: N ranks, 8 threads replacing the task groups."""
        cfg = RunConfig(ranks=8, taskgroups=8, version="ompss_perfft")
        assert cfg.n_mpi_ranks == 8
        assert cfg.threads_per_rank == 8
        assert cfg.layout_groups == 1  # ntg off
        assert cfg.n_iterations == 64  # one task per complex band
        assert cfg.total_streams == 64
        assert cfg.is_task_version

    def test_steps_mapping(self):
        cfg = RunConfig(ranks=4, taskgroups=8, version="ompss_steps")
        assert cfg.n_mpi_ranks == 32
        assert cfg.threads_per_rank == 2
        assert cfg.layout_groups == 8  # keeps the task groups
        assert cfg.total_streams == 64

    def test_combined_mapping(self):
        cfg = RunConfig(ranks=8, taskgroups=8, version="ompss_combined")
        assert cfg.n_mpi_ranks == 8
        assert cfg.threads_per_rank == 8
        assert cfg.layout_groups == 1

    def test_hyperthreading_configs(self):
        """16x8 and 32x8 oversubscribe the 68-core node with 2 and 4 HT."""
        assert RunConfig(ranks=16, version="original").total_streams == 128
        assert RunConfig(ranks=32, version="original").total_streams == 256

    def test_label(self):
        assert RunConfig(ranks=8).label() == "8x8 original"
