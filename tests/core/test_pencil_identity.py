"""Pencil decomposition correctness: agreement with the slab path.

The z+y+x 1D FFT chain over the Pr x Pc grid is a complete 3D transform,
so pencil outputs must match the slab executors to floating-point
roundoff — on every executor, on degenerate grids (one rank, prime rank
counts), and across simulated node boundaries (the acceptance criterion:
pencil on >= 2 nodes allclose to single-node slab).
"""

import numpy as np
import pytest

from repro.core import RunConfig, run_fft_phase
from repro.telemetry import Trace

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)

EXECUTORS = ["original", "pipelined", "ompss_steps", "ompss_perfft", "ompss_combined"]


@pytest.fixture(scope="module")
def slab_reference():
    cfg = RunConfig(ranks=4, taskgroups=2, version="original", data_mode=True, **SMALL)
    return run_fft_phase(cfg).output_coefficients()


class TestPencilMatchesSlab:
    @pytest.mark.parametrize("version", EXECUTORS)
    def test_every_executor_agrees_with_slab(self, slab_reference, version):
        cfg = RunConfig(
            ranks=4,
            taskgroups=2,
            version=version,
            data_mode=True,
            decomposition="pencil",
            **SMALL,
        )
        res = run_fft_phase(cfg)
        assert res.validate() < 1e-12, version
        np.testing.assert_allclose(
            res.output_coefficients(), slab_reference, rtol=1e-12, atol=1e-14
        )

    @pytest.mark.parametrize("version", EXECUTORS)
    def test_pencil_is_pack_free(self, version):
        """Every exchange of the pencil chain — pack, the four transposes,
        unpack — is an Alltoallw on block descriptors, under every policy."""
        cfg = RunConfig(
            ranks=4,
            taskgroups=2,
            version=version,
            data_mode=True,
            decomposition="pencil",
            **SMALL,
        )
        trace = Trace()
        run_fft_phase(cfg, trace=trace)
        calls = [record.call for record in trace.mpi]
        assert calls and set(calls) == {"alltoallw"}, version

    @pytest.mark.parametrize(
        "ranks,taskgroups",
        [
            (1, 2),   # single scatter rank: both transposes degenerate
            (2, 2),   # Pr=1: transpose_yx is a self-exchange
            (3, 2),   # prime R: 1x3 grid
            (6, 1),   # 2x3 grid, one task group
            (2, 4),   # more groups than scatter ranks per group
        ],
    )
    def test_degenerate_grids_validate(self, ranks, taskgroups):
        cfg = RunConfig(
            ranks=ranks,
            taskgroups=taskgroups,
            version="original",
            data_mode=True,
            decomposition="pencil",
            **SMALL,
        )
        res = run_fft_phase(cfg)
        assert res.validate() < 1e-12, (ranks, taskgroups)

    def test_grid_factorization_attached_to_layout(self):
        cfg = RunConfig(
            ranks=6,
            taskgroups=1,
            data_mode=True,
            decomposition="pencil",
            **SMALL,
        )
        res = run_fft_phase(cfg)
        grid = res.layout.pencil
        assert (grid.Pr, grid.Pc) == (2, 3)
        assert res.layout.decomposition == "pencil"


class TestPencilAcrossNodes:
    @pytest.mark.parametrize("decomposition", ["slab", "pencil"])
    def test_two_nodes_allclose_to_single_node_slab(
        self, slab_reference, decomposition
    ):
        """The acceptance criterion: a >= 2-node pencil run reproduces the
        single-node slab numerics while actually exercising the fabric."""
        cfg = RunConfig(
            ranks=4,
            taskgroups=2,
            version="original",
            data_mode=True,
            n_nodes=2,
            decomposition=decomposition,
            **SMALL,
        )
        res = run_fft_phase(cfg)
        assert res.validate() < 1e-12
        np.testing.assert_allclose(
            res.output_coefficients(), slab_reference, rtol=1e-12, atol=1e-14
        )
        summary = res.world.network.internode_summary()
        assert summary["inter_bytes"] > 0
