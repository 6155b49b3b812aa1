"""Failure-injection tests for the driver's input validation and guards."""

import numpy as np
import pytest

from repro.core import RunConfig, run_fft_phase
from repro.faults import FaultScenario, LinkFault
from repro.grids import Cell, FftDescriptor

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


class TestDriverValidation:
    def test_caller_data_requires_data_mode(self):
        cfg = RunConfig(**SMALL, ranks=1, taskgroups=2, data_mode=False)
        with pytest.raises(ValueError, match="data_mode"):
            run_fft_phase(cfg, input_coeffs=np.zeros((4, 10), dtype=complex))

    def test_wrong_coefficient_shape_rejected(self):
        cfg = RunConfig(**SMALL, ranks=1, taskgroups=2, data_mode=True)
        with pytest.raises(ValueError, match="input_coeffs shape"):
            run_fft_phase(cfg, input_coeffs=np.zeros((4, 3), dtype=complex))

    def test_wrong_potential_shape_rejected(self):
        cfg = RunConfig(**SMALL, ranks=1, taskgroups=2, data_mode=True)
        with pytest.raises(ValueError, match="potential shape"):
            run_fft_phase(cfg, potential=np.zeros((2, 2, 2)))

    def test_caller_coefficients_flow_through(self):
        desc = FftDescriptor(Cell(alat=SMALL["alat"]), ecutwfc=SMALL["ecutwfc"])
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal((4, desc.ngw)) + 1j * rng.standard_normal((4, desc.ngw))
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, data_mode=True)
        res = run_fft_phase(cfg, input_coeffs=coeffs)
        np.testing.assert_array_equal(res.input_coeffs, coeffs)
        assert res.validate() < 1e-12


class TestOutputCompleteness:
    def test_missing_coefficients_detected(self):
        """A run whose resume budget runs out never completes some bands;
        reading its output names the first one.  (The per-process slice
        length the old gather checked is now the exchange's own pairing
        check: tests/mpisim/test_alltoallw.py, ``TestLiveParts``.)"""
        scenario = FaultScenario(
            links=[LinkFault(drop_probability=0.9)], mpi_max_retries=1, max_resumes=1
        )
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, data_mode=True)
        res = run_fft_phase(cfg, faults=scenario)
        assert res.failed
        with pytest.raises(ValueError, match=r"band \d+ was never produced"):
            res.output_coefficients()


class TestWorldGuards:
    def test_placement_too_small_rejected(self):
        from repro.machine import CpuModel, NodeTopology, PhaseTable, PhaseProfile
        from repro.mpisim import MpiWorld
        from tests.mpisim.helpers import one_node_network
        from repro.simkit import Simulator

        sim = Simulator()
        topo = NodeTopology(n_cores=4, threads_per_core=1, frequency_hz=1e9)
        cpu = CpuModel(sim, topo, PhaseTable([PhaseProfile("w", 1.0, 0.0)]), 1e9)
        net = one_node_network(sim, 4, 1e9, 1e9, 0.0)
        small_placement = topo.place(2)
        with pytest.raises(ValueError, match="placement provides"):
            MpiWorld(sim, cpu, net, n_ranks=4, placement=small_placement)
