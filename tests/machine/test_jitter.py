"""Tests for the compute-speed jitter (determinism and effect)."""

import dataclasses

import pytest

from repro.core import RunConfig, run_fft_phase
from repro.machine import CpuModel, NodeTopology, PhaseProfile, PhaseTable, knl_parameters
from repro.simkit import Simulator

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


class TestJitterMechanics:
    def test_jitter_bounds_validated(self):
        sim = Simulator()
        topo = NodeTopology(n_cores=2, threads_per_core=1, frequency_hz=1e9)
        table = PhaseTable([PhaseProfile("w", ipc0=1.0, bytes_per_instr=0.0)])
        with pytest.raises(ValueError):
            CpuModel(sim, topo, table, 1e9, jitter=1.0)
        with pytest.raises(ValueError):
            CpuModel(sim, topo, table, 1e9, jitter=-0.1)

    def test_zero_jitter_is_exact(self):
        sim = Simulator()
        topo = NodeTopology(n_cores=2, threads_per_core=1, frequency_hz=1e9)
        table = PhaseTable([PhaseProfile("w", ipc0=2.0, bytes_per_instr=0.0)])
        cpu = CpuModel(sim, topo, table, 1e12, jitter=0.0)

        def body():
            rec = yield cpu.compute("s", topo.hw_thread(0, 0), "w", 2.0e9)
            return rec.duration

        proc = sim.process(body())

        sim.run()

        assert proc.value == pytest.approx(1.0)

    def test_jitter_spreads_durations(self):
        sim = Simulator()
        topo = NodeTopology(n_cores=8, threads_per_core=1, frequency_hz=1e9)
        table = PhaseTable([PhaseProfile("w", ipc0=1.0, bytes_per_instr=0.0)])
        cpu = CpuModel(sim, topo, table, 1e12, jitter=0.1, jitter_seed=1)
        durations = []

        def body():
            for _ in range(10):
                rec = yield cpu.compute("s", topo.hw_thread(0, 0), "w", 1.0e9)
                durations.append(rec.duration)

        sim.process(body())

        sim.run()
        assert len(set(durations)) > 5  # genuinely varied
        for d in durations:
            assert 1.0 / 1.1 - 1e-9 <= d <= 1.0 / 0.9 + 1e-9  # within +-10%

    def test_jitter_preserves_instruction_counts(self):
        """Jitter scales *speed*, not work: counters see true instructions."""
        sim = Simulator()
        topo = NodeTopology(n_cores=2, threads_per_core=1, frequency_hz=1e9)
        table = PhaseTable([PhaseProfile("w", ipc0=1.0, bytes_per_instr=0.0)])
        cpu = CpuModel(sim, topo, table, 1e12, jitter=0.2, jitter_seed=3)

        def body():
            yield cpu.compute("s", topo.hw_thread(0, 0), "w", 5.0e8)

        sim.process(body())

        sim.run()
        assert cpu.counters.stream_instructions("s") == pytest.approx(5.0e8)


class TestJitterDeterminism:
    def test_same_seed_same_runtime(self):
        times = {
            run_fft_phase(RunConfig(**SMALL, ranks=2, taskgroups=2)).phase_time
            for _ in range(2)
        }
        assert len(times) == 1

    def test_different_seed_different_runtime(self):
        knl_a = knl_parameters()
        knl_b = dataclasses.replace(knl_a, jitter_seed=99)
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=2)
        t_a = run_fft_phase(cfg, knl=knl_a).phase_time
        t_b = run_fft_phase(cfg, knl=knl_b).phase_time
        assert t_a != t_b

    def test_jitter_does_not_change_numerics(self):
        import numpy as np

        knl_a = knl_parameters()
        knl_b = dataclasses.replace(knl_a, jitter_seed=99)
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, data_mode=True)
        out_a = run_fft_phase(cfg, knl=knl_a).output_coefficients()
        out_b = run_fft_phase(cfg, knl=knl_b).output_coefficients()
        np.testing.assert_array_equal(out_a, out_b)


class TestBandwidthRampup:
    def test_capacity_curve_monotone_and_capped(self):
        from repro.machine.contention import BandwidthContentionAllocator

        alloc = BandwidthContentionAllocator(
            1.4e9, 6.9e10, bandwidth_rampup_max=1.277e11, bandwidth_rampup_half=54.5
        )
        caps = [alloc.effective_capacity(n) for n in (1, 8, 16, 32, 64, 128)]
        assert all(a <= b + 1e-6 for a, b in zip(caps, caps[1:]))
        assert caps[-1] == pytest.approx(6.9e10)  # saturation cap
        assert caps[0] < 3e9  # single stream far from peak

    def test_disabled_ramp_gives_flat_capacity(self):
        from repro.machine.contention import BandwidthContentionAllocator

        alloc = BandwidthContentionAllocator(1.4e9, 6.9e10)
        assert alloc.effective_capacity(1) == alloc.effective_capacity(100) == 6.9e10

    def test_rampup_validation(self):
        from repro.machine.contention import BandwidthContentionAllocator

        with pytest.raises(ValueError):
            BandwidthContentionAllocator(1e9, 1e9, bandwidth_rampup_half=-1.0)
