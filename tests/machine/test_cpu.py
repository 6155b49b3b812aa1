"""Unit tests for the CPU model and hardware counters."""

import pytest

from repro.machine import (
    CounterSet,
    CpuModel,
    NodeTopology,
    PhaseProfile,
    PhaseTable,
    knl_phase_table,
)
from repro.simkit import Simulator
from repro.telemetry import Trace
from tests.machine.batch import batch_rates

FREQ = 1.0e9


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def topo():
    return NodeTopology(n_cores=4, threads_per_core=2, frequency_hz=FREQ)


@pytest.fixture()
def cpu(sim, topo):
    table = PhaseTable(
        [
            PhaseProfile("fast", ipc0=2.0, bytes_per_instr=0.0),
            PhaseProfile("slow", ipc0=0.5, bytes_per_instr=0.0),
            PhaseProfile("heavy", ipc0=2.0, bytes_per_instr=2.0),
        ]
    )
    return CpuModel(sim, topo, table, bandwidth_bytes_per_s=8.0e9)


class TestCompute:
    def test_duration_matches_nominal_ipc(self, sim, topo, cpu):
        def body():
            rec = yield cpu.compute("r0", topo.hw_thread(0, 0), "fast", 2.0e9)
            return (sim.now, rec.duration)

        proc = sim.process(body())

        sim.run()

        now, dur = proc.value
        # 2e9 instructions at 2 IPC * 1 GHz = 1 second.
        assert now == pytest.approx(1.0)
        assert dur == pytest.approx(1.0)

    def test_unknown_phase_raises_immediately(self, topo, cpu):
        with pytest.raises(KeyError, match="unknown phase"):
            cpu.compute("r0", topo.hw_thread(0, 0), "nope", 1.0)

    def test_negative_instructions_rejected(self, topo, cpu):
        with pytest.raises(ValueError):
            cpu.compute("r0", topo.hw_thread(0, 0), "fast", -5.0)

    def test_counters_accumulate(self, sim, topo, cpu):
        def body():
            yield cpu.compute("r0", topo.hw_thread(0, 0), "fast", 2.0e9)
            yield cpu.compute("r0", topo.hw_thread(0, 0), "slow", 1.0e9)

        sim.process(body())

        sim.run()
        c = cpu.counters
        assert c.stream_instructions("r0") == pytest.approx(3.0e9)
        assert c.stream_compute_time("r0") == pytest.approx(1.0 + 2.0)
        assert c.stream_ipc("r0") == pytest.approx(3.0 / 3.0)
        assert c.phase_ipc("slow") == pytest.approx(0.5)

    def test_observer_receives_records(self, sim, topo, cpu):
        cpu.trace = Trace()
        records = cpu.trace.compute

        def body():
            yield cpu.compute("r0", topo.hw_thread(0, 0), "fast", 1.0e9)

        sim.process(body())

        sim.run()
        assert len(records) == 1
        rec = records[0]
        assert rec.phase == "fast"
        assert rec.stream == "r0"
        assert rec.ipc(FREQ) == pytest.approx(2.0)

    def test_concurrent_heavy_phases_slow_each_other(self, sim, topo, cpu):
        finish = {}

        def worker(name, core):
            rec = yield cpu.compute(name, topo.hw_thread(core, 0), "heavy", 2.0e9)
            finish[name] = (sim.now, rec.ipc(FREQ))

        for i in range(4):
            sim.process(worker(f"r{i}", i))
        sim.run()
        # Each demands 4 GB/s against 8 GB/s: IPC throttled 2.0 -> 1.0.
        for name, (t, ipc) in finish.items():
            assert ipc == pytest.approx(1.0)
            assert t == pytest.approx(2.0)

    def test_current_ipc_of_running_stream(self, sim, topo, cpu):
        observed = []

        def worker():
            ev = cpu.compute("r0", topo.hw_thread(0, 0), "fast", 2.0e9)
            yield sim.timeout(0.25)
            observed.append(cpu.current_ipc_of("r0"))
            yield ev

        sim.process(worker())

        sim.run()
        assert observed == [pytest.approx(2.0)]
        assert cpu.current_ipc_of("r0") is None

    def test_zero_instructions_complete_instantly(self, sim, topo, cpu):
        def body():
            rec = yield cpu.compute("r0", topo.hw_thread(0, 0), "fast", 0.0)
            return (sim.now, rec.duration)

        proc = sim.process(body())

        sim.run()

        now, dur = proc.value
        assert now == 0.0
        assert dur == 0.0


class TestCounterSet:
    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            CounterSet(0.0)

    def test_empty_counters_return_zero(self):
        c = CounterSet(FREQ)
        assert c.average_ipc() == 0.0
        assert c.stream_ipc("nobody") == 0.0
        assert c.phase_ipc("nothing") == 0.0
        assert c.streams == []

    def test_weighted_average_ipc(self):
        c = CounterSet(FREQ)
        # 1e9 instr in 1 s (IPC 1), 1e9 instr in 4 s (IPC .25):
        c.record("a", "p", 1.0e9, 1.0)
        c.record("b", "p", 1.0e9, 4.0)
        assert c.average_ipc() == pytest.approx(2.0e9 / (5.0 * FREQ))

    def test_per_phase_breakdown(self):
        c = CounterSet(FREQ)
        c.record("a", "x", 1.0e9, 1.0)
        c.record("a", "x", 1.0e9, 1.0)
        c.record("a", "y", 5.0e8, 1.0)
        phases = c.phases("a")
        assert phases["x"].occurrences == 2
        assert phases["x"].instructions == pytest.approx(2.0e9)
        assert phases["y"].ipc(FREQ) == pytest.approx(0.5)


class TestKnlPhaseTable:
    def test_contains_all_pipeline_phases(self):
        table = knl_phase_table()
        for phase in [
            "prepare_psis",
            "pack_sticks",
            "unpack_sticks",
            "fft_z",
            "scatter_reorder",
            "fft_xy",
            "vofr",
        ]:
            assert phase in table

    def test_fig3_anchor_full_node_xy_ipc(self):
        """64 synchronized fft_xy threads on the calibrated node -> ~0.77 IPC."""
        from repro.machine import knl_parameters, knl_topology
        from repro.machine.contention import BandwidthContentionAllocator
        from repro.simkit.fluid import FluidTask

        params = knl_parameters()
        topo = knl_topology(params)
        table = knl_phase_table()
        alloc = BandwidthContentionAllocator(params.frequency_hz, params.mem_bandwidth)
        sim = Simulator()
        placement = topo.place(64)
        tasks = [
            FluidTask(sim, 1e9, meta={"profile": table["fft_xy"], "thread": placement[i]})
            for i in range(64)
        ]
        rates = batch_rates(alloc, tasks)
        ipc = rates[0] / params.frequency_hz
        assert ipc == pytest.approx(0.77, abs=0.02)

    def test_fig3_anchor_full_node_z_ipc(self):
        """64 synchronized fft_z threads -> ~0.52 IPC."""
        from repro.machine import knl_parameters, knl_topology
        from repro.machine.contention import BandwidthContentionAllocator
        from repro.simkit.fluid import FluidTask

        params = knl_parameters()
        topo = knl_topology(params)
        table = knl_phase_table()
        alloc = BandwidthContentionAllocator(params.frequency_hz, params.mem_bandwidth)
        sim = Simulator()
        placement = topo.place(64)
        tasks = [
            FluidTask(sim, 1e9, meta={"profile": table["fft_z"], "thread": placement[i]})
            for i in range(64)
        ]
        rates = batch_rates(alloc, tasks)
        ipc = rates[0] / params.frequency_hz
        assert ipc == pytest.approx(0.52, abs=0.02)
