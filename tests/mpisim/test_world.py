"""Tests for the MPI world, rank contexts, observers, and payload helpers."""

import numpy as np
import pytest

from repro.mpisim import BlockType, MetaPayload, MpiWorld, nbytes_of, payload_like
from repro.telemetry import Trace
from tests.mpisim.conftest import make_world


class TestPayloads:
    def test_nbytes_of_array(self):
        assert nbytes_of(np.zeros(4, dtype=np.float64)) == 32.0

    def test_nbytes_of_meta(self):
        assert nbytes_of(MetaPayload(100.0)) == 100.0

    def test_negative_meta_rejected(self):
        with pytest.raises(ValueError):
            MetaPayload(-1.0)

    def test_non_payload_rejected(self):
        with pytest.raises(TypeError):
            nbytes_of([1, 2, 3])
        with pytest.raises(TypeError):
            payload_like("hello")

    def test_payload_like_copies_arrays(self):
        a = np.ones(3)
        b = payload_like(a)
        b[0] = 99.0
        assert a[0] == 1.0

    def test_payload_like_passes_meta_through(self):
        m = MetaPayload(5.0, count=2)
        assert payload_like(m) is m

    def test_meta_equality(self):
        assert MetaPayload(5.0) == MetaPayload(5.0)
        assert MetaPayload(5.0) != MetaPayload(6.0)


class TestWorldSetup:
    def test_invalid_rank_count(self, sim, cpu, network):
        with pytest.raises(ValueError):
            MpiWorld(sim, cpu, network, n_ranks=0)

    def test_invalid_thread_count(self, sim, cpu, network):
        with pytest.raises(ValueError):
            MpiWorld(sim, cpu, network, n_ranks=2, threads_per_rank=0)

    def test_comm_world_covers_all_ranks(self, world):
        assert world.comm_world.ranks == tuple(range(8))
        assert world.comm_world.size == 8

    def test_threads_per_rank_binding(self, sim, cpu, network):
        w = make_world(sim, cpu, network, n_ranks=4, threads_per_rank=4)
        ctx = w.ranks[1]
        assert ctx.n_threads == 4
        threads = {ctx.thread(t) for t in range(4)}
        assert len(threads) == 4
        with pytest.raises(ValueError):
            ctx.thread(4)

    def test_stream_ids(self, sim, cpu, network):
        w = make_world(sim, cpu, network, n_ranks=2, threads_per_rank=2)
        assert w.ranks[1].stream(1) == (1, 1)


class TestCompute:
    def test_compute_runs_on_rank_thread(self, world):
        durations = {}

        def program(rank):
            rec = yield rank.compute("work", 1.0e9)
            durations[rank.rank] = rec.duration

        world.launch(program)
        world.run()
        # ipc0=1.0 at 1 GHz, no contention: 1e9 instructions in 1 s.
        assert durations[3] == pytest.approx(1.0)

    def test_counters_attributed_to_streams(self, world):
        def program(rank):
            yield rank.compute("work", 1.0e9)

        world.launch(program)
        world.run()
        assert world.cpu.counters.stream_instructions((5, 0)) == pytest.approx(1.0e9)


class TestObservers:
    def test_mpi_records_emitted(self, world):
        world.trace = Trace()
        records = world.trace.mpi

        def program(rank):
            blocks = [BlockType.meta(1)] * 8
            yield rank.alltoallw(world.comm_world, None, None, blocks, blocks)
            yield rank.alltoall(world.comm_world, [MetaPayload(1000.0)] * 8)

        world.launch(program)
        world.run()
        calls = [r.call for r in records]
        assert calls.count("alltoallw") == 8
        assert calls.count("alltoall") == 8
        a2a = [r for r in records if r.call == "alltoall"][0]
        assert a2a.bytes_sent == pytest.approx(7000.0)
        assert a2a.duration > 0
        assert a2a.comm_name == "world"

    def test_sync_time_reflects_late_arrival(self, world):
        world.trace = Trace()
        records = world.trace.mpi

        def program(rank):
            if rank.rank == 0:
                yield rank.sim.timeout(1.0e-3)  # rank 0 arrives late
            yield rank.alltoall(world.comm_world, [MetaPayload(0.0)] * 8)

        world.launch(program)
        world.run()
        by_stream = {r.stream: r for r in records}
        assert by_stream[(0, 0)].sync_time == pytest.approx(0.0, abs=1e-9)
        assert by_stream[(1, 0)].sync_time == pytest.approx(1.0e-3, rel=1e-6)
        # duration >= sync_time, transfer share non-negative
        assert all(r.transfer_time >= 0 for r in records)

    def test_network_byte_accounting(self, world):
        def program(rank):
            yield rank.alltoall(world.comm_world, [MetaPayload(100.0)] * 8)

        world.launch(program)
        world.run()
        assert world.network.bytes_transferred == pytest.approx(8 * 700.0)
