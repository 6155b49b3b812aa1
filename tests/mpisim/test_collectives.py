"""Semantics tests for simulated MPI collectives (data movement + matching)."""

import numpy as np
import pytest

from repro.mpisim import BlockType, MetaPayload, MpiSimError
from repro.simkit import DeadlockError


class TestAlltoall:
    def test_personalized_exchange_with_arrays(self, world):
        """recv[j] on rank i must be what rank j addressed to i."""
        results = {}

        def program(rank):
            parts = [
                np.full(4, 100 * rank.rank + j, dtype=np.float64)
                for j in range(world.comm_world.size)
            ]
            recv = yield rank.alltoall(world.comm_world, parts)
            results[rank.rank] = recv

        world.launch(program)
        world.run()
        for i in range(8):
            for j in range(8):
                np.testing.assert_allclose(results[i][j], 100 * j + i)

    def test_received_arrays_are_copies(self, world):
        """Mutating a sender's buffer after the exchange must not corrupt receivers."""
        results = {}
        buffers = {}

        def program(rank):
            parts = [np.full(2, float(rank.rank)) for _ in range(world.comm_world.size)]
            buffers[rank.rank] = parts
            recv = yield rank.alltoall(world.comm_world, parts)
            results[rank.rank] = recv
            for p in parts:
                p[:] = -1.0

        world.launch(program)
        world.run()
        np.testing.assert_allclose(results[0][3], 3.0)

    def test_ragged_parts_alltoallv(self, world):
        """Varying part sizes (the Alltoallv of pack/unpack) are preserved."""
        results = {}

        def program(rank):
            parts = [
                np.arange(rank.rank + j, dtype=np.float64)
                for j in range(world.comm_world.size)
            ]
            recv = yield rank.alltoall(world.comm_world, parts)
            results[rank.rank] = [len(r) for r in recv]

        world.launch(program)
        world.run()
        assert results[2] == [j + 2 for j in range(8)]

    def test_meta_payloads_move_no_data(self, world):
        results = {}

        def program(rank):
            parts = [MetaPayload(1024.0) for _ in range(world.comm_world.size)]
            recv = yield rank.alltoall(world.comm_world, parts)
            results[rank.rank] = recv

        world.launch(program)
        world.run()
        assert all(isinstance(p, MetaPayload) for p in results[0])

    def test_wrong_part_count_raises(self, world):
        def program(rank):
            yield rank.alltoall(world.comm_world, [MetaPayload(1.0)] * 3)

        world.launch(program, ranks=[0])
        with pytest.raises(MpiSimError, match="needs 8 parts"):
            world.run()

    def test_takes_time_proportional_to_bytes(self, world):
        """8 ranks x 7 MB off-diagonal at 8 GB/s aggregate: ~7 ms + latency."""
        times = {}

        def program(rank):
            parts = [MetaPayload(1.0e6) for _ in range(world.comm_world.size)]
            yield rank.alltoall(world.comm_world, parts)
            times[rank.rank] = rank.sim.now

        world.launch(program)
        world.run()
        # total off-diagonal bytes = 8 ranks * 7e6 B = 5.6e7 B at 8e9 B/s
        # = 7.0 ms, + 7 messages * 1 us latency.
        assert times[0] == pytest.approx(5.6e7 / 8.0e9 + 7e-6, rel=1e-6)

    def test_missing_participant_deadlocks(self, world):
        def program(rank):
            parts = [MetaPayload(1.0)] * world.comm_world.size
            yield rank.alltoall(world.comm_world, parts)

        world.launch(program, ranks=range(7))  # rank 7 never joins
        with pytest.raises(DeadlockError):
            world.run()


class TestMatching:
    def test_collective_type_mismatch_detected(self, world):
        def a2a(rank):
            yield rank.alltoall(world.comm_world, [MetaPayload(1.0)] * 8)

        def a2aw(rank):
            blocks = [BlockType.meta(1)] * 8
            yield rank.alltoallw(world.comm_world, None, None, blocks, blocks)

        world.launch(a2a, ranks=[0])
        world.launch(a2aw, ranks=range(1, 8))
        with pytest.raises(MpiSimError, match="mismatch"):
            world.run()

    def test_explicit_keys_match_out_of_order(self, world):
        """Concurrent keyed collectives pair by key, not call order."""
        results = {}

        def program(rank):
            # Each rank issues two alltoalls in rank-dependent order.
            keys = ["x", "y"] if rank.rank % 2 == 0 else ["y", "x"]
            parts = [MetaPayload(8.0)] * 8
            ev1 = rank.alltoall(world.comm_world, parts, key=keys[0])
            ev2 = rank.alltoall(world.comm_world, parts, key=keys[1])
            yield rank.sim.all_of([ev1, ev2])
            results[rank.rank] = True

        world.launch(program)
        world.run()
        assert len(results) == 8

    def test_double_join_same_key_raises(self, world):
        def program(rank):
            parts = [MetaPayload(8.0)] * 8
            rank.alltoall(world.comm_world, parts, key="k")
            yield rank.alltoall(world.comm_world, parts, key="k")

        world.launch(program, ranks=[0])
        with pytest.raises(MpiSimError, match="twice"):
            world.run()


class TestSubcommunicators:
    def test_subcommunicator_collectives_work(self, world):
        subs = [world.register_comm(range(4 * g, 4 * g + 4), f"g{g}") for g in (0, 1)]
        results = {}

        def program(rank):
            sub = subs[rank.rank // 4]
            parts = [np.array([float(rank.rank)]) for _ in range(sub.size)]
            results[rank.rank] = yield rank.alltoall(sub, parts)

        world.launch(program)
        world.run()
        np.testing.assert_allclose(np.concatenate(results[0]), [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.concatenate(results[7]), [4.0, 5.0, 6.0, 7.0])

    def test_local_rank_mapping(self, world):
        even = world.register_comm([0, 2, 4, 6], "even")
        odd = world.register_comm([1, 3, 5, 7], "odd")
        assert even.local_rank(4) == 2
        assert odd.world_rank(1) == 3
        with pytest.raises(MpiSimError, match="not a member"):
            even.local_rank(1)

    @pytest.mark.parametrize(
        "ranks, match",
        [([], "no ranks"), ([0, 8], "not world ranks"), ([-1, 0], "not world ranks"),
         ([2, 2], "duplicate")],
    )
    def test_register_comm_rejects_bad_groups(self, world, ranks, match):
        """A rank outside the world used to surface only as a deadlock."""
        with pytest.raises(ValueError, match=match):
            world.register_comm(ranks, "bad")
        assert len(world.communicators) == 1  # nothing registered
