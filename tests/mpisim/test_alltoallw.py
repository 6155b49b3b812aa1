"""Semantics + cost tests for the pack-free MPI_Alltoallw analogue.

The exchange must move elements straight between flat buffers per the
block descriptors (no staging copy), enforce the per-pair conservation
law, and — critically for the perf story — price *identically* to an
``alltoall`` of the same byte volumes, so switching the data plane to
pack-free descriptors never perturbs the simulated timeline.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpisim import BlockType, MetaPayload, MpiSimError
from tests.core import exchange as stand_in
from tests.core.test_redistribute import LAYOUTS, plan_layout

from .test_properties import build_world


def unit_blocks(size, offsets):
    """One element per peer: peer ``j``'s element lives at ``offsets[j]``."""
    return [BlockType.strided(offsets[j], 1, 1, 1) for j in range(size)]


class TestMovement:
    def test_transpose_between_flat_buffers(self, world):
        """recvbuf[i] on rank j must be sendbuf[j] of rank i (incl. diagonal)."""
        results = {}
        n = world.comm_world.size

        def program(rank):
            sendbuf = np.array(
                [100.0 * rank.rank + j for j in range(n)], dtype=np.complex128
            )
            recvbuf = np.zeros(n, dtype=np.complex128)
            got = yield rank.alltoallw(
                world.comm_world,
                sendbuf,
                recvbuf,
                unit_blocks(n, list(range(n))),
                unit_blocks(n, list(range(n))),
            )
            assert got is recvbuf
            results[rank.rank] = recvbuf

        world.launch(program)
        world.run()
        for j in range(n):
            np.testing.assert_allclose(
                results[j], [100.0 * i + j for i in range(n)]
            )

    def test_indexed_blocks_scatter_into_slots(self, world):
        """Indexed descriptors land each element exactly where addressed."""
        results = {}
        n = world.comm_world.size

        def program(rank):
            sendbuf = np.array(
                [100.0 * rank.rank + j for j in range(n)], dtype=np.complex128
            )
            recvbuf = np.full(n, -1.0, dtype=np.complex128)
            # Receive peer i's element into the mirrored slot n-1-i.
            recv_blocks = [BlockType.indexed([n - 1 - i]) for i in range(n)]
            yield rank.alltoallw(
                world.comm_world,
                sendbuf,
                recvbuf,
                unit_blocks(n, list(range(n))),
                recv_blocks,
            )
            results[rank.rank] = recvbuf

        world.launch(program)
        world.run()
        for j in range(n):
            np.testing.assert_allclose(
                results[j], [100.0 * (n - 1 - s) + j for s in range(n)]
            )

    def test_strided_blocks_cover_vector_regions(self):
        """MPI_Type_vector shapes: 2 blocks of 2 elements, stride 4 — the
        z-range-of-stick-columns pattern of the slab transpose."""
        world = build_world(2)
        results = {}

        def program(rank):
            sendbuf = np.arange(8, dtype=np.complex128) + 10.0 * rank.rank
            recvbuf = np.zeros(8, dtype=np.complex128)
            # Peer 0 owns columns {0,1}, peer 1 columns {2,3} of a 2x4 grid.
            send_blocks = [
                BlockType.strided(0, 2, 2, 4),
                BlockType.strided(2, 2, 2, 4),
            ]
            recv_blocks = [
                BlockType.strided(0, 1, 4, 4),
                BlockType.strided(4, 1, 4, 4),
            ]
            yield rank.alltoallw(
                world.comm_world, sendbuf, recvbuf, send_blocks, recv_blocks
            )
            results[rank.rank] = recvbuf

        world.launch(program)
        world.run()
        # Rank 0's recv rows: [own cols 0,1] then [rank 1's cols 0,1].
        np.testing.assert_allclose(results[0], [0, 1, 4, 5, 10, 11, 14, 15])
        np.testing.assert_allclose(results[1], [2, 3, 6, 7, 12, 13, 16, 17])

    def test_meta_blocks_move_no_data(self, world):
        """None buffers + meta blocks: cost charged, nothing moved."""
        finish = {}
        n = world.comm_world.size

        def program(rank):
            blocks = [BlockType.meta(1024) for _ in range(n)]
            got = yield rank.alltoallw(world.comm_world, None, None, blocks, blocks)
            assert got is None
            finish[rank.rank] = rank.sim.now

        world.launch(program)
        world.run()
        assert all(t > 0 for t in finish.values())


class TestContracts:
    def test_conservation_violation_raises(self):
        """src describing more elements toward dst than dst reserved is an
        error at the exchange, not silent corruption."""
        world = build_world(2)

        def program(rank):
            sendbuf = np.zeros(4, dtype=np.complex128)
            recvbuf = np.zeros(4, dtype=np.complex128)
            # Rank 0 sends 2 elements to rank 1, which only expects 1.
            count = 2 if rank.rank == 0 else 1
            send_blocks = [
                BlockType.strided(0, 1, 1, 1),
                BlockType.strided(1, 1, count, 1),
            ]
            recv_blocks = [
                BlockType.strided(0, 1, 1, 1),
                BlockType.strided(1, 1, 1, 1),
            ]
            yield rank.alltoallw(
                world.comm_world, sendbuf, recvbuf, send_blocks, recv_blocks
            )

        world.launch(program)
        with pytest.raises(MpiSimError, match="expects"):
            world.run()

    def test_noncontiguous_sendbuf_rejected(self, world):
        n = world.comm_world.size

        def program(rank):
            sendbuf = np.zeros((n, 2), dtype=np.complex128)[:, 0]  # strided view
            recvbuf = np.zeros(n, dtype=np.complex128)
            blocks = unit_blocks(n, list(range(n)))
            yield rank.alltoallw(world.comm_world, sendbuf, recvbuf, blocks, blocks)

        world.launch(program, ranks=[0])
        with pytest.raises(MpiSimError, match="C-contiguous"):
            world.run()

    def test_block_count_must_match_size(self, world):
        def program(rank):
            blocks = [BlockType.meta(1)] * 3
            yield rank.alltoallw(world.comm_world, None, None, blocks, blocks)

        world.launch(program, ranks=[0])
        with pytest.raises(MpiSimError, match="needs 8"):
            world.run()


class TestCostParity:
    @settings(max_examples=20, deadline=None)
    @given(
        n_ranks=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_prices_identically_to_alltoall(self, n_ranks, seed):
        """Same per-pair byte volumes => bit-identical completion times.

        This is the invariant that lets the data plane swap packed
        ``alltoall`` parts for pack-free descriptors without changing any
        simulated result: the cost model sees the same pair list.
        """
        rng = np.random.default_rng(seed)
        sizes = rng.integers(0, 64, size=(n_ranks, n_ranks))

        def run_packed():
            world = build_world(n_ranks)
            finish = {}

            def program(rank):
                parts = [
                    MetaPayload(16.0 * sizes[rank.rank, j]) for j in range(n_ranks)
                ]
                yield rank.alltoall(world.comm_world, parts)
                finish[rank.rank] = rank.sim.now

            world.launch(program)
            world.run()
            return finish

        def run_packfree():
            world = build_world(n_ranks)
            finish = {}

            def program(rank):
                send_blocks = [
                    BlockType.meta(int(sizes[rank.rank, j])) for j in range(n_ranks)
                ]
                recv_blocks = [
                    BlockType.meta(int(sizes[i, rank.rank])) for i in range(n_ranks)
                ]
                yield rank.alltoallw(
                    world.comm_world, None, None, send_blocks, recv_blocks
                )
                finish[rank.rank] = rank.sim.now

            world.launch(program)
            world.run()
            return finish

        assert run_packed() == run_packfree()


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        n_ranks=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_forward_then_swapped_inverse_is_identity(self, n_ranks, seed):
        """A ragged exchange followed by its swapped twin restores every
        buffer bit-for-bit, and bytes sent per pair equal bytes received."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 4, size=(n_ranks, n_ranks))

        def layouts(matrix):
            """Per-rank concatenated offsets for row-major chunk layout."""
            offs = np.zeros_like(matrix)
            offs[:, 1:] = np.cumsum(matrix[:, :-1], axis=1)
            return offs

        send_offs = layouts(counts)            # rank i's sendbuf: chunks by dst
        recv_offs = layouts(counts.T)          # rank j's recvbuf: chunks by src
        originals = {}
        recovered = {}

        def blocks_for(matrix, offs, i):
            return [
                BlockType.strided(offs[i, j], 1, int(matrix[i, j]), max(int(matrix[i, j]), 1))
                for j in range(n_ranks)
            ]

        world = build_world(n_ranks)

        def program(rank):
            i = rank.rank
            sendbuf = (
                rng.standard_normal(int(counts[i].sum()))
                + 1j * rng.standard_normal(int(counts[i].sum()))
            ).astype(np.complex128)
            originals[i] = sendbuf.copy()
            recvbuf = np.zeros(int(counts[:, i].sum()), dtype=np.complex128)
            send_blocks = blocks_for(counts, send_offs, i)
            recv_blocks = blocks_for(counts.T, recv_offs, i)
            yield rank.alltoallw(
                world.comm_world, sendbuf, recvbuf, send_blocks, recv_blocks
            )
            # Inverse: swap the roles of the two plans and the two buffers.
            back = np.zeros_like(sendbuf)
            yield rank.alltoallw(
                world.comm_world, recvbuf, back, recv_blocks, send_blocks
            )
            recovered[i] = back
            # Conservation, per pair: what i describes toward j is exactly
            # what j reserved for i.
            for j in range(n_ranks):
                assert send_blocks[j].nbytes == 16.0 * counts[i, j]
                assert recv_blocks[j].nbytes == 16.0 * counts[j, i]

        world.launch(program)
        world.run()
        for i in range(n_ranks):
            np.testing.assert_array_equal(recovered[i], originals[i])


# -- block shapes: subarray / outer / indexed ---------------------------------


def _block_of(kind, rng, k, n):
    """A random block of ``k * n`` distinct slots and the size of the flat
    buffer it indexes, in the three data-plane shapes."""
    if kind == "subarray":
        # A (k, n) window of a padded 2-d parent, optionally axis-swapped.
        rows, cols = k + int(rng.integers(0, 3)), n + int(rng.integers(0, 3))
        r0, c0 = int(rng.integers(0, rows - k + 1)), int(rng.integers(0, cols - n + 1))
        if rng.random() < 0.5:
            return BlockType.subarray(r0 * cols + c0, (k, n), (cols, 1)), rows * cols
        return BlockType.subarray(c0 * rows + r0, (k, n), (1, rows)), rows * cols
    if kind == "outer":
        # k irregular positions inside a plane of S slots, repeated n times.
        S = k + int(rng.integers(0, 6))
        base = rng.permutation(S)[:k]
        return BlockType.outer(base, (n,), (S,)), n * S
    size = k * n + int(rng.integers(0, 6))
    return BlockType.indexed(rng.permutation(size)[: k * n]), size


KINDS3 = ("subarray", "outer", "indexed")


class TestBlockShapes:
    def test_strided_indices_equal_explicit_vector(self):
        block = BlockType.strided(3, 4, 2, 7)
        explicit = (3 + np.arange(4)[:, None] * 7 + np.arange(2)[None, :]).reshape(-1)
        np.testing.assert_array_equal(block.indices(), explicit)
        assert block.n_items == 8 and block.nbytes == 128.0

    def test_subarray_indices_equal_explicit_transpose_map(self):
        """The pencil y->x receive map the subarray replaces: peer x-columns
        ``[xlo, xhi)`` at x-brick slots ``((yy * nz) + zz) * nr1 + x``."""
        nyi, nzj, nr1, xlo, xhi = 3, 4, 10, 2, 7
        yz = (np.arange(nyi)[None, None, :] * nzj + np.arange(nzj)[None, :, None]) * nr1
        explicit = (yz + np.arange(xlo, xhi)[:, None, None]).reshape(-1)
        block = BlockType.subarray(xlo, (xhi - xlo, nzj, nyi), (1, nr1, nzj * nr1))
        assert not block.materialized
        np.testing.assert_array_equal(block.indices(), explicit)
        assert block.materialized

    def test_outer_indices_equal_explicit_scatter_map(self):
        """The slab scatter receive map the outer block replaces: stick
        plane positions, once per owned plane."""
        pos = np.array([5, 0, 17, 9])
        npp, plane = 3, 20
        explicit = (pos[:, None] + np.arange(npp)[None, :] * plane).reshape(-1)
        block = BlockType.outer(pos, (npp,), (plane,))
        assert block.n_items == 12 and not block.materialized
        np.testing.assert_array_equal(block.indices(), explicit)

    def test_offset_indexed_blocks_share_one_index_array(self):
        """The unpack's receive rows: one G-vector index array, each band
        row ``ngw`` further on — through take, put, rows and indices."""
        g_idx, ngw = np.array([3, 0, 2]), 5
        rows = [BlockType.indexed(g_idx, offset=t * ngw) for t in range(2)]
        assert all(np.shares_memory(block.base, g_idx) for block in rows)
        np.testing.assert_array_equal(rows[1].indices(), [8, 5, 7])
        np.testing.assert_array_equal(rows[1].rows(1, 3).indices(), [5, 7])
        buf = np.arange(2 * ngw, dtype=np.complex128)
        np.testing.assert_array_equal(rows[1].take(buf), [8, 5, 7])
        rows[1].put(buf, np.array([-1, -2, -3]))
        np.testing.assert_array_equal(buf[[8, 5, 7]], [-1, -2, -3])
        np.testing.assert_array_equal(buf[:ngw], np.arange(ngw))

    def test_lazy_indexed_resolves_once(self):
        calls = []
        block = BlockType.indexed(lambda: calls.append(1) or np.array([4, 1, 2]))
        assert not block.materialized
        assert block.n_items == 3
        np.testing.assert_array_equal(block.indices(), [4, 1, 2])
        block.indices()
        assert calls == [1] and block.materialized

    def test_meta_blocks_refuse_to_move(self):
        block = BlockType.meta(4)
        for call in (block.indices, lambda: block.take(np.zeros(4)),
                     lambda: block.put(np.zeros(4), np.zeros(4))):
            with pytest.raises(ValueError, match="meta"):
                call()

    def test_block_outside_buffer_raises(self):
        with pytest.raises(ValueError):
            BlockType.subarray(0, (3, 3), (4, 1)).take(np.zeros(8))
        with pytest.raises(IndexError):
            BlockType.outer([0, 7], (2,), (5,)).take(np.zeros(10))

    @settings(max_examples=100, deadline=None)
    @given(
        send_kind=st.sampled_from(KINDS3),
        recv_kind=st.sampled_from(KINDS3),
        k=st.integers(1, 5),
        n=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    def test_view_move_equals_flat_index_move(self, send_kind, recv_kind, k, n, seed):
        rng = np.random.default_rng(seed)
        sb, src_size = _block_of(send_kind, rng, k, n)
        rb, dst_size = _block_of(recv_kind, rng, k, n)
        src = rng.standard_normal(src_size) + 1j * rng.standard_normal(src_size)
        moved = np.full(dst_size, np.nan, dtype=np.complex128)
        rb.put(moved, sb.take(src))
        explicit = np.full(dst_size, np.nan, dtype=np.complex128)
        explicit[rb.indices()] = src[sb.indices()]
        np.testing.assert_array_equal(moved, explicit)

    def test_mismatched_volumes_still_raise(self):
        """Conservation is checked on the descriptors, whatever their shape."""
        world = build_world(2)

        def program(rank):
            sendbuf = np.zeros(12, dtype=np.complex128)
            recvbuf = np.zeros(12, dtype=np.complex128)
            # Every member sends each peer a 6-element window, but reserves
            # only 4 slots (2 positions x 2 planes) for what arrives.
            send_blocks = [BlockType.subarray(0, (2, 3), (6, 1))] * 2
            recv_blocks = [BlockType.outer([1, 3], (2,), (6,))] * 2
            yield rank.alltoallw(
                world.comm_world, sendbuf, recvbuf, send_blocks, recv_blocks
            )

        world.launch(program)
        with pytest.raises(MpiSimError, match="expects"):
            world.run()

    def test_pencil_run_materializes_no_transpose_index_array(self):
        """After a data-mode pencil run the y<->x blocks (subarray both
        sides) and the z<->y blocks (strided <-> outer) have moved every
        element without ever building a per-element index array."""
        from repro.core import RunConfig, run_fft_phase
        from repro.core import redistribute

        result = run_fft_phase(
            RunConfig(
                ranks=4, taskgroups=2, version="original", data_mode=True,
                decomposition="pencil", ecutwfc=12.0, alat=5.0, nbnd=8,
            )
        )
        assert result.validate() < 1e-10
        layout = result.layout
        for r in range(layout.R):
            for builder in (redistribute.pencil_yx_plan, redistribute.pencil_zy_plan):
                for inverse in (False, True):
                    # The cached plan the run used: priced blocks, live
                    # parts and zero regions alike.
                    plan = builder(layout, r, True, inverse=inverse)
                    blocks = [
                        *plan.send_blocks, *plan.recv_blocks, *plan.zero,
                        *(p for side in (plan.send_parts, plan.recv_parts)
                          for peer in side for p in peer),
                    ]
                    assert blocks and not any(b.materialized for b in blocks)


# -- live parts: what the host moves inside the priced blocks ----------------


def exchange(plans, sendbufs):
    """One simulated Alltoallw among the members of ``plans``, the way the
    pipeline runs it: NaN (uninitialised) receive buffers, the zero regions
    cleared, then the live parts moved.  Returns the receive buffers."""
    world = build_world(len(plans))
    recvbufs = [np.full(plan.recv_shape, np.nan, dtype=np.complex128) for plan in plans]
    for plan, buf in zip(plans, recvbufs):
        for region in plan.zero:
            region.zero(buf.reshape(-1))

    def program(rank):
        plan = plans[rank.rank]
        yield rank.alltoallw(
            world.comm_world, sendbufs[rank.rank], recvbufs[rank.rank],
            plan.send_blocks, plan.recv_blocks, parts=(plan.send_parts, plan.recv_parts),
        )

    world.launch(program)
    world.run()
    return recvbufs


class TestLiveParts:
    def test_only_live_parts_move(self):
        """Priced whole, moved in part: slots outside the live parts keep
        their contents, and the timeline is the whole blocks' one."""

        def run(live: bool):
            world = build_world(2)
            results, finish = {}, {}
            # Peer j's block: elements 4j..4j+3 as two rows of two; live is
            # its first row.
            blocks = [BlockType.subarray(4 * j, (2, 2), (2, 1)) for j in range(2)]
            parts = [(block.rows(0, 1),) for block in blocks]

            def program(rank):
                sendbuf = np.arange(8, dtype=np.complex128) + 10.0 * rank.rank
                recvbuf = np.full(8, -1.0, dtype=np.complex128)
                yield rank.alltoallw(
                    world.comm_world, sendbuf, recvbuf, blocks, blocks,
                    parts=(parts, parts) if live else None,
                )
                results[rank.rank], finish[rank.rank] = recvbuf, rank.sim.now

            world.launch(program)
            world.run()
            return results, finish

        (whole, t_whole), (live, t_live) = run(False), run(True)
        assert t_whole == t_live
        for me in (0, 1):
            for src in (0, 1):
                got = live[me][4 * src : 4 * src + 4]
                np.testing.assert_array_equal(got[:2], whole[me][4 * src : 4 * src + 2])
                np.testing.assert_array_equal(got[:2], 4 * me + np.arange(2) + 10.0 * src)
                np.testing.assert_array_equal(got[2:], [-1, -1])

    def test_rows_are_consecutive_items(self):
        block = BlockType.subarray(2, (3, 4), (5, 1))
        assert block.lead == 3 and block.rows(0, 3) is block
        np.testing.assert_array_equal(block.rows(1, 3).indices(), block.indices()[4:])
        outer = BlockType.outer([7, 1, 4], (2,), (10,))
        assert outer.lead == 3
        np.testing.assert_array_equal(outer.rows(1, 2).indices(), [1, 11])
        buf = np.ones(30, dtype=np.complex128)
        outer.rows(1, 3).zero(buf)
        assert np.flatnonzero(buf == 0).tolist() == [1, 4, 11, 14]

    def test_unpaired_parts_raise(self):
        world = build_world(2)

        def program(rank):
            buf = np.zeros(8, dtype=np.complex128)
            blocks = [BlockType.strided(0, 1, 4, 4), BlockType.strided(4, 1, 4, 4)]
            # Rank 0 sends rank 1 its block in two parts; rank 1 expects one.
            sends = [(blocks[0],), (blocks[1],)]
            if rank.rank == 0:
                sends[1] = (BlockType.strided(4, 1, 2, 2), BlockType.strided(6, 1, 2, 2))
            yield rank.alltoallw(
                world.comm_world, buf, buf.copy(), blocks, blocks,
                parts=(sends, [(b,) for b in blocks]),
            )

        world.launch(program)
        with pytest.raises(MpiSimError, match="do not pair"):
            world.run()

    def test_part_lengths_must_pair(self):
        """Equal part counts and equal block volumes, but a part one item
        longer than the slot it lands in: the move refuses it."""
        world = build_world(2)

        def program(rank):
            buf = np.zeros(8, dtype=np.complex128)
            blocks = [BlockType.strided(0, 1, 4, 4), BlockType.strided(4, 1, 4, 4)]
            halves = [
                (BlockType.strided(0, 1, 2, 2), BlockType.strided(2, 1, 2, 2)),
                (BlockType.strided(4, 1, 2, 2), BlockType.strided(6, 1, 2, 2)),
            ]
            sends = list(halves)
            if rank.rank == 0:
                sends[1] = (BlockType.strided(4, 1, 3, 3), BlockType.strided(7, 1, 1, 1))
            yield rank.alltoallw(
                world.comm_world, buf, buf.copy(), blocks, blocks,
                parts=(sends, halves),
            )

        world.launch(program)
        with pytest.raises(MpiSimError, match="do not pair"):
            world.run()

    @pytest.mark.parametrize("case", LAYOUTS, ids=["-".join(map(str, c)) for c in LAYOUTS])
    def test_every_fan_width_moves_the_same_bits(self, case, monkeypatch):
        """The moves of every data-mode plan fan over 1-4 slices (no
        points floor) into bit-equal receive buffers, equal to the test
        stand-in's part-by-part move."""
        from repro import _fan
        from repro.mpisim import communicator

        monkeypatch.setattr(communicator, "MOVE_MIN_POINTS", 1)
        rng = np.random.default_rng(7)
        for _kind, _members, fw, bw in stand_in.exchanges(plan_layout(*case)):
            for plans, back in ((fw, bw), (bw, fw)):
                sendbufs = [
                    rng.standard_normal(b.recv_shape) + 1j * rng.standard_normal(b.recv_shape)
                    for b in back
                ]
                want = [buf.tobytes() for buf in stand_in.alltoallw(plans, sendbufs)]
                for width in (1, 2, 3, 4):
                    monkeypatch.setattr(_fan, "_cpus", lambda width=width: width)
                    got = exchange(plans, sendbufs)
                    assert [buf.tobytes() for buf in got] == want, width
