"""Bit-identity of the static-table pricing paths with the vectorized ones.

The CPU allocator's no-hyper-threading miss path prices a composition in
scalar passes over per-id lists walked in two static orders; the transport
allocator keys its memo on the multiset of per-sender transfer counts.  Both
replaced numpy pipelines (``bincount`` + :func:`waterfill_vec`,
``np.unique`` + :func:`waterfill_vec`) whose results are in committed
fixtures, so the new paths must agree with them to the last bit — and must
hand the compositions they do not cover (more than seven groups, more than
one node) to the vectorized path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.contention import BandwidthContentionAllocator, waterfill_vec
from repro.machine.phases import PhaseProfile
from repro.machine.topology import HwThread
from repro.mpisim.network import RankAwareAllocator
from repro.simkit.fluid import FluidTask
from repro.simkit.simulator import Simulator

FREQ = 1.4e9

profile_tables = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
        # Zero-traffic (compute-bound) profiles included on purpose.
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=8.0, allow_nan=False)),
    ),
    min_size=1,
    max_size=9,
    unique=True,
)
rampups = st.one_of(
    st.none(),
    st.tuples(
        st.floats(min_value=1e9, max_value=4e11, allow_nan=False),
        st.floats(min_value=0.0, max_value=64.0, allow_nan=False),
    ),
)
bandwidths = st.floats(min_value=1e9, max_value=4e11, allow_nan=False)


def _allocator(bandwidth, rampup):
    kwargs = {}
    if rampup is not None:
        kwargs = dict(bandwidth_rampup_max=rampup[0], bandwidth_rampup_half=rampup[1])
    return BandwidthContentionAllocator(FREQ, bandwidth, **kwargs)


def _attach(alloc, table, counts, node_of=lambda pid: 0):
    """One task per core (so no hyper-thread sharing), ``counts[p]`` tasks of
    profile ``p``; returns the ``(n, 4)`` statics array in attach order."""
    sim = Simulator()
    statics = []
    core = 0
    for pid, ((ipc0, bpi), count) in enumerate(zip(table, counts)):
        profile = PhaseProfile(f"p{pid}", ipc0, bpi)
        for _ in range(count):
            thread = HwThread(core=core, slot=0, index=4 * core, node=node_of(pid))
            meta = {"profile": profile, "thread": thread, "speed": 1.0 + 0.001 * (core % 5)}
            static = alloc.prepare(FluidTask(sim, 1.0, meta=meta))
            alloc.notify_attach(static)
            statics.append(static)
            core += 1
    return np.asarray(statics, dtype=float)


@st.composite
def compositions(draw):
    table = draw(profile_tables)
    counts = draw(
        st.lists(
            st.integers(min_value=0, max_value=272),
            min_size=len(table),
            max_size=len(table),
        ).filter(lambda c: 0 < sum(c) <= 272)
    )
    return table, counts


class TestDenseMissPath:
    @given(comp=compositions(), bandwidth=bandwidths, rampup=rampups)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_vectorized_groups_path_bitwise(self, comp, bandwidth, rampup):
        """Any profile table, count vector and ramp-up: the dense miss path
        returns exactly the rates ``_base_rates_groups`` (``waterfill_vec``)
        computes for the same composition."""
        table, counts = comp
        alloc = _allocator(bandwidth, rampup)
        arr = _attach(alloc, table, counts)
        dense = alloc._base_rates_dense(tuple(alloc._dense_counts))
        present = [d for d, w in enumerate(alloc._dense_counts) if w]
        by_code = sorted(present, key=alloc._dense_code_l.__getitem__)
        uniq = np.array([alloc._dense_code_l[d] for d in by_code], dtype=np.int64)
        weights = np.array([alloc._dense_counts[d] for d in by_code], dtype=np.int64)
        _, reference = alloc._base_rates_groups(uniq, weights)
        assert dense[by_code].tolist() == reference.tolist()
        assert not dense[[d for d, w in enumerate(alloc._dense_counts) if not w]].any()
        # And end to end: the engine entry point scatters those rates.
        rates = alloc.allocate_batch(arr)
        expected = dense[arr[:, 3].astype(np.intp)] * arr[:, 2]
        assert rates.tolist() == expected.tolist()

    @given(comp=compositions(), bandwidth=bandwidths, rampup=rampups)
    @settings(max_examples=60, deadline=None)
    def test_equals_the_sorted_code_memo_path_bitwise(self, comp, bandwidth, rampup):
        """The hyper-threading path (sort + run-length + scalar/vector twin)
        prices a single-occupancy composition identically — the memo does
        not depend on which path filled it."""
        table, counts = comp
        alloc = _allocator(bandwidth, rampup)
        arr = _attach(alloc, table, counts)
        codes = arr[:, 0].astype(np.int64)
        uniq, base = alloc._base_rates(np.sort(codes))
        assert alloc.allocate_batch(arr).tolist() == (
            base[np.searchsorted(uniq, codes)] * arr[:, 2]
        ).tolist()

    def test_more_than_seven_groups_take_the_vectorized_path(self, monkeypatch):
        table = [(0.5 + 0.1 * k, 0.3 * k) for k in range(9)]
        alloc = _allocator(90e9, None)
        _attach(alloc, table, [3] * 9)
        calls = []
        original = alloc._base_rates_groups
        monkeypatch.setattr(
            alloc, "_base_rates_groups",
            lambda uniq, weights: calls.append(len(uniq)) or original(uniq, weights),
        )
        alloc._base_rates_dense(tuple(alloc._dense_counts))
        assert calls == [9]
        # Seven present groups of the same nine-id table stay scalar.
        calls.clear()
        alloc._base_rates_dense((3,) * 7 + (0, 0))
        assert calls == []

    @given(comp=compositions(), bandwidth=bandwidths, rampup=rampups)
    @settings(max_examples=60, deadline=None)
    def test_multi_node_compositions_price_each_node_alone(self, comp, bandwidth, rampup):
        """Nodes are independent contention domains: a two-node composition
        (profile ``p`` on node ``p % 2``) prices bitwise like the vectorized
        per-node water filling, through the scalar walks up to seven groups."""
        table, counts = comp
        alloc = _allocator(bandwidth, rampup)
        arr = _attach(alloc, table, counts, node_of=lambda pid: pid % 2)
        codes = arr[:, 0].astype(np.int64)
        uniq, weights = np.unique(codes, return_counts=True)
        _, reference = alloc._base_rates_groups(uniq, weights)
        assert alloc.allocate_batch(arr).tolist() == (
            reference[np.searchsorted(uniq, codes)] * arr[:, 2]
        ).tolist()

    def test_memo_counters_count_compositions_not_calls(self):
        alloc = _allocator(90e9, None)
        arr = _attach(alloc, [(1.0, 0.5), (0.8, 2.0)], [3, 2])
        for _ in range(4):
            alloc.allocate_batch(arr)
        info = alloc.cache_info()
        assert (info["alloc_cache_misses"], info["alloc_cache_hits"]) == (1, 3)
        assert info["alloc_cache_size"] == 1
        # A departure is a new composition; the key is the count vector the
        # detach hook maintains, not anything recomputed from the statics.
        alloc.notify_detach(arr[0])
        alloc.allocate_batch(arr[1:])
        assert alloc.cache_info()["alloc_cache_misses"] == 2


def _unique_waterfill_rates(injection_bw, capacity, senders):
    """The replaced pipeline: ``np.unique`` over sender ids + ``waterfill_vec``."""
    ids = {s: i for i, s in enumerate(dict.fromkeys(s for s in senders if s is not None))}
    sids = np.array([-1 if s is None else ids[s] for s in senders])
    uniq, counts = np.unique(sids, return_counts=True)
    demands = injection_bw / counts
    demands[uniq == -1] = injection_bw
    grants = waterfill_vec(demands, capacity, counts)
    lut = np.zeros(len(ids) + 1)
    lut[uniq] = grants
    return lut[sids]


sender_lists = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=11)), min_size=1, max_size=48
)


class TestRankAwareMemo:
    @given(
        senders=sender_lists,
        seed=st.randoms(use_true_random=False),
        capacity=st.floats(min_value=1e8, max_value=1e11, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_sender_identity_is_irrelevant(self, senders, seed, capacity):
        """Relabelling the senders (count multiset fixed) returns bit-equal
        rates out of one memo entry, equal to what the ``np.unique`` +
        ``waterfill_vec`` pipeline grants."""
        alloc = RankAwareAllocator(capacity, injection_bw=2.5e9)
        rates = alloc.allocate_batch(senders)
        labels = list(range(100, 112))
        seed.shuffle(labels)
        relabelled = [None if s is None else ("node", labels[s]) for s in senders]
        assert alloc.allocate_batch(relabelled).tolist() == rates.tolist()
        assert alloc.cache_info() == {
            "alloc_cache_hits": 1, "alloc_cache_misses": 1, "alloc_cache_size": 1,
        }
        reference = _unique_waterfill_rates(2.5e9, capacity, senders)
        assert rates.tolist() == pytest.approx(reference.tolist(), rel=1e-12)

    def test_few_senders_match_the_replaced_pipeline_bitwise(self):
        """Below eight groups numpy sums sequentially, so even the
        over-subscription test's total is the same float."""
        for senders in (
            [0, 0, 1, 2, 2, 2, None],
            [None, None, 3],
            [5] * 6 + [1] * 2 + [2],
            [0, 1, 2, 3, 4, 5, 6],
        ):
            alloc = RankAwareAllocator(capacity=6.0e9, injection_bw=2.5e9)
            assert alloc.allocate_batch(senders).tolist() == (
                _unique_waterfill_rates(2.5e9, 6.0e9, senders).tolist()
            )

    def test_anonymous_transfers_are_one_transfer_processes(self):
        alloc = RankAwareAllocator(capacity=1e12, injection_bw=2.0e9)
        rates = alloc.allocate_batch([None, None, 7, 7])
        assert rates.tolist() == [2.0e9, 2.0e9, 1.0e9, 1.0e9]
