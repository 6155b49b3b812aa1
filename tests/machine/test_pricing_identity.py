"""Bit-identity of the engine's pricing with the numpy closed form.

The CPU allocator prices a composition in scalar passes over per-id lists
walked in two static orders; the transport allocator keys its memo on the
multiset of per-sender transfer counts.  Both replaced numpy pipelines
(``bincount`` / ``np.unique`` + a sort-and-cumsum water filling) whose
results are in committed fixtures, so they must agree with that closed form
(:func:`tests.machine.maxmin.waterfill_vec`) to the last bit: on one node
or several, with and without hyper-threads sharing a core.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.contention import BandwidthContentionAllocator
from repro.machine.phases import PhaseProfile
from repro.machine.topology import HwThread
from repro.mpisim.network import RankAwareAllocator
from repro.simkit.fluid import FluidTask
from repro.simkit.simulator import Simulator
from tests.machine.batch import batch_rates, transfer_tasks
from tests.machine.maxmin import waterfill_vec

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


def _attach(alloc, table, counts, node_of=lambda pid: 0, per_core=1):
    """``counts[p]`` tasks of profile ``p``, ``per_core`` consecutive tasks
    to a core; returns the ``(n, 3)`` statics array in attach order and the
    ``(profile, node, core, speed)`` placement of each task."""
    sim = Simulator()
    statics = []
    placed = []
    k = 0
    for pid, ((ipc0, bpi), count) in enumerate(zip(table, counts)):
        profile = PhaseProfile(f"p{pid}", ipc0, bpi)
        for _ in range(count):
            core = k // per_core
            node = node_of(pid)
            speed = 1.0 + 0.001 * (k % 5)
            thread = HwThread(core=core, slot=k % per_core, index=k, node=node)
            meta = {"profile": profile, "thread": thread, "speed": speed}
            static = alloc.prepare(FluidTask(sim, 1.0, meta=meta))
            alloc.notify_attach(static)
            statics.append(static)
            placed.append((pid, node, core, speed))
            k += 1
    return np.asarray(statics, dtype=float), placed


def _reference_rates(alloc, table, placed):
    """The numpy pipeline: per node, water-fill the ``(profile, occupancy)``
    groups, in that order, weighted by their task counts."""
    occupancy = Counter((node, core) for _, node, core, _ in placed)
    groups = Counter((pid, occupancy[node, core], node) for pid, node, core, _ in placed)
    rate_of = {}
    for node in {key[2] for key in groups}:
        keys = sorted(key for key in groups if key[2] == node)
        ipc0 = np.array([table[pid][0] for pid, _, _ in keys])
        bpi = np.array([table[pid][1] for pid, _, _ in keys])
        occ = np.array([o for _, o, _ in keys])
        weights = np.array([groups[key] for key in keys])
        ceilings = ipc0 * FREQ / occ
        demands = ceilings * bpi
        capacity = alloc.effective_capacity(int(weights[demands > 0.0].sum()))
        grants = waterfill_vec(demands, capacity, weights)
        granted = np.divide(grants, bpi, out=np.zeros_like(grants), where=bpi > 0.0)
        rates = np.where(bpi <= 0.0, ceilings, np.minimum(ceilings, granted))
        rate_of.update(zip(keys, rates.tolist()))
    return [
        rate_of[pid, occupancy[node, core], node] * speed
        for pid, node, core, speed in placed
    ]


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
        """Any profile table, count vector and ramp-up, one task per core:
        the allocator returns exactly the rates the numpy closed form
        computes for the same composition."""
        table, counts = comp
        alloc = _allocator(bandwidth, rampup)
        arr, placed = _attach(alloc, table, counts)
        assert alloc.allocate_batch(arr).tolist() == _reference_rates(alloc, table, placed)

    @given(
        comp=compositions(),
        bandwidth=bandwidths,
        rampup=rampups,
        per_core=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_cores_equal_the_vectorized_groups_path_bitwise(
        self, comp, bandwidth, rampup, per_core
    ):
        """Hyper-threads sharing cores (2-4 per core, a partly filled last
        core, profiles mixed on one core) price like the closed form over
        ``(profile, occupancy)`` groups."""
        table, counts = comp
        alloc = _allocator(bandwidth, rampup)
        arr, placed = _attach(alloc, table, counts, per_core=per_core)
        assert alloc.allocate_batch(arr).tolist() == _reference_rates(alloc, table, placed)

    @given(comp=compositions(), bandwidth=bandwidths, rampup=rampups)
    @settings(max_examples=60, deadline=None)
    def test_multi_node_compositions_price_each_node_alone(self, comp, bandwidth, rampup):
        """Nodes are independent contention domains: a two-node composition
        (profile ``p`` on node ``p % 2``) prices bitwise like the closed form
        water-filling each node alone."""
        table, counts = comp
        alloc = _allocator(bandwidth, rampup)
        arr, placed = _attach(alloc, table, counts, node_of=lambda pid: pid % 2)
        assert alloc.allocate_batch(arr).tolist() == _reference_rates(alloc, table, placed)

    def test_memo_counters_count_compositions_not_calls(self):
        alloc = _allocator(90e9, None)
        arr, _ = _attach(alloc, [(1.0, 0.5), (0.8, 2.0)], [3, 2])
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
    """The replaced pipeline: ``np.unique`` over sender ids, then the closed
    form water filling."""
    ids = {s: i for i, s in enumerate(dict.fromkeys(senders))}
    sids = np.array([ids[s] for s in senders])
    uniq, counts = np.unique(sids, return_counts=True)
    demands = injection_bw / counts
    grants = waterfill_vec(demands, capacity, counts)
    lut = np.zeros(len(ids))
    lut[uniq] = grants
    return lut[sids]


sender_lists = st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=48)


class TestRankAwareMemo:
    @given(
        senders=sender_lists,
        seed=st.randoms(use_true_random=False),
        capacity=st.floats(min_value=1e8, max_value=1e11, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_sender_identity_is_irrelevant(self, senders, seed, capacity):
        """Relabelling the senders (count multiset fixed) returns bit-equal
        rates out of one memo entry, equal to what the ``np.unique``
        pipeline grants."""
        alloc = RankAwareAllocator(capacity, injection_bw=2.5e9)
        rates = batch_rates(alloc, transfer_tasks(senders))
        labels = list(range(100, 112))
        seed.shuffle(labels)
        relabelled = [("node", labels[s]) for s in senders]
        assert batch_rates(alloc, transfer_tasks(relabelled)) == rates
        assert alloc.cache_info() == {
            "alloc_cache_hits": 1, "alloc_cache_misses": 1, "alloc_cache_size": 1,
        }
        reference = _unique_waterfill_rates(2.5e9, capacity, senders)
        assert rates == pytest.approx(reference.tolist(), rel=1e-12)

    def test_few_senders_match_the_replaced_pipeline_bitwise(self):
        """Below eight groups numpy sums sequentially, so even the
        over-subscription test's total is the same float."""
        for senders in (
            [0, 0, 1, 2, 2, 2],
            [3],
            [5] * 6 + [1] * 2 + [2],
            [0, 1, 2, 3, 4, 5, 6],
        ):
            alloc = RankAwareAllocator(capacity=6.0e9, injection_bw=2.5e9)
            assert batch_rates(alloc, transfer_tasks(senders)) == (
                _unique_waterfill_rates(2.5e9, 6.0e9, senders).tolist()
            )
