"""Allocator rates pinned bit for bit on fixed compositions.

``fixtures/composition_pins.json`` holds ``float.hex()`` of the rates
``allocate_batch`` returns, through the engine's protocol (see
:mod:`tests.machine.batch`), for CPU compositions with 1-4 hyper-threads
per core, two nodes, eight or more demand groups and zero-traffic profiles,
with and without the memory ramp-up, and for transport sender mixes.  Bit identity, not a tolerance: a change to the
contention engine that moves any rate by an ulp fails here.

Regenerate (only for a deliberate model change, audited leaf by leaf)::

    PYTHONPATH=src python -m tests.machine.test_composition_pins
"""

import json
import pathlib

import pytest

from repro.machine.contention import BandwidthContentionAllocator
from repro.mpisim.network import RankAwareAllocator
from tests.machine.batch import batch_rates, compute_tasks, profile, transfer_tasks

FIXTURE = pathlib.Path(__file__).parent / "fixtures/composition_pins.json"

PROFILES = [
    profile(1.2, 0.9),
    profile(0.8, 2.1),
    profile(1.9, 0.2),
    profile(2.0, 0.0),  # zero traffic
    profile(0.06, 1.0),
    profile(1.4, 3.3),
    profile(0.5, 0.0),  # zero traffic
    profile(1.1, 1.7),
    profile(0.9, 5.0),
    profile(1.6, 0.45),
]

CPU_CONFIGS = {
    "flat": dict(frequency_hz=1.4e9, bandwidth_bytes_per_s=6.9e10),
    "ramp": dict(
        frequency_hz=1.4e9,
        bandwidth_bytes_per_s=6.9e10,
        bandwidth_rampup_max=1.277e11,
        bandwidth_rampup_half=54.5,
    ),
    "tight": dict(frequency_hz=1.4e9, bandwidth_bytes_per_s=2.0e9),
}

#: ``(profile index, node, core, speed)`` per task.
CPU_CASES = {
    "lone": [(1, 0, 0, 1.0)],
    "occ1": [(k % 6, 0, k, 1.0 + 0.01 * k) for k in range(12)],
    "occ2": [(k % 5, 0, k // 2, 1.0) for k in range(10)],
    "occ3": [(k % 4, 0, k // 3, 0.9 + 0.02 * k) for k in range(9)],
    "occ4": [(k % 7, 0, k // 4, 1.0) for k in range(16)],
    "occ1to4": [
        (p, 0, core, 1.0 + 0.003 * p)
        for core, ps in enumerate([[0], [1, 2], [5, 5, 7], [0, 1, 8, 9]])
        for p in ps
    ],
    "two_nodes": [
        (0, 0, 0, 1.0), (1, 0, 0, 1.0), (2, 0, 1, 1.05), (5, 0, 2, 1.0),
        (0, 1, 0, 1.0), (5, 1, 1, 0.95), (5, 1, 1, 1.0), (8, 1, 2, 1.0),
        (8, 1, 2, 1.0), (8, 1, 2, 1.0),
    ],
    "nine_groups": [(k % 9, 0, k, 1.0 + 0.001 * k) for k in range(27)],
    "ten_groups_shared": [(k % 10, 0, k // 2, 1.0) for k in range(40)],
    "nine_groups_two_nodes": [(k % 9, k % 2, k // 2, 1.0) for k in range(36)],
    "eight_groups_occ1to4": [
        (k % 8, 0, core, 1.0)
        for core, occ in enumerate([1, 2, 3, 4] * 4)
        for k in range(core, core + occ)
    ],
    "zero_traffic": [(3, 0, 0, 1.0), (6, 0, 1, 1.0), (3, 0, 2, 1.0), (8, 0, 3, 1.0),
                     (8, 0, 4, 1.0), (6, 0, 4, 1.0)],
    "all_zero_traffic": [(3, 0, k // 2, 1.0) for k in range(5)] + [(6, 0, 9, 1.2)],
    "under_subscribed": [(2, 0, 0, 1.0), (4, 0, 1, 1.0), (9, 0, 2, 1.1)],
}

NET_CONFIGS = {
    "oversubscribed": dict(capacity=6.0e9, injection_bw=2.5e9),
    "knl": dict(capacity=4.5e10, injection_bw=3.0e9),
    "ample": dict(capacity=1.0e12, injection_bw=2.0e9),
}

#: One sender key per transfer: a rank or a ``("node", n)`` NIC key.
NET_CASES = {
    "lone": [3],
    "skewed": [5] * 6 + [1] * 2 + [2],
    "seven_ranks": list(range(7)),
}


def cpu_rates(config: str, case: str, alloc=None) -> list[str]:
    if alloc is None:
        alloc = BandwidthContentionAllocator(**CPU_CONFIGS[config])
    return [r.hex() for r in batch_rates(alloc, compute_tasks(CPU_CASES[case], PROFILES))]


def net_rates(config: str, case: str, alloc=None) -> list[str]:
    if alloc is None:
        alloc = RankAwareAllocator(**NET_CONFIGS[config])
    return [r.hex() for r in batch_rates(alloc, transfer_tasks(NET_CASES[case]))]


def record() -> dict:
    return {
        "cpu": {c: {k: cpu_rates(c, k) for k in CPU_CASES} for c in CPU_CONFIGS},
        "network": {c: {k: net_rates(c, k) for k in NET_CASES} for c in NET_CONFIGS},
    }


PINS = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.mark.parametrize("config", CPU_CONFIGS)
@pytest.mark.parametrize("case", CPU_CASES)
def test_cpu_rates_bit_identical_to_pins(config, case):
    assert cpu_rates(config, case) == PINS["cpu"][config][case]


@pytest.mark.parametrize("config", NET_CONFIGS)
@pytest.mark.parametrize("case", NET_CASES)
def test_transport_rates_bit_identical_to_pins(config, case):
    assert net_rates(config, case) == PINS["network"][config][case]


@pytest.mark.parametrize("config", CPU_CONFIGS)
def test_one_warm_cpu_allocator_prices_every_case_like_a_fresh_one(config):
    """Memo entries and interned ids of earlier compositions do not leak
    into later ones: two passes over every case on one allocator."""
    alloc = BandwidthContentionAllocator(**CPU_CONFIGS[config])
    for _ in range(2):
        for case in CPU_CASES:
            assert cpu_rates(config, case, alloc) == PINS["cpu"][config][case]


@pytest.mark.parametrize("config", NET_CONFIGS)
def test_one_warm_transport_allocator_prices_every_case_like_a_fresh_one(config):
    alloc = RankAwareAllocator(**NET_CONFIGS[config])
    for _ in range(2):
        for case in NET_CASES:
            assert net_rates(config, case, alloc) == PINS["network"][config][case]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
