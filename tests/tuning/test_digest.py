"""Workload-digest identity: stable across executors, blind to knobs.

The wisdom DB is only as durable as its key.  These tests pin the digest's
two contracts: byte-stability (the same workload hashes identically in the
parent process, worker threads and spawned worker processes — the three
sweep executor modes), knob-blindness (moving any tunable leaves the
digest alone, while changing the workload or machine profile moves it) and
literal pins (wisdom written by earlier trees keeps hitting).
"""

import concurrent.futures
import dataclasses
import multiprocessing

import pytest

from repro.core.config import RunConfig
from repro.machine.knl import KnlParameters
from repro.tuning.digest import (
    DIGEST_SCHEMA,
    KNOB_FIELDS,
    digest_doc,
    knobs_of,
    workload_digest,
)

REF = dict(ecutwfc=12.0, alat=5.0, nbnd=8, ranks=4, taskgroups=2)


def _digest_worker(payload):
    """Module-level so process pools can pickle it."""
    config = RunConfig(**payload)
    return workload_digest(config, KnlParameters())


class TestDigestStability:
    def test_stable_across_serial_thread_process(self):
        expected = _digest_worker(REF)
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(_digest_worker, [REF] * 4))
        ctx = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=2, mp_context=ctx
        ) as pool:
            processed = list(pool.map(_digest_worker, [REF] * 4))
        assert set(threaded) == {expected}
        assert set(processed) == {expected}

    def test_format_and_schema(self):
        config = RunConfig(**REF)
        digest = workload_digest(config)
        assert digest.startswith("sha256:")
        assert len(digest) == len("sha256:") + 64
        assert digest_doc(config)["schema"] == DIGEST_SCHEMA

    @pytest.mark.parametrize(
        "n_nodes, digest",
        [
            (1, "sha256:bf9d8af6ea959ebee676cb57dda1225d7ac0ef4ea76f862881e94c4c56feb188"),
            (2, "sha256:2504d6e1051b0672a01ce4e0f26567f9742f72824ac4486ff0cfd5b278b42bb3"),
        ],
    )
    def test_digest_literals_pinned(self, n_nodes, digest):
        """Wisdom files written by earlier trees must keep hitting: the
        digest of an unchanged workload never moves."""
        assert workload_digest(RunConfig(**REF, n_nodes=n_nodes)) == digest

    def test_default_knl_matches_explicit_default(self):
        config = RunConfig(**REF)
        assert workload_digest(config) == workload_digest(config, KnlParameters())


class TestDigestSensitivity:
    def test_knobs_do_not_move_the_digest(self):
        base = RunConfig(**REF)
        expected = workload_digest(base)
        moved = {
            "taskgroups": 4,
            "scheduler": "lifo",
            "grainsize_xy": 20,
            "grainsize_z": 400,
            "decomposition": "pencil",
        }
        for field, value in moved.items():
            variant = dataclasses.replace(base, **{field: value})
            assert workload_digest(variant) == expected, field

    def test_workload_fields_move_the_digest(self):
        base = RunConfig(**REF)
        expected = workload_digest(base)
        for change in (
            {"ecutwfc": 15.0},
            {"nbnd": 16},
            {"ranks": 2},
            {"version": "ompss_perfft", "taskgroups": 2},
            {"n_nodes": 2},
            {"data_mode": True},
        ):
            variant = dataclasses.replace(base, **change)
            assert workload_digest(variant) != expected, change

    def test_machine_profile_moves_the_digest(self):
        config = RunConfig(**REF)
        slow = dataclasses.replace(KnlParameters(), frequency_hz=1.0e9)
        assert workload_digest(config, slow) != workload_digest(config)

    def test_knobs_of_covers_exactly_the_knob_fields(self):
        config = RunConfig(**REF)
        knobs = knobs_of(config)
        assert tuple(knobs) == KNOB_FIELDS
        assert knobs["taskgroups"] == 2
        assert knobs["decomposition"] == "slab"
