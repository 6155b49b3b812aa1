"""Driver integration: consult semantics, byte identity, warm overhead.

The acceptance contracts of the tuning plane: a ``tuning="consult"`` run
resolves its knobs *before* any geometry or machine exists, so its
simulated timeline is byte-identical to a hand-written config with the
same knobs; the warm consult path costs well under 1% of the reference
run; and the per-link capacity knob is strictly opt-in — the default-off
path is pinned bit-identical to the pre-knob timings.
"""

import dataclasses
import time

import pytest

from repro.core import RunConfig, run_fft_phase
from repro.telemetry.manifest import build_manifest, validate_manifest
from repro.tuning import (
    WisdomDB,
    WisdomEntry,
    consult,
    resolve_tuning,
    workload_digest,
)
from repro.tuning.search import search

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


@pytest.fixture(scope="module")
def warm_db(tmp_path_factory):
    """A wisdom file already holding the 2x2 small workload's winner."""
    path = tmp_path_factory.mktemp("wisdom") / "wisdom.jsonl"
    config = RunConfig(ranks=2, taskgroups=2, **SMALL)
    entry = search(config, db=WisdomDB(path), top_k=4, survivors=2)
    return path, config, entry


class TestConsultIdentity:
    def test_consult_run_matches_handwritten_config(self, warm_db):
        """Byte identity: same knobs, same simulated timeline."""
        path, config, entry = warm_db
        consulted = run_fft_phase(
            dataclasses.replace(config, tuning="consult", wisdom_path=str(path))
        )
        handwritten = run_fft_phase(dataclasses.replace(config, **entry.knobs))
        assert consulted.phase_time == handwritten.phase_time
        assert consulted.tuning["hit"] is True
        assert consulted.tuning["applied"] is True
        assert consulted.tuning["knobs"] == entry.knobs

    def test_consult_miss_leaves_the_run_untouched(self, tmp_path):
        config = RunConfig(
            ranks=2, taskgroups=2,
            tuning="consult", wisdom_path=str(tmp_path / "empty.jsonl"),
            **SMALL,
        )
        plain = run_fft_phase(RunConfig(ranks=2, taskgroups=2, **SMALL))
        result = run_fft_phase(config)
        assert result.phase_time == plain.phase_time
        assert result.tuning["hit"] is False
        assert result.tuning["applied"] is False

    def test_tuning_off_records_nothing(self):
        result = run_fft_phase(RunConfig(ranks=2, taskgroups=2, **SMALL))
        assert result.tuning is None
        assert "tuning" not in build_manifest(result)

    def test_manifest_tuning_section_validates(self, warm_db):
        path, config, _entry = warm_db
        result = run_fft_phase(
            dataclasses.replace(config, tuning="consult", wisdom_path=str(path))
        )
        manifest = build_manifest(result)
        assert manifest["tuning"]["mode"] == "consult"
        assert manifest["tuning"]["digest"].startswith("sha256:")
        assert manifest["tuning"]["measured_s"] == result.phase_time
        assert validate_manifest(manifest) == []

    def test_search_mode_runs_cold_then_applies(self, tmp_path):
        path = tmp_path / "wisdom.jsonl"
        config = RunConfig(
            ranks=2, taskgroups=2,
            tuning="search", wisdom_path=str(path),
            **SMALL,
        )
        result = run_fft_phase(config)
        assert result.tuning["hit"] is False
        assert result.tuning["applied"] is True
        assert result.tuning["source"] == "search"
        # The search left wisdom behind: the next consult is a warm hit.
        assert consult(path, result.tuning["digest"]) is not None


class TestResolveTuning:
    def test_stale_entry_never_breaks_the_run(self, tmp_path):
        """A knob vector invalid for this workload is dropped, not fatal."""
        config = RunConfig(
            ranks=2, taskgroups=2,
            tuning="consult", wisdom_path=str(tmp_path / "w.jsonl"),
            **SMALL,
        )
        db = WisdomDB(tmp_path / "w.jsonl")
        db.record(
            WisdomEntry(
                digest=workload_digest(config),
                knobs={"taskgroups": 7},  # does not divide the band batch
                score=0.001,
            )
        )
        resolved, info = resolve_tuning(config)
        assert info["hit"] is True
        assert info["applied"] is False
        assert resolved == config

    def test_warm_consult_under_one_percent_of_reference_run(self, warm_db):
        """Admission-path budget: a memoized consult on a warm DB costs
        <1% of the 8x8 reference run it would front."""
        path, config, _entry = warm_db
        digest = workload_digest(config)
        consult(path, digest)  # prime the (path, mtime, size) generation

        reference = RunConfig(ranks=8, taskgroups=8, ecutwfc=30.0,
                              alat=10.0, nbnd=32)
        t0 = time.perf_counter()
        run_fft_phase(reference)
        run_s = time.perf_counter() - t0

        n = 50
        t0 = time.perf_counter()
        for _ in range(n):
            assert consult(path, digest) is not None
        consult_s = (time.perf_counter() - t0) / n
        assert consult_s < 0.01 * run_s


class TestLinkCapacityPin:
    BASE = dict(ecutwfc=12.0, alat=5.0, nbnd=8, ranks=4, taskgroups=2, n_nodes=2)
    #: Simulated phase time of the 2-node reference before the per-link
    #: knob existed — the default-off path must stay bit-identical.
    PINNED_DEFAULT_S = 0.00017500621336826718

    def test_default_off_is_bit_identical(self):
        result = run_fft_phase(RunConfig(**self.BASE))
        assert result.phase_time == self.PINNED_DEFAULT_S

    def test_tiny_capacity_strictly_slows_the_run(self):
        capped = run_fft_phase(RunConfig(link_capacity=1e5, **self.BASE))
        assert capped.phase_time > self.PINNED_DEFAULT_S

    def test_single_node_runs_never_see_the_fabric(self):
        """On one node there is no inter-node link to cap."""
        base = {**self.BASE, "n_nodes": 1}
        free = run_fft_phase(RunConfig(**base))
        capped = run_fft_phase(RunConfig(link_capacity=1e5, **base))
        assert capped.phase_time == free.phase_time

    def test_validation(self):
        with pytest.raises(ValueError, match="link_capacity"):
            RunConfig(link_capacity=0.0, **self.BASE)
        with pytest.raises(ValueError, match="tuning"):
            RunConfig(tuning="always", ranks=2, taskgroups=2)
