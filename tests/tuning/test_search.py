"""The successive-halving search: validity, determinism, the win guarantee.

The load-bearing property is the incumbent's bye into the final rung —
the recorded winner can never score worse than the config's own knobs, at
any executor mode or parallelism, which is what makes the tuned-vs-default
experiment's win rate a construction guarantee rather than a hope.
"""

import dataclasses

import pytest

from repro.core.config import RunConfig
from repro.core.driver import run_fft_phase
from repro.tuning.digest import KNOB_FIELDS, knobs_of, workload_digest
from repro.tuning.search import _rung_nbnd, candidate_knobs, search
from repro.tuning.wisdom import WisdomDB

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


class TestCandidateKnobs:
    def test_all_candidates_are_valid_configs(self):
        config = RunConfig(ranks=2, taskgroups=2, **SMALL)
        for knobs in candidate_knobs(config):
            assert tuple(knobs) == KNOB_FIELDS
            dataclasses.replace(config, **knobs)  # must not raise

    def test_incumbent_always_present(self):
        config = RunConfig(ranks=2, taskgroups=2, **SMALL)
        assert knobs_of(config) in candidate_knobs(config)

    def test_deterministic_order(self):
        config = RunConfig(ranks=2, taskgroups=2, version="ompss_combined", **SMALL)
        assert candidate_knobs(config) == candidate_knobs(config)

    def test_scheduler_and_grains_only_where_they_act(self):
        for version in ("original", "ompss_perfft"):
            plain = candidate_knobs(RunConfig(ranks=2, taskgroups=2, version=version, **SMALL))
            assert {k["scheduler"] for k in plain} == {"fifo"}
            assert {k["grainsize_xy"] for k in plain} == {10}
            assert {k["grainsize_z"] for k in plain} == {200}
        staged = candidate_knobs(
            RunConfig(ranks=2, taskgroups=2, version="ompss_combined", **SMALL)
        )
        assert {k["scheduler"] for k in staged} == {"fifo", "lifo", "locality"}
        assert len({k["grainsize_xy"] for k in staged}) == 3

    @pytest.mark.parametrize("n_nodes", [1, 2])
    @pytest.mark.parametrize("decomposition", ["slab", "pencil"])
    def test_scheduler_cannot_move_a_per_band_chain(self, n_nodes, decomposition):
        """Why perfft offers no scheduler knob: one independent chain task per
        band leaves the ready queues nothing to reorder."""
        times = {
            run_fft_phase(RunConfig(
                ranks=2, taskgroups=2, version="ompss_perfft", scheduler=scheduler,
                n_nodes=n_nodes, decomposition=decomposition, **SMALL,
            )).phase_time
            for scheduler in ("fifo", "lifo", "locality")
        }
        assert len(times) == 1

    def test_rung_nbnd_keeps_every_candidate_valid(self):
        config = RunConfig(ranks=2, taskgroups=2, nbnd=64, ecutwfc=12.0, alat=5.0)
        candidates = candidate_knobs(config)
        cheap = _rung_nbnd(config, candidates)
        assert 0 < cheap <= config.nbnd
        for knobs in candidates:
            dataclasses.replace(config, **knobs, nbnd=cheap)  # must not raise


class TestSearch:
    @pytest.fixture(scope="class")
    def config(self):
        return RunConfig(ranks=2, taskgroups=2, **SMALL)

    @pytest.fixture(scope="class")
    def result(self, config):
        return search(config, top_k=4, survivors=2)

    def test_winner_never_loses_to_the_incumbent(self, config, result):
        incumbent_s = result.provenance["incumbent_s"]
        assert incumbent_s is not None
        assert result.score <= incumbent_s
        # And the incumbent's final-rung time is the real default run time.
        assert incumbent_s == run_fft_phase(config).phase_time

    def test_winner_score_is_the_real_run_time(self, config, result):
        tuned = dataclasses.replace(config, **result.knobs)
        assert run_fft_phase(tuned).phase_time == result.score

    def test_deterministic(self, config, result):
        again = search(config, top_k=4, survivors=2)
        assert again == result

    def test_executor_modes_agree(self, config, result):
        threaded = search(config, jobs=2, mode="thread", top_k=4, survivors=2)
        assert threaded == result

    def test_digest_and_provenance(self, config, result):
        assert result.digest == workload_digest(config)
        assert result.source == "search"
        prov = result.provenance
        assert prov["candidates"] >= prov["shortlist"] >= 1
        assert prov["evaluated"] >= 2
        assert 0 < prov["rung0_nbnd"] <= config.nbnd

    def test_records_into_the_db(self, config, tmp_path):
        db = WisdomDB(tmp_path / "wisdom.jsonl")
        entry = search(config, db=db, top_k=4, survivors=2)
        assert db.lookup(entry.digest) == entry
        assert WisdomDB(tmp_path / "wisdom.jsonl").lookup(entry.digest) == entry

    def test_bad_budgets_rejected(self, config):
        with pytest.raises(ValueError, match="top_k"):
            search(config, top_k=0)
        with pytest.raises(ValueError, match="survivors"):
            search(config, survivors=0)
