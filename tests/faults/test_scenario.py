"""FaultScenario validation and JSON round-trips."""

import pytest

from repro.faults import (
    SCENARIO_KIND,
    FaultScenario,
    LinkFault,
    ScenarioError,
    Straggler,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


class TestValidation:
    def test_defaults_are_valid(self):
        s = FaultScenario()
        assert not s.compute_active
        assert not s.guards_transfers
        assert not s.fails_tasks

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name=""),
            dict(seed=-1),
            dict(os_noise=1.0),
            dict(os_noise=-0.1),
            dict(task_failure_rate=1.5),
            dict(task_max_failures=-1),
            dict(task_max_retries=-1),
            dict(mpi_max_retries=-1),
            dict(mpi_retry_backoff_s=-1.0),
            dict(mpi_timeout_s=0.0),
            dict(kill_transfer=0),
            dict(max_resumes=-1),
            dict(mpi_retry_backoff_s=float("nan")),
            dict(mpi_retry_backoff_s=float("inf")),
            dict(mpi_timeout_s=float("nan")),
            dict(mpi_timeout_s=float("inf")),
        ],
    )
    def test_bad_scalars_rejected(self, kwargs):
        with pytest.raises(ScenarioError):
            FaultScenario(**kwargs)

    def test_bad_straggler_rejected(self):
        with pytest.raises(ScenarioError, match="rank must be >= 0"):
            Straggler(rank=-1, slowdown=2.0)
        for slowdown in (0.5, float("nan"), float("inf")):
            with pytest.raises(ScenarioError, match="slowdown must be finite and >= 1"):
                Straggler(rank=0, slowdown=slowdown)

    def test_bad_link_rejected(self):
        with pytest.raises(ScenarioError, match="bandwidth_factor"):
            LinkFault(bandwidth_factor=0.0)
        with pytest.raises(ScenarioError, match="bandwidth_factor"):
            LinkFault(bandwidth_factor=1.5)
        with pytest.raises(ScenarioError, match="drop_probability"):
            LinkFault(drop_probability=1.0)

    def test_duplicate_straggler_ranks_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate straggler"):
            FaultScenario(
                stragglers=[Straggler(0, 2.0), Straggler(0, 3.0)]
            )

    def test_duplicate_link_ranks_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate link"):
            FaultScenario(
                links=[LinkFault(rank=None), LinkFault(rank=None)]
            )

    def test_activity_flags(self):
        assert FaultScenario(stragglers=[Straggler(0, 2.0)]).compute_active
        assert FaultScenario(os_noise=0.1).compute_active
        assert FaultScenario(links=[LinkFault(bandwidth_factor=0.5)]).degrades_links
        assert FaultScenario(links=[LinkFault(drop_probability=0.1)]).guards_transfers
        assert FaultScenario(kill_transfer=3).guards_transfers
        assert FaultScenario(mpi_timeout_s=1.0).guards_transfers
        assert FaultScenario(task_failure_rate=0.5).fails_tasks
        # A zero failure budget disables task injection outright.
        assert not FaultScenario(task_failure_rate=0.5, task_max_failures=0).fails_tasks


class TestRoundTrip:
    def _rich(self):
        return FaultScenario(
            name="rich",
            seed=3,
            stragglers=[Straggler(0, 2.0), Straggler(3, 4.0)],
            os_noise=0.25,
            links=[LinkFault(rank=1, bandwidth_factor=0.5, drop_probability=0.1),
                   LinkFault(rank=None, drop_probability=0.01)],
            task_failure_rate=0.2,
            task_max_failures=5,
            mpi_timeout_s=0.5,
            kill_transfer=7,
            max_resumes=2,
        )

    def test_dict_roundtrip(self):
        s = self._rich()
        doc = scenario_to_dict(s)
        assert doc["kind"] == SCENARIO_KIND
        assert scenario_from_dict(doc) == s

    def test_file_roundtrip(self, tmp_path):
        s = self._rich()
        path = dump_scenario(tmp_path / "s.json", s)
        assert load_scenario(path) == s

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario field"):
            scenario_from_dict({"kind": SCENARIO_KIND, "slowdwon": 2.0})

    def test_wrong_kind_rejected(self):
        with pytest.raises(ScenarioError, match="kind"):
            scenario_from_dict({"kind": "something.else"})

    def test_bad_entry_keys_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(
                {"kind": SCENARIO_KIND, "stragglers": [{"rnk": 0, "slowdown": 2.0}]}
            )
        with pytest.raises(ScenarioError, match="straggler entry"):
            scenario_from_dict({"kind": SCENARIO_KIND, "stragglers": [3]})

    def test_non_object_rejected(self):
        with pytest.raises(ScenarioError, match="JSON object"):
            scenario_from_dict([1, 2, 3])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(bad)
