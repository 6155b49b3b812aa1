"""Cost-model conformance and monotonicity.

The model's job is *ranking*, but what it sums must be what the simulator
charges: the conformance pins price every version x decomposition x
task-group cell and compare the instruction, byte and task totals against a
meta-mode run of the same config.  The monotonicity tests pin the
qualitative physics the search leans on: more nodes cost fabric time, a
slower fabric never helps (and one node never sees it), oversubscription
dilates compute.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.core.config import VERSIONS, RunConfig
from repro.core.driver import trace_run
from repro.machine.knl import KnlParameters
from repro.tuning.costmodel import WorkloadModel, predict, score_candidates
from repro.tuning.digest import knobs_of

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


@pytest.fixture(scope="module")
def workload():
    return WorkloadModel.from_config(RunConfig(ranks=4, taskgroups=2, **SMALL))


@pytest.fixture(
    scope="module",
    params=[
        (version, decomposition, tg)
        for version in VERSIONS
        for decomposition in ("slab", "pencil")
        for tg in (1, 2)
    ],
    ids=lambda cell: "{}-{}-tg{}".format(*cell),
)
def priced_run(request):
    """One cell priced by the model and simulated in meta mode, with every
    MPI record and completed task of the run."""
    version, decomposition, tg = request.param
    config = RunConfig(
        ranks=4, taskgroups=tg, version=version, decomposition=decomposition, **SMALL
    )
    result, trace = trace_run(config)
    priced = predict(WorkloadModel.from_config(config), knobs_of(config))
    return priced, result, trace.mpi, trace.tasks


class TestSimulatorConformance:
    def test_instructions_equal_the_runs_counters(self, priced_run):
        priced, result, _records, _tasks = priced_run
        assert priced["instructions"] == pytest.approx(
            result.cpu.counters.total_instructions(), rel=1e-12
        )

    def test_bytes_equal_the_runs_mpi_records(self, priced_run):
        priced, _result, records, _tasks = priced_run
        assert records
        assert priced["bytes"] == sum(rec.bytes_sent for rec in records)

    def test_tasks_equal_the_runs_task_count(self, priced_run):
        priced, _result, _records, tasks = priced_run
        assert priced["tasks"] == len(tasks)


class TestPredict:
    def test_components_positive_and_sum(self, workload):
        out = predict(workload, knobs_of(RunConfig(ranks=4, taskgroups=2, **SMALL)))
        assert out["compute_s"] > 0
        assert out["comm_s"] > 0
        assert out["overhead_s"] == 0.0  # original: no task runtime
        assert out["total_s"] == pytest.approx(
            out["compute_s"] + out["comm_s"] + out["overhead_s"]
        )

    def test_task_versions_pay_runtime_overhead(self):
        config = RunConfig(ranks=4, taskgroups=2, version="ompss_perfft", **SMALL)
        w = WorkloadModel.from_config(config)
        assert predict(w, knobs_of(config))["overhead_s"] > 0

    def test_more_nodes_cost_fabric_time(self):
        base = RunConfig(ranks=4, taskgroups=2, **SMALL)
        knobs = knobs_of(base)
        one = predict(WorkloadModel.from_config(base), knobs)
        four = predict(
            WorkloadModel.from_config(
                RunConfig(ranks=4, taskgroups=2, n_nodes=4, **SMALL)
            ),
            knobs,
        )
        assert four["comm_s"] > one["comm_s"]

    def test_slower_fabric_never_helps(self):
        config = RunConfig(ranks=4, taskgroups=2, n_nodes=2, **SMALL)
        w = WorkloadModel.from_config(config)
        knobs = knobs_of(config)

        def comm_s(fabric_injection_bw):
            knl = dataclasses.replace(
                KnlParameters(), fabric_injection_bw=fabric_injection_bw
            )
            return predict(w, knobs, knl=knl)["comm_s"]

        default = KnlParameters().fabric_injection_bw
        assert comm_s(default / 1e4) > 10 * comm_s(default)
        assert comm_s(default * 1e4) <= comm_s(default)

    def test_fabric_ignored_on_one_node(self):
        config = RunConfig(ranks=4, taskgroups=2, **SMALL)
        w = WorkloadModel.from_config(config)
        knobs = knobs_of(config)
        slow = dataclasses.replace(KnlParameters(), fabric_injection_bw=1e3)
        assert predict(w, knobs, knl=slow) == predict(w, knobs)

    def test_oversubscription_dilates_compute(self):
        """Past one stream per core the issue-rate share kicks in."""
        slim = KnlParameters()
        starved = KnlParameters(n_cores=2)
        config = RunConfig(ranks=8, taskgroups=2, **SMALL)
        w = WorkloadModel.from_config(config)
        knobs = knobs_of(config)
        assert (
            predict(w, knobs, knl=starved)["compute_s"]
            > predict(w, knobs, knl=slim)["compute_s"]
        )

    @pytest.mark.parametrize("version", VERSIONS)
    def test_bit_identical_to_pinned_prices(self, version):
        """Every component of every cell equals the recorded price (float
        hex: bit identity, not a tolerance)."""
        pins = json.loads(
            (pathlib.Path(__file__).parent / "fixtures/predict_pins.json").read_text()
        )
        w = WorkloadModel.from_config(
            RunConfig(ecutwfc=12.0, alat=5.0, nbnd=32, ranks=2, taskgroups=1, version=version)
        )
        for decomposition in ("slab", "pencil"):
            for tg in (1, 2, 8):
                out = predict(w, {
                    "taskgroups": tg, "decomposition": decomposition,
                    "grainsize_xy": 10, "grainsize_z": 200,
                })
                got = [out[k].hex() for k in ("compute_s", "comm_s", "overhead_s", "total_s")]
                assert got == pins[f"{version}/{decomposition}/tg{tg}"]


class TestScoreCandidates:
    def test_sorted_and_deterministic(self, workload):
        config = RunConfig(ranks=4, taskgroups=2, **SMALL)
        candidates = [
            knobs_of(config),
            {**knobs_of(config), "taskgroups": 4},
            {**knobs_of(config), "decomposition": "pencil"},
        ]
        a = score_candidates(workload, candidates)
        b = score_candidates(workload, list(reversed(candidates)))
        assert a == b  # input order never matters
        scores = [s for s, _k in a]
        assert scores == sorted(scores)
