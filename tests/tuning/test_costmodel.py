"""Cost-model conformance and monotonicity.

The model's job is *ranking*, but its byte formulas must match what the
data plane actually moves — the conformance test prices the forward slab
scatter analytically and against the real :class:`ExchangePlan` block
descriptors.  The monotonicity tests pin the qualitative physics the
search leans on: more nodes cost fabric time, a tighter per-link capacity
never helps, oversubscription dilates compute.
"""

import json
import pathlib

import pytest

from repro.core.config import VERSIONS, RunConfig
from repro.core.driver import build_geometry
from repro.machine.knl import KnlParameters
from repro.tuning.costmodel import (
    WorkloadModel,
    estimated_scatter_bytes,
    planned_scatter_bytes,
    predict,
    score_candidates,
)
from repro.tuning.digest import knobs_of

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


@pytest.fixture(scope="module")
def workload():
    return WorkloadModel.from_config(RunConfig(ranks=4, taskgroups=2, **SMALL))


class TestScatterConformance:
    @pytest.mark.parametrize("scatter,groups", [(4, 1), (2, 2), (8, 1)])
    def test_estimate_matches_planned_blocks(self, workload, scatter, groups):
        """The analytic scatter volume equals the summed send-block bytes
        of the real forward exchange plans, for any R x T split."""
        _cell, _desc, layout = build_geometry(
            SMALL["alat"], SMALL["ecutwfc"], 4.0, scatter, groups
        )
        assert estimated_scatter_bytes(workload, scatter) == pytest.approx(
            planned_scatter_bytes(layout)
        )

    def test_volume_is_rank_invariant(self, workload):
        assert estimated_scatter_bytes(workload, 2) == estimated_scatter_bytes(
            workload, 8
        )


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

    def test_tighter_link_capacity_never_helps(self):
        config = RunConfig(ranks=4, taskgroups=2, n_nodes=2, **SMALL)
        w = WorkloadModel.from_config(config)
        knobs = knobs_of(config)
        free = predict(w, knobs, link_capacity=None)["comm_s"]
        wide = predict(w, knobs, link_capacity=1e12)["comm_s"]
        tight = predict(w, knobs, link_capacity=1e4)["comm_s"]
        assert wide >= free or wide == pytest.approx(free)
        assert tight > 10 * free

    def test_link_capacity_ignored_on_one_node(self):
        config = RunConfig(ranks=4, taskgroups=2, **SMALL)
        w = WorkloadModel.from_config(config)
        knobs = knobs_of(config)
        assert predict(w, knobs, link_capacity=1e3) == predict(w, knobs)

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
        """Every component of every cell equals the value recorded before
        the layout/overhead terms moved onto ``VERSION_TABLE`` (float hex:
        bit identity, not a tolerance)."""
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
