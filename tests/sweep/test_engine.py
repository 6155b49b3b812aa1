"""The sweep executor: determinism across worker counts, resume, streaming.

The load-bearing guarantee tested here is the engine's determinism
contract: a sweep at ``jobs=4`` on a process pool is byte-identical,
point for point, to the same sweep executed serially — with and without
an injected fault scenario.
"""

import dataclasses

import pytest

from repro.core.config import RunConfig
from repro.core.driver import run_fft_phase
from repro.faults import FaultScenario, Straggler
from repro.machine.knl import whatif_machine
from repro.sweep import (
    GridSpec,
    SweepError,
    SweepTask,
    canonical_json,
    digest_summary,
    load_sweep_manifest,
    run_sweep,
)

WORKLOAD = dict(ecutwfc=15.0, alat=6.0, nbnd=8)


def small_tasks(faults=None, reducer="summary"):
    """A 4-point ranks x version grid on the tiny certification workload."""
    grid = GridSpec(
        axes={"ranks": (1, 2), "version": ("original", "ompss_perfft")},
        base=dict(WORKLOAD, taskgroups=2, telemetry=True, faults=faults),
    )
    return grid, [
        SweepTask(key=p.key, config=p.config, reducer=reducer) for p in grid.points()
    ]


def point_bytes(result):
    """Key -> canonical JSON bytes of each summary (the identity the CLI checks)."""
    return {r.key: canonical_json(r.summary) for r in result.records}


class TestDeterminism:
    def test_process_pool_matches_serial(self):
        _grid, tasks = small_tasks()
        serial = run_sweep(tasks, jobs=1)
        pooled = run_sweep(tasks, jobs=4, mode="process")
        assert point_bytes(serial) == point_bytes(pooled)
        assert [r.digest for r in serial.records] == [r.digest for r in pooled.records]

    def test_thread_pool_matches_serial(self):
        _grid, tasks = small_tasks()
        serial = run_sweep(tasks, jobs=1)
        threaded = run_sweep(tasks, jobs=4, mode="thread")
        assert point_bytes(serial) == point_bytes(threaded)

    def test_process_pool_matches_serial_under_faults(self):
        scenario = FaultScenario(
            name="mixed",
            seed=11,
            os_noise=0.3,
            stragglers=[Straggler(rank=0, slowdown=2.0)],
        )
        _grid, tasks = small_tasks(faults=scenario)
        serial = run_sweep(tasks, jobs=1)
        pooled = run_sweep(tasks, jobs=4, mode="process")
        assert point_bytes(serial) == point_bytes(pooled)

    def test_records_in_task_order_regardless_of_completion(self):
        _grid, tasks = small_tasks()
        pooled = run_sweep(tasks, jobs=4, mode="process")
        assert [r.key for r in pooled.records] == [t.key for t in tasks]

    def test_digest_is_over_canonical_json(self):
        _grid, tasks = small_tasks()
        result = run_sweep(tasks[:1])
        record = result.records[0]
        assert record.digest == digest_summary(record.summary)
        assert record.digest.startswith("sha256:")


class TestStreamingAndResume:
    def test_manifest_streams_after_every_point(self, tmp_path):
        out = tmp_path / "sweep.json"
        seen = []

        def spy(record):
            seen.append(load_sweep_manifest(out)["sweep"]["n_points"])

        grid, tasks = small_tasks()
        run_sweep(tasks, out=out, grid=grid, on_point=spy)
        assert seen == [1, 2, 3, 4]
        manifest = load_sweep_manifest(out)
        assert manifest["sweep"]["n_tasks"] == 4
        assert manifest["sweep"]["n_points"] == 4
        assert manifest["sweep"]["grid"]["n_points"] == 4

    def test_resume_recomputes_exactly_the_missing_points(self, tmp_path):
        out = tmp_path / "sweep.json"
        grid, tasks = small_tasks()
        full = run_sweep(tasks, out=out, grid=grid, stable=True)

        manifest = load_sweep_manifest(out)
        dropped = [tasks[1].key, tasks[2].key]
        for key in dropped:
            del manifest["points"][key]
        manifest["sweep"]["n_points"] = 2

        resumed = run_sweep(tasks, jobs=2, resume=manifest, out=out, grid=grid, stable=True)
        assert sorted(resumed.computed_keys) == sorted(dropped)
        assert sorted(resumed.reused_keys) == sorted(
            k for k in (t.key for t in tasks) if k not in dropped
        )
        assert point_bytes(resumed) == point_bytes(full)
        assert load_sweep_manifest(out)["sweep"]["n_points"] == 4

    def test_resumed_records_marked_reused(self):
        _grid, tasks = small_tasks()
        full = run_sweep(tasks)
        manifest_points = {
            r.key: r.to_manifest_entry() for r in full.records
        }
        resumed = run_sweep(tasks, resume={"points": manifest_points})
        assert all(r.reused for r in resumed.records)
        assert point_bytes(resumed) == point_bytes(full)

    def test_stable_manifest_pins_clock_fields(self, tmp_path):
        out = tmp_path / "sweep.json"
        grid, tasks = small_tasks()
        run_sweep(tasks[:1], out=out, grid=grid, stable=True)
        manifest = load_sweep_manifest(out)
        assert manifest["created"] == "(stable)"
        assert manifest["sweep"]["wall_time_s"] is None


class TestReducersAndErrors:
    def test_dotted_path_reducer(self):
        _grid, tasks = small_tasks(reducer="repro.experiments.common:reduce_timing")
        result = run_sweep(tasks[:2], jobs=2, mode="process")
        for record in result.records:
            assert set(record.summary) == {"phase_time_s", "average_ipc", "failed"}

    def test_unknown_reducer_names_the_point(self):
        config = RunConfig(ranks=1, taskgroups=2, **WORKLOAD)
        task = SweepTask(key="ranks=1", config=config, reducer="nonsense")
        with pytest.raises(SweepError, match="unknown reducer"):
            run_sweep([task])

    def test_unresolvable_dotted_reducer(self):
        config = RunConfig(ranks=1, taskgroups=2, **WORKLOAD)
        task = SweepTask(key="ranks=1", config=config, reducer="no.such.module:fn")
        with pytest.raises(SweepError, match="cannot resolve"):
            run_sweep([task])

    def test_duplicate_keys_rejected(self):
        config = RunConfig(ranks=1, taskgroups=2, **WORKLOAD)
        tasks = [SweepTask(key="same", config=config)] * 2
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep(tasks)

    def test_bad_jobs_and_mode_rejected(self):
        config = RunConfig(ranks=1, taskgroups=2, **WORKLOAD)
        task = SweepTask(key="ranks=1", config=config)
        with pytest.raises(ValueError, match="jobs"):
            run_sweep([task], jobs=0)
        with pytest.raises(ValueError, match="mode"):
            run_sweep([task], mode="carrier-pigeon")

    def test_worker_exception_wrapped_with_point_key(self):
        config = RunConfig(ranks=1, taskgroups=2, **WORKLOAD)
        # canonical_json is callable but has the wrong arity: the worker's
        # TypeError must surface as a SweepError naming the point.
        task = SweepTask(
            key="ranks=1,boom=yes", config=config,
            reducer="repro.sweep.engine:canonical_json",
        )
        with pytest.raises(SweepError, match="ranks=1,boom=yes"):
            run_sweep([task])

    def test_worker_exception_wrapped_in_pool_mode(self):
        config = RunConfig(ranks=1, taskgroups=2, **WORKLOAD)
        tasks = [
            SweepTask(key="ok", config=config),
            SweepTask(
                key="boom", config=config,
                reducer="repro.sweep.engine:canonical_json",
            ),
        ]
        with pytest.raises(SweepError, match="boom"):
            run_sweep(tasks, jobs=2, mode="process")

    def test_ideal_replay_adds_pop_factors(self):
        config = RunConfig(ranks=2, taskgroups=2, telemetry=True, **WORKLOAD)
        task = SweepTask(key="ranks=2", config=config, ideal_replay=True)
        result = run_sweep([task])
        summary = result.records[0].summary
        assert "pop" not in summary  # one POP section, and it is the replay's
        pop = summary["analysis"]["pop"]
        assert pop["split_source"] == "replay"
        ideal = run_fft_phase(
            dataclasses.replace(config, telemetry=False),
            knl=whatif_machine("ideal_network"),
        )
        assert pop["ideal_runtime_s"] == ideal.phase_time
        (series,) = summary["metrics"]["analysis.transfer_efficiency"]["series"]
        assert series["value"] == pop["transfer_efficiency"]

    def test_ideal_replay_without_telemetry_prices_from_the_counters(self):
        config = RunConfig(ranks=2, taskgroups=2, **WORKLOAD)
        task = SweepTask(key="ranks=2", config=config, ideal_replay=True)
        section = run_sweep([task]).records[0].summary["analysis"]
        assert section["pop"]["split_source"] == "replay"
        assert section["critical_path"] is None and section["task_graph"] is None


class TestSweepResult:
    def test_getitem_and_summaries(self):
        _grid, tasks = small_tasks()
        result = run_sweep(tasks[:2])
        assert result[tasks[0].key].key == tasks[0].key
        assert list(result.summaries()) == [t.key for t in tasks[:2]]
        with pytest.raises(KeyError):
            result["no-such-point"]
