"""Acceptance: telemetry end-to-end at the paper's 8x8 configuration.

Runs exec_original and exec_perfft (quick workload) with telemetry on and
checks the whole chain: span hierarchy, metrics consistency, Chrome-trace
structure (per-hw-thread tracks, MPI flow events), manifests whose one POP
section follows the ideal-network replay, and the ``perf diff`` /
``perf check`` behaviour on those manifests — the paper's runtime and main-phase-IPC
deltas must show up in the diff.
"""

import copy
import dataclasses
import json

import pytest

from repro.core import RunConfig, run_fft_phase
from repro.analysis import decompose, timelines_from_counters
from repro.machine.knl import whatif_machine
from repro.perf import diff_manifests, format_manifest_diff, manifest_regressions
from repro.telemetry.chrometrace import chrome_trace_events
from repro.telemetry.manifest import build_manifest, validate_manifest

QUICK = dict(ecutwfc=30.0, alat=10.0, nbnd=32)


def _run(version):
    config = RunConfig(ranks=8, taskgroups=8, version=version, telemetry=True, **QUICK)
    result = run_fft_phase(config)
    ideal = run_fft_phase(
        dataclasses.replace(config, telemetry=False),
        knl=whatif_machine("ideal_network"),
    )
    manifest = build_manifest(
        result,
        wall_time_s=1.0,
        ideal_time_s=ideal.phase_time,
        created="2026-01-01T00:00:00",
    )
    return result, ideal.phase_time, manifest


@pytest.fixture(scope="module")
def original():
    return _run("original")


@pytest.fixture(scope="module")
def perfft():
    return _run("ompss_perfft")


class TestSpanHierarchy:
    def test_driver_run_span_covers_phase(self, original):
        result, _ideal, _manifest = original
        (run_span,) = result.telemetry.spans.of_track("driver")
        assert run_span.name == "run"
        assert run_span.t_begin == 0.0
        assert run_span.t_end == pytest.approx(result.phase_time)
        assert run_span.args["version"] == "original"

    def test_original_executor_and_iteration_spans(self, original):
        result, _ideal, _manifest = original
        spans = result.telemetry.spans
        for rank in range(result.config.n_mpi_ranks):
            of_rank = spans.of_track((rank, 0))
            execs = [s for s in of_rank if s.category == "executor"]
            assert [s.name for s in execs] == ["exec_original"]
            iters = [s for s in of_rank if s.category == "iteration"]
            assert len(iters) == result.config.n_iterations
            # Iterations nest inside the executor span.
            for it in iters:
                assert execs[0].t_begin <= it.t_begin <= it.t_end <= execs[0].t_end

    def test_perfft_submit_and_taskwait_spans(self, perfft):
        result, _ideal, _manifest = perfft
        spans = result.telemetry.spans
        for rank in range(result.config.n_mpi_ranks):
            names = {s.name for s in spans.of_track((rank, 0))}
            assert {"exec_perfft", "submit", "taskwait"} <= names


class TestMetricsConsistency:
    def test_mpi_counters_match_trace(self, original):
        result, _ideal, _manifest = original
        tel = result.telemetry
        assert tel.metrics.total("mpi.calls") == len(tel.trace.mpi)
        assert tel.metrics.total("mpi.bytes_sent") == pytest.approx(
            sum(r.bytes_sent for r in tel.trace.mpi)
        )

    def test_run_level_gauges(self, original):
        result, _ideal, _manifest = original
        m = result.telemetry.metrics
        assert m.value("run.phase_seconds") == pytest.approx(result.phase_time)
        assert m.value("machine.average_ipc") == pytest.approx(result.average_ipc)
        assert m.value("sim.events_dispatched") > 0

    def test_task_metrics_for_task_runtime(self, perfft):
        result, _ideal, _manifest = perfft
        m = result.telemetry.metrics
        assert m.total("ompss.tasks_submitted") > 0
        assert m.total("ompss.tasks_submitted") == m.total("ompss.tasks_completed")
        assert result.telemetry.queue_samples, "task runtime must sample queue depth"


class TestChromeTraceAcceptance:
    def test_per_hw_thread_tracks_and_flows(self, perfft):
        result, _ideal, _manifest = perfft
        tel = result.telemetry
        events = chrome_trace_events(
            tel.trace, tel.spans, result.cpu.frequency_hz, tel.queue_samples
        )
        json.dumps(events)  # loadable by Perfetto means serialisable JSON
        thread_names = [
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        hw_tracks = [n for n in thread_names if n.startswith("rank ")]
        assert len(hw_tracks) >= result.config.total_streams
        kinds = {e["ph"] for e in events}
        assert {"s", "f"} <= kinds, "MPI flow events missing"
        assert "C" in kinds, "task-queue counter track missing"
        # Every slice lands on a named track.
        named = {
            e["tid"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert all(e["tid"] in named for e in events if e["ph"] == "X")


class TestManifestAcceptance:
    def test_manifests_validate(self, original, perfft):
        for _result, _ideal, manifest in (original, perfft):
            assert validate_manifest(manifest) == []

    def test_one_pop_section_follows_the_replay(self, original, perfft):
        """The manifest carries one POP section; its sync/transfer split and
        the two gauges quote the measured ideal-network replay (at the parent
        the replay sat in a second top-level ``pop`` while ``analysis.pop``
        and the gauges kept the trace-side estimate)."""
        for result, ideal_time, manifest in (original, perfft):
            assert "pop" not in manifest
            pop = manifest["analysis"]["pop"]
            assert pop["split_source"] == "replay"
            assert pop["ideal_runtime_s"] == ideal_time
            assert pop["transfer_efficiency"] == min(
                ideal_time / result.phase_time, 1.0
            )
            for factor in ("serialization_efficiency", "transfer_efficiency"):
                (series,) = manifest["metrics"][f"analysis.{factor}"]["series"]
                assert series["value"] == pop[factor]
            # Re-split only: path and graph are the finalization's.
            assert manifest["analysis"]["critical_path"] is not None
            assert result.telemetry.analysis.pop.split_source == "replay"

    def test_replay_factors_equal_the_counter_decomposition(self, original):
        """What ``pop.*`` held before the merge: the counters' decomposition
        with the replay time (transfer pinned bit for bit)."""
        result, ideal_time, manifest = original
        ref = decompose(
            timelines_from_counters(result.cpu.counters),
            result.phase_time,
            ideal_time_s=ideal_time,
        )
        pop = manifest["analysis"]["pop"]
        assert pop["transfer_efficiency"] == ref.transfer_efficiency
        assert pop["transfer_efficiency"] == 0.8539275862369305
        for key in ("parallel_efficiency", "load_balance", "serialization_efficiency"):
            assert pop[key] == pytest.approx(getattr(ref, key), rel=1e-12)

    def test_main_phase_ipc_recorded(self, original, perfft):
        for _result, _ideal, manifest in (original, perfft):
            assert 0.3 < manifest["phases"]["fft_xy"]["ipc"] < 1.5


class TestDiffAcceptance:
    def test_perfft_is_faster_with_higher_main_phase_ipc(self, original, perfft):
        _res_a, _i_a, manifest_a = original
        _res_b, _i_b, manifest_b = perfft
        diff = diff_manifests(manifest_a, manifest_b)
        # The paper's headline: the per-FFT task version is faster and lifts
        # the main phase's IPC (0.75 -> 0.85 on real KNL hardware).
        assert diff.runtime_relative < 0
        assert (
            manifest_b["phases"]["fft_xy"]["ipc"]
            > manifest_a["phases"]["fft_xy"]["ipc"]
        )

    def test_format_manifest_diff_reports_the_delta(self, original, perfft):
        _res_a, _i_a, manifest_a = original
        _res_b, _i_b, manifest_b = perfft
        text = format_manifest_diff(diff_manifests(manifest_a, manifest_b))
        assert manifest_a["config"]["label"] in text
        assert manifest_b["config"]["label"] in text
        assert "fft_xy" in text
        assert "parallel_efficiency" in text

    def test_check_passes_against_itself(self, original):
        _result, _ideal, manifest = original
        assert manifest_regressions(manifest, manifest) == []

    def test_check_flags_slowdown(self, original):
        _result, _ideal, manifest = original
        slower = copy.deepcopy(manifest)
        slower["timing"]["phase_time_s"] *= 1.2
        for entry in slower["phases"].values():
            entry["time_s"] *= 1.2
        violations = manifest_regressions(manifest, slower, threshold=0.05)
        assert violations
        assert any("phase time" in v or "runtime" in v for v in violations)

    def test_check_tolerates_noise_below_threshold(self, original):
        _result, _ideal, manifest = original
        near = copy.deepcopy(manifest)
        near["timing"]["phase_time_s"] *= 1.01
        assert manifest_regressions(manifest, near, threshold=0.05) == []
