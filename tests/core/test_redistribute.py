"""The Alltoallw redistribution: size-only payloads drive the same timeline.

Every exchange moves through the block plans of
:mod:`repro.core.redistribute`; there is no second, staged path and no knob
selecting one.  Meta mode replaces the payloads with size-only descriptors
of the same volumes, so the simulated timeline must not move at all — the
sweep harness and the autotuner's search rungs depend on it.  (Plan-level
data movement is pinned in ``test_wave_marshalling.py``; the per-executor
timelines and outputs in ``test_executor_timelines.py``.)
"""

import copy
import json

import pytest

from repro.analysis import analyze_pair
from repro.core import RunConfig, run_fft_phase
from repro.telemetry.manifest import build_manifest, validate_manifest
from repro.tuning import workload_digest

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


class TestMetaModeParity:
    @pytest.mark.parametrize(
        "decomposition", ["slab", "pencil"], ids=["slab-packfree", "pencil-packfree"]
    )
    def test_meta_mode_reproduces_data_mode_timeline(self, decomposition):
        """Size-only payloads must drive the cost model identically to real
        arrays — the sweep harness depends on it."""
        times, instrs = [], []
        for data_mode in (True, False):
            cfg = RunConfig(
                ranks=4,
                taskgroups=2,
                version="original",
                data_mode=data_mode,
                decomposition=decomposition,
                **SMALL,
            )
            res = run_fft_phase(cfg)
            times.append(res.phase_time)
            instrs.append(res.cpu.counters.total_instructions())
        assert times[0] == pytest.approx(times[1], rel=1e-14)
        assert instrs[0] == pytest.approx(instrs[1], rel=1e-9)

    def test_redistribution_knob_is_gone(self):
        """The packed twin was retired with its selector: naming it is an
        unknown field at construction, not a silently ignored option."""
        with pytest.raises(TypeError, match="redistribution"):
            RunConfig(ranks=2, taskgroups=2, redistribution="packed", **SMALL)
        assert not hasattr(RunConfig(ranks=2, taskgroups=2, **SMALL), "redistribution")


def test_artifacts_written_before_the_retirement_still_read(tmp_path):
    """A wisdom record and a run manifest written while ``redistribution``
    / ``pack_copies`` and ``fft_backend`` / ``kernel_workers`` still existed
    keep working: the stored knob vector applies (the retired keys are
    ignored, the live ones take effect), the manifest validates, and an
    old-vs-new ``perf diff`` blames nothing."""
    wisdom = tmp_path / "wisdom.jsonl"
    cfg = RunConfig(
        ranks=2, taskgroups=2, data_mode=True, telemetry=True,
        tuning="consult", wisdom_path=str(wisdom), **SMALL,
    )
    old_record = {
        "schema": 1, "digest": workload_digest(cfg), "score": 1.0e-4,
        "predicted_s": None, "source": "search", "provenance": {},
        "knobs": {
            "taskgroups": 2, "scheduler": "fifo", "grainsize_xy": 10,
            "grainsize_z": 200, "decomposition": "pencil",
            "redistribution": "packfree", "fft_backend": "numpy",
            "kernel_workers": 1,
        },
    }
    wisdom.write_text(json.dumps(old_record) + "\n")
    res = run_fft_phase(cfg)
    assert res.tuning["hit"] and res.tuning["applied"]
    assert res.config.decomposition == "pencil"

    new = build_manifest(res, created="(test)")
    old = copy.deepcopy(new)
    old["config"].update(redistribution="packfree", fft_backend="numpy", kernel_workers=1)
    old["dataplane"].update(
        redistribution="packfree", pack_copies=0,
        kernel_backend="numpy", kernel_workers=1,
        kernel_pool_batches=0, kernel_pool_rows=0,
    )
    old["metrics"]["dataplane.pack_copies"] = copy.deepcopy(
        new["metrics"]["dataplane.live"]
    )
    assert validate_manifest(old) == []
    assert validate_manifest(new) == []
    report = analyze_pair(old, new)
    assert report.verdict == "neutral"
    assert [(f.kind, f.delta) for f in report.findings] == [("runtime", 0.0)]
