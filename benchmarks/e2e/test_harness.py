"""Checks of the benchmark harness itself (``pytest benchmarks/e2e``; ~1 min).

Not part of the tier-1 suite (``pyproject.toml`` points it at ``tests/``):
these spawn the harness end to end on the ``--smoke`` grid.
"""

from __future__ import annotations

import copy
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import ledger as ledger_mod  # noqa: E402
import run as run_mod  # noqa: E402
from workloads import SRC_DIR, WORKLOADS, PhaseRunner  # noqa: E402

sys.path.insert(0, SRC_DIR)

RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec() -> dict:
    return run_mod.load_spec()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    proc = subprocess.run(RUN + ["--smoke", "--out", str(out)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["_stdout"] = proc.stdout
    doc["_path"] = str(out)
    return doc


def test_names_match_benchmark_json(smoke, spec):
    assert list(smoke["workloads"]) == [w["name"] for w in spec["workloads"]]
    assert set(smoke["workloads"]) == set(WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    for name in {w["name"] for w in spec["workloads"]} | e2e | layer:
        assert NAME_RE.fullmatch(name), name
    for name, section in smoke["workloads"].items():
        # sim_phase_ms is end-to-end in the result file and listed under
        # per_layer in BENCHMARK.json (see README: the contract has no
        # "exact" bound).
        assert set(section["end_to_end"]) == e2e | {"sim_phase_ms"}, name
        assert set(section["per_layer"]) == layer, name
        assert section["ops_failed"] == 0, section["failures"]
        for metric in e2e | layer:
            assert re.search(rf"^\s+{re.escape(metric)}\s", smoke["_stdout"], re.M), metric


def test_provenance(smoke):
    prov = smoke["provenance"]
    for key in ("commit", "recorded_at", "host_cpus", "cpu_model", "python",
                "numpy", "seed", "reps"):
        assert prov.get(key) not in (None, ""), key
    for section in smoke["workloads"].values():
        assert section["sample_counts"]["op_s"] == run_mod.SMOKE_REPS
        assert section["sample_counts"]["traced_op_s"] == run_mod.SMOKE_REPS


def test_layer_self_times_tile_the_traced_op(smoke):
    for name, section in smoke["workloads"].items():
        assert section["traced_op_rows"], name
        for row in section["traced_op_rows"]:
            total = sum(row.get(layer, 0.0) for layer in ledger_mod.TILING_LAYERS)
            assert total == pytest.approx(row["op_s"], rel=0.01), name
        # The published means tile the mean traced op the same way.  The
        # in-process telemetry/analysis numbers come from the probe op and
        # are outside the op (they are ~0 inside a telemetry-off op).
        layers = section["per_layer"]
        outside = () if name == "cli_cold_manifest" else ("telemetry.", "analysis.")
        total = sum(
            layers[m] for m in ledger_mod.TILING_LAYERS if not m.startswith(outside)
        )
        assert total == pytest.approx(layers["harness.traced_op_s"], rel=0.01), name


def test_layer_picture_on_smoke_grid(smoke):
    """The shape the workloads were chosen for survives even the tiny grid."""
    meta = smoke["workloads"]["desync_meta"]["per_layer"]
    assert meta["fft.kernel_s"] == 0.0 and meta["fft.kernel_calls"] == 0.0
    assert meta["simkit.loop_self_s"] == max(
        meta[m] for m in ledger_mod.TILING_LAYERS
    )
    slab = smoke["workloads"]["paper_slab_data"]["per_layer"]
    assert slab["fft.kernel_s"] > 0.0 and slab["fft.kernel_gflops"] > 0.0
    cli = smoke["workloads"]["cli_cold_manifest"]["per_layer"]
    assert cli["cli.import_s"] > 0.0 and cli["grids.build_calls"] > 0.0
    assert smoke["workloads"]["pencil_multinode_data"]["per_layer"]["mpisim.inter_bytes"] > 0


def test_wrappers_fully_uninstalled():
    from repro.fft.backends.engine import KernelEngine

    runner = PhaseRunner(WORKLOADS["desync_meta"], seed=1, smoke=True)
    runner.op()
    originals = {}
    for _name, path, _layer in ledger_mod.TARGETS:
        mod_name, attr_path = path.split(":")
        owner = importlib.import_module(mod_name)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        originals[path] = (owner, attr, vars(owner)[attr])
    before = min(runner.op()[0] for _ in range(5))

    led = ledger_mod.Ledger()
    led.install()
    assert KernelEngine.cft_1z is not originals[
        "repro.fft.backends.engine:KernelEngine.cft_1z"][2]
    s = led.begin("op")
    runner.op()
    led.end(s)
    led.uninstall()

    for path, (owner, attr, original) in originals.items():
        assert vars(owner)[attr] is original, path
    n_spans = len(led.span_start)
    assert n_spans > 1000
    after = min(runner.op()[0] for _ in range(5))
    assert len(led.span_start) == n_spans  # nothing records any more
    assert after == pytest.approx(before, rel=0.25)


@pytest.mark.parametrize(
    "workload", ["paper_slab_data", "desync_meta", "cli_cold_manifest"]
)
def test_corrupted_output_fails_ops(workload, tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        RUN + ["--smoke", "--no-trace", "--workload", workload,
               "--corrupt-op", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr[-2000:]
    with open(out, encoding="utf-8") as fh:
        section = json.load(fh)["workloads"][workload]
    assert section["ops_failed"] == 1
    assert "FAILED" in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_contract_line(trace, spec):
    proc = subprocess.run(
        RUN + ["--smoke", "--workload", "desync_meta", "--seed", "7",
               "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    group = spec["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in group}
    for m in group:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(last["metrics"][m["name"]]["value"], (int, float))


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files, the command fails and prints no result line."""
    import shutil

    shutil.copy(run_mod.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "desync_meta",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode not in (0, 1)
    assert '"metrics"' not in proc.stdout


def test_tail_percentile_rule():
    assert run_mod.tail_percentile(list(range(40)))[0] == pytest.approx(75.0)
    assert run_mod.tail_percentile(list(range(30)))[0] == pytest.approx(200 / 3)
    assert run_mod.tail_percentile(list(range(20)))[0] == 50.0
    assert run_mod.tail_percentile(list(range(8)))[0] == 50.0
    assert run_mod.tail_percentile([1.0, 2.0, 3.0])[1] == 2.0


def test_compare_verdicts(smoke, tmp_path, capsys):
    clean = {k: v for k, v in smoke.items() if not k.startswith("_")}
    paths = {}
    for label, edit in {
        "same": lambda d: None,
        "slow": lambda d: d["workloads"]["desync_meta"]["end_to_end"].update(
            op_s_p50=d["workloads"]["desync_meta"]["end_to_end"]["op_s_p50"] * 1.5),
        "sim": lambda d: d["workloads"]["desync_meta"]["end_to_end"].update(
            sim_phase_ms=d["workloads"]["desync_meta"]["end_to_end"]["sim_phase_ms"] + 1e-9),
        "failed": lambda d: d["workloads"]["desync_meta"].update(ops_failed=1),
    }.items():
        doc = copy.deepcopy(clean)
        edit(doc)
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(doc))
    base = str(paths["same"])
    assert compare.main([base, base]) == 0
    assert compare.main([base, str(paths["slow"])]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare.main([base, str(paths["sim"])]) == 1
    assert "CHANGED" in capsys.readouterr().out
    assert compare.main([base, str(paths["failed"])]) == 1
    # Spread wider than the bound and overlapping sets: unresolved, not ok.
    verdict, _ = compare.judge([1.0, 1.3, 0.8, 1.2], [1.1, 1.4, 0.9, 1.25], "lower", 0.1)
    assert verdict == "unresolved"
    assert compare.judge([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], "lower", 0.1)[0] == "REGRESSION"
    assert compare.judge([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "higher", 0.1)[0] == "improved"
