"""The repo's end-to-end benchmark: four workloads, two passes, one ledger.

Full run (what a person types; prints every metric by name with its unit)::

    python benchmarks/e2e/run.py --seed 2017 --out result.json

makes an **untraced pass** (the end-to-end metrics) and then a short
**traced pass** (the per-layer host ledger) over every workload.  Selectors:
``--workload NAME`` (repeatable), ``--no-trace``, ``--smoke`` (3 reps on a
shrunken grid: a plumbing check, not a measurement).

Driver contract (``BENCHMARK.json``)::

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one pass of one workload for ``S`` seconds and prints, as the last line
of stdout, ``{"correct", "attempted", "failed", "metrics"}`` with every
``end_to_end`` metric (``--trace 0``) or every ``per_layer`` metric
(``--trace 1``).

Exit code 1 when any operation failed its check, 2 when a worker could not
run at all.  See ``README.md`` for what each metric means and is for.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from compare import spread  # noqa: E402
from ledger import TILING_LAYERS  # noqa: E402
from workloads import BENCHMARK_JSON, REPO_ROOT, WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
RESULT_KIND = "repro.e2e_benchmark"

#: Fresh worker processes per untraced pass.  Each pays a cold start
#: (``setup_s`` is their median) and a share of the timed ops (pooled): op
#: speed differs by a few percent from one process to the next on this host,
#: so one process per run would put that luck into every run's median.
FRESH_PROCESSES = 3
#: Traced reps (and untraced reps on either side of them) of a full run.
TRACE_REPS, BRACKET_REPS = 6, 3
SMOKE_REPS = 3
WORKER_TIMEOUT_S = 900


class WorkerError(RuntimeError):
    """A worker process failed to produce a result."""


def load_spec() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(
            f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_probes() -> dict[str, float]:
    """Two fixed probes run before each workload so host drift is visible:
    a pocketfft batch and a pure-Python loop.  Never used to normalise."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 4096)) + 1j * rng.standard_normal((256, 4096))
    fft_s, py_s = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        np.fft.fft(x)
        fft_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i & 7
        py_s.append(time.perf_counter() - t0)
    return {
        "host.probe_fft_s": statistics.median(fft_s),
        "host.probe_py_s": statistics.median(py_s),
        "host.cpus": float(os.cpu_count() or 0),
    }


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it (never
    below the median) and its value: p75 at 40 samples, the median at 20."""
    n = len(samples)
    pct = max(50.0, 100.0 * (1.0 - 10.0 / n))
    ordered = sorted(samples)
    pos = (pct / 100.0) * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return pct, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def split_budget(total: int | float, parts: int) -> list:
    """``total`` reps (whole numbers) or seconds over ``parts`` processes."""
    if isinstance(total, float):
        return [total / parts] * parts
    return [total // parts + (i < total % parts) for i in range(parts)]


def end_to_end_metrics(workers: list[dict], setup_samples: list[float]) -> dict[str, float]:
    op_s = [s for w in workers for s in w["op_s"]]
    return {
        "setup_s": statistics.median(setup_samples),
        "op_s_p50": statistics.median(op_s),
        "bands_per_s": workers[-1]["bands_per_op"] * len(op_s) / sum(op_s),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        "sim_phase_ms": workers[-1]["sim_phase_ms"],
    }


def per_layer_metrics(
    worker: dict, probes: dict[str, float], untraced_op_s: list[float] | None
) -> dict[str, float]:
    """Name every per-layer metric of ``BENCHMARK.json`` from one traced
    worker result.  Layer seconds are means over the traced ops (means, not
    medians, so the layers tile the mean traced op exactly).  The tail and
    spread of the op time come from the untraced pass when there was one,
    else from the untraced ops that bracket the traced ones."""
    trace = worker["trace"]
    layers, setup = trace["layers"], trace["setup_layers"]
    # In-process workloads run telemetry-off: their export/analysis numbers
    # come from the probe op after the traced reps, not from the op itself.
    export = trace["export_layers"] or layers
    counters = worker["counters"]
    op_s = worker["op_s"]

    def calls(source: dict, *spans: str) -> float:
        return sum(source.get(f"calls:{s}", 0.0) for s in spans)

    kernel_s = layers.get("fft.kernel_s", 0.0)
    nlog2n = layers.get("kernel_nlog2n", 0.0)
    loop_s = layers.get("simkit.loop_self_s", 0.0)
    events = counters.get("simkit.events", 0.0)
    tail_pct, tail_s = tail_percentile(untraced_op_s or op_s)
    # Op layers keep their ledger names; telemetry/analysis come from
    # ``export`` (the probe op on telemetry-off workloads, the op itself on
    # cli_cold_manifest).
    off_op = ("telemetry.", "analysis.")
    out = {
        name: (export if name.startswith(off_op) else layers).get(name, 0.0)
        for name in TILING_LAYERS
    }
    out.update({
        "sim_phase_ms": worker["sim_phase_ms"],
        "grids.build_calls": calls(layers, "grids.FftDescriptor", "grids.DistributedLayout"),
        "fft.kernel_gflops": 5.0 * nlog2n / kernel_s / 1e9 if kernel_s else 0.0,
        "fft.time_per_nlog2n_ns": kernel_s / nlog2n * 1e9 if nlog2n else 0.0,
        "mpisim.collective_calls": calls(layers, "mpisim.alltoall", "mpisim.alltoallw"),
        "simkit.host_us_per_event": loop_s / events * 1e6 if events else 0.0,
        "machine.compute_calls": calls(layers, "machine.compute"),
        "ompss.tasks": calls(layers, "ompss.submit"),
        "telemetry.on_overhead_frac": trace["telemetry_on_overhead_frac"],
        "cli.run_cmd_s": statistics.median(worker["cli_cmd_s"]["run"] or [0.0]),
        "cli.analyze_cmd_s": statistics.median(worker["cli_cmd_s"]["analyze"] or [0.0]),
        "setup.traced_s": setup.get("op_s", 0.0),
        "setup.import_s": worker["import_s"] or setup.get("cli.import_s", 0.0),
        "setup.grids_build_s": setup.get("grids.build_s", 0.0),
        "setup.fft_plan_build_s": setup.get("fft.plan_build_s", 0.0),
        "setup.exchange_plan_s": setup.get("core.exchange_plan_s", 0.0),
        "setup.datagen_s": setup.get("core.datagen_s", 0.0),
        "harness.traced_op_s": layers["op_s"],
        "harness.op_s_tail": tail_s,
        "harness.op_s_tail_pct": tail_pct,
        "harness.op_s_samples": float(len(untraced_op_s or op_s)),
        "harness.op_s_iqr_frac": spread(untraced_op_s or op_s),
        "harness.trace_overhead_frac": (
            statistics.median(trace["traced_op_s"]) / statistics.median(op_s) - 1.0
        ),
    })
    for name in (
        "fft.kernel_calls", "fft.kernel_rows", "core.arena_reuse_ratio",
        "core.pack_copies", "core.bytes_resident_mb", "mpisim.inter_bytes",
        "mpisim.inter_messages", "simkit.events", "simkit.rebalances",
        "simkit.coalesced", "simkit.timer_skips", "machine.alloc_cache_hit_ratio",
        "machine.avg_ipc", "telemetry.manifest_bytes", "analysis.parallel_eff",
        "analysis.transfer_eff",
    ):
        out[name] = counters.get(name, 0.0)
    out.update(probes)
    return out


def run_workload(name: str, args, workdir: str, passes: tuple[str, ...]) -> dict:
    """Both (or one) passes of one workload -> its section of the result."""
    workload = WORKLOADS[name]
    is_cli = workload.kind == "cli"
    base = ["--workload", name, "--seed", str(args.seed), "--workdir", workdir]
    if args.smoke:
        base.append("--smoke")
    fresh = 1 if args.smoke else FRESH_PROCESSES
    section: dict = {"end_to_end": {}, "per_layer": {}, "samples": {},
                     "ops_attempted": 0, "ops_failed": 0, "failures": []}
    probes = host_probes()

    def absorb(worker: dict) -> None:
        section["ops_attempted"] += worker["ops_attempted"]
        section["ops_failed"] += worker["ops_failed"]
        section["failures"] += worker["failures"]

    if "untraced" in passes:
        # In-process kinds: identical fresh processes share the budget, the
        # last one also pays the dense-reference validation the others'
        # reference_sha is checked against.  Every cli op is two fresh
        # processes already: one worker, its first ops untimed for setup_s.
        if args.seconds is not None:
            flag, total = "--seconds", float(args.seconds)
        else:
            flag, total = "--reps", SMOKE_REPS if args.smoke else workload.reps
        shares = [total] if is_cli else split_budget(total, fresh)
        workers = []
        for i, share in enumerate(shares):
            extra = [flag, str(share)]
            if is_cli:
                extra += ["--setup-samples", str(fresh)]
            elif i < len(shares) - 1:
                extra.append("--no-dense-check")
            if args.corrupt_op >= 0 and i == 0:
                extra += ["--corrupt-op", str(args.corrupt_op)]
            workers.append(run_worker(base + extra))
            absorb(workers[-1])
        if len({w["reference_sha"] for w in workers}) != 1:
            section["ops_failed"] = section["ops_attempted"]
            section["failures"].insert(0, "fresh processes disagree on the reference output")
        setup_samples = (
            workers[0]["setup_samples"] if is_cli else [w["setup_s"] for w in workers]
        )
        section["end_to_end"] = end_to_end_metrics(workers, setup_samples)
        section["samples"].update(
            op_s=[s for w in workers for s in w["op_s"]], setup_s=setup_samples
        )

    if "traced" in passes:
        if args.seconds is not None:
            budget = ["--seconds", str(args.seconds)]
        else:
            bracket = 1 if args.smoke else BRACKET_REPS
            budget = ["--reps", str(bracket),
                      "--trace-reps", str(SMOKE_REPS if args.smoke else TRACE_REPS)]
        traced = run_worker(base + budget + ["--trace"])
        absorb(traced)
        section["per_layer"] = per_layer_metrics(
            traced, probes, section["samples"].get("op_s")
        )
        trace = traced["trace"]
        section["samples"].update(
            traced_op_s=trace["traced_op_s"],
            bracket_op_s=trace["pre_op_s"] + trace["post_op_s"],
        )
        section["traced_op_rows"] = trace["op_rows"]
        section["n_spans"] = trace["n_spans"]
        if args.out:
            stem = os.path.splitext(args.out)[0]
            kept = f"{stem}.spans.{name}.npz"
            shutil.move(trace["spans_file"], kept)
            section["spans_file"] = kept
    else:
        section["per_layer"] = dict(probes)

    section["sample_counts"] = {k: len(v) for k, v in section["samples"].items()}
    return section


def provenance(args, names: list[str]) -> dict:
    def git(*cmd: str) -> str:
        return subprocess.run(
            ["git", "-C", REPO_ROOT, *cmd], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # not a git checkout
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "commit": commit,
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host_cpus": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds_per_pass": args.seconds,
        "reps": {
            n: (SMOKE_REPS if args.smoke else WORKLOADS[n].reps) for n in names
        } if args.seconds is None else None,
        "fresh_processes": 1 if args.smoke else FRESH_PROCESSES,
    }


def print_report(result: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, section in result["workloads"].items():
        print(f"\n== {name}: {section['ops_attempted']} ops attempted, "
              f"{section['ops_failed']} failed ==")
        for message in section["failures"]:
            print(f"   FAILED: {message}")
        for group in ("end_to_end", "per_layer"):
            for metric, value in section[group].items():
                print(f"  {metric:34s} {value:16.6f} {units.get(metric, '')}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="run only this workload (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=2017,
                    help="feeds RunConfig.seed (wavefunction/potential data)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measure each pass for this long instead of a rep count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="driver contract: run only the untraced (0) or traced (1) "
                    "pass and print the result object as the last line")
    ap.add_argument("--no-trace", action="store_true", help="skip the traced pass")
    ap.add_argument("--smoke", action="store_true",
                    help="3 reps on a shrunken grid, both passes (plumbing check)")
    ap.add_argument("--out", default=None, help="write the result JSON here")
    ap.add_argument("--corrupt-op", type=int, default=-1,
                    help="test hook: corrupt this timed op's output")
    args = ap.parse_args(argv)
    # As an exception, SIGTERM makes subprocess.run kill and reap the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = load_spec()
    names = args.workload or list(WORKLOADS)
    if args.trace is not None:
        if len(names) != 1:
            ap.error("--trace 0|1 needs exactly one --workload")
        passes = ("traced",) if args.trace else ("untraced",)
    else:
        passes = ("untraced",) if args.no_trace else ("untraced", "traced")

    workdir = os.path.join(REPO_ROOT, ".e2e_bench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    result = {"kind": RESULT_KIND, "schema_version": 1,
              "provenance": provenance(args, names), "workloads": {}}
    try:
        for name in names:
            result["workloads"][name] = run_workload(name, args, workdir, passes)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # unless another run is using it
        except OSError:
            pass

    print_report(result, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
        print(f"\nresult written: {args.out}")

    attempted = sum(s["ops_attempted"] for s in result["workloads"].values())
    failed = sum(s["ops_failed"] for s in result["workloads"].values())
    if args.trace is not None:
        section = result["workloads"][names[0]]
        group = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[group]}
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": section[group][name], "unit": unit}
                for name, unit in units.items()
            },
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
