"""Throughput ratchet guards for the simulator's optimized hot paths.

Each *target* measures one reference workload and compares it against a
committed baseline file:

``contention``
    Simulation throughput (runs per host second) of the desynchronized
    meta-mode workload (ranks=8, taskgroups=8, ``ompss_perfft``) — the
    configuration whose hot path is the fluid engine + memoized bandwidth
    water-filling.  The unit is whole runs of the fixed configuration, not
    events: fusing events makes the engine faster *and* the event count
    smaller, so events/s can fall while every run gets quicker;
    ``events_per_s`` and ``sim_events`` ride along as recorded information
    only.  Baseline: ``benchmarks/BENCH_contention.json``.

``dataplane``
    Data-mode band throughput (bands/s) of the 8x8 reference workload
    (ecutwfc 30, alat 10, 32 bands, ``original``) — the configuration whose
    hot path is the zero-allocation data plane: workspace arenas, cached
    flat index maps, batched marshalling, and the direct batched-matmul FFT
    combine.  Baseline: ``benchmarks/BENCH_dataplane.json``, which also
    records the pre-arena throughput the optimization is measured against.

``multinode``
    Data-mode band throughput (bands/s) across the multi-node grid —
    nodes {1, 4} x decomposition {slab, pencil} on the pack-free
    Alltoallw data plane (ranks=4, taskgroups=2, ``original``).  The
    ratcheted headline is the *worst* of the four cells.  Baseline:
    ``benchmarks/BENCH_multinode.json``.

``tuning``
    Autotuner quality: the tuned-vs-default win rate of the cost-model-
    guided search (:mod:`repro.tuning`) over a small grid x executor x
    node matrix.  The whole measurement is simulated and seeded, so
    ``win_rate`` is deterministic — any drop means a search or cost-model
    regression, not noise.  The median speedup rides along for triage.
    Baseline: ``benchmarks/BENCH_tuning.json``.

Modes
-----
``check``
    Fail (exit 1) when any selected target's best-of-N throughput falls
    more than ``--tolerance`` (default 20%) below its baseline.  CI runs
    this on every push; the generous tolerance plus a best-of-N protocol
    absorbs shared-runner noise while still catching real hot-path
    regressions.

``update``
    Re-measure and rewrite the baseline *only if faster* (a ratchet: the
    committed number only ever goes up).  Run this after landing an
    optimization and commit the result.

Usage::

    PYTHONPATH=src python benchmarks/perf_guard.py check
    PYTHONPATH=src python benchmarks/perf_guard.py check --target dataplane
    PYTHONPATH=src python benchmarks/perf_guard.py update --target contention
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

_HERE = pathlib.Path(__file__).resolve().parent

#: Pre-optimization bands/s of the dataplane reference workload, measured at
#: the commit before the workspace arena landed.  Kept in the baseline file
#: so the speedup the ratchet protects stays visible next to the number.
PRE_ARENA_BANDS_PER_S = 41.94370461713116


def contention_config():
    from repro.core.driver import RunConfig

    return RunConfig(ranks=8, taskgroups=8, version="ompss_perfft")


def dataplane_config():
    from repro.core.driver import RunConfig

    return RunConfig(
        ranks=8,
        taskgroups=8,
        version="original",
        ecutwfc=30.0,
        alat=10.0,
        nbnd=32,
        data_mode=True,
    )


def _throughput(cfg, rounds: int, units: float) -> tuple[float, float, object]:
    """``(best, iqr_frac, last result)`` of ``rounds`` timed runs doing
    ``units`` of work each: the ratcheted best-of-N throughput (units per
    host second) and the rounds' dispersion (interquartile range over the
    median) recorded next to it."""
    from repro.core.driver import run_fft_phase

    result = run_fft_phase(cfg)  # warm geometry/plan caches and the buffer arenas
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = run_fft_phase(cfg)
        samples.append(units / (time.perf_counter() - t0))
    iqr_frac = 0.0
    if len(samples) > 1:
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
        iqr_frac = (q3 - q1) / statistics.median(samples)
    return max(samples), iqr_frac, result


def measure_contention(rounds: int = 5) -> dict:
    """Best-of-``rounds`` runs per host second of the fixed meta-mode config."""
    cfg = contention_config()
    best, iqr_frac, result = _throughput(cfg, rounds, 1.0)
    sim_events = result.sim.n_dispatched
    return {
        "kind": "repro.bench_contention",
        "config": cfg.label(),
        "runs_per_s": best,
        "runs_per_s_iqr_frac": iqr_frac,
        "events_per_s": best * sim_events,
        "sim_events": sim_events,
        "rounds": rounds,
    }


def _bands_per_s(cfg, rounds: int) -> tuple[float, float]:
    """``(best, iqr_frac)`` band throughput of ``rounds`` timed runs."""
    best, iqr_frac, _result = _throughput(cfg, rounds, cfg.n_complex_bands)
    return best, iqr_frac


def measure_dataplane(rounds: int = 5) -> dict:
    """Best-of-``rounds`` data-mode band throughput (complex bands/s)."""
    cfg = dataplane_config()
    best, iqr_frac = _bands_per_s(cfg, rounds)
    return {
        "kind": "repro.bench_dataplane",
        "config": cfg.label(),
        "bands_per_s": best,
        "bands_per_s_iqr_frac": iqr_frac,
        "n_complex_bands": cfg.n_complex_bands,
        "pre_arena_bands_per_s": PRE_ARENA_BANDS_PER_S,
        "speedup_vs_pre_arena": best / PRE_ARENA_BANDS_PER_S,
        "rounds": rounds,
    }


def multinode_configs():
    """nodes {1,4} x decomposition {slab,pencil} on the 4x2 data workload."""
    from repro.core.driver import RunConfig

    base = dict(
        ranks=4,
        taskgroups=2,
        version="original",
        ecutwfc=30.0,
        alat=10.0,
        nbnd=32,
        data_mode=True,
    )
    return {
        f"nodes{n}_{decomp}": RunConfig(n_nodes=n, decomposition=decomp, **base)
        for n in (1, 4)
        for decomp in ("slab", "pencil")
    }


def measure_multinode(rounds: int = 5) -> dict:
    """Best-of-``rounds`` band throughput across the multi-node grid.

    The ratcheted headline, ``bands_per_s``, is the *minimum* of the four
    cells (nodes 1 and 4, slab and pencil decompositions, all on the
    pack-free data plane) — the guard only holds when every corner of the
    multi-node data plane stays fast.  Per-cell numbers ride along for
    triage, as does the dispersion of the worst cell's rounds.
    """
    cfgs = multinode_configs()
    per = {key: _bands_per_s(cfg, rounds) for key, cfg in cfgs.items()}
    worst = min(per, key=per.get)
    return {
        "kind": "repro.bench_multinode",
        "config": "4x2 data mode (ecut 30, alat 10, 32 bands), "
        "nodes {1,4} x {slab,pencil}",
        "bands_per_s": per[worst][0],
        "bands_per_s_iqr_frac": per[worst][1],
        "worst_cell": worst,
        **{f"bands_per_s_{key}": best for key, (best, _iqr) in per.items()},
        "rounds": rounds,
    }


#: Matrix the tuning guard searches: small enough for CI, wide enough to
#: exercise both decompositions, a task executor, and a multi-node cell.
TUNING_CELLS = (
    ("2x2 original", 2, "original", 2, 1),
    ("2 ompss_perfft", 2, "ompss_perfft", 2, 1),
    ("4x2 original 2n", 4, "original", 2, 2),
)


def measure_tuning(rounds: int = 5) -> dict:
    """Tuned-vs-default win rate over the reference matrix (deterministic).

    ``rounds`` is accepted for interface parity but ignored: the search and
    every candidate evaluation are simulated with fixed seeds, so repeated
    rounds return byte-identical results.
    """
    from repro.experiments import run_tuning

    report = run_tuning(
        ecutwfc=12.0,
        alat=5.0,
        nbnd=8,
        cells=TUNING_CELLS,
        top_k=4,
        survivors=2,
    )
    return {
        "kind": "repro.bench_tuning",
        "config": f"{report.data['n_cells']} cells (ecut 12, alat 5, 8 bands), "
        "cold search per cell",
        "win_rate": report.data["win_rate"],
        "median_speedup": report.data["median_speedup"],
        "max_speedup": report.data["max_speedup"],
        "changed_cells": report.data["changed_cells"],
        "rounds": 1,
    }


#: target name -> (baseline path, baseline kind, throughput key, measure fn,
#:                 regression hint)
TARGETS = {
    "contention": (
        _HERE / "BENCH_contention.json",
        "repro.bench_contention",
        "runs_per_s",
        measure_contention,
        "profile the fluid-engine hot path (see docs/PERFORMANCE.md)",
    ),
    "dataplane": (
        _HERE / "BENCH_dataplane.json",
        "repro.bench_dataplane",
        "bands_per_s",
        measure_dataplane,
        "profile the data-plane hot path — arena reuse, index-map caching, "
        "and the batched FFT combine (see docs/PERFORMANCE.md)",
    ),
    "multinode": (
        _HERE / "BENCH_multinode.json",
        "repro.bench_multinode",
        "bands_per_s",
        measure_multinode,
        "profile the multi-node data plane — the Alltoallw block plans, the "
        "pencil transpose paths, and the inter-node network accounting "
        "(see docs/PERFORMANCE.md)",
    ),
    "tuning": (
        _HERE / "BENCH_tuning.json",
        "repro.bench_tuning",
        "win_rate",
        measure_tuning,
        "inspect the autotuner — candidate enumeration, cost-model ranking, "
        "and the incumbent's bye into the final rung (see docs/TUNING.md)",
    ),
}


def load_baseline(path: pathlib.Path, kind: str) -> dict | None:
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    if doc.get("kind") != kind:
        raise SystemExit(f"{path}: not a {kind} baseline")
    return doc


def baseline_provenance(path: pathlib.Path, baseline: dict) -> str:
    """Where the committed baseline came from: file mtime plus the commit
    recorded at update time (older baselines predate the commit field)."""
    parts = []
    try:
        mtime = path.stat().st_mtime
        parts.append(
            "mtime " + time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(mtime))
        )
    except OSError:
        parts.append("mtime unknown")
    commit = baseline.get("commit")
    parts.append(f"commit {commit}" if commit else "commit not recorded")
    if baseline.get("recorded_at"):
        parts.append(f"recorded {baseline['recorded_at']}")
    if baseline.get("host_cpus"):
        parts.append(f"{baseline['host_cpus']} cpus")
    return f"{path} ({', '.join(parts)})"


def _current_commit() -> str | None:
    """Best-effort git HEAD of the working tree, ``-dirty`` when it has
    uncommitted changes (None outside a checkout)."""
    import subprocess

    try:
        out = subprocess.run(
            # The pattern matches no tag, so this is always the short hash.
            ["git", "describe", "--always", "--dirty", "--match=NeVeRmAtCh"],
            cwd=_HERE,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def check_target(name: str, path: pathlib.Path, tolerance: float, rounds: int) -> int:
    default_path, kind, metric, measure, hint = TARGETS[name]
    path = path or default_path
    baseline = load_baseline(path, kind)
    if baseline is None:
        print(f"[{name}] no baseline at {path}; run 'perf_guard.py update' and commit it")
        return 1
    current = measure(rounds)
    floor = baseline[metric] * (1.0 - tolerance)
    verdict = "OK" if current[metric] >= floor else "REGRESSION"
    print(
        f"[{name}] {verdict}: {current[metric]:,.1f} {metric} "
        f"(baseline {baseline[metric]:,.1f}, "
        f"floor {floor:,.1f} at -{tolerance:.0%}, "
        f"best of {rounds} on {current['config']})"
    )
    if verdict != "OK":
        print(f"[{name}] baseline provenance: {baseline_provenance(path, baseline)}")
        print(
            f"[{name}] throughput regressed beyond tolerance; {hint} "
            "or, if the slowdown is intended and justified, refresh the "
            "baseline with 'perf_guard.py update --force'."
        )
        return 1
    return 0


def update_target(name: str, path: pathlib.Path, rounds: int, force: bool) -> int:
    default_path, kind, metric, measure, _hint = TARGETS[name]
    path = path or default_path
    baseline = load_baseline(path, kind)
    current = measure(rounds)
    if baseline is not None and not force:
        if current[metric] <= baseline[metric]:
            print(
                f"[{name}] keeping baseline {baseline[metric]:,.1f} {metric} "
                f"(measured {current[metric]:,.1f}; "
                "the ratchet only moves up — use --force to lower it)"
            )
            return 0
    commit = _current_commit()
    if commit is not None:
        current["commit"] = commit
    current["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    current["host_cpus"] = os.cpu_count()
    path.write_text(json.dumps(current, indent=2) + "\n")
    print(f"[{name}] wrote {path}: {current[metric]:,.1f} {metric}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("check", "update"))
    parser.add_argument(
        "--target",
        choices=("all", *TARGETS),
        default="all",
        help="which ratchet to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=None,
        help="override the baseline path (single-target runs only)",
    )
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--force",
        action="store_true",
        help="update: overwrite even when slower than the stored baseline",
    )
    args = parser.parse_args(argv)
    names = list(TARGETS) if args.target == "all" else [args.target]
    if args.baseline is not None and len(names) != 1:
        parser.error("--baseline requires a single --target")
    status = 0
    for name in names:
        if args.mode == "check":
            status |= check_target(name, args.baseline, args.tolerance, args.rounds)
        else:
            status |= update_target(name, args.baseline, args.rounds, args.force)
    return status


if __name__ == "__main__":
    sys.exit(main())
