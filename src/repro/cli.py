"""Command-line entry point: run any paper experiment from the shell.

::

    fftxlib-repro list
    fftxlib-repro fig2 [--quick]
    fftxlib-repro table1 --jobs 4
    fftxlib-repro all --quick --jobs 4
    fftxlib-repro run --ranks 8 --version ompss_perfft --validate
    fftxlib-repro run --ranks 8 --nodes 4 --decomposition pencil --validate
    fftxlib-repro run --quick --manifest run.json --chrome trace.json --pop
    fftxlib-repro run --quick --faults scenario.json --manifest run.json
    fftxlib-repro sweep --ranks 2,4,8 --versions original,ompss_perfft --jobs 4 --out sweep.json
    fftxlib-repro sweep --out sweep.json --resume
    fftxlib-repro faults validate scenario.json
    fftxlib-repro perf diff baseline.json candidate.json
    fftxlib-repro perf check --baseline baseline.json candidate.json
    fftxlib-repro analyze run.json
    fftxlib-repro analyze baseline.json candidate.json --format markdown
    fftxlib-repro analyze sweep.json --out efficiency.md --format markdown
    fftxlib-repro serve --requests requests.jsonl --manifest service.json
    fftxlib-repro loadgen --mode soak --rate 50 --duration 4 --chaos chaos.json
    fftxlib-repro loadgen --mode live --rate 25 --duration 3 --report slo.json

``--quick`` shrinks the workload (30 Ry / 10 Bohr / 32 bands and a reduced
rank sweep) so every experiment finishes in seconds; the full workload is
the paper's (80 Ry / 20 Bohr / 128 bands / ntg 8).  The ``perf`` group
works offline on run-manifest JSON files (see
:mod:`repro.telemetry.manifest`): ``diff`` prints the runtime/IPC report,
``check`` exits non-zero on a regression beyond the threshold, ``validate``
checks a manifest against the schema (run *or* sweep manifests).

``analyze`` is the POP analytics front end (:mod:`repro.analysis`): one run
manifest prints its efficiency factors, critical path and task-graph view;
two manifests produce the A/B triage report (which phase, which factor,
which counter moved); a sweep manifest prints the efficiency scaling
series.  ``--format text|json|markdown`` picks the renderer, ``--out``
writes to a file, and ``--check`` (two manifests) exits 1 on a regression
verdict.

``serve`` runs the resilient async front end (:mod:`repro.service`) over a
JSON-lines request stream; ``loadgen`` replays a seeded open-loop arrival
process against it — ``--mode live`` on the wall clock, ``--mode soak`` on
a deterministic virtual clock whose service manifests are byte-identical
for a given (seed, chaos plan).  Both accept ``--chaos plan.json``
(``repro.service_chaos``) for worker failures and executor outages; see
docs/RESILIENCE.md for the full resilience model and exit-code contract.

``sweep`` expands a ranks x version x taskgroups grid and executes the
points concurrently through :mod:`repro.sweep` (``--jobs N``, process pool
by default); ``--out`` streams a sweep manifest after every finished point
and ``--resume`` skips the points already recorded there.  Per-point
summaries are byte-identical whatever ``--jobs`` is.  Experiment
subcommands (and ``all``) accept ``--jobs`` too and run their own grids
through the same engine.

Exit codes: 0 success, 1 a run or check failed (validation error, perf
regression, unrecovered fault scenario), 2 bad input (invalid configuration
or malformed scenario/manifest file) — always a one-line ``error: ...`` on
stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import sys
import typing as _t

from repro.core import RunConfig, run_fft_phase
from repro.experiments import (
    run_multinode,
    run_validation,
    run_ablation_grainsize,
    run_ablation_hyperthreading,
    run_ablation_ntg,
    run_ablation_scheduler,
    run_ablation_versions,
    run_ablation_whatif,
    run_fig2,
    run_fig3,
    run_fig6,
    run_fig7,
    run_resilience,
    run_table1,
    run_table2,
    run_tuning,
)

__all__ = ["main"]

QUICK_WORKLOAD = dict(ecutwfc=30.0, alat=10.0, nbnd=32)
QUICK_RANKS = (1, 2, 4, 8)
VERSIONS = ("original", "pipelined", "ompss_perfft", "ompss_steps", "ompss_combined")

_EXPERIMENTS: dict[str, tuple[_t.Callable, str]] = {
    "fig2": (run_fig2, "Fig. 2 - runtime vs ranks, original"),
    "table1": (run_table1, "Table I - POP factors, original"),
    "fig3": (run_fig3, "Fig. 3 - trace structure at 8x8"),
    "table2": (run_table2, "Table II - POP factors, OmpSs per-FFT"),
    "fig6": (run_fig6, "Fig. 6 - original vs OmpSs runtimes"),
    "fig7": (run_fig7, "Fig. 7 - de-synchronization at 8x8"),
    "ablation-ntg": (run_ablation_ntg, "task-group knob sweep"),
    "ablation-grainsize": (run_ablation_grainsize, "Opt 1 taskloop grainsize sweep"),
    "ablation-ht": (run_ablation_hyperthreading, "hyper-threading 1/2/4"),
    "ablation-scheduler": (run_ablation_scheduler, "ready-queue policies"),
    "ablation-versions": (run_ablation_versions, "all four executors"),
    "ablation-whatif": (run_ablation_whatif, "runtime attribution by bottleneck"),
    "multinode": (run_multinode, "multi-node scale sweep (the paper's IV claim)"),
    "validation": (run_validation, "numerical certification vs the dense reference"),
    "resilience": (run_resilience, "fault-scenario degradation, original vs OmpSs"),
    "tuning": (run_tuning, "tuned-vs-default win rate across a workload matrix"),
}


def _experiment_kwargs(name: str, quick: bool) -> dict:
    if not quick:
        return {}
    kwargs: dict = dict(QUICK_WORKLOAD)
    if name in ("fig2", "table1", "table2", "fig6"):
        kwargs["ranks"] = QUICK_RANKS
    if name == "ablation-ntg":
        kwargs["total_procs"] = 16
    if name == "multinode":
        kwargs["nodes"] = (1, 2)
    if name == "validation":
        kwargs.update(ecutwfc=15.0, alat=6.0, nbnd=8)
    if name == "resilience":
        kwargs.update(nbnd=16, taskgroups=4)
    if name == "tuning":
        kwargs.update(
            ecutwfc=12.0,
            alat=5.0,
            nbnd=8,
            cells=(
                ("2x2 original", 2, "original", 2, 1),
                ("4x2 original 2n", 4, "original", 2, 2),
            ),
            top_k=4,
            survivors=2,
        )
    return kwargs


def main(argv: _t.Sequence[str] | None = None) -> int:
    """CLI dispatch; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="fftxlib-repro",
        description="Reproduction of 'Performance Analysis and Optimization of "
        "the FFTXlib on the Intel Knights Landing Architecture' (ICPPW 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    for name, (_fn, help_text) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--quick", action="store_true", help="reduced workload")
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="concurrent sweep workers (default 1; ignored by 'validation')",
        )

    p_all = sub.add_parser("all", help="run every experiment")
    p_all.add_argument("--quick", action="store_true", help="reduced workload")
    p_all.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="concurrent sweep workers per experiment (default 1)",
    )

    p_sweep = sub.add_parser(
        "sweep", help="run a grid of configurations concurrently"
    )
    p_sweep.add_argument(
        "--ranks", default="8",
        help="comma-separated rank counts (axis; default '8')",
    )
    p_sweep.add_argument(
        "--versions", default="original",
        help="comma-separated executor versions (axis; default 'original')",
    )
    p_sweep.add_argument(
        "--taskgroups", default="8",
        help="comma-separated task-group counts (axis; default '8')",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="concurrent workers (default 1)",
    )
    p_sweep.add_argument(
        "--mode", choices=["process", "thread", "serial"], default=None,
        help="worker pool kind (default: process when --jobs > 1, else serial)",
    )
    p_sweep.add_argument(
        "--out", metavar="PATH", default=None,
        help="stream the sweep manifest JSON here after every finished point",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="skip points already recorded in the --out manifest",
    )
    p_sweep.add_argument(
        "--pop", action="store_true",
        help="replay each point on an ideal network and record POP factors",
    )
    p_sweep.add_argument(
        "--faults", metavar="PATH", default=None,
        help="inject the fault scenario from a JSON file into every point",
    )
    p_sweep.add_argument("--quick", action="store_true", help="reduced workload")
    p_sweep.add_argument(
        "--stable", action="store_true",
        help="omit wall-clock fields so identical sweeps produce "
        "byte-identical manifests",
    )
    p_sweep.add_argument(
        "--fft-backend", default="numpy", metavar="NAME",
        help="FFT kernel backend for every point (see 'backends'; default numpy)",
    )
    p_sweep.add_argument(
        "--kernel-workers", type=int, default=1, metavar="N",
        help="real cores per batched kernel call (default 1)",
    )
    p_sweep.add_argument(
        "--decomposition", default="slab", choices=["slab", "pencil"],
        help="grid decomposition for every point (default slab)",
    )
    p_sweep.add_argument(
        "--tuning", default="off", choices=["off", "consult", "search"],
        help="autotuner mode for every point (default off; see 'tune')",
    )
    p_sweep.add_argument(
        "--wisdom", metavar="PATH", default=None,
        help="wisdom DB path ($REPRO_WISDOM or ./wisdom.jsonl when unset)",
    )
    p_sweep.add_argument(
        "--link-capacity", type=float, default=None, metavar="BPS",
        help="per-link fabric capacity (B/s) for multi-node points "
        "(default: aggregate-capacity model)",
    )

    p_run = sub.add_parser("run", help="run a single configuration")
    p_run.add_argument("--ranks", type=int, default=8)
    p_run.add_argument("--taskgroups", type=int, default=8)
    p_run.add_argument("--version", default="original", choices=list(VERSIONS))
    p_run.add_argument("--quick", action="store_true", help="reduced workload")
    p_run.add_argument(
        "--validate", action="store_true", help="data mode + dense-reference check"
    )
    p_run.add_argument("--nodes", type=int, default=1, help="simulated KNL nodes")
    p_run.add_argument(
        "--prv", metavar="PATH", default=None,
        help="write a Paraver-style trace (.prv/.pcf/.row) of the run",
    )
    p_run.add_argument(
        "--telemetry", action="store_true",
        help="record metrics/spans/trace even without an export flag",
    )
    p_run.add_argument(
        "--manifest", metavar="PATH", default=None,
        help="write the run manifest JSON (implies telemetry)",
    )
    p_run.add_argument(
        "--chrome", metavar="PATH", default=None,
        help="write a Perfetto/Chrome-trace JSON (implies telemetry)",
    )
    p_run.add_argument(
        "--prometheus", metavar="PATH", default=None,
        help="write the metrics registry in Prometheus text format",
    )
    p_run.add_argument(
        "--pop", action="store_true",
        help="replay on an ideal network and add POP factors to the manifest",
    )
    p_run.add_argument(
        "--faults", metavar="PATH", default=None,
        help="inject the fault scenario from a JSON file (see docs/RESILIENCE.md)",
    )
    p_run.add_argument(
        "--stable-manifest", action="store_true",
        help="omit wall-clock fields from the manifest so identical seeded "
        "runs produce byte-identical files",
    )
    p_run.add_argument(
        "--fft-backend", default="numpy", metavar="NAME",
        help="FFT kernel backend for data-mode runs (see 'backends'; "
        "default numpy)",
    )
    p_run.add_argument(
        "--kernel-workers", type=int, default=1, metavar="N",
        help="real cores per batched kernel call: scipy/pyFFTW thread "
        "in-library, numpy/native fan out over the shared-memory process "
        "pool (default 1)",
    )
    p_run.add_argument(
        "--decomposition", default="slab", choices=["slab", "pencil"],
        help="grid decomposition: z-slabs (default) or a 2D pencil grid",
    )
    p_run.add_argument(
        "--tuning", default="off", choices=["off", "consult", "search"],
        help="autotuner mode: consult the wisdom DB, or search on a miss "
        "(default off; see 'tune' and docs/TUNING.md)",
    )
    p_run.add_argument(
        "--wisdom", metavar="PATH", default=None,
        help="wisdom DB path ($REPRO_WISDOM or ./wisdom.jsonl when unset)",
    )
    p_run.add_argument(
        "--link-capacity", type=float, default=None, metavar="BPS",
        help="per-link fabric capacity (B/s) for multi-node runs "
        "(default: aggregate-capacity model)",
    )

    sub.add_parser(
        "backends",
        help="list FFT kernel backends and their availability on this host",
    )

    p_tune = sub.add_parser(
        "tune", help="autotuner wisdom DB: search / show / export / import"
    )
    tune_sub = p_tune.add_subparsers(dest="tune_command", required=True)
    p_tsearch = tune_sub.add_parser(
        "search", help="search the knob space for a workload and persist the winner"
    )
    p_tsearch.add_argument("--ranks", type=int, default=8)
    p_tsearch.add_argument("--taskgroups", type=int, default=8)
    p_tsearch.add_argument("--version", default="original", choices=list(VERSIONS))
    p_tsearch.add_argument("--quick", action="store_true", help="reduced workload")
    p_tsearch.add_argument("--nodes", type=int, default=1, help="simulated KNL nodes")
    p_tsearch.add_argument(
        "--wisdom", metavar="PATH", default=None,
        help="wisdom DB to record into ($REPRO_WISDOM or ./wisdom.jsonl)",
    )
    p_tsearch.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="concurrent rung evaluations (default 1)",
    )
    p_tsearch.add_argument(
        "--mode", choices=["process", "thread", "serial"], default=None,
        help="worker pool kind (default: process when --jobs > 1, else serial)",
    )
    p_tsearch.add_argument(
        "--top-k", type=int, default=8, metavar="K",
        help="cost-model shortlist simulated in rung 0 (default 8)",
    )
    p_tsearch.add_argument(
        "--survivors", type=int, default=3, metavar="S",
        help="rung-0 survivors promoted to the full-workload rung (default 3)",
    )
    p_tsearch.add_argument(
        "--link-capacity", type=float, default=None, metavar="BPS",
        help="per-link fabric capacity (part of the machine-profile digest)",
    )
    p_tshow = tune_sub.add_parser(
        "show", help="print the best-per-digest entries of a wisdom DB"
    )
    p_tshow.add_argument(
        "--wisdom", metavar="PATH", default=None,
        help="wisdom DB to read ($REPRO_WISDOM or ./wisdom.jsonl)",
    )
    p_texport = tune_sub.add_parser(
        "export", help="write the best-per-digest view as fresh JSONL"
    )
    p_texport.add_argument("out", metavar="OUT")
    p_texport.add_argument("--wisdom", metavar="PATH", default=None)
    p_timport = tune_sub.add_parser(
        "import", help="merge another wisdom file (better scores win)"
    )
    p_timport.add_argument("src", metavar="SRC")
    p_timport.add_argument("--wisdom", metavar="PATH", default=None)

    p_faults = sub.add_parser(
        "faults", help="fault-scenario utilities (see docs/RESILIENCE.md)"
    )
    faults_sub = p_faults.add_subparsers(dest="faults_command", required=True)
    p_fvalidate = faults_sub.add_parser(
        "validate", help="check a scenario JSON file (exit 2 when invalid)"
    )
    p_fvalidate.add_argument("scenario")

    p_perf = sub.add_parser(
        "perf", help="offline analysis of run-manifest JSON files"
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)
    p_diff = perf_sub.add_parser(
        "diff", help="compare two manifests (runtime, per-phase time/IPC, POP)"
    )
    p_diff.add_argument("manifest_a")
    p_diff.add_argument("manifest_b")
    p_check = perf_sub.add_parser(
        "check", help="fail (exit 1) when the candidate regresses vs the baseline"
    )
    p_check.add_argument("--baseline", required=True, metavar="PATH")
    p_check.add_argument("candidate")
    p_check.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative slowdown tolerated before failing (default 0.05)",
    )
    p_check.add_argument(
        "--triage", metavar="PATH", default=None,
        help="write the structured triage (blame) report JSON here on failure",
    )
    p_validate = perf_sub.add_parser(
        "validate", help="check a manifest file against the schema"
    )
    p_validate.add_argument("manifest")

    p_analyze = sub.add_parser(
        "analyze",
        help="POP analytics over manifests: one run, an A/B pair, or a sweep",
    )
    p_analyze.add_argument(
        "manifests", nargs="+", metavar="MANIFEST",
        help="one run/sweep manifest, or two run manifests (baseline candidate)",
    )
    p_analyze.add_argument(
        "--format", choices=["text", "json", "markdown"], default="text",
        dest="fmt", help="output renderer (default text)",
    )
    p_analyze.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the report here instead of stdout",
    )
    p_analyze.add_argument(
        "--threshold", type=float, default=0.02,
        help="A/B: relative runtime change below which the verdict is "
        "neutral (default 0.02)",
    )
    p_analyze.add_argument(
        "--top", type=int, default=8,
        help="A/B: findings shown in text/markdown output (default 8)",
    )
    p_analyze.add_argument(
        "--check", action="store_true",
        help="A/B: exit 1 when the verdict is a regression",
    )

    p_cmp = sub.add_parser(
        "compare", help="trace two versions and print the phase-delta table"
    )
    p_cmp.add_argument("version_a")
    p_cmp.add_argument("version_b")
    p_cmp.add_argument("--ranks", type=int, default=8)
    p_cmp.add_argument("--taskgroups", type=int, default=8)
    p_cmp.add_argument("--quick", action="store_true", help="reduced workload")

    p_serve = sub.add_parser(
        "serve",
        help="serve a JSONL stream of run requests through the async front end",
    )
    p_serve.add_argument(
        "--requests", metavar="PATH", default="-",
        help="JSON-lines request file ('-' = stdin, the default)",
    )
    p_serve.add_argument(
        "--responses", metavar="PATH", default=None,
        help="write per-request verdict JSON lines here (default stdout)",
    )
    p_serve.add_argument(
        "--manifest", metavar="PATH", default=None,
        help="write the (live) service manifest JSON after drain",
    )
    p_serve.add_argument(
        "--chaos", metavar="PATH", default=None,
        help="service-chaos plan JSON to inject (see docs/RESILIENCE.md)",
    )
    p_serve.add_argument("--workers", type=int, default=2, metavar="N")
    p_serve.add_argument("--queue-depth", type=int, default=32, metavar="N")
    p_serve.add_argument(
        "--deadline", type=float, default=2.0, metavar="S",
        help="default per-request latency budget in seconds (default 2.0)",
    )
    p_serve.add_argument("--seed", type=int, default=0)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="seeded open-loop load generator (live service or virtual soak)",
    )
    p_loadgen.add_argument(
        "--mode", choices=["live", "soak"], default="soak",
        help="'soak' = deterministic virtual-time replica (default); "
        "'live' = real asyncio service on the wall clock",
    )
    p_loadgen.add_argument(
        "--rate", type=float, default=20.0, metavar="RPS",
        help="mean Poisson arrival rate (default 20 req/s)",
    )
    p_loadgen.add_argument(
        "--duration", type=float, default=5.0, metavar="S",
        help="arrival window in seconds; the service drains at its end",
    )
    p_loadgen.add_argument(
        "--mix", default="small=0.7,medium=0.25,large=0.05",
        help="grid-class weights, e.g. 'small=0.8,large=0.2'",
    )
    p_loadgen.add_argument(
        "--versions", default="original,ompss_perfft",
        help="comma-separated executor versions drawn uniformly",
    )
    p_loadgen.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="per-request latency budget (default: the service default)",
    )
    p_loadgen.add_argument(
        "--chaos", metavar="PATH", default=None,
        help="service-chaos plan JSON to inject",
    )
    p_loadgen.add_argument("--workers", type=int, default=2, metavar="N")
    p_loadgen.add_argument("--queue-depth", type=int, default=32, metavar="N")
    p_loadgen.add_argument("--seed", type=int, default=42)
    p_loadgen.add_argument(
        "--manifest", metavar="PATH", default=None,
        help="write the service manifest JSON (soak manifests are stable: "
        "same seed + chaos => byte-identical)",
    )
    p_loadgen.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the SLO report JSON here (also printed)",
    )

    args = parser.parse_args(argv)

    if args.command == "list":
        for name, (_fn, help_text) in _EXPERIMENTS.items():
            print(f"{name:<22} {help_text}")
        return 0

    if args.command == "faults":
        import json

        from repro.faults import (
            SERVICE_CHAOS_KIND,
            ScenarioError,
            load_chaos,
            load_scenario,
        )

        # faults validate (machine-level scenarios and service chaos plans)
        try:
            with open(args.scenario, encoding="utf-8") as fh:
                doc = json.load(fh)
            kind = doc.get("kind") if isinstance(doc, dict) else None
        except (OSError, json.JSONDecodeError):
            kind = None
        if kind == SERVICE_CHAOS_KIND:
            try:
                chaos = load_chaos(args.scenario)
            except (ScenarioError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(
                f"{args.scenario}: valid service chaos plan "
                f"({len(chaos.outages)} outage(s), "
                f"failure_rate {chaos.failure_rate:g}, "
                f"fault_fraction {chaos.fault_fraction:g})"
            )
            return 0
        try:
            scenario = load_scenario(args.scenario)
        except (ScenarioError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        n_stragglers = len(scenario.stragglers)
        n_links = len(scenario.links)
        print(
            f"{args.scenario}: valid fault scenario "
            f"({n_stragglers} straggler(s), {n_links} link fault(s), "
            f"os_noise {scenario.os_noise:g}, "
            f"task_failure_rate {scenario.task_failure_rate:g})"
        )
        return 0

    if args.command == "backends":
        from repro.fft.backends import DEFAULT_BACKEND, backend_info

        for row in backend_info():
            status = "available" if row["available"] else "unavailable"
            marker = " (default)" if row["name"] == DEFAULT_BACKEND else ""
            workers = "in-library workers" if row["supports_workers"] else "process pool"
            print(
                f"{row['name']:<8} {status:<12} {row['note']}{marker}\n"
                f"{'':<8} kinds: {', '.join(row['kinds'])}; "
                f"layouts: {', '.join(row['layouts'])}; multicore via {workers}"
            )
        return 0

    if args.command == "tune":
        return _cmd_tune(args)

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "loadgen":
        return _cmd_loadgen(args)

    if args.command == "run":
        import dataclasses
        import time

        scenario = None
        if args.faults is not None:
            from repro.faults import ScenarioError, load_scenario

            try:
                scenario = load_scenario(args.faults)
            except (ScenarioError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2

        workload = dict(QUICK_WORKLOAD) if args.quick else {}
        want_telemetry = bool(
            args.telemetry
            or args.manifest
            or args.chrome
            or args.prometheus
            or args.prv
            or args.pop
        )
        try:
            config = RunConfig(
                ranks=args.ranks,
                taskgroups=args.taskgroups,
                version=args.version,
                data_mode=args.validate,
                n_nodes=args.nodes,
                telemetry=want_telemetry,
                faults=scenario,
                fft_backend=args.fft_backend,
                kernel_workers=args.kernel_workers,
                decomposition=args.decomposition,
                tuning=args.tuning,
                wisdom_path=args.wisdom,
                link_capacity=args.link_capacity,
                **workload,
            )
        except ValueError as exc:
            print(f"error: invalid configuration: {exc}", file=sys.stderr)
            return 2
        t0 = time.perf_counter()
        result = run_fft_phase(config)
        wall = time.perf_counter() - t0
        print(f"{result.config.label()}: FFT phase {result.phase_time * 1e3:.2f} ms "
              f"(simulated), avg IPC {result.average_ipc:.3f}")
        if result.tuning is not None:
            info = result.tuning
            outcome = (
                "hit" if info["hit"] else
                ("searched" if info["source"] == "search" else "miss")
            )
            applied = "applied" if info["applied"] else "not applied"
            print(
                f"tuning: {info['mode']} -> {outcome} ({applied}); "
                f"digest {info['digest'][:19]}..."
            )
        if result.fault_report is not None:
            report = result.fault_report
            print(
                f"faults: scenario '{report['scenario'].get('name', '')}' "
                f"injected {report['injected']} event(s), "
                f"recovered {report['recovered_events']}, "
                f"{result.n_attempts} attempt(s)"
            )

        factors = None
        ideal_time = None
        if args.pop:
            from repro.perf import factors_from_run, ideal_network

            ideal = run_fft_phase(
                dataclasses.replace(config, telemetry=False),
                knl=ideal_network(),
            )
            ideal_time = ideal.phase_time
            factors = factors_from_run(result, ideal_time=ideal_time)
        if args.manifest:
            from repro.telemetry.manifest import build_manifest, write_manifest

            path = write_manifest(
                args.manifest,
                build_manifest(
                    result,
                    wall_time_s=None if args.stable_manifest else wall,
                    factors=factors,
                    ideal_time_s=ideal_time,
                    created="(stable)" if args.stable_manifest else None,
                ),
            )
            print(f"manifest written: {path}")
        if args.chrome or args.prometheus or args.prv:
            from repro.telemetry.exporters import export_run

            if args.chrome:
                print(f"chrome trace written: {export_run(result, 'chrome', args.chrome)}")
            if args.prometheus:
                print(f"metrics written: {export_run(result, 'prometheus', args.prometheus)}")
            if args.prv:
                prv = export_run(result, "prv", args.prv)
                print(f"trace written: {prv} (+ .pcf, .row)")
        if result.failed:
            failure = (result.fault_report or {}).get("failure")
            print(
                f"error: run did not recover from the injected fault scenario"
                f" ({failure})" if failure else
                "error: run did not recover from the injected fault scenario",
                file=sys.stderr,
            )
            return 1
        if args.validate:
            err = result.validate()
            print(f"max relative error vs dense reference: {err:.2e}")
            if err > 1e-10:
                print("VALIDATION FAILED", file=sys.stderr)
                return 1
        return 0

    if args.command == "sweep":
        import pathlib

        from repro.sweep import (
            GridSpec,
            SweepError,
            SweepManifestError,
            SweepTask,
            load_sweep_manifest,
            run_sweep,
        )

        scenario = None
        if args.faults is not None:
            from repro.faults import ScenarioError, load_scenario

            try:
                scenario = load_scenario(args.faults)
            except (ScenarioError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2

        def _int_axis(raw: str, flag: str) -> tuple[int, ...]:
            try:
                values = tuple(int(part) for part in raw.split(",") if part.strip())
            except ValueError:
                raise ValueError(f"{flag} expects comma-separated integers, got {raw!r}")
            if not values:
                raise ValueError(f"{flag} needs at least one value")
            return values

        try:
            ranks = _int_axis(args.ranks, "--ranks")
            taskgroups = _int_axis(args.taskgroups, "--taskgroups")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        versions = tuple(v for v in args.versions.split(",") if v.strip())
        unknown = [v for v in versions if v not in VERSIONS]
        if unknown or not versions:
            print(
                f"error: --versions must name executors from {', '.join(VERSIONS)}; "
                f"got {args.versions!r}",
                file=sys.stderr,
            )
            return 2

        base: dict[str, _t.Any] = dict(QUICK_WORKLOAD) if args.quick else {}
        base["telemetry"] = True
        base["fft_backend"] = args.fft_backend
        base["kernel_workers"] = args.kernel_workers
        base["decomposition"] = args.decomposition
        base["tuning"] = args.tuning
        if args.wisdom is not None:
            base["wisdom_path"] = args.wisdom
        if args.link_capacity is not None:
            base["link_capacity"] = args.link_capacity
        if scenario is not None:
            base["faults"] = scenario
        try:
            grid = GridSpec(
                axes={"ranks": ranks, "version": versions, "taskgroups": taskgroups},
                base=base,
            )
            points = grid.points()
        except ValueError as exc:
            print(f"error: invalid configuration: {exc}", file=sys.stderr)
            return 2
        tasks = [
            SweepTask(key=p.key, config=p.config, ideal_replay=args.pop)
            for p in points
        ]

        resume = None
        if args.resume:
            if args.out is None:
                print("error: --resume needs --out (the manifest to resume)", file=sys.stderr)
                return 2
            if pathlib.Path(args.out).exists():
                try:
                    resume = load_sweep_manifest(args.out)
                except SweepManifestError as exc:
                    print(f"error: cannot resume from {args.out}: {exc}", file=sys.stderr)
                    return 2

        def _progress(record) -> None:
            status = "reused" if record.reused else (
                "FAILED" if record.failed else f"{record.phase_time_s * 1e3:8.2f} ms"
            )
            print(f"  [{record.key}] {status}")

        print(
            f"sweep: {grid.n_points} point(s) "
            f"(ranks {','.join(map(str, ranks))} x versions "
            f"{','.join(versions)} x taskgroups {','.join(map(str, taskgroups))}), "
            f"jobs {args.jobs}"
        )
        try:
            result = run_sweep(
                tasks,
                jobs=args.jobs,
                mode=args.mode,
                resume=resume,
                out=args.out,
                grid=grid,
                stable=args.stable,
                on_point=_progress,
            )
        except SweepError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        n_reused = len(result.reused_keys)
        line = (
            f"{len(result.records)} point(s) in {result.wall_time_s:.2f} s "
            f"wall ({result.mode} mode, {result.jobs} job(s)"
        )
        line += f", {n_reused} reused)" if n_reused else ")"
        print(line)
        if args.out:
            print(f"sweep manifest written: {args.out}")
        failed = [r.key for r in result.records if r.failed]
        if failed:
            print(
                "error: point(s) did not recover from the injected fault scenario: "
                + ", ".join(failed),
                file=sys.stderr,
            )
            return 1
        return 0

    if args.command == "perf":
        import json

        from repro.telemetry.manifest import ManifestError, load_manifest

        def _load(path):
            try:
                return load_manifest(path)
            except FileNotFoundError:
                raise SystemExit(f"error: no such manifest: {path}")
            except json.JSONDecodeError as exc:
                raise SystemExit(f"error: {path} is not JSON: {exc}")

        if args.perf_command == "validate":
            try:
                with open(args.manifest, encoding="utf-8") as fh:
                    doc = json.load(fh)
                kind = doc.get("kind") if isinstance(doc, dict) else None
            except FileNotFoundError:
                print(f"error: no such manifest: {args.manifest}", file=sys.stderr)
                return 2
            except json.JSONDecodeError as exc:
                print(f"error: {args.manifest} is not JSON: {exc}", file=sys.stderr)
                return 2
            if kind == "repro.sweep_manifest":
                from repro.sweep import SweepManifestError, load_sweep_manifest

                try:
                    load_sweep_manifest(args.manifest)
                except SweepManifestError as exc:
                    print(f"INVALID: {exc}", file=sys.stderr)
                    return 1
                print(f"{args.manifest}: valid sweep manifest")
                return 0
            if kind == "repro.service_manifest":
                from repro.service.manifest import (
                    ServiceManifestError,
                    load_service_manifest,
                )

                try:
                    load_service_manifest(args.manifest)
                except ServiceManifestError as exc:
                    print(f"INVALID: {exc}", file=sys.stderr)
                    return 1
                print(f"{args.manifest}: valid service manifest")
                return 0
            try:
                _load(args.manifest)
            except ManifestError as exc:
                print(f"INVALID: {exc}", file=sys.stderr)
                return 1
            print(f"{args.manifest}: valid run manifest")
            return 0
        if args.perf_command == "diff":
            from repro.analysis import analyze_pair
            from repro.perf import diff_manifests, format_manifest_diff

            doc_a, doc_b = _load(args.manifest_a), _load(args.manifest_b)
            print(format_manifest_diff(diff_manifests(doc_a, doc_b)))
            report = analyze_pair(doc_a, doc_b)
            dom = report.dominant
            line = f"\ntriage: {report.verdict.upper()}"
            if dom is not None:
                line += f" — dominant mover: {dom.kind} {dom.subject} ({dom.detail})"
            print(line)
            if report.dominant_factor:
                print(f"triage: dominant efficiency factor: {report.dominant_factor}")
            return 0
        # perf check
        from repro.perf import manifest_regressions

        baseline_doc = _load(args.baseline)
        candidate_doc = _load(args.candidate)
        violations = manifest_regressions(
            baseline_doc,
            candidate_doc,
            threshold=args.threshold,
        )
        if violations:
            from repro.analysis import analyze_pair
            from repro.analysis.render import render_triage_text

            for v in violations:
                print(f"REGRESSION: {v}", file=sys.stderr)
            report = analyze_pair(
                baseline_doc, candidate_doc, threshold=args.threshold
            )
            print("\n" + render_triage_text(report.to_dict()), file=sys.stderr)
            if args.triage:
                import pathlib

                pathlib.Path(args.triage).write_text(
                    json.dumps(report.to_dict(), indent=2) + "\n"
                )
                print(f"triage report written: {args.triage}", file=sys.stderr)
            return 1
        print(
            f"{args.candidate}: no regression vs {args.baseline} "
            f"(threshold {args.threshold * 100:.1f}%)"
        )
        return 0

    if args.command == "analyze":
        import json
        import pathlib

        from repro import analysis as _analysis
        from repro.analysis import render as _render
        from repro.telemetry.manifest import ManifestError, load_manifest

        if len(args.manifests) > 2:
            print(
                "error: analyze takes one manifest (run or sweep) or two run "
                f"manifests (baseline candidate); got {len(args.manifests)}",
                file=sys.stderr,
            )
            return 2
        if args.check and len(args.manifests) != 2:
            print("error: --check needs two manifests (A/B mode)", file=sys.stderr)
            return 2

        def _load_doc(path: str) -> dict:
            try:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except FileNotFoundError:
                raise SystemExit(f"error: no such manifest: {path}")
            except json.JSONDecodeError as exc:
                raise SystemExit(f"error: {path} is not JSON: {exc}")
            if not isinstance(doc, dict):
                raise SystemExit(f"error: {path} is not a manifest object")
            return doc

        def _load_run(path: str) -> dict:
            try:
                return load_manifest(path)
            except FileNotFoundError:
                raise SystemExit(f"error: no such manifest: {path}")
            except json.JSONDecodeError as exc:
                raise SystemExit(f"error: {path} is not JSON: {exc}")
            except ManifestError as exc:
                raise SystemExit(f"error: {exc}")

        exit_code = 0
        if len(args.manifests) == 2:
            report = _analysis.analyze_pair(
                _load_run(args.manifests[0]),
                _load_run(args.manifests[1]),
                threshold=args.threshold,
            ).to_dict()
            if args.fmt == "json":
                output = json.dumps(report, indent=2) + "\n"
            elif args.fmt == "markdown":
                output = _render.render_triage_markdown(report, top=args.top)
            else:
                output = _render.render_triage_text(report, top=args.top) + "\n"
            if args.check and report["verdict"] == "regression":
                exit_code = 1
        else:
            doc = _load_doc(args.manifests[0])
            if doc.get("kind") == "repro.sweep_manifest":
                rows = _analysis.analyze_sweep(doc)
                if args.fmt == "json":
                    output = json.dumps(rows, indent=2) + "\n"
                elif args.fmt == "markdown":
                    output = _render.render_sweep_markdown(rows)
                else:
                    output = _render.render_sweep_text(rows) + "\n"
            else:
                run_doc = _load_run(args.manifests[0])
                try:
                    info = _analysis.analyze_manifest(run_doc)
                except ValueError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                if args.fmt == "json":
                    output = json.dumps(info, indent=2) + "\n"
                elif args.fmt == "markdown":
                    output = _render.render_analysis_markdown(info)
                else:
                    output = _render.render_analysis_text(info) + "\n"
        if args.out:
            pathlib.Path(args.out).write_text(output)
            print(f"analysis written: {args.out}")
        else:
            sys.stdout.write(output)
        return exit_code

    if args.command == "compare":
        from repro.machine import knl_parameters
        from repro.perf import compare_runs, format_run_comparison, trace_run

        workload = dict(QUICK_WORKLOAD) if args.quick else {}
        traces = {}
        times = {}
        for version in (args.version_a, args.version_b):
            cfg = RunConfig(
                ranks=args.ranks, taskgroups=args.taskgroups, version=version, **workload
            )
            result, trace = trace_run(cfg)
            traces[version] = trace
            times[version] = result.phase_time
        cmp = compare_runs(
            traces[args.version_a],
            traces[args.version_b],
            knl_parameters().frequency_hz,
        )
        print(
            f"phase time: {args.version_a} {times[args.version_a] * 1e3:.2f} ms, "
            f"{args.version_b} {times[args.version_b] * 1e3:.2f} ms"
        )
        print(format_run_comparison(cmp, labels=(args.version_a[:8], args.version_b[:8])))
        return 0

    names = list(_EXPERIMENTS) if args.command == "all" else [args.command]
    for name in names:
        fn, _help = _EXPERIMENTS[name]
        kwargs = _experiment_kwargs(name, args.quick)
        if name != "validation":  # validation checks full results; no sweep grid
            kwargs["jobs"] = args.jobs
        report = fn(**kwargs)
        print(f"\n{'=' * 72}\n{report.text}")
    return 0


def _load_chaos_arg(path: str | None):
    """Load a --chaos plan, or exit 2 on bad input (returns (chaos, code))."""
    if path is None:
        return None, None
    from repro.faults import ScenarioError, load_chaos

    try:
        return load_chaos(path), None
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2


def _parse_mix(text: str) -> dict[str, float]:
    mix: dict[str, float] = {}
    for part in text.split(","):
        name, _, weight = part.partition("=")
        mix[name.strip()] = float(weight)
    return mix


def _cmd_tune(args) -> int:
    """The ``tune`` group: wisdom search / show / export / import."""
    from repro.tuning import (
        WisdomDB,
        default_wisdom_path,
        knobs_of,
        search,
        workload_digest,
    )

    path = args.wisdom or str(default_wisdom_path())

    if args.tune_command == "search":
        workload = dict(QUICK_WORKLOAD) if args.quick else {}
        try:
            config = RunConfig(
                ranks=args.ranks,
                taskgroups=args.taskgroups,
                version=args.version,
                n_nodes=args.nodes,
                link_capacity=args.link_capacity,
                **workload,
            )
        except ValueError as exc:
            print(f"error: invalid configuration: {exc}", file=sys.stderr)
            return 2
        db = WisdomDB(path)
        digest = workload_digest(config)
        held = db.lookup(digest)
        if held is not None:
            print(f"already tuned ({held.score * 1e3:.2f} ms); searching again")
        try:
            entry = search(
                config, db=db, jobs=args.jobs, mode=args.mode,
                top_k=args.top_k, survivors=args.survivors,
            )
        except (RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        incumbent_s = entry.provenance.get("incumbent_s")
        print(f"digest: {entry.digest}")
        print(f"winner: {entry.knobs}")
        line = f"score: {entry.score * 1e3:.2f} ms (simulated)"
        if incumbent_s:
            line += f"; default {incumbent_s * 1e3:.2f} ms"
            if entry.knobs != knobs_of(config):
                line += f" ({incumbent_s / entry.score:.2f}x speedup)"
        print(line)
        print(f"recorded in {path}")
        return 0

    if args.tune_command == "show":
        db = WisdomDB(path)
        if db.skipped_lines:
            print(f"({db.skipped_lines} unreadable line(s) skipped)")
        if not len(db):
            print(f"{path}: no wisdom entries")
            return 0
        for entry in db.entries():
            print(f"{entry.digest}  {entry.score * 1e3:10.3f} ms  "
                  f"[{entry.source}]  {entry.knobs}")
        return 0

    if args.tune_command == "export":
        n = WisdomDB(path).export(args.out)
        print(f"{n} entr{'y' if n == 1 else 'ies'} written to {args.out}")
        return 0

    # import
    try:
        merged = WisdomDB(path).import_from(args.src)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{merged} entr{'y' if merged == 1 else 'ies'} merged into {path}")
    return 0


def _cmd_serve(args) -> int:
    """Serve a JSONL request stream through the live async front end."""
    import asyncio
    import json

    from repro.service import AsyncService, ServiceConfig, request_from_dict
    from repro.service.manifest import build_service_manifest, write_service_manifest
    from repro.service.request import RequestError

    chaos, code = _load_chaos_arg(args.chaos)
    if code is not None:
        return code
    try:
        config = ServiceConfig(
            workers=args.workers,
            max_queue_depth=args.queue_depth,
            default_deadline_s=args.deadline,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2

    if args.requests == "-":
        lines = sys.stdin.read().splitlines()
        source = "<stdin>"
    else:
        try:
            with open(args.requests, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            print(f"error: cannot read requests: {exc}", file=sys.stderr)
            return 2
        source = args.requests
    requests = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            requests.append(request_from_dict(json.loads(line)))
        except (json.JSONDecodeError, RequestError) as exc:
            print(f"error: {source}:{lineno}: {exc}", file=sys.stderr)
            return 2

    async def run() -> tuple[list[dict], dict]:
        service = AsyncService(config, chaos)
        await service.start()
        results = await asyncio.gather(*[service.submit(r) for r in requests])
        report = await service.drain()
        if args.manifest:
            write_service_manifest(
                args.manifest,
                build_service_manifest(
                    service.core, load={"source": source}, stable=False, slo=report
                ),
            )
        return list(results), report

    results, report = asyncio.run(run())
    out = open(args.responses, "w", encoding="utf-8") if args.responses else sys.stdout
    try:
        for response in results:
            out.write(json.dumps(response, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    counts = report["counts"]
    print(
        f"served {report['served']}/{counts['submitted']} request(s) at "
        f"{report['requests_per_s']:g} req/s "
        f"(shed {counts['shed']}, failed {counts['failed']}, "
        f"expired {counts['expired']})",
        file=sys.stderr,
    )
    if args.manifest:
        print(f"service manifest written: {args.manifest}", file=sys.stderr)
    # Exit contract: 0 only when every request was served (ok / memoized /
    # batched); degraded-but-completed sessions report 1 for scripting.
    return 0 if report["served"] == counts["submitted"] else 1


def _cmd_loadgen(args) -> int:
    """Open-loop load generation: live wall-clock or deterministic soak."""
    import asyncio
    import json

    from repro.service import (
        AsyncService,
        LoadSpec,
        ServiceConfig,
        SoakEngine,
        generate_arrivals,
        run_loadgen,
    )
    from repro.service.manifest import build_service_manifest, write_service_manifest
    from repro.service.request import RequestError
    from repro.service.server import latency_percentiles

    chaos, code = _load_chaos_arg(args.chaos)
    if code is not None:
        return code
    try:
        spec = LoadSpec(
            rate_rps=args.rate,
            duration_s=args.duration,
            mix=_parse_mix(args.mix),
            versions=tuple(v.strip() for v in args.versions.split(",") if v.strip()),
            deadline_s=args.deadline,
            seed=args.seed,
        )
        config = ServiceConfig(
            workers=args.workers,
            max_queue_depth=args.queue_depth,
            seed=args.seed,
        )
    except (RequestError, ValueError) as exc:
        print(f"error: invalid load spec: {exc}", file=sys.stderr)
        return 2

    if args.mode == "soak":
        engine = SoakEngine(config, chaos)
        core = engine.run(generate_arrivals(spec, chaos), drain_at=spec.duration_s)
        report = {
            "mode": "soak",
            "virtual_makespan_s": round(engine.makespan, 9),
            "latency": latency_percentiles(core.latencies),
            "counts": dict(core.counts),
            "shed_reasons": dict(core.shed_reasons),
            "breaker_trips": core.breakers.total_trips(),
        }
        manifest = build_service_manifest(core, load=spec.to_dict(), stable=True)
    else:

        async def run() -> tuple[dict, _t.Any]:
            service = AsyncService(config, chaos)
            await service.start()
            slo = await run_loadgen(service, spec, chaos)
            return slo, service.core

        slo, core = asyncio.run(run())
        report = {"mode": "live", **slo}
        manifest = build_service_manifest(
            core, load=spec.to_dict(), stable=False, slo=slo
        )

    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.manifest:
        write_service_manifest(args.manifest, manifest)
        print(f"service manifest written: {args.manifest}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
