"""The argument parser: every subcommand's flags, and which module runs it.

Deliberately light — ``argparse`` and literals only, no ``repro.core``, no
numpy — so ``--help``, a usage error or ``list`` cost an interpreter start
and nothing else.  Each subparser names its handler as a ``"module:function"``
string (``handler`` default); :func:`repro.cli.main` imports that module at
dispatch, so a command pays only for its own import graph.  Experiments are
named the same way in :data:`EXPERIMENTS`.
"""

from __future__ import annotations

import argparse

__all__ = ["QUICK_WORKLOAD", "QUICK_RANKS", "VERSIONS", "EXPERIMENTS", "build_parser"]

QUICK_WORKLOAD = dict(ecutwfc=30.0, alat=10.0, nbnd=32)
QUICK_RANKS = (1, 2, 4, 8)
#: ``repro.core.config.VERSIONS``, spelled out so the parser need not import
#: ``repro.core`` (pinned equal by ``tests/test_import_budget.py``).
VERSIONS = ("original", "pipelined", "ompss_perfft", "ompss_steps", "ompss_combined")

#: subcommand -> ("module:function" of the experiment, help text).
EXPERIMENTS: dict[str, tuple[str, str]] = {
    "fig2": ("repro.experiments:run_fig2", "Fig. 2 - runtime vs ranks, original"),
    "table1": ("repro.experiments:run_table1", "Table I - POP factors, original"),
    "fig3": ("repro.experiments:run_fig3", "Fig. 3 - trace structure at 8x8"),
    "table2": ("repro.experiments:run_table2", "Table II - POP factors, OmpSs per-FFT"),
    "fig6": ("repro.experiments:run_fig6", "Fig. 6 - original vs OmpSs runtimes"),
    "fig7": ("repro.experiments:run_fig7", "Fig. 7 - de-synchronization at 8x8"),
    "ablation-ntg": ("repro.experiments:run_ablation_ntg", "task-group knob sweep"),
    "ablation-grainsize": (
        "repro.experiments:run_ablation_grainsize", "Opt 1 taskloop grainsize sweep",
    ),
    "ablation-ht": ("repro.experiments:run_ablation_hyperthreading", "hyper-threading 1/2/4"),
    "ablation-scheduler": ("repro.experiments:run_ablation_scheduler", "ready-queue policies"),
    "ablation-versions": ("repro.experiments:run_ablation_versions", "all four executors"),
    "ablation-whatif": (
        "repro.experiments:run_ablation_whatif", "runtime attribution by bottleneck",
    ),
    "multinode": (
        "repro.experiments:run_multinode", "multi-node scale sweep (the paper's IV claim)",
    ),
    "validation": (
        "repro.experiments:run_validation", "numerical certification vs the dense reference",
    ),
    "resilience": (
        "repro.experiments:run_resilience", "fault-scenario degradation, original vs OmpSs",
    ),
    "tuning": (
        "repro.experiments:run_tuning", "tuned-vs-default win rate across a workload matrix",
    ),
}


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input like any other: one ``error:`` line on
    stderr, exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _at_least_zero(kind):
    """An argument ``type``: ``kind`` of the text, rejected when below 0
    (or not a number at all)."""

    def convert(text):
        value = kind(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
        return value

    convert.__name__ = kind.__name__
    return convert


def build_parser() -> argparse.ArgumentParser:
    """The ``fftxlib-repro`` parser; ``args.handler`` names the command's code."""
    parser = _Parser(
        prog="fftxlib-repro",
        description="Reproduction of 'Performance Analysis and Optimization of "
        "the FFTXlib on the Intel Knights Landing Architecture' (ICPPW 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(handler="repro.cli.catalogue:cmd_list")

    for name, (_target, help_text) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler="repro.cli.experiments:cmd_experiments", names=(name,))
        p.add_argument("--quick", action="store_true", help="reduced workload")
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="concurrent sweep workers (default 1; ignored by 'validation')",
        )

    p_all = sub.add_parser("all", help="run every experiment")
    p_all.set_defaults(
        handler="repro.cli.experiments:cmd_experiments", names=tuple(EXPERIMENTS)
    )
    p_all.add_argument("--quick", action="store_true", help="reduced workload")
    p_all.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="concurrent sweep workers per experiment (default 1)",
    )

    p_sweep = sub.add_parser(
        "sweep", help="run a grid of configurations concurrently"
    )
    p_sweep.set_defaults(handler="repro.cli.sweep:cmd_sweep")
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

    p_run = sub.add_parser("run", help="run a single configuration")
    p_run.set_defaults(handler="repro.cli.run:cmd_run")
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

    p_tune = sub.add_parser(
        "tune", help="autotuner wisdom DB: search / show / export / import"
    )
    p_tune.set_defaults(handler="repro.cli.tune:cmd_tune")
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
    p_faults.set_defaults(handler="repro.cli.faults:cmd_faults")
    faults_sub = p_faults.add_subparsers(dest="faults_command", required=True)
    p_fvalidate = faults_sub.add_parser(
        "validate", help="check a scenario JSON file (exit 2 when invalid)"
    )
    p_fvalidate.add_argument("scenario")

    p_perf = sub.add_parser(
        "perf", help="offline analysis of run-manifest JSON files"
    )
    p_perf.set_defaults(handler="repro.cli.perf:cmd_perf")
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)
    p_diff = perf_sub.add_parser(
        "diff", help="triage two manifests (the text report of analyze A B)"
    )
    p_diff.add_argument("manifests", nargs=2, metavar="MANIFEST")
    p_check = perf_sub.add_parser(
        "check", help="fail (exit 1) when the candidate regresses vs the baseline"
    )
    p_check.add_argument("--baseline", required=True, metavar="PATH")
    p_check.add_argument("candidate")
    p_check.add_argument(
        "--threshold", type=_at_least_zero(float), default=0.05,
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
    p_analyze.set_defaults(handler="repro.cli.perf:cmd_analyze")
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
        "--threshold", type=_at_least_zero(float), default=0.02,
        help="A/B: relative runtime change below which the verdict is "
        "neutral (default 0.02)",
    )
    p_analyze.add_argument(
        "--top", type=_at_least_zero(int), default=8,
        help="A/B: findings shown in text/markdown output (default 8)",
    )
    p_analyze.add_argument(
        "--check", action="store_true",
        help="A/B: exit 1 when the verdict is a regression",
    )
    # ``perf diff A B`` is ``analyze A B`` in text: one handler, one set of
    # defaults.
    p_diff.set_defaults(
        handler="repro.cli.perf:cmd_analyze",
        **{
            dest: p_analyze.get_default(dest)
            for dest in ("fmt", "out", "threshold", "top", "check")
        },
    )

    p_cmp = sub.add_parser(
        "compare", help="run two versions and print the triage of their manifests"
    )
    p_cmp.set_defaults(handler="repro.cli.run:cmd_compare")
    p_cmp.add_argument("version_a")
    p_cmp.add_argument("version_b")
    p_cmp.add_argument("--ranks", type=int, default=8)
    p_cmp.add_argument("--taskgroups", type=int, default=8)
    p_cmp.add_argument("--quick", action="store_true", help="reduced workload")

    return parser
