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

Layout: :mod:`repro.cli.parser` declares every flag and names each
subcommand's handler as a ``"module:function"`` string; :func:`main` parses
and imports that one module — ``run`` (``run``, ``compare``),
``experiments`` (the paper's figures/tables, ``all``), ``catalogue``
(``list``), ``sweep``, ``tune``, ``faults`` or ``perf``
(``perf ...``, ``analyze``) — so a fresh process pays only for the command
it runs (the import rules are stated as invariants in DESIGN.md and pinned
by ``tests/test_import_budget.py``).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro._lazy import resolve
from repro.cli.parser import build_parser

__all__ = ["main"]


def main(argv: Sequence[str] | None = None) -> int:
    """CLI dispatch; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return resolve(args.handler)(args)
