"""Performance tracing and analysis (the Extrae + Paraver + POP toolchain).

The paper's methodology is as much a contribution as its optimization: trace
the run (Extrae), inspect timelines and histograms (Paraver), and condense
everything into the multiplicative POP efficiency model (Tables I/II).
This package reproduces the inspection half of that workflow against the
simulator.  A run records into one :class:`repro.telemetry.Trace`
(:func:`repro.core.trace_run` returns it beside the result); the modules
here read it (the factor model is :mod:`repro.analysis.pop`):

* :mod:`~repro.perf.timeline` — Fig. 3/7 artifacts: per-stream phase
  timelines, MPI call maps, communicator structure, IPC histograms;
* :mod:`~repro.perf.paraver` — a Paraver-like trace format (.prv state /
  event / communication records with .pcf/.row sidecars) writer and parser;
* :mod:`~repro.perf.report` — ASCII rendering of the factor tables and
  series the experiments print.
"""

from repro._lazy import lazy_exports

# Submodules load on first access: ``compare``/``timeline``/``paraver`` read
# recorded data only, while ``whatif`` runs the simulator
# (``repro.core``, numpy) — ``analyze`` and ``perf diff|check`` must not pay
# for it.
__getattr__ = lazy_exports(
    __name__,
    {
        "repro.perf.timeline": (
            "communicator_structure",
            "ipc_histogram",
            "mpi_intervals",
            "phase_intervals",
            "phase_summary",
        ),
        "repro.perf.paraver": ("read_prv", "write_prv"),
        "repro.perf.report": ("format_factor_table", "format_series"),
        "repro.perf.whatif": ("runtime_attribution", "whatif_sweep"),
        "repro.perf.compare": (
            "compare_runs",
            "diff_manifests",
            "format_manifest_diff",
            "format_run_comparison",
            "manifest_regressions",
        ),
    },
)

__all__ = [
    "phase_intervals",
    "mpi_intervals",
    "phase_summary",
    "ipc_histogram",
    "communicator_structure",
    "write_prv",
    "read_prv",
    "format_factor_table",
    "format_series",
    "whatif_sweep",
    "runtime_attribution",
    "compare_runs",
    "format_run_comparison",
    "diff_manifests",
    "format_manifest_diff",
    "manifest_regressions",
]
