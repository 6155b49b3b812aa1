"""Experiment runners: one module per paper artifact.

Each runner executes the simulated configurations behind one table or
figure of the paper, packages the measured series/factors together with the
paper's published values (:mod:`~repro.experiments.paperdata`), and renders
a printable report.  The benchmark harness under ``benchmarks/`` and the
CLI both dispatch here.

| Module    | Paper artifact                                                |
|-----------|---------------------------------------------------------------|
| fig2      | Fig. 2 — FFT-phase runtime vs. ranks, original               |
| table1    | Tables I/II — POP factors, original / per-FFT, 1x8..16x8     |
| fig3      | Fig. 3 — timeline: phase IPCs, MPI calls, communicators      |
| fig6      | Fig. 6 — runtime original vs. OmpSs (+ the 7-10 % claim)     |
| fig7      | Fig. 7 — de-synchronization timelines + IPC histograms       |
| ablations | ntg sweep, grainsize, hyper-threading, scheduler, versions   |
| resilience| fault-scenario degradation, original vs OmpSs per-FFT        |
"""

from repro.experiments.paperdata import PAPER
from repro.experiments.fig2 import run_fig2
from repro.experiments.table1 import run_table1, run_table2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.ablations import (
    run_ablation_grainsize,
    run_ablation_hyperthreading,
    run_ablation_ntg,
    run_ablation_scheduler,
    run_ablation_versions,
)
from repro.experiments.whatif import run_ablation_whatif
from repro.experiments.multinode import run_multinode
from repro.experiments.validation import run_validation
from repro.experiments.resilience import run_resilience
from repro.experiments.tuning import run_tuning

__all__ = [
    "PAPER",
    "run_fig2",
    "run_table1",
    "run_fig3",
    "run_table2",
    "run_fig6",
    "run_fig7",
    "run_ablation_ntg",
    "run_ablation_grainsize",
    "run_ablation_hyperthreading",
    "run_ablation_scheduler",
    "run_ablation_versions",
    "run_ablation_whatif",
    "run_multinode",
    "run_validation",
    "run_resilience",
    "run_tuning",
]
