"""Figure 6: runtime of the original vs. the OmpSs per-FFT version.

Claims under test (Section V): "the version using OmpSs performs the FFT
phase about 7-10 % faster (not counting hyper-threading), in particular,
the fastest version with OmpSs (16x8) is about 10 % faster as the fastest
original version (8x8)", and the OmpSs version gains "about 3 %" more from
two-time hyper-threading.
"""

from __future__ import annotations

import typing as _t

from repro.experiments.common import ExperimentReport, paper_config, sweep_summaries
from repro.experiments.paperdata import PAPER
from repro.analysis.render import format_series
from repro.sweep import SweepTask

__all__ = ["run_fig6"]

TIMING_REDUCER = "repro.experiments.common:reduce_efficiency"


def run_fig6(
    ranks: _t.Sequence[int] = (1, 2, 4, 8, 16, 32), jobs: int = 1, **overrides: _t.Any
) -> ExperimentReport:
    """Run both versions over the rank sweep and check the claims."""
    tasks = [
        SweepTask(
            key=f"ranks={n},version={version}",
            config=paper_config(n, version, **overrides),
            reducer=TIMING_REDUCER,
        )
        for n in ranks
        for version in ("original", "ompss_perfft")
    ]
    summaries = sweep_summaries(tasks, jobs=jobs)
    original: dict[str, float] = {}
    ompss: dict[str, float] = {}
    efficiency: dict[str, dict[str, dict | None]] = {
        "original": {},
        "ompss_perfft": {},
    }
    for n in ranks:
        label = f"{n}x8"
        original[label] = summaries[f"ranks={n},version=original"]["phase_time_s"]
        ompss[label] = summaries[f"ranks={n},version=ompss_perfft"]["phase_time_s"]
        for version in ("original", "ompss_perfft"):
            efficiency[version][label] = summaries[
                f"ranks={n},version={version}"
            ].get("efficiency")

    speedups = {
        label: 1.0 - ompss[label] / original[label]
        for label in original
    }
    no_ht = [f"{n}x8" for n in ranks if n * 8 <= 68]
    best_orig = min(original, key=original.get)
    best_ompss = min(ompss, key=ompss.get)
    best_vs_best = 1.0 - ompss[best_ompss] / original[best_orig]
    ht_gain = None
    if "8x8" in ompss and "16x8" in ompss:
        ht_gain = 1.0 - ompss["16x8"] / ompss["8x8"]

    series = [(f"{l} orig", t) for l, t in original.items()] + [
        (f"{l} ompss", t) for l, t in ompss.items()
    ]
    claim = PAPER["fig6"]
    lines = [
        format_series(series, title="Fig. 6 — FFT phase runtime, original vs OmpSs"),
        "",
        "per-configuration OmpSs speedup: "
        + ", ".join(f"{l}: {s * 100:.1f}%" for l, s in speedups.items()),
        f"best original: {best_orig} ({original[best_orig] * 1e3:.2f} ms); "
        f"best OmpSs: {best_ompss} ({ompss[best_ompss] * 1e3:.2f} ms)",
        f"best-vs-best speedup: {best_vs_best * 100:.1f}%  (paper: ~{claim['best_vs_best'] * 100:.0f}%)",
    ]
    if ht_gain is not None:
        lines.append(
            f"OmpSs gain from 2x hyper-threading: {ht_gain * 100:.1f}%  "
            f"(paper: ~{claim['ht_gain_ompss'] * 100:.0f}%)"
        )
    lines.append(
        f"paper claim: OmpSs 7-10% faster without hyper-threading "
        f"(measured on {no_ht}: "
        + ", ".join(f"{l}: {speedups[l] * 100:.1f}%" for l in no_ht if l in speedups)
        + ")"
    )
    for version, title in (("original", "orig"), ("ompss_perfft", "ompss")):
        cells = [
            f"{label}: {eff['parallel_efficiency']:.3f}"
            for label, eff in efficiency[version].items()
            if eff is not None
        ]
        if cells:
            lines.append(f"POP parallel efficiency ({title}): " + ", ".join(cells))
    return ExperimentReport(
        name="fig6",
        data={
            "original_s": original,
            "ompss_s": ompss,
            "speedups": speedups,
            "best_original": best_orig,
            "best_ompss": best_ompss,
            "best_vs_best": best_vs_best,
            "ht_gain_ompss": ht_gain,
            "efficiency": efficiency,
        },
        text="\n".join(lines),
    )
