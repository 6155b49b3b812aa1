"""What-if ablation: which bottleneck owns the runtime, per version.

For the 8x8 original and per-FFT runs, lift one modelled mechanism at a
time (ideal network / infinite memory bandwidth / no jitter) and report the
runtime share each is responsible for.  This quantifies the paper's
narrative directly: the original's runtime is dominated by the contention
the per-FFT version softens, and neither is network-bound on a single node.

The version x machine grid (2 x 4 points) runs through the sweep engine:
each point carries its what-if :class:`~repro.machine.knl.KnlParameters`
variant, so with ``jobs=N`` the whole attribution matrix runs concurrently.
"""

from __future__ import annotations

import typing as _t

from repro.experiments.common import ExperimentReport, paper_config, sweep_summaries
from repro.machine.knl import WHATIF_MACHINES, KnlParameters, whatif_machine
from repro.sweep import SweepTask

__all__ = ["run_ablation_whatif"]

TIMING_REDUCER = "repro.experiments.common:reduce_timing"

#: The attribution's machine variants, in report order.
ATTRIBUTION_MACHINES: tuple[str, ...] = ("measured", *WHATIF_MACHINES)


def run_ablation_whatif(
    ranks: int = 8, jobs: int = 1, **overrides: _t.Any
) -> ExperimentReport:
    """Runtime attribution for both headline versions at ``ranks`` x 8."""
    base = KnlParameters()
    versions = ("original", "ompss_perfft")
    tasks = [
        SweepTask(
            key=f"version={version},machine={machine}",
            config=paper_config(ranks, version, **overrides),
            knl=base if machine == "measured" else whatif_machine(machine, base),
            reducer=TIMING_REDUCER,
        )
        for version in versions
        for machine in ATTRIBUTION_MACHINES
    ]
    summaries = sweep_summaries(tasks, jobs=jobs)

    data = {}
    lines = [f"What-if runtime attribution ({ranks}x8 workload)"]
    for version in versions:
        attr = {
            machine: summaries[f"version={version},machine={machine}"]["phase_time_s"]
            for machine in ATTRIBUTION_MACHINES
        }
        data[version] = attr
        measured = attr["measured"]
        lines.append(f"\n{version}: measured {measured * 1e3:.2f} ms")
        for name in WHATIF_MACHINES:
            gain = 1.0 - attr[name] / measured
            lines.append(
                f"  {name:<20} {attr[name] * 1e3:9.2f} ms   ({gain * 100:+5.1f}% if lifted)"
            )
    contention_orig = 1.0 - data["original"]["infinite_bandwidth"] / data["original"]["measured"]
    contention_ompss = (
        1.0 - data["ompss_perfft"]["infinite_bandwidth"] / data["ompss_perfft"]["measured"]
    )
    lines += [
        "",
        f"memory-contention share: original {contention_orig * 100:.1f}%, "
        f"OmpSs {contention_ompss * 100:.1f}% — the per-FFT schedule recovers part "
        "of the contention loss, as the paper claims.",
    ]
    return ExperimentReport(name="ablation-whatif", data=data, text="\n".join(lines))
