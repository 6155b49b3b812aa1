"""Multi-node extension: testing the paper's §IV scale claim.

"The first optimization strategy is especially targeting large scales where
the impact of the communication is very high and the computational load is
relatively rather small.  The second optimization is especially targeting
scenarios with high computational load."  The paper could only evaluate the
second (one 68-core node); this experiment runs both — plus the §VI
combination (per-FFT tasks with MPI task switching) — on simulated clusters
of 1, 2 and 4 KNL nodes at fixed per-node occupancy (64 processes/node),
where the inter-node fabric makes communication progressively dominant.

Expected (and asserted in the benchmark): the overlap-based Opt 1's
advantage over the original *grows* with scale, and it overtakes the
de-synchronization-based Opt 2 once communication dominates — the paper's
prediction, observable here because the simulator has the multi-node fabric
the authors' testbed lacked.
"""

from __future__ import annotations

import typing as _t

from repro.core.config import RunConfig
from repro.experiments.common import ExperimentReport, paper_config, sweep_summaries
from repro.analysis.render import format_series
from repro.sweep import SweepTask

__all__ = ["run_multinode", "reduce_multinode"]

VARIANTS: tuple[tuple[str, str, bool | None], ...] = (
    ("original", "original", None),
    ("opt1 per-step", "ompss_steps", None),
    ("opt2 per-fft", "ompss_perfft", None),
    ("combined (ts)", "ompss_perfft", True),
)

#: Data-plane comparison: decomposition on the original executor.  "slab"
#: is the executor variants' default above; the pencil row probes the
#: Pr x Pc grid whose row/col transposes keep more traffic intra-node at
#: scale.
DATAPLANE_VARIANTS: tuple[tuple[str, dict], ...] = (
    ("slab", {"decomposition": "slab"}),
    ("pencil", {"decomposition": "pencil"}),
)


def reduce_multinode(task, result, ideal, trace) -> dict:
    """Runtime, inter-node fabric traffic and POP factors of one cluster run."""
    from repro.experiments.common import reduce_efficiency

    out = reduce_efficiency(task, result, ideal, trace)
    out["inter_bytes"] = result.world.network.inter_bytes
    return out


def run_multinode(
    nodes: _t.Sequence[int] = (1, 2, 4), jobs: int = 1, **overrides: _t.Any
) -> ExperimentReport:
    """Sweep node counts at fixed per-node occupancy for all variants."""
    tasks = [
        SweepTask(
            key=f"nodes={n},variant={label}",
            config=paper_config(
                8 * n, version, n_nodes=n, task_switching=switching, **overrides
            ),
            reducer="repro.experiments.multinode:reduce_multinode",
        )
        for n in nodes
        for label, version, switching in VARIANTS
    ]
    tasks += [
        SweepTask(
            key=f"nodes={n},dataplane={label}",
            config=paper_config(
                8 * n, "original", n_nodes=n, **{**extra, **overrides}
            ),
            reducer="repro.experiments.multinode:reduce_multinode",
        )
        for n in nodes
        for label, extra in DATAPLANE_VARIANTS
    ]
    summaries = sweep_summaries(tasks, jobs=jobs)
    runtimes: dict[str, dict[int, float]] = {label: {} for label, _v, _t2 in VARIANTS}
    inter_bytes: dict[int, float] = {}
    efficiency: dict[str, dict[int, dict | None]] = {
        label: {} for label, _v, _t2 in VARIANTS
    }
    dp_runtimes: dict[str, dict[int, float]] = {
        label: {} for label, _e in DATAPLANE_VARIANTS
    }
    dp_efficiency: dict[str, dict[int, dict | None]] = {
        label: {} for label, _e in DATAPLANE_VARIANTS
    }
    dp_inter_bytes: dict[str, dict[int, float]] = {
        label: {} for label, _e in DATAPLANE_VARIANTS
    }
    for n in nodes:
        for label, _version, _switching in VARIANTS:
            summary = summaries[f"nodes={n},variant={label}"]
            runtimes[label][n] = summary["phase_time_s"]
            inter_bytes[n] = summary["inter_bytes"]
            efficiency[label][n] = summary.get("efficiency")
        for label, _extra in DATAPLANE_VARIANTS:
            summary = summaries[f"nodes={n},dataplane={label}"]
            dp_runtimes[label][n] = summary["phase_time_s"]
            dp_efficiency[label][n] = summary.get("efficiency")
            dp_inter_bytes[label][n] = summary["inter_bytes"]

    speedups = {
        label: {
            n: 1.0 - runtimes[label][n] / runtimes["original"][n] for n in nodes
        }
        for label, _v, _t2 in VARIANTS
        if label != "original"
    }

    series = [
        (f"{n} node(s) {label}", runtimes[label][n])
        for n in nodes
        for label, _v, _t2 in VARIANTS
    ]
    lines = [
        format_series(series, title="Multi-node sweep (64 processes per node)"),
        "",
        "speedup over the original version:",
    ]
    for label, per_node in speedups.items():
        lines.append(
            f"  {label:<14} "
            + "  ".join(f"{n}n: {s * 100:+5.1f}%" for n, s in per_node.items())
        )
    lines += [
        "",
        "fabric traffic: "
        + ", ".join(f"{n}n: {inter_bytes[n] / 1e6:.0f} MB" for n in nodes),
        "POP parallel efficiency per node count:",
    ]
    for label, per_node in efficiency.items():
        cells = [
            f"{n}n: {eff['parallel_efficiency']:.3f} (LB {eff['load_balance']:.3f})"
            for n, eff in per_node.items()
            if eff is not None
        ]
        if cells:
            lines.append(f"  {label:<14} " + "  ".join(cells))
    lines += [
        "paper §IV: Opt 1 (overlap) targets communication-dominated scales;",
        "Opt 2 (de-sync) targets compute-dominated ones — watch the crossover.",
        "",
        "data plane (original executor, by decomposition):",
    ]
    for label, per_node in dp_runtimes.items():
        cells = []
        for n in nodes:
            eff = dp_efficiency[label][n]
            pe = f" PE {eff['parallel_efficiency']:.3f}" if eff else ""
            cells.append(f"{n}n: {per_node[n] * 1e3:.2f} ms{pe}")
        lines.append(f"  {label:<16} " + "  ".join(cells))
    return ExperimentReport(
        name="multinode",
        data={
            "runtime_s": runtimes,
            "speedups": speedups,
            "inter_bytes": inter_bytes,
            "efficiency": efficiency,
            "dataplane": {
                "runtime_s": dp_runtimes,
                "efficiency": dp_efficiency,
                "inter_bytes": dp_inter_bytes,
            },
        },
        text="\n".join(lines),
    )
