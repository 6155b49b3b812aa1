"""Cheap analytic cost model: rank knob candidates without simulating them.

A full simulated run builds geometry, a machine, a world and an executor —
far too heavy to price hundreds of candidate knob vectors.  This model
prices a candidate from *closed-form totals* of the same quantities the
simulator charges for:

* **compute volume** — the per-stick/per-plane instruction formulas of
  :class:`repro.core.pipeline.CostModel` (same ``CostConstants``), summed
  over ranks and iterations instead of dispatched as events;
* **exchange bytes** — the pack and scatter/transpose alltoall(w) payloads.
  The formulas are pinned against real :class:`ExchangePlan` block volumes
  by :func:`planned_scatter_bytes` (the conformance test) — the model and
  the data plane price the same bytes;
* **fabric costs** — injection/capacity sharing on node, the bisection
  fabric across nodes, and the optional per-link contention cap
  (``link_capacity``).

One :class:`WorkloadModel` is built per workload (a single
``FftDescriptor`` — sphere enumeration only, no layout, no machine) and
then every candidate is priced in microseconds of host time.  Scores are
*rankings*, not predictions of simulated seconds: the search only needs
the ordering to pick its top-k, and the manifest records predicted vs.
measured so the gap stays visible.
"""

from __future__ import annotations

import dataclasses
import math

from repro.core.config import VERSION_TABLE, RunConfig
from repro.core.pipeline import CostConstants
from repro.machine.knl import KnlParameters

__all__ = [
    "WorkloadModel",
    "predict",
    "score_candidates",
    "planned_scatter_bytes",
    "estimated_scatter_bytes",
]

#: Bytes per complex128 grid element (the data plane's payload unit).
_ITEMSIZE = 16.0


@dataclasses.dataclass(frozen=True)
class WorkloadModel:
    """The digest-level workload quantities every candidate shares."""

    ecutwfc: float
    alat: float
    nbnd: int
    ranks: int
    version: str
    n_nodes: int
    ngw: int
    nsticks: int
    nr1: int
    nr2: int
    nr3: int
    nonempty_y_lines: int

    @classmethod
    def from_config(cls, config: RunConfig) -> "WorkloadModel":
        # One descriptor per workload; deliberately NOT via build_geometry —
        # that cache is keyed per (scatter, groups, decomposition) and a
        # candidate scan must not flush it with layouts it never runs.
        from repro.grids import Cell, FftDescriptor

        desc = FftDescriptor(Cell(alat=config.alat), ecutwfc=config.ecutwfc,
                             dual=config.dual)
        return cls(
            ecutwfc=config.ecutwfc,
            alat=config.alat,
            nbnd=config.nbnd,
            ranks=config.ranks,
            version=config.version,
            n_nodes=config.n_nodes,
            ngw=desc.ngw,
            nsticks=int(desc.sticks.nsticks),
            nr1=desc.nr1,
            nr2=desc.nr2,
            nr3=desc.nr3,
            nonempty_y_lines=desc.sticks.nonempty_y_lines,
        )


def _layout_of(version: str, ranks: int, taskgroups: int) -> tuple[int, int, int]:
    """(R, T, threads_per_rank) of the R x T layout a candidate runs —
    :attr:`RunConfig.layout_groups` / ``threads_per_rank`` for a candidate
    that is never built, with ``steps_workers`` at its default of 2."""
    spec = VERSION_TABLE[version]
    threads = {"one": 1, "hyperthreads": 2, "taskgroups": taskgroups}[spec.threads]
    return ranks, taskgroups if spec.task_groups else 1, threads


def estimated_scatter_bytes(w: WorkloadModel, R: int) -> float:
    """Analytic payload of one forward slab scatter across a scatter group.

    Every (stick, z) element moves exactly once from its stick column into
    its plane slot: ``nsticks * nr3`` complex values, independent of how
    the R ranks slice it.  :func:`planned_scatter_bytes` pins this against
    the real block descriptors.
    """
    del R  # total volume is R-invariant; the parameter documents intent
    return _ITEMSIZE * w.nsticks * w.nr3


def planned_scatter_bytes(layout) -> float:
    """Total send-block bytes of the data-mode forward scatter plans.

    Used by the conformance test only — builds the real
    :class:`ExchangePlan` per scatter rank and sums its descriptor volumes.
    """
    from repro.core.redistribute import scatter_fw_plan

    total = 0.0
    for r in range(layout.R):
        plan = scatter_fw_plan(layout, r, data_mode=True)
        total += sum(block.nbytes for block in plan.send_blocks)
    return total


def predict(
    w: WorkloadModel,
    knobs: dict,
    knl: KnlParameters | None = None,
    link_capacity: float | None = None,
    constants: CostConstants | None = None,
) -> dict:
    """Price one candidate knob vector; returns the component breakdown.

    ``knobs`` is a :data:`repro.tuning.digest.KNOB_FIELDS` dict.  The
    returned ``total_s`` is the ranking score (lower is better).
    """
    knl = knl or KnlParameters()
    c = constants or CostConstants()
    tg = int(knobs.get("taskgroups", 1))
    decomposition = knobs.get("decomposition", "slab")
    R, T, threads = _layout_of(w.version, w.ranks, tg)
    procs = R * T
    streams = procs * threads
    n_complex = w.nbnd // 2
    bands_in_flight = T
    n_iter = max(n_complex // max(bands_in_flight, 1), 1)

    log_n1 = math.log2(max(w.nr1, 2))
    log_n2 = math.log2(max(w.nr2, 2))
    log_n3 = math.log2(max(w.nr3, 2))

    # -- compute instructions per rank per iteration (average rank) --------
    prep = c.prep_per_g * w.ngw * T / max(procs, 1)
    pack = 0.0
    if T > 1:
        pack = 2.0 * (c.pack_per_point * (w.nsticks / R) * w.nr3
                      + c.instr_per_message * (T - 1))
    fft_z = 2.0 * c.fft_instr_per_flop * 5.0 * (w.nsticks / R) * w.nr3 * log_n3
    marshal = 2.0 * (2.0 * c.scatter_per_point * (w.nsticks / R) * w.nr3
                     + c.instr_per_message * (R - 1))
    if decomposition == "pencil":
        fft_rest = 2.0 * c.fft_instr_per_flop * 5.0 * (
            (w.nr1 * w.nr3 / R) * w.nr2 * log_n2
            + (w.nr2 * w.nr3 / R) * w.nr1 * log_n1
        )
        # The second transpose moves the full brick again.
        marshal *= 2.0
    else:
        per_plane = (w.nonempty_y_lines * w.nr1 * log_n1
                     + w.nr1 * w.nr2 * log_n2)
        fft_rest = 2.0 * c.fft_instr_per_flop * (w.nr3 / R) * per_plane
    vofr = c.vofr_per_point * (w.nr3 / R) * w.nr1 * w.nr2
    instr_per_iter = prep + pack + fft_z + marshal + fft_rest + vofr

    # Effective issue rate: nominal ~1 IPC, scaled by hyper-thread issue
    # sharing once streams exceed the cores of their nodes (the paper's
    # "IPC cut in half from 8x8 to 16x8" anchor).
    streams_per_node = streams / max(w.n_nodes, 1)
    share = min(1.0, knl.n_cores / max(streams_per_node, 1.0))
    ipc_eff = 1.0 * share
    compute_s = n_iter * instr_per_iter / (ipc_eff * knl.frequency_hz)

    # -- exchange bytes per iteration --------------------------------------
    scatter_bytes = 2.0 * estimated_scatter_bytes(w, R)  # fw + bw
    if decomposition == "pencil":
        scatter_bytes *= 2.0  # two transposes per direction
    pack_bytes = 2.0 * _ITEMSIZE * w.ngw * T if T > 1 else 0.0
    bytes_per_iter = (scatter_bytes + pack_bytes) * T  # T concurrent groups
    on_node_bw = min(knl.net_capacity, procs * knl.net_injection_bw)
    comm_s = n_iter * bytes_per_iter / on_node_bw
    msgs = n_iter * procs * (2.0 * (R - 1) + (2.0 * (T - 1) if T > 1 else 0.0))
    comm_s += msgs * knl.net_latency / max(procs, 1)
    if w.n_nodes > 1:
        inter_frac = (w.n_nodes - 1) / w.n_nodes
        inter_bytes = n_iter * bytes_per_iter * inter_frac
        fabric_bw = knl.fabric_injection_bw * max(w.n_nodes / 2.0, 1.0)
        fabric_s = inter_bytes / fabric_bw
        cap = link_capacity
        if cap is not None:
            links = max(w.n_nodes * (w.n_nodes - 1), 1)
            fabric_s = max(fabric_s, (inter_bytes / links) / cap)
        comm_s += fabric_s

    # -- runtime overhead --------------------------------------------------
    overhead_s = 0.0
    spec = VERSION_TABLE[w.version]
    if spec.threads != "one":
        if spec.policy != "staged":
            n_tasks = float(n_complex)  # one task per FFT
        else:
            gx = max(int(knobs.get("grainsize_xy", 10)), 1)
            gz = max(int(knobs.get("grainsize_z", 200)), 1)
            per_iter_tasks = (math.ceil((w.nr3 / R) / gx)
                              + math.ceil((w.nsticks / R) / gz) + 6.0)
            n_tasks = n_iter * per_iter_tasks * procs
        overhead_s = n_tasks * 3.0e-6 / max(procs, 1)

    total = compute_s + comm_s + overhead_s
    return {
        "compute_s": compute_s,
        "comm_s": comm_s,
        "overhead_s": overhead_s,
        "total_s": total,
    }


def score_candidates(
    w: WorkloadModel,
    candidates: list[dict],
    knl: KnlParameters | None = None,
    link_capacity: float | None = None,
) -> list[tuple[float, dict]]:
    """Price every candidate; returns ``(total_s, knobs)`` sorted ascending.

    Ties (e.g. scheduler variants the model cannot distinguish) break on
    the candidate's canonical knob serialization — fully deterministic.
    """
    from repro.sweep.engine import canonical_json

    scored = [
        (predict(w, knobs, knl=knl, link_capacity=link_capacity)["total_s"], knobs)
        for knobs in candidates
    ]
    scored.sort(key=lambda pair: (pair[0], canonical_json(pair[1])))
    return scored
