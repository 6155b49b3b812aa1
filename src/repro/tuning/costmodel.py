"""Cheap cost model: rank knob candidates without simulating them.

A full simulated run builds a machine, a world and an executor and then
dispatches every compute phase and collective as events — far too heavy to
price every candidate knob vector.  This model prices a candidate from the
totals the simulator itself would charge, read off the same sources:

* **compute volume** — the stage table's per-unit instruction budgets
  (:func:`repro.core.pipeline.unit_budgets`), summed over processes and
  units;
* **exchange bytes** — the off-diagonal send blocks of the stage table's
  meta-mode :class:`~repro.core.redistribute.ExchangePlan`\\ s
  (:func:`repro.core.pipeline.chain_plans`), with one latency per message;
* **task overhead** — the policy's task count
  (:func:`repro.core.schedule.unit_tasks`) times the task runtime's
  dispatch overhead (:data:`repro.ompss.runtime.TASK_OVERHEAD`);
* **fabric costs** — injection/capacity sharing on node and the bisection
  fabric across nodes.

One :class:`WorkloadModel` (the workload's config and its single
``FftDescriptor``) is built per workload; each candidate gets its
:class:`~repro.grids.descriptor.DistributedLayout` — one per distinct
(R, T, decomposition) within a :func:`score_candidates` call.  Scores are
*rankings*, not predictions of simulated seconds: the search only needs the
ordering to pick its top-k, and the manifest records predicted vs. measured
so the gap stays visible.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import RunConfig
from repro.core.pipeline import CostConstants, CostModel, chain_of, chain_plans, unit_budgets
from repro.core.schedule import unit_tasks
from repro.grids import Cell, DistributedLayout, FftDescriptor
from repro.machine.knl import KnlParameters
from repro.mpisim.network import NetworkModel
from repro.ompss.runtime import TASK_OVERHEAD

__all__ = ["WorkloadModel", "predict", "score_candidates"]


@dataclasses.dataclass(frozen=True)
class WorkloadModel:
    """The workload every candidate shares: its config and descriptor."""

    config: RunConfig
    desc: FftDescriptor

    @classmethod
    def from_config(cls, config: RunConfig) -> "WorkloadModel":
        # One descriptor per workload; deliberately NOT via build_geometry —
        # that cache is keyed per (scatter, groups, decomposition) and a
        # candidate scan must not flush it with layouts it never runs.
        desc = FftDescriptor(Cell(alat=config.alat), ecutwfc=config.ecutwfc,
                             dual=config.dual)
        return cls(config, desc)


def predict(
    w: WorkloadModel,
    knobs: dict,
    knl: KnlParameters | None = None,
    constants: CostConstants | None = None,
    layouts: dict | None = None,
) -> dict:
    """Price one candidate knob vector; returns the component breakdown.

    ``knobs`` is a :data:`repro.tuning.digest.KNOB_FIELDS` dict applied to
    the workload's config.  The returned ``total_s`` is the ranking score
    (lower is better); ``instructions``, ``bytes`` and ``tasks`` are the
    whole run's totals, equal to what a simulation of the candidate counts.
    ``layouts`` lets a caller share one layout per (R, T, decomposition)
    across candidates.
    """
    knl = knl or KnlParameters()
    config = dataclasses.replace(w.config, **knobs)
    key = (config.layout_scatter, config.layout_groups, config.decomposition)
    layouts = {} if layouts is None else layouts
    if key not in layouts:
        layouts[key] = DistributedLayout(w.desc, *key)
    layout = layouts[key]
    cost = CostModel(layout, constants)
    chain = chain_of(layout)

    instructions = bytes_ = messages = tasks = 0.0
    for p in range(layout.P):
        r, _t = layout.rt_of(p)
        instructions += sum(unit_budgets(cost, chain, p).values())
        for plan in chain_plans(layout, chain, p, data_mode=False).values():
            bytes_ += plan.sent_bytes()
            messages += NetworkModel.alltoall_messages(len(plan.send_blocks))
        tasks += unit_tasks(config, layout, r)
    units = config.n_iterations
    instructions *= units
    bytes_ *= units
    messages *= units
    tasks *= units
    procs = layout.P
    streams = config.total_streams

    # Compute and task dispatch spread over every hardware thread of the
    # run, at a nominal ~1 IPC scaled by hyper-thread issue sharing once
    # streams exceed the cores of their nodes (the paper's "IPC cut in half
    # from 8x8 to 16x8" anchor).
    ipc_eff = min(1.0, knl.n_cores / max(streams / config.n_nodes, 1.0))
    compute_s = instructions / streams / (ipc_eff * knl.frequency_hz)
    overhead_s = tasks * TASK_OVERHEAD / streams

    on_node_bw = min(knl.net_capacity, procs * knl.net_injection_bw)
    comm_s = bytes_ / on_node_bw + messages * knl.net_latency / procs
    # The share of the bytes bound off-node (none on one node) crosses the
    # bisection fabric.
    inter_bytes = bytes_ * (config.n_nodes - 1) / config.n_nodes
    fabric_bw = knl.fabric_injection_bw * max(config.n_nodes / 2.0, 1.0)
    comm_s += inter_bytes / fabric_bw

    return {
        "compute_s": compute_s,
        "comm_s": comm_s,
        "overhead_s": overhead_s,
        "total_s": compute_s + comm_s + overhead_s,
        "instructions": instructions,
        "bytes": bytes_,
        "tasks": tasks,
    }


def score_candidates(
    w: WorkloadModel,
    candidates: list[dict],
    knl: KnlParameters | None = None,
) -> list[tuple[float, dict]]:
    """Price every candidate; returns ``(total_s, knobs)`` sorted ascending.

    Candidates with equal layouts share one.  Ties (candidates whose knobs
    leave every priced total unchanged) break on the candidate's canonical
    knob serialization — fully deterministic.
    """
    from repro.sweep.engine import canonical_json

    layouts: dict = {}
    scored = [
        (predict(w, knobs, knl=knl, layouts=layouts)["total_s"], knobs)
        for knobs in candidates
    ]
    scored.sort(key=lambda pair: (pair[0], canonical_json(pair[1])))
    return scored
