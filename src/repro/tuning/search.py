"""Cost-model-guided knob search with a successive-halving sweep fallback.

The search pipeline for one workload digest:

1. **Enumerate** every valid knob vector (taskgroup counts that divide the
   band batch, scheduler policies and grainsizes only under the staged
   policy of ``VERSION_TABLE``, both decompositions).  Validity is decided
   by the one authority that knows: :class:`RunConfig` construction.
2. **Rank** the candidates with the cost model, which sums the stage
   table's budgets and plan bytes (:mod:`repro.tuning.costmodel`), and
   keep the top-k — the search
   evaluates a handful of simulations instead of the cross product.
3. **Successive halving**: rung 0 simulates the top-k at a reduced band
   count (the cheap budget), the best ``survivors`` advance to rung 1 at
   the full workload.  The **incumbent** — the config's own knob vector —
   is always promoted straight to the final rung, so the recorded winner
   can never lose to the hand-picked default (the tuned-vs-default
   experiment's win-rate guarantee).
4. The winner's full-workload time becomes the wisdom entry's score.

Rungs execute through :func:`repro.sweep.run_sweep` — ``jobs``-parallel,
deterministic, byte-identical across executor modes.  Search runs are
meta-mode with telemetry off: simulated timings do not depend on payload
math, so tuning scores transfer directly to data-mode runs.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from repro.core.config import RunConfig
from repro.machine.knl import KnlParameters
from repro.sweep.engine import SweepTask, canonical_json, run_sweep
from repro.tuning.costmodel import WorkloadModel, score_candidates
from repro.tuning.digest import KNOB_FIELDS, knobs_of, workload_digest
from repro.tuning.wisdom import WisdomDB, WisdomEntry

__all__ = ["candidate_knobs", "search", "reduce_score"]

_TASKGROUP_CHOICES = (1, 2, 4, 8, 16)
_SCHEDULER_CHOICES = ("fifo", "lifo", "locality")
_GRAINSIZE_XY_CHOICES = (5, 10, 20)
_GRAINSIZE_Z_CHOICES = (100, 200, 400)
_DECOMPOSITION_CHOICES = ("slab", "pencil")


def reduce_score(task: SweepTask, result, ideal, trace) -> dict:
    """Sweep reducer: just the objective (phase time) and the failure bit."""
    return {
        "phase_time_s": float(result.phase_time),
        "failed": bool(result.failed),
    }


def _try_config(config: RunConfig, knobs: dict, **overrides) -> RunConfig | None:
    """The candidate's runnable config, or ``None`` if invalid."""
    try:
        return dataclasses.replace(config, **knobs, **overrides)
    except ValueError:
        return None


def candidate_knobs(config: RunConfig) -> list[dict]:
    """Every valid knob vector for this workload, deterministically ordered.

    Scheduler and grainsizes vary only under the staged policy: a linear
    chain task per band leaves the ready queues nothing to order and no
    loop to chunk, so those knobs cannot move its phase time.
    """
    if config.spec.policy == "staged":
        schedulers: tuple[str, ...] = _SCHEDULER_CHOICES
        grains_xy: tuple[int, ...] = _GRAINSIZE_XY_CHOICES
        grains_z: tuple[int, ...] = _GRAINSIZE_Z_CHOICES
    else:
        schedulers = (config.scheduler,)
        grains_xy = (config.grainsize_xy,)
        grains_z = (config.grainsize_z,)
    out: list[dict] = []
    for tg in _TASKGROUP_CHOICES:
        for decomposition in _DECOMPOSITION_CHOICES:
            for scheduler in schedulers:
                for gx in grains_xy:
                    for gz in grains_z:
                        knobs = {
                            "taskgroups": tg,
                            "scheduler": scheduler,
                            "grainsize_xy": gx,
                            "grainsize_z": gz,
                            "decomposition": decomposition,
                        }
                        if _try_config(config, knobs) is not None:
                            out.append(knobs)
    incumbent = knobs_of(config)
    if incumbent not in out:
        out.append(incumbent)
    return out


def _rung_nbnd(config: RunConfig, candidates: list[dict]) -> int:
    """The reduced band count of rung 0: every candidate stays valid.

    ``nbnd/2`` must stay divisible by every candidate's band batch, so the
    cheap rung uses the largest multiple of ``2 * lcm(batches)`` at or
    below a quarter of the workload (floored at one lcm block).
    """
    batches = set()
    for knobs in candidates:
        cand = _try_config(config, knobs)
        if cand is not None:
            batches.add(cand.bands_in_flight)
    lcm = 1
    for b in sorted(batches):
        lcm = lcm * b // math.gcd(lcm, b)
    n_complex = config.nbnd // 2
    reduced = max((n_complex // 4) // lcm, 1) * lcm
    return min(2 * reduced, config.nbnd)


def _evaluate(
    config: RunConfig,
    candidates: list[dict],
    nbnd: int,
    knl: KnlParameters | None,
    jobs: int,
    mode: str | None,
    rung: int,
) -> list[tuple[float, dict]]:
    """Simulate the candidates at ``nbnd`` bands; (time, knobs) ascending."""
    tasks = []
    runnable = []
    for knobs in candidates:
        cand = _try_config(
            config, knobs, nbnd=nbnd, data_mode=False, telemetry=False,
            faults=None, tuning="off",
        )
        if cand is None:
            continue
        key = f"rung{rung}:" + canonical_json(knobs)
        tasks.append(SweepTask(
            key=key, config=cand, knl=knl,
            reducer="repro.tuning.search:reduce_score",
        ))
        runnable.append(knobs)
    result = run_sweep(tasks, jobs=jobs, mode=mode)
    scored = []
    for knobs, record in zip(runnable, result.records):
        if record.failed:
            continue
        scored.append((float(record.summary["phase_time_s"]), knobs))
    scored.sort(key=lambda pair: (pair[0], canonical_json(pair[1])))
    return scored


def search(
    config: RunConfig,
    knl: KnlParameters | None = None,
    db: WisdomDB | None = None,
    jobs: int = 1,
    mode: str | None = None,
    top_k: int = 8,
    survivors: int = 3,
) -> WisdomEntry:
    """Find the best knob vector for ``config``'s workload; record it.

    Returns the winning :class:`WisdomEntry` (appended to ``db`` when one
    is given).  Deterministic for a given (config, knl, top_k, survivors).
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if survivors < 1:
        raise ValueError(f"survivors must be >= 1, got {survivors}")
    digest = workload_digest(config, knl)
    incumbent = knobs_of(config)
    candidates = candidate_knobs(config)
    workload = WorkloadModel.from_config(config)
    ranked = score_candidates(workload, candidates, knl=knl)
    predicted = {canonical_json(k): s for s, k in ranked}
    shortlist = [knobs for _score, knobs in ranked[:top_k]]

    # Rung 0: the cost model's shortlist at a reduced band budget.  The
    # incumbent is excluded here — it holds a bye to the final rung.
    rung0 = [k for k in shortlist if k != incumbent]
    cheap_nbnd = _rung_nbnd(config, rung0 + [incumbent])
    evaluated = 0
    finalists: list[dict] = []
    if rung0 and cheap_nbnd < config.nbnd:
        scored0 = _evaluate(config, rung0, cheap_nbnd, knl, jobs, mode, rung=0)
        evaluated += len(scored0)
        finalists = [knobs for _t_, knobs in scored0[:survivors]]
    else:
        finalists = rung0[:survivors]

    # Final rung: survivors + the incumbent at the full workload.  The
    # incumbent's presence makes the winner <= the default by definition.
    final_pool = finalists + [incumbent]
    scored_final = _evaluate(
        config, final_pool, config.nbnd, knl, jobs, mode, rung=1
    )
    evaluated += len(scored_final)
    if not scored_final:
        raise RuntimeError(
            f"tuning search: every candidate failed for digest {digest}"
        )
    best_time, best_knobs = scored_final[0]
    entry = WisdomEntry(
        digest=digest,
        knobs=dict(best_knobs),
        score=best_time,
        predicted_s=predicted.get(canonical_json(best_knobs)),
        source="search",
        provenance={
            "candidates": len(candidates),
            "shortlist": len(shortlist),
            "evaluated": evaluated,
            "rung0_nbnd": cheap_nbnd,
            "incumbent_s": next(
                (t for t, k in scored_final if k == incumbent), None
            ),
        },
    )
    if db is not None:
        db.record(entry)
    return entry
