"""Three scheduling policies over one step chain, and the program builder.

:mod:`repro.core.pipeline` declares the kernel once (a slab chain and a
pencil chain of stages); the paper's versions differ only in *when* those
stages run.  Each policy emits the same ``rank.compute`` / ``alltoallw``
events per stage — they order and interleave them differently:

* **linear** — every stage in program order, transforming in place.  As a
  bare loop over band groups this is the baseline FFTXlib (paper Fig. 1,
  ``original``): all ranks move through the phases together, synchronized
  by the collectives — the lock-step high-intensity phases whose resource
  contention Section III analyses.  Wrapped in one OmpSs task per band
  (``("psis", band)`` regions, no dependencies) it is Opt 2 (Fig. 5,
  ``ompss_perfft``): the dynamic schedule de-synchronises the compute
  phases across the node.  Scatter Alltoalls then run from inside tasks,
  concurrently for several bands on one communicator, which is why every
  collective carries an explicit per-unit key.
* **staged tasks** — Opt 1 (Fig. 4): one task per stage with flow
  dependencies inside a unit, units independent; FFT stages split into
  grainsize chunks ("we converted the main loops in functions cft_2xy and
  cft_2z into OpenMP task loops").  On the original process grid with a
  hyper-thread sibling worker this is ``ompss_steps`` (communication hides
  behind other iterations' compute); per band on the Opt 2 mapping it is
  the paper's future-work combination, ``ompss_combined``.
* **depth-2 issue/wait** — ``pipelined``, the classic MPI-only overlap
  without a task runtime: issue the forward scatter of iteration ``i``,
  compute iteration ``i+1``'s G-space stages while it is in flight, only
  then wait.  Slab chains only (one scatter pair to pipeline across);
  pencil chains run linear.

:func:`make_program` is the one place a :class:`~repro.ompss.TaskRuntime`
is brought up and the executor/iteration/sub-phase spans are opened.
"""

from __future__ import annotations

import math
import typing as _t

from repro import telemetry as _telemetry
from repro.core.config import RunConfig
from repro.core.pipeline import (
    FftPhaseContext,
    Stage,
    Unit,
    apply_local,
    chain_of,
    finish_exchange,
    issue_exchange,
    run_stages,
    stage_rows,
)
from repro.grids.descriptor import DistributedLayout
from repro.ompss import TaskRuntime

__all__ = ["make_program", "unit_tasks"]


def _grains(config: RunConfig) -> dict[str, int]:
    """Taskloop grainsize per :attr:`Stage.grain` class."""
    return {"z": config.grainsize_z, "xy": config.grainsize_xy}


def _stage_chunks(layout: DistributedLayout, stage: Stage, r: int, grains: dict) -> int:
    """Tasks one unit's ``stage`` becomes under the staged policy: a local
    FFT splits its rows into grainsize chunks, every other stage is one."""
    if stage.kind != "local" or not stage.grain:
        return 1
    return math.ceil(max(stage_rows(layout, stage, r), 1) / grains[stage.grain])


def unit_tasks(config: RunConfig, layout: DistributedLayout, r: int) -> int:
    """Tasks :func:`make_program` submits per unit on a process of scatter
    rank ``r``: none without a task runtime, the whole chain as one task
    under the linear policy, one per stage chunk under the staged policy."""
    if not config.is_task_version:
        return 0
    if config.spec.policy != "staged":
        return 1
    grains = _grains(config)
    return sum(_stage_chunks(layout, stage, r, grains) for stage in chain_of(layout))


def make_program(
    ctx_of: _t.Callable[[object], FftPhaseContext],
    config: RunConfig,
    start_unit: int = 0,
):
    """Build the per-rank program of ``config.version``.

    ``ctx_of(rank)`` supplies the rank's phase context (layout, comms, data).
    ``start_unit`` skips the outer-loop units (iterations or bands — see
    :class:`~repro.core.config.VersionSpec`) completed by a prior attempt
    (checkpoint resume); it must be the same on every rank.
    """
    spec = config.spec
    label = "it" if spec.task_groups else "band"
    executor = "exec_" + config.version.removeprefix("ompss_")
    grains = _grains(config)

    def program(rank):
        ctx = ctx_of(rank)
        units = [Unit(ctx, label, u) for u in range(start_unit, config.n_iterations)]
        tel = _telemetry.current()
        track = (rank.rank, 0)

        def clock():
            return rank.sim.now

        def span(name: str, category: str, **args):
            return tel.spans.span(track, name, category, clock, **args)

        with span(executor, "executor"):
            if not config.is_task_version:
                if spec.policy == "pipelined" and ctx.layout.decomposition == "slab":
                    yield from _pipelined(ctx, units, span)
                else:
                    yield from _linear(ctx, units, span)
                return ctx
            rt = TaskRuntime(
                rank,
                n_workers=config.threads_per_rank,
                policy=config.scheduler,
                mpi_task_switching=config.effective_task_switching,
            )
            rt.start()
            with span("submit", "sub-phase", n_units=len(units)):
                for unit in units:
                    if spec.policy == "staged":
                        last = _submit_stage_tasks(ctx, rt, unit, grains)
                    else:
                        last = _submit_chain_task(ctx, rt, unit)
                    # Completion is marked when the unit's last task
                    # *succeeds*, so a discarded (fault-injected) execution
                    # never advances the checkpoint frontier.
                    last.done.add_callback(
                        lambda ev, _bands=tuple(unit.bands): (
                            ctx.completed.update(_bands) if ev.exception is None else None
                        )
                    )
            with span("taskwait", "sub-phase"):
                yield rt.taskwait()
            yield rt.shutdown()
        return ctx

    return program


# -- linear -------------------------------------------------------------------


def _linear(ctx: FftPhaseContext, units: list[Unit], span):
    """``DO I = 1, NB, NTG`` over the whole chain, one unit after another."""
    for unit in units:
        with span(f"iteration {unit.index}", "iteration", bands=unit.bands):
            yield from run_stages(ctx, unit, ctx.chain)


def _submit_chain_task(ctx: FftPhaseContext, rt: TaskRuntime, unit: Unit):
    """The whole chain of one band as a single independent task."""

    def body(worker):
        return run_stages(
            ctx, unit, ctx.chain, thread=worker.thread_index, mark_completed=False
        )

    return rt.submit(f"fft_band{unit.index}", body, inouts=[("psis", unit.index)])


# -- staged tasks -------------------------------------------------------------


def _submit_stage_tasks(ctx: FftPhaseContext, rt: TaskRuntime, unit: Unit, grains: dict):
    """Submit one unit's stages as a flow-dependency chain of tasks; returns
    the last (unpack) task.

    The dependency encoding uses fan-out/fan-in regions rather than nested
    blocking waits: every task of stage ``s`` reads all regions of stage
    ``s-1`` and writes its own ``(unit, s, k)`` region.  This is
    semantically the Fig. 4 graph but deadlock-free on a small worker pool
    (a parent task blocking on nested children could strand all workers).

    Every stage reads its predecessor's slot and writes its own — never
    mutating in place — so a task execution that fault injection discards
    can re-run and produce the identical value (idempotent bodies are what
    makes bounded re-execution safe): ``local`` stages transform
    out-of-place, and the MPI-bearing stages, which do recycle arena blocks,
    are never replayed.  The fresh intermediates stay alive until the
    program ends.  Chunked FFT stages charge their compute share per chunk
    but perform the (atomic, instantaneous) array transform in chunk 0 —
    the numerics are schedule-independent by construction.
    """
    slots: list = [None] * (len(ctx.chain) + 1)
    regions: tuple = ()
    task = None
    for i, stage in enumerate(ctx.chain):
        if stage.kind == "local":
            n_chunks = _stage_chunks(ctx.layout, stage, ctx.r, grains)
            share = ctx.budgets[stage.name] / n_chunks
            bodies = [
                (
                    f"{stage.name}[{k}]" if stage.grain else stage.name,
                    _local_body(ctx, stage, share, slots, i, transforms=k == 0),
                )
                for k in range(n_chunks)
            ]
        else:
            bodies = [(stage.name, _chain_body(ctx, unit, stage, slots, i))]
        outs = tuple((unit.key, i, k) for k in range(len(bodies)))
        for (name, body), out in zip(bodies, outs):
            task = rt.submit(f"{name}:{unit.key}", body, ins=regions, outs=(out,))
        regions = outs
    return task


def _local_body(ctx: FftPhaseContext, stage, share: float, slots: list, i: int, transforms: bool):
    """One chunk of a ``local`` stage: its share of the compute, and (one
    chunk only) the out-of-place transform of slot ``i`` into slot ``i+1``."""

    def body(worker):
        yield ctx.rank.compute(stage.phase, share, thread=worker.thread_index)
        if transforms and slots[i] is not None:
            slots[i + 1] = apply_local(ctx, stage, slots[i], in_place=False)

    return body


def _chain_body(ctx: FftPhaseContext, unit: Unit, stage, slots: list, i: int):
    """A non-local stage as one task: the linear stage body, slot to slot."""

    def body(worker):
        slots[i + 1] = yield from run_stages(
            ctx, unit, (stage,), slots[i],
            thread=worker.thread_index, mark_completed=False,
        )

    return body


# -- depth-2 issue/wait -------------------------------------------------------


def _pipelined(ctx: FftPhaseContext, units: list[Unit], span):
    """Software pipelining over non-blocking collectives.

    With the chain cut at its two exchanges into A | Sfw | B | Sbw | C, the
    schedule per rank is::

        A(0); issue Sfw(0)
        for it:
            A(it+1)                 # overlaps Sfw(it)'s transfer
            wait Sfw(it); B(it)
            issue Sbw(it); issue Sfw(it+1)
            wait Sbw(it); C(it)     # Sfw(it+1) still in flight

    In the simulator "issuing" a collective is joining it without yielding
    the returned event — the transfer progresses through the fluid network
    while the rank computes.  Each exchange's marshalling compute is charged
    half before the issue and half after the wait.  Iteration ``it+1``'s
    pack Alltoallv completes while ``Sfw(it)`` may still be in flight, which
    is exactly why per-unit keys (not call order) match the collectives.
    """
    if not units:
        return
    chain = ctx.chain
    i_fw, i_bw = (i for i, stage in enumerate(chain) if stage.kind == "exchange")
    a, fw, b, bw, c = chain[:i_fw], chain[i_fw], chain[i_fw + 1 : i_bw], chain[i_bw], chain[i_bw + 1 :]

    def marshal(stage):
        return ctx.rank.compute(stage.phase, 0.5 * ctx.budgets[stage.name])

    with span("prologue", "pipeline-step"):
        group = yield from run_stages(ctx, units[0], a)
        yield marshal(fw)
    fw_event, fw_planes = issue_exchange(ctx, units[0], fw, group)

    for unit, following in zip(units, units[1:] + [None]):
        with span(f"iteration {unit.index}", "iteration", bands=unit.bands):
            if following is not None:
                next_group = yield from run_stages(ctx, following, a)

            yield fw_event
            finish_exchange(ctx, unit, fw_planes)
            yield marshal(fw)
            planes = yield from run_stages(ctx, unit, b, fw_planes)

            yield marshal(bw)
            bw_event, group = issue_exchange(ctx, unit, bw, planes)
            if following is not None:
                yield marshal(fw)
                fw_event, fw_planes = issue_exchange(ctx, following, fw, next_group)

            yield bw_event
            finish_exchange(ctx, unit, group)
            yield marshal(bw)
            yield from run_stages(ctx, unit, c, group)
