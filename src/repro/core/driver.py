"""Driver: configuration -> simulated machine -> executed FFT phase.

:func:`run_fft_phase` assembles the full stack for one
:class:`~repro.core.config.RunConfig`:

1. geometry (cell, descriptor, R x T layout) and the cost model;
2. the simulated machine — ``n_nodes`` KNL nodes, one for the paper's
   testbed (CPU contention model + network) — and the MPI world with the
   version's thread placement;
3. the two communicator layers (created at setup time, before the measured
   phase — as FFTXlib builds its communicators during initialization);
4. deterministic wavefunction/potential data (data mode) or size-only
   bookkeeping (meta mode);
5. the version's scheduling policy over the step chain on every rank
   (:func:`repro.core.schedule.make_program`).

The returned :class:`RunResult` carries the phase runtime, the machine
counters, and (in data mode) the run's one output array plus a
:meth:`RunResult.validate` that checks it against the dense reference.
A data-mode run holds one input and one output array, ``(n_complex_bands,
ngw)`` each: every rank gathers one unit's G-vectors out of the input rows
and the unpack exchange writes them straight into the output rows, so no
rank keeps coefficients beyond the unit in flight.  It holds one potential
too: every rank's VOFR reads its share through a view.

Resilience: with a :class:`~repro.faults.FaultScenario` on the config (or
passed as ``faults=``) the driver runs inside an *attempts loop*.  Each
attempt simulates on a fresh machine; when injected faults escalate to a
:class:`~repro.faults.FaultError` the driver checkpoints the work units
whose full chain completed on every rank (in data mode their rows of the
output array are final and simply stay), and — while
``scenario.max_resumes`` allows — resumes the executor at the first
unfinished unit.  The accumulated
:class:`~repro.faults.FaultReport` lands on ``RunResult.fault_report``;
an unrecoverable run ends with ``RunResult.failed`` set, never a hang or
a bare traceback.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as _t
import warnings

import numpy as np

from repro import telemetry as _telemetry
from repro.core.config import RunConfig
from repro.core.pipeline import CostConstants, CostModel, FftPhaseContext
from repro.core.schedule import make_program
from repro.core.validate import dense_reference, max_relative_error
from repro.core.wave import (
    make_band_coefficients,
    make_potential,
    potential_block,
    potential_slab,
)
from repro.core.workspace import aggregate_stats, layout_workspaces, workspace_for
from repro.faults.injector import FaultError, FaultInjector
from repro.faults.plan import FaultScenario
from repro.grids import Cell, DistributedLayout, FftDescriptor
from repro.machine import CpuModel, KnlParameters, knl_phase_table, knl_topology
from repro.machine.cluster import ClusterTopology
from repro.mpisim import MpiWorld, NetworkModel
from repro.simkit import Simulator

__all__ = ["RunResult", "run_fft_phase", "trace_run", "build_geometry"]


@functools.lru_cache(maxsize=32)
def build_geometry(
    alat: float,
    ecutwfc: float,
    dual: float,
    scatter: int,
    groups: int,
    decomposition: str = "slab",
) -> tuple[Cell, FftDescriptor, DistributedLayout]:
    """Cell + stick map + R x T layout for one workload.

    Building the descriptor (a per-column count of the sphere's points) and
    the layout (stick ownership, group offsets) is the expensive part of a
    run's setup and depends only on these six scalars.  All three objects
    are immutable after construction, so they are cached per process — a
    sweep worker executing many points of the same workload pays the
    construction once instead of once per point.  The descriptor's G-level
    tables (sphere, grid indices, ``stick_of_g``) are built on the first
    data-mode read and cached with it; a meta-mode run never builds them.
    """
    cell = Cell(alat=alat)
    desc = FftDescriptor(cell, ecutwfc=ecutwfc, dual=dual)
    layout = DistributedLayout(desc, scatter, groups, decomposition=decomposition)
    return cell, desc, layout


@dataclasses.dataclass
class RunResult:
    """Outcome of one simulated FFT phase.

    In data mode a result holds the run's input and output arrays
    (``(n_complex_bands, ngw)`` each), plus the potential only when the
    caller passed one in: a generated potential is not kept past the run,
    and :attr:`potential` rebuilds it on access.  The ranks' contexts, and
    the views of V they applied, are gone when the run returns.
    """

    config: RunConfig
    phase_time: float
    sim: Simulator
    world: MpiWorld
    cpu: CpuModel
    desc: FftDescriptor
    layout: DistributedLayout
    #: Per layout process, the bands whose full chain finished there (the
    #: ranks' contexts, with their data, are not kept past the run).
    completed: dict[int, frozenset[int]]
    input_coeffs: np.ndarray | None
    #: The potential the caller passed in (held, and returned by
    #: :attr:`potential`, by identity); ``None`` when the run generated it.
    caller_potential: np.ndarray | None
    #: The run's ``(n_complex_bands, ngw)`` output array (data mode); read
    #: it through :meth:`output_coefficients`, which checks it is complete.
    output_coeffs: np.ndarray | None = None
    #: Machine calibration the run used (exported into the run manifest).
    knl: KnlParameters | None = None
    #: The run's telemetry session, or ``None`` when telemetry was off.
    telemetry: _telemetry.Telemetry | None = None
    #: Injection/recovery record (:meth:`FaultReport.to_dict`), or ``None``
    #: for a fault-free run.
    fault_report: dict | None = None
    #: Whether the run ended unrecovered (resume budget exhausted).  The
    #: result then carries the partial state and the fault report; outputs
    #: are incomplete.
    failed: bool = False
    #: Driver attempts simulated (1 = no resume was needed).
    n_attempts: int = 1
    #: Data-plane arena statistics for this run (acquire/release deltas plus
    #: resident-byte gauges), or ``None`` for meta mode.
    dataplane: dict | None = None
    #: Autotuner resolution record (mode, digest, hit, applied knobs,
    #: predicted vs. measured score), or ``None`` with ``tuning="off"``.
    tuning: dict | None = None

    def output_coefficients(self) -> np.ndarray:
        """The run's output coefficients (data mode only), once every
        process has completed every band; raises ``ValueError`` naming the
        first band some process never produced."""
        if self.output_coeffs is None:
            raise RuntimeError("outputs exist only in data mode")
        for band in range(self.config.n_complex_bands):
            for p in range(self.layout.P):
                if band not in self.completed.get(p, ()):
                    raise ValueError(
                        f"band {band} was never produced on process {p}"
                    )
        return self.output_coeffs

    @property
    def potential(self) -> np.ndarray | None:
        """The potential ``V[iz, ix, iy]`` the run applied (``None`` in meta
        mode).  A caller's array is returned as passed in; a generated one
        is rebuilt on each access from ``(desc.grid_shape, config.seed)``,
        bit for bit the array the run applied (one uniform draw, ~9 ms on
        the paper grid)."""
        if self.caller_potential is not None:
            return self.caller_potential
        if self.input_coeffs is None:
            return None
        return make_potential(self.desc.grid_shape, self.config.seed)

    def validate(self) -> float:
        """Max relative error of the distributed result vs. the dense reference."""
        if self.input_coeffs is None:
            raise RuntimeError("validation requires data mode")
        reference = dense_reference(self.desc, self.input_coeffs, self.potential)
        return max_relative_error(self.output_coefficients(), reference)

    @property
    def average_ipc(self) -> float:
        """Compute-weighted average IPC over all streams (Table I/II metric)."""
        return self.cpu.counters.average_ipc()


def run_fft_phase(
    config: RunConfig,
    knl: KnlParameters | None = None,
    cost_constants: CostConstants | None = None,
    input_coeffs: np.ndarray | None = None,
    potential: np.ndarray | None = None,
    telemetry: _telemetry.Telemetry | None = None,
    faults: FaultScenario | None = None,
    trace: _telemetry.Trace | None = None,
) -> RunResult:
    """Run one configuration to completion on a fresh simulated node.

    ``input_coeffs`` (``(n_complex_bands, ngw)``) and ``potential``
    (``V[iz, ix, iy]``) override the generated data — this is how a caller
    applies the kernel's operator to its *own* wavefunctions (today only
    tests do: driver validation, one copy, rebuilt potential); both require
    ``config.data_mode``.

    ``telemetry`` installs the given session for the duration of the run;
    without it, ``config.telemetry`` creates a fresh enabled session, and
    otherwise an enabled session that is already current (installed with
    ``repro.telemetry.session()``) becomes the run's.  The session used (if
    any) is returned on ``RunResult.telemetry``.

    A run records its compute, MPI and task records into one
    :class:`~repro.telemetry.Trace`: the session's ``trace`` when that
    session is enabled, else ``trace`` if the caller passes one, else
    nowhere.  Passing ``trace`` to a run whose session is enabled raises
    ``ValueError`` before anything is built; :func:`trace_run` picks the
    right one.

    ``faults`` overrides ``config.faults``; with a scenario active the
    driver checkpoints and resumes as described in the module docstring.
    """
    tel = _session(config, telemetry)
    if tel is not None and tel.enabled:
        if trace is not None:
            raise ValueError(
                "run_fft_phase: trace= and an enabled telemetry session would "
                "both record the run; drop trace= and read telemetry.trace"
            )
        trace = tel.trace
    knl = knl or KnlParameters()
    tuning_info: dict | None = None
    if config.tuning != "off":
        # Lazy import: tuning=off (the default) never touches the tuner, so
        # the hot path pays one string comparison.  Resolution happens once,
        # up front, and only swaps knob values on the config — everything
        # downstream (geometry, machine, executor) sees an ordinary config,
        # which is what makes consult-vs-off timings byte-identical by
        # construction for the same resolved knobs.
        from repro.tuning import resolve_tuning

        config, tuning_info = resolve_tuning(config, knl)
    if (input_coeffs is not None or potential is not None) and not config.data_mode:
        raise ValueError("caller-provided data requires data_mode=True")
    scenario = faults if faults is not None else config.faults
    injector = FaultInjector(scenario, config.seed) if scenario is not None else None

    # 1. Geometry and costs (geometry cached per process; see build_geometry).
    _cell, desc, layout = build_geometry(
        config.alat, config.ecutwfc, config.dual,
        config.layout_scatter, config.layout_groups,
        config.decomposition,
    )
    cost = CostModel(layout, cost_constants)

    # 2. Data (caller-provided arrays pass through; see the docstring).
    #    One output array per run, allocated before the attempts loop: a
    #    resumed attempt leaves the rows of completed bands as they are.
    output_coeffs: np.ndarray | None = None
    v_slabs: list[np.ndarray] | None = None
    caller_potential: np.ndarray | None = None
    if not config.data_mode:
        input_coeffs = None
        potential = None
    if config.data_mode:
        if input_coeffs is None:
            input_coeffs = make_band_coefficients(
                desc.ngw, config.n_complex_bands, config.seed
            )
        else:
            input_coeffs = np.ascontiguousarray(input_coeffs, dtype=np.complex128)
            expected = (config.n_complex_bands, desc.ngw)
            if input_coeffs.shape != expected:
                raise ValueError(
                    f"input_coeffs shape {input_coeffs.shape}; expected {expected}"
                )
        # Uninitialised: output_coefficients() hands it out only once every
        # process has written every band's rows.
        output_coeffs = np.empty_like(input_coeffs)
        if potential is None:
            potential = make_potential(desc.grid_shape, config.seed)
        else:
            potential = caller_potential = np.asarray(potential, dtype=float)
            expected_v = (desc.nr3, desc.nr1, desc.nr2)
            if potential.shape != expected_v:
                raise ValueError(
                    f"potential shape {potential.shape}; expected {expected_v}"
                )
        # Every rank applies a view of the one V, which goes with the run.
        if layout.decomposition == "pencil":
            # Pencil VOFR runs on the x-brick, not the plane slab.
            v_slabs = [potential_block(layout, r, potential) for r in range(layout.R)]
        else:
            v_slabs = [potential_slab(layout, r, potential) for r in range(layout.R)]

    # The kernel engine: one per run, shared by every rank context, so its
    # executable cache stays warm across bands.  Meta-mode runs execute no
    # kernels, build none and never import the module.
    kernel_engine = None
    if config.data_mode:
        from repro.fft.backends.engine import KernelEngine

        kernel_engine = KernelEngine()

    # Data-plane arenas: per-(layout, process) pools shared across runs of
    # one workload.  Snapshot before the attempts loop so the run's manifest
    # reports this run's deltas, not the layout-lifetime totals.
    dataplane_before: dict[str, int] | None = None
    if config.data_mode:
        existing = layout_workspaces(layout)
        for ws in existing.values():
            ws.begin_run()
        dataplane_before = aggregate_stats(existing.values())

    # Checkpoint bookkeeping.  A "unit" is the outer-loop step: T bands —
    # one iteration with task groups on, one band with them off.  After a
    # failed attempt the driver keeps the units whose full chain finished on
    # every rank and resumes at the first other one.
    T = config.layout_groups
    n_units = config.n_iterations

    def unit_bands(u: int) -> range:
        return range(u * T, (u + 1) * T)

    completed_bands: set[int] = set()
    units_done = 0
    max_attempts = 1 + (scenario.max_resumes if scenario is not None else 0)
    total_time = 0.0
    failed = False
    last_error: str | None = None
    n_attempts = 0

    for attempt in range(1, max_attempts + 1):
        n_attempts = attempt

        # 3. Machine + world (fresh per attempt; the injector persists).
        # One machine for every node count: a single node is n = 1.
        sim = Simulator()
        topo = ClusterTopology(knl_topology(knl), config.n_nodes)
        cpu = CpuModel(
            sim,
            topo,
            knl_phase_table(),
            bandwidth_bytes_per_s=knl.mem_bandwidth,
            jitter=knl.compute_jitter,
            jitter_seed=knl.jitter_seed,
            bandwidth_rampup_max=knl.mem_bw_rampup_max,
            bandwidth_rampup_half=knl.mem_bw_rampup_half,
        )
        tpr = config.threads_per_rank
        if config.spec.threads == "hyperthreads":
            placement = topo.place_grouped(config.total_streams, tpr)
        else:
            placement = topo.place(config.total_streams)
        network = NetworkModel(
            sim,
            capacity=knl.net_capacity,
            injection_bw=knl.net_injection_bw,
            latency=knl.net_latency,
            # A rank lives on the node of its first hardware thread.
            node_of=[placement[r * tpr].node for r in range(config.n_mpi_ranks)],
            inter_capacity=knl.fabric_injection_bw * max(config.n_nodes / 2.0, 1.0),
            inter_injection_bw=knl.fabric_injection_bw,
            inter_latency=knl.fabric_latency,
        )
        world = MpiWorld(
            sim,
            cpu,
            network,
            n_ranks=config.n_mpi_ranks,
            threads_per_rank=tpr,
            placement=placement,
        )
        if injector is not None:
            cpu.faults = injector
            network.faults = injector
            world.faults = injector
            injector.bind(sim, attempt)
        # The one recorder: the world's task runtimes read it from the world.
        cpu.trace = world.trace = trace

        # 4. Communicator layers (setup time, unmeasured — like FFTXlib init).
        pack_comms = (
            [world.register_comm(layout.pack_group(r), f"pack{r}") for r in range(layout.R)]
            if layout.T > 1
            else None
        )
        scatter_comms = [
            world.register_comm(layout.scatter_group(t), f"scatter{t}")
            for t in range(layout.T)
        ]
        # Pencil transpose communicators: per task group, one row comm per
        # grid row (Pc members, the z<->y transpose) and one column comm per
        # grid column (Pr members, the y<->x transpose).  Single trailing
        # digit run in the name so comm_layer aggregates them per layer.
        row_comms: dict[tuple[int, int], _t.Any] = {}
        col_comms: dict[tuple[int, int], _t.Any] = {}
        if layout.decomposition == "pencil":
            grid = layout.pencil
            assert grid is not None
            for t in range(layout.T):
                for i in range(grid.Pr):
                    members = [
                        layout.proc_of(grid.rank_of(i, jj), t)
                        for jj in range(grid.Pc)
                    ]
                    row_comms[(t, i)] = world.register_comm(
                        members, f"pencil_row{t * grid.Pr + i}"
                    )
                for jj in range(grid.Pc):
                    members = [
                        layout.proc_of(grid.rank_of(i, jj), t)
                        for i in range(grid.Pr)
                    ]
                    col_comms[(t, jj)] = world.register_comm(
                        members, f"pencil_col{t * grid.Pc + jj}"
                    )

        contexts: dict[int, FftPhaseContext] = {}

        def ctx_of(
            rank,
            _contexts=contexts,
            _pack_comms=pack_comms,
            _scatter_comms=scatter_comms,
            _row_comms=row_comms,
            _col_comms=col_comms,
        ) -> FftPhaseContext:
            p = rank.rank
            if p not in _contexts:
                r, t = layout.rt_of(p)
                row_comm = col_comm = None
                if layout.decomposition == "pencil":
                    assert layout.pencil is not None
                    i, j = layout.pencil.coords(r)
                    row_comm = _row_comms[(t, i)]
                    col_comm = _col_comms[(t, j)]
                ctx = FftPhaseContext(
                    rank=rank,
                    layout=layout,
                    cost=cost,
                    pack_comm=_pack_comms[r] if _pack_comms is not None else None,
                    scatter_comm=_scatter_comms[t],
                    coeffs_in=input_coeffs,
                    coeffs_out=output_coeffs,
                    v_slab=v_slabs[r] if v_slabs is not None else None,
                    workspace=workspace_for(layout, p) if config.data_mode else None,
                    kernels=kernel_engine,
                    row_comm=row_comm,
                    col_comm=col_comm,
                )
                # Resumed attempt: restore the checkpoint frontier.
                ctx.completed.update(completed_bands)
                _contexts[p] = ctx
            return _contexts[p]

        # 5. The version's program, starting past the checkpointed units.
        program = make_program(ctx_of, config, units_done)
        n_spans_before = len(tel.spans) if tel is not None else 0

        previous = _telemetry.install(tel) if tel is not None else None
        try:
            world.launch(program)
            attempt_time = world.run()
        except FaultError as err:
            assert injector is not None  # only injection raises FaultError
            attempt_time = sim.now
            total_time += attempt_time
            if tel is not None:
                # The killed rank/task generators never leave their span
                # blocks: end what this attempt left open where it died, so
                # analysis and exports see a complete tree.
                for span in tel.spans.all()[n_spans_before:]:
                    if span.t_end is None:
                        tel.spans.end(span, attempt_time)
            # The dead attempt's blocked work and its owners refer to each
            # other, and the error's traceback holds its frames: close the
            # world and drop the traceback (the report keeps the error as
            # text), so the attempt is freed by reference counting alone.
            world.close()
            err.__traceback__ = None
            units_done = _completed_units(contexts, n_units, unit_bands)
            for u in range(units_done):
                completed_bands.update(unit_bands(u))
            last_error = f"{type(err).__name__}: {err}"
            injector.report.attempt_done(attempt_time, units_done, last_error)
            if attempt < max_attempts:
                injector.record(
                    "resume", next_attempt=attempt + 1, resume_unit=units_done
                )
                continue
            failed = True
            break
        finally:
            if tel is not None:
                _telemetry.install(previous)
                tel.fold_records()
        total_time += attempt_time
        units_done = n_units
        if injector is not None:
            injector.report.attempt_done(attempt_time, n_units, None)
        break

    fault_report: dict | None = None
    if injector is not None:
        injector.report.recovered = not failed
        injector.report.failure = last_error if failed else None
        fault_report = injector.report.to_dict()

    dataplane: dict | None = None
    if config.data_mode:
        dataplane = _dataplane_summary(
            dataplane_before or {},
            aggregate_stats(layout_workspaces(layout).values()),
        )
        dataplane["decomposition"] = layout.decomposition
        if dataplane["workspace_leaks"] > 0:
            warnings.warn(
                f"run leaked {dataplane['workspace_leaks']} workspace "
                "checkout(s): buffers were garbage-collected without a "
                "release (arena bleed; harmless once, a drift across "
                "the many runs a sweep worker makes on one workload)",
                ResourceWarning,
                stacklevel=2,
            )
        # Kernel counters ride the dataplane section (and thus the
        # dataplane.* gauges): calls and rows.
        dataplane.update(kernel_engine.stats())

    if tuning_info is not None:
        tuning_info["measured_s"] = total_time

    if tel is not None and tel.enabled:
        _record_run_summary(
            tel, config, cpu, sim, total_time, injector, world=world,
            dataplane=dataplane, tuning=tuning_info,
        )

    return RunResult(
        config=config,
        phase_time=total_time,
        sim=sim,
        world=world,
        cpu=cpu,
        desc=desc,
        layout=layout,
        completed={p: frozenset(contexts[p].completed) for p in sorted(contexts)},
        input_coeffs=input_coeffs,
        caller_potential=caller_potential,
        output_coeffs=output_coeffs,
        knl=knl,
        telemetry=tel,
        fault_report=fault_report,
        failed=failed,
        n_attempts=n_attempts,
        dataplane=dataplane,
        tuning=tuning_info,
    )


def trace_run(
    config: RunConfig, **run_kwargs: _t.Any
) -> tuple[RunResult, _telemetry.Trace]:
    """Run ``config`` and return ``(result, trace)``.

    The trace is the enabled session's (the same rule as
    :func:`run_fft_phase`), or a fresh :class:`~repro.telemetry.Trace`
    passed as ``trace=`` when the run has none; either way the run records
    each record once.
    """
    tel = _session(config, run_kwargs.pop("telemetry", None))
    if tel is not None and tel.enabled:
        return run_fft_phase(config, telemetry=tel, **run_kwargs), tel.trace
    trace = _telemetry.Trace()
    return run_fft_phase(config, telemetry=tel, trace=trace, **run_kwargs), trace


def _session(
    config: RunConfig, telemetry: _telemetry.Telemetry | None
) -> _telemetry.Telemetry | None:
    """The run's telemetry session: ``telemetry`` if given, a fresh enabled
    one for ``config.telemetry``, else the current session if enabled."""
    if telemetry is not None:
        return telemetry
    if config.telemetry:
        return _telemetry.Telemetry(enabled=True)
    if _telemetry.current().enabled:
        # ``with telemetry.session() as tel: run_fft_phase(config)``
        return _telemetry.current()
    return None


#: Arena counters reported as per-run deltas; the rest are state gauges.
_DATAPLANE_COUNTERS = (
    "acquires",
    "reuse_hits",
    "alloc_misses",
    "releases",
    "foreign_releases",
    "workspace_leaks",
)
_DATAPLANE_GAUGES = ("live", "live_peak", "pooled", "bytes_resident")


def _dataplane_summary(before: dict, after: dict) -> dict:
    """This run's arena activity: counter deltas + absolute byte gauges.

    ``allocations_avoided`` is the headline number — pool hits that would
    each have been an ``np.zeros``/``np.empty`` on the fresh-allocation
    path.  Note the hit/miss split depends on arena warmth (a cold first
    run misses where a warm rerun hits); the structural numbers (acquires,
    releases, live_peak, bytes_resident) are warmth-invariant.
    """
    out = {k: int(after.get(k, 0)) - int(before.get(k, 0)) for k in _DATAPLANE_COUNTERS}
    for k in _DATAPLANE_GAUGES:
        out[k] = int(after.get(k, 0))
    out["allocations_avoided"] = out["reuse_hits"]
    return out


def _completed_units(
    contexts: dict[int, FftPhaseContext],
    n_units: int,
    unit_bands: _t.Callable[[int], _t.Iterable[int]],
) -> int:
    """Units whose every band completed on every rank (checkpoint frontier)."""
    if not contexts:
        return 0
    common = set.intersection(*(ctx.completed for ctx in contexts.values()))
    done = 0
    while done < n_units and all(b in common for b in unit_bands(done)):
        done += 1
    return done


def _record_run_summary(
    tel: _telemetry.Telemetry,
    config: RunConfig,
    cpu: CpuModel,
    sim: Simulator,
    phase_time: float,
    injector: FaultInjector | None = None,
    world: MpiWorld | None = None,
    dataplane: dict | None = None,
    tuning: dict | None = None,
) -> None:
    """Close out a telemetry session: the run span and derived gauges."""
    tel.spans.add(
        "driver",
        "run",
        "run",
        0.0,
        phase_time,
        label=config.label(),
        version=config.version,
    )
    counters = cpu.counters
    phases = sorted({p for s in counters.streams for p in counters.phases(s)})
    for phase in phases:
        tel.metrics.set_gauge(
            "machine.effective_ipc", counters.phase_ipc(phase), phase=phase
        )
    tel.metrics.set_gauge("machine.average_ipc", counters.average_ipc())
    tel.metrics.set_gauge("sim.events_dispatched", float(sim.n_dispatched))
    tel.metrics.set_gauge("run.phase_seconds", phase_time)
    engine_sources = [("cpu", cpu.engine_stats())]
    if world is not None:
        engine_sources.append(("network", world.network.engine_stats()))
    for resource, stats in engine_sources:
        for name, value in stats.items():
            tel.metrics.set_gauge(f"engine.{name}", float(value), resource=resource)
    if dataplane is not None:
        for name, value in dataplane.items():
            # decomposition is a string label; only numeric entries gauge.
            if isinstance(value, (int, float)):
                tel.metrics.set_gauge(f"dataplane.{name}", float(value))
    if tuning is not None:
        tel.metrics.set_gauge("tuning.hit", float(bool(tuning.get("hit"))))
        for name in ("score", "predicted_s", "measured_s"):
            value = tuning.get(name)
            if isinstance(value, (int, float)):
                tel.metrics.set_gauge(f"tuning.{name}", float(value))
    if injector is not None:
        report = injector.report
        tel.metrics.set_gauge("faults.injected", float(report.n_injected))
        tel.metrics.set_gauge("faults.recovered_events", float(report.n_recovered))
        tel.metrics.set_gauge("faults.attempts", float(len(report.attempts)))
        t0 = 0.0
        for i, a in enumerate(report.attempts, start=1):
            tel.spans.add(
                "faults",
                f"attempt {i}",
                "attempt",
                t0,
                t0 + a["phase_time_s"],
                completed_units=a["completed_units"],
                error=a["error"],
            )
            t0 += a["phase_time_s"]
        for s in injector.scenario.stragglers:
            tel.spans.add(
                "faults",
                f"straggler rank {s.rank}",
                "fault",
                0.0,
                phase_time,
                slowdown=s.slowdown,
            )

    # Derived analytics (read-only over the records above): the POP factor
    # decomposition, the timeline critical path and the task-graph view.
    # Stashed on the session so build_manifest embeds the same object, and
    # summarized as analysis.* gauges for metric-level consumers.
    from repro import analysis as _analysis

    tel.analysis = _analysis.analyze_session(tel, phase_time, counters=counters)
    tel.analysis.publish(tel.metrics)
