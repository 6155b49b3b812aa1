"""Run configuration: the paper's workload and execution-version knobs.

The paper's experiment family is described as ``N x 8`` (ranks x FFT task
groups) with the workload "plane wave energy cut off: 80, lattice parameter:
20, number of bands: 128, number of task groups: 8".  A :class:`RunConfig`
captures both the workload and how it is executed:

* ``version="original"`` — ``ranks * taskgroups`` single-threaded MPI
  processes; the two-layer MPI communication with ``taskgroups`` FFT task
  groups.
* ``version="ompss_perfft"`` — Opt 2: ``ranks`` MPI processes, each with
  ``taskgroups`` OmpSs worker threads replacing the task groups (ntg=1);
  one task per FFT.
* ``version="ompss_steps"`` — Opt 1: the original process grid, each process
  with 2 hyper-threaded workers so blocked communication tasks overlap with
  compute tasks of other iterations; per-step tasks + nested taskloops.
* ``version="ompss_combined"`` — future work (§VI): per-band chains of step
  tasks on the Opt 2 mapping.
* ``version="pipelined"`` — a non-task overlap baseline: the original
  process grid with depth-2 software pipelining over non-blocking
  collectives (what careful MPI code does without a task runtime).

128 *real* bands are packed pairwise into 64 complex FFT fields (the
standard Gamma-point trick; the paper's trace shows exactly "the 64 FFTs ...
executed with 8 FFTs at the same time").
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultScenario

__all__ = ["RunConfig", "Version", "VersionSpec", "VERSIONS", "VERSION_TABLE"]

Version = _t.Literal[
    "original", "pipelined", "ompss_perfft", "ompss_steps", "ompss_combined"
]


@dataclasses.dataclass(frozen=True)
class VersionSpec:
    """How one ``version`` maps the workload onto processes, threads and a
    scheduling policy — the only place the five versions differ."""

    #: Process grid.  ``True``: ``ranks * taskgroups`` MPI processes with the
    #: two-layer (pack + scatter) communication, T = ``taskgroups`` bands per
    #: outer-loop iteration — the checkpoint unit is an *iteration*.
    #: ``False``: ``ranks`` processes, task groups off (T = 1) — the unit is
    #: a *band*.
    task_groups: bool
    #: Hardware threads per process: ``"one"`` (no task runtime),
    #: ``"hyperthreads"`` (``steps_workers`` OmpSs workers on the process's
    #: own core, grouped placement) or ``"taskgroups"`` (``taskgroups``
    #: workers replacing the task groups).
    threads: str
    #: How :mod:`repro.core.schedule` drives the step chain: ``"linear"``,
    #: ``"staged"`` or ``"pipelined"``.
    policy: str


#: version -> (process grid, threads, policy); T and the checkpoint unit
#: follow from the process grid.
VERSION_TABLE: dict[str, VersionSpec] = {
    "original": VersionSpec(task_groups=True, threads="one", policy="linear"),
    "pipelined": VersionSpec(task_groups=True, threads="one", policy="pipelined"),
    "ompss_perfft": VersionSpec(task_groups=False, threads="taskgroups", policy="linear"),
    "ompss_steps": VersionSpec(task_groups=True, threads="hyperthreads", policy="staged"),
    "ompss_combined": VersionSpec(task_groups=False, threads="taskgroups", policy="staged"),
}

VERSIONS: tuple[str, ...] = tuple(VERSION_TABLE)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Workload + execution parameters of one FFT-phase run."""

    #: Wave-function cutoff in Rydberg (paper: 80).
    ecutwfc: float = 80.0
    #: Lattice parameter in Bohr (paper: 20).
    alat: float = 20.0
    #: Number of real bands (paper: 128; must be even — bands pack in pairs).
    nbnd: int = 128
    #: FFT task groups / OmpSs threads (paper: 8).
    taskgroups: int = 8
    #: First-layer MPI ranks (the "N" of "N x 8").
    ranks: int = 1
    #: Which executor to run.
    version: str = "original"
    #: Move real numpy payloads (tests/validation) or metadata only (sweeps).
    data_mode: bool = False
    #: Grid-to-wave cutoff ratio (QE dual).
    dual: float = 4.0
    #: OmpSs scheduler policy for the task versions.
    scheduler: str = "fifo"
    #: Per-task dispatch overhead (seconds).
    task_overhead: float = 3.0e-6
    #: Workers per process for the per-step version (hyper-thread slots).
    steps_workers: int = 2
    #: Taskloop grainsize for the xy-plane loops (paper: 10).
    grainsize_xy: int = 10
    #: Taskloop grainsize for the z-stick loops (paper: 200).
    grainsize_z: int = 200
    #: Seed for the deterministic wavefunction/potential data.
    seed: int = 2017
    #: KNL nodes (1 = the paper's single-node testbed; >1 adds the
    #: inter-node fabric and per-node contention domains).
    n_nodes: int = 1
    #: Suspend tasks blocked in MPI and run others meanwhile (the hybrid
    #: MPI/SMPSs technique of the paper's ref. [11]).  ``None`` keeps each
    #: version's default: on for the overlap-oriented per-step/combined
    #: executors (without it their blocking collectives can strand every
    #: worker), off for per-FFT tasks (the paper lists it as future work).
    task_switching: bool | None = None
    #: Record telemetry (metrics, spans, compute/MPI/task trace) during the
    #: run.  Off by default: instrumented call sites then cost a single
    #: attribute check — see :mod:`repro.telemetry`.
    telemetry: bool = False
    #: Deterministic fault scenario (:class:`repro.faults.FaultScenario`)
    #: or ``None`` for a fault-free run.  With ``None`` every injection
    #: hook reduces to one attribute check, so baselines are untouched.
    faults: "FaultScenario | None" = None
    #: Real-space decomposition over the R scatter ranks of each task
    #: group: ``"slab"`` (the paper's z-plane scheme, scaling-limited by
    #: ``nr3``) or ``"pencil"`` (a Pr x Pc processor grid with two
    #: row/column-internal transposes — see :mod:`repro.grids.pencil`).
    decomposition: str = "slab"
    #: Autotuner mode (:mod:`repro.tuning`): ``"off"`` (default; zero
    #: overhead — the driver never imports the tuner), ``"consult"`` (look
    #: the workload digest up in the wisdom DB and apply the stored knob
    #: vector on a hit; run unchanged on a miss) or ``"search"`` (consult,
    #: and on a miss run the cost-model-guided search, persist the winner,
    #: then run with it).
    tuning: str = "off"
    #: Path of the wisdom database (append-only JSONL).  ``None`` uses
    #: :func:`repro.tuning.default_wisdom_path` (``$REPRO_WISDOM``, else
    #: ``./wisdom.jsonl``).
    wisdom_path: str | None = None
    #: Per-link capacity of the inter-node fabric contention model (B/s per
    #: directed node pair), or ``None`` (default) for the aggregate-capacity
    #: model — the pre-existing path, pinned bit-identical.  Only multi-node
    #: runs read it; it is part of the autotuner's machine-profile digest.
    link_capacity: float | None = None

    def __post_init__(self) -> None:
        if self.version not in VERSION_TABLE:
            raise ValueError(f"unknown version {self.version!r}; choose from {VERSIONS}")
        if self.nbnd < 2 or self.nbnd % 2:
            raise ValueError(f"nbnd must be even and >= 2, got {self.nbnd}")
        if self.ranks < 1:
            raise ValueError(f"ranks must be >= 1, got {self.ranks}")
        if self.taskgroups < 1:
            raise ValueError(f"taskgroups must be >= 1, got {self.taskgroups}")
        if self.n_complex_bands % self.bands_in_flight:
            raise ValueError(
                f"nbnd/2 = {self.n_complex_bands} complex bands must divide evenly "
                f"into groups of {self.bands_in_flight}"
            )
        if self.steps_workers < 1:
            raise ValueError(f"steps_workers must be >= 1, got {self.steps_workers}")
        if self.grainsize_xy < 1 or self.grainsize_z < 1:
            raise ValueError("grainsizes must be >= 1")
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.n_mpi_ranks % self.n_nodes:
            raise ValueError(
                f"{self.n_mpi_ranks} MPI ranks do not distribute evenly over "
                f"{self.n_nodes} nodes"
            )
        if self.decomposition not in ("slab", "pencil"):
            raise ValueError(
                f"decomposition must be 'slab' or 'pencil', got {self.decomposition!r}"
            )
        if self.tuning not in ("off", "consult", "search"):
            raise ValueError(
                f"tuning must be 'off', 'consult' or 'search', got {self.tuning!r}"
            )
        for field, rule, holds in (
            ("ecutwfc", "> 0", self.ecutwfc > 0),
            ("alat", "> 0", self.alat > 0),
            ("dual", ">= 1", self.dual >= 1),
            ("task_overhead", ">= 0", self.task_overhead >= 0),
            ("link_capacity", "> 0",
             self.link_capacity is None or self.link_capacity > 0),
        ):
            value = getattr(self, field)
            # NaN fails every comparison above; infinity needs isfinite.
            if not holds or (value is not None and not math.isfinite(value)):
                raise ValueError(f"{field} must be finite and {rule}, got {value!r}")

    # -- derived quantities ----------------------------------------------------

    @property
    def n_complex_bands(self) -> int:
        """Complex FFT fields after pairwise band packing (paper: 64)."""
        return self.nbnd // 2

    @property
    def spec(self) -> VersionSpec:
        """This version's row of :data:`VERSION_TABLE`."""
        return VERSION_TABLE[self.version]

    @property
    def is_task_version(self) -> bool:
        """Whether an OmpSs task runtime executes this config."""
        return self.spec.threads != "one"

    @property
    def n_mpi_ranks(self) -> int:
        """MPI processes launched."""
        return self.ranks * self.layout_groups

    @property
    def threads_per_rank(self) -> int:
        """Hardware threads each MPI process owns."""
        return {
            "one": 1,
            "hyperthreads": self.steps_workers,
            "taskgroups": self.taskgroups,
        }[self.spec.threads]

    @property
    def layout_scatter(self) -> int:
        """R of the R x T data layout (scatter-group width)."""
        return self.ranks

    @property
    def layout_groups(self) -> int:
        """T of the R x T data layout (1 with task groups off)."""
        return self.taskgroups if self.spec.task_groups else 1

    @property
    def effective_task_switching(self) -> bool:
        """The MPI-task-switching setting after version defaults: on for
        the staged policy (one task per exchange — without it blocking
        collectives can strand every worker), off otherwise."""
        if self.task_switching is not None:
            return self.task_switching
        return self.spec.policy == "staged"

    @property
    def bands_in_flight(self) -> int:
        """Complex bands processed per outer-loop iteration."""
        return self.layout_groups

    @property
    def n_iterations(self) -> int:
        """Outer-loop trip count (``DO I = 1, NB, NTG``)."""
        return self.n_complex_bands // self.bands_in_flight

    @property
    def total_streams(self) -> int:
        """Hardware threads the run occupies on the node."""
        return self.n_mpi_ranks * self.threads_per_rank

    def label(self) -> str:
        """Short display label, e.g. ``'8x8 original'``."""
        return f"{self.ranks}x{self.taskgroups} {self.version}"
