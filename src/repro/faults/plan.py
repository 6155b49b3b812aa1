"""Fault scenarios: the declarative model of what goes wrong, and when.

A :class:`FaultScenario` describes a deterministic perturbation of the
simulated machine — which ranks straggle, how noisy the cores are, which
links degrade or drop messages, how often tasks fail — plus the resilience
budgets (retries, timeouts, resumes) the run may spend recovering.  It is a
frozen dataclass so it can live on :class:`~repro.core.config.RunConfig`
and be embedded verbatim in run manifests.

Scenarios round-trip through flat JSON (see ``docs/RESILIENCE.md`` for the
schema)::

    {
      "kind": "repro.fault_scenario",
      "name": "slow-rank0",
      "stragglers": [{"rank": 0, "slowdown": 2.0}],
      "os_noise": 0.02,
      "links": [{"bandwidth_factor": 0.7, "drop_probability": 0.01}],
      "mpi_max_retries": 3,
      "mpi_timeout_s": 0.05
    }

Validation is hand-rolled (like the run-manifest schema) so the repository
needs no jsonschema dependency; malformed input raises
:class:`ScenarioError` with a one-line message the CLI can surface.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import typing as _t

__all__ = [
    "SCENARIO_KIND",
    "ScenarioError",
    "Straggler",
    "LinkFault",
    "FaultScenario",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "dump_scenario",
]

SCENARIO_KIND = "repro.fault_scenario"


class ScenarioError(ValueError):
    """A fault scenario failed validation or could not be parsed."""


@dataclasses.dataclass(frozen=True)
class Straggler:
    """One persistently slow MPI rank.

    ``slowdown`` is the factor by which every compute phase on the rank's
    hardware threads stretches (2.0 = half speed); it must be >= 1.
    """

    rank: int
    slowdown: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ScenarioError(f"straggler rank must be >= 0, got {self.rank}")
        # A NaN or infinite slowdown would price the rank's phases at a NaN
        # or zero rate, and the run would end in a deadlock, not here.
        if not (math.isfinite(self.slowdown) and self.slowdown >= 1.0):
            raise ScenarioError(
                f"straggler slowdown must be finite and >= 1, got {self.slowdown}"
            )


@dataclasses.dataclass(frozen=True)
class LinkFault:
    """Degradation of one rank's injection link (or every link).

    ``rank=None`` is the default link fault applying to all ranks without a
    specific entry.  ``bandwidth_factor`` scales the link's effective
    bandwidth (0.5 = half speed); ``drop_probability`` is the per-transfer
    chance the message is lost and must be retried.
    """

    rank: int | None = None
    bandwidth_factor: float = 1.0
    drop_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.rank is not None and self.rank < 0:
            raise ScenarioError(f"link rank must be >= 0 or null, got {self.rank}")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ScenarioError(
                f"bandwidth_factor must be in (0, 1], got {self.bandwidth_factor}"
            )
        if not 0.0 <= self.drop_probability < 1.0:
            raise ScenarioError(
                f"drop_probability must be in [0, 1), got {self.drop_probability}"
            )


@dataclasses.dataclass(frozen=True)
class FaultScenario:
    """A complete, seed-reproducible fault-injection plan."""

    #: Display name (embedded in manifests and reports).
    name: str = "scenario"
    #: Scenario-local seed, combined with ``RunConfig.seed`` so the same
    #: scenario produces independent draws under different run seeds.
    seed: int = 0
    #: Persistently slow ranks.
    stragglers: tuple[Straggler, ...] = ()
    #: Relative amplitude of extra OS-noise slowdown on every compute phase
    #: (uniform in ``[0, os_noise]``); 0 disables.
    os_noise: float = 0.0
    #: Link degradation / message loss (at most one ``rank=None`` default).
    links: tuple[LinkFault, ...] = ()
    #: Per-completion probability that a finished OmpSs task is discarded
    #: and must re-execute.
    task_failure_rate: float = 0.0
    #: Cap on injected task failures (``None`` = unlimited) — lets a
    #: ``task_failure_rate`` of 1.0 model "fails exactly N times".
    task_max_failures: int | None = None
    #: Re-executions allowed per task before the run aborts.
    task_max_retries: int = 2
    #: Retransmissions allowed per transfer before the link is declared dead.
    mpi_max_retries: int = 3
    #: Base backoff before the first retransmission; doubles per attempt.
    mpi_retry_backoff_s: float = 2.0e-5
    #: Deadline for one logical transfer including retries (``None`` = no
    #: timeout).  Exceeding it raises ``MpiTimeoutError`` — surfaced in the
    #: fault report, never a hang.
    mpi_timeout_s: float | None = None
    #: Hard-fail the Nth transfer attempt (1-based, counted across the run;
    #: ``None`` = never).  A deterministic unrecoverable-failure injection
    #: for checkpoint/resume tests.
    kill_transfer: int | None = None
    #: Checkpoint resumes the driver may spend before giving up.
    max_resumes: int = 1

    def __post_init__(self) -> None:
        # JSON decoding hands us lists; normalise to hashable tuples.
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        object.__setattr__(self, "links", tuple(self.links))
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if self.seed < 0:
            raise ScenarioError(f"scenario seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.os_noise < 1.0:
            raise ScenarioError(f"os_noise must be in [0, 1), got {self.os_noise}")
        ranks = [s.rank for s in self.stragglers]
        if len(set(ranks)) != len(ranks):
            raise ScenarioError(f"duplicate straggler ranks: {sorted(ranks)}")
        link_ranks = [l.rank for l in self.links]
        if len(set(link_ranks)) != len(link_ranks):
            raise ScenarioError("duplicate link-fault ranks (at most one per rank, "
                                "at most one default)")
        if not 0.0 <= self.task_failure_rate <= 1.0:
            raise ScenarioError(
                f"task_failure_rate must be in [0, 1], got {self.task_failure_rate}"
            )
        if self.task_max_failures is not None and self.task_max_failures < 0:
            raise ScenarioError(
                f"task_max_failures must be >= 0 or null, got {self.task_max_failures}"
            )
        if self.task_max_retries < 0:
            raise ScenarioError(
                f"task_max_retries must be >= 0, got {self.task_max_retries}"
            )
        if self.mpi_max_retries < 0:
            raise ScenarioError(
                f"mpi_max_retries must be >= 0, got {self.mpi_max_retries}"
            )
        # Both become simulated delays: NaN or infinity must not reach the heap.
        if not (math.isfinite(self.mpi_retry_backoff_s) and self.mpi_retry_backoff_s >= 0):
            raise ScenarioError(
                f"mpi_retry_backoff_s must be finite and >= 0, "
                f"got {self.mpi_retry_backoff_s}"
            )
        if self.mpi_timeout_s is not None and not (
            math.isfinite(self.mpi_timeout_s) and self.mpi_timeout_s > 0
        ):
            raise ScenarioError(
                f"mpi_timeout_s must be finite and > 0 or null, got {self.mpi_timeout_s}"
            )
        if self.kill_transfer is not None and self.kill_transfer < 1:
            raise ScenarioError(
                f"kill_transfer must be >= 1 or null, got {self.kill_transfer}"
            )
        if self.max_resumes < 0:
            raise ScenarioError(f"max_resumes must be >= 0, got {self.max_resumes}")

    # -- which injection layers does this scenario touch? ----------------------

    @property
    def compute_active(self) -> bool:
        """Whether compute phases need a speed factor."""
        return bool(self.stragglers) or self.os_noise > 0.0

    @property
    def degrades_links(self) -> bool:
        """Whether any link runs below full bandwidth."""
        return any(l.bandwidth_factor < 1.0 for l in self.links)

    @property
    def guards_transfers(self) -> bool:
        """Whether transfers need the drop/retry/timeout envelope."""
        return (
            self.kill_transfer is not None
            or self.mpi_timeout_s is not None
            or any(l.drop_probability > 0.0 for l in self.links)
        )

    @property
    def fails_tasks(self) -> bool:
        """Whether the OmpSs runtime injects task failures."""
        return self.task_failure_rate > 0.0 and self.task_max_failures != 0


# ---------------------------------------------------------------------------
# JSON round-trip.
# ---------------------------------------------------------------------------

_SCALAR_FIELDS = (
    "name",
    "seed",
    "os_noise",
    "task_failure_rate",
    "task_max_failures",
    "task_max_retries",
    "mpi_max_retries",
    "mpi_retry_backoff_s",
    "mpi_timeout_s",
    "kill_transfer",
    "max_resumes",
)


def _require(mapping: object, what: str) -> dict:
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{what} must be a JSON object, got {type(mapping).__name__}")
    return mapping


def scenario_from_dict(doc: object) -> FaultScenario:
    """Build a validated scenario from a (JSON-decoded) dict."""
    doc = _require(doc, "scenario")
    kind = doc.get("kind")
    if kind is not None and kind != SCENARIO_KIND:
        raise ScenarioError(f"kind must be {SCENARIO_KIND!r}, got {kind!r}")
    known = set(_SCALAR_FIELDS) | {"kind", "stragglers", "links"}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ScenarioError(f"unknown scenario field(s): {', '.join(unknown)}")
    kwargs: dict[str, _t.Any] = {
        k: doc[k] for k in _SCALAR_FIELDS if k in doc
    }
    try:
        stragglers = tuple(
            Straggler(**_require(s, "straggler entry"))
            for s in doc.get("stragglers", [])
        )
        links = tuple(
            LinkFault(**_require(l, "link entry")) for l in doc.get("links", [])
        )
        return FaultScenario(stragglers=stragglers, links=links, **kwargs)
    except TypeError as exc:  # bad keys/arity inside an entry
        raise ScenarioError(str(exc)) from None


def scenario_to_dict(scenario: FaultScenario) -> dict:
    """Flat JSON-ready dict (inverse of :func:`scenario_from_dict`)."""
    doc: dict[str, _t.Any] = {"kind": SCENARIO_KIND}
    doc.update({k: getattr(scenario, k) for k in _SCALAR_FIELDS})
    doc["stragglers"] = [dataclasses.asdict(s) for s in scenario.stragglers]
    doc["links"] = [dataclasses.asdict(l) for l in scenario.links]
    return doc


def load_scenario(path: str | pathlib.Path) -> FaultScenario:
    """Read and validate a scenario JSON file."""
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from None
    try:
        return scenario_from_dict(doc)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def dump_scenario(path: str | pathlib.Path, scenario: FaultScenario) -> pathlib.Path:
    """Write a scenario as JSON; returns the written path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")
    return path
