"""Run manifests: one JSON artifact per driver run.

A manifest is the machine-readable record of one :func:`run_fft_phase`
execution — the regression-diffing substrate every future performance PR
compares against.  It captures:

* the full :class:`~repro.core.config.RunConfig` (plus derived quantities),
* the calibration preset (:class:`~repro.machine.knl.KnlParameters`),
* wall and simulated times and the simulator's event count,
* the metrics-registry snapshot,
* per-phase compute aggregates (time, instructions, IPC — the "main phase
  IPC" the paper tracks is ``phases.fft_xy.ipc``),
* per-communicator-layer MPI aggregates,
* fluid-engine counters of the contended resources (rebalances, coalesced
  updates, skipped timer re-arms, allocation-cache hits/misses) under
  ``engine.cpu`` / ``engine.network`` — the observability hooks of the
  vectorized contention engine,
* the run's derived analytics under ``analysis`` (POP factors, critical
  path, task graph); when the caller ran the ideal-network replay its
  runtime re-splits serialization/transfer there
  (``analysis.pop.split_source == "replay"``),
* the fault-injection report (scenario, injected/recovered counts, per-
  attempt outcomes) when the run carried a fault scenario,
* the data-plane arena statistics (buffer acquires/reuse-hits/releases,
  allocations avoided, bytes resident) under ``dataplane`` when the run
  executed in data mode.

Validation is hand-rolled (:func:`validate_manifest`) so the repository
needs no jsonschema dependency; ``docs/run_manifest.schema.json`` mirrors
the same rules as a standard JSON Schema for external tooling.  The rules
engine (:func:`check_rules`) and the validate-then-write / read-then-validate
pair (:func:`write_checked`, :func:`load_checked`) are shared with the sweep
manifest, which adds only its own ``_RULES`` and cross-field laws.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
import typing as _t

from repro.telemetry.layers import comm_layer

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.driver import RunResult

__all__ = [
    "MANIFEST_KIND",
    "MANIFEST_SCHEMA_VERSION",
    "ManifestError",
    "Rules",
    "check_rules",
    "write_checked",
    "load_checked",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "validate_manifest",
]

MANIFEST_KIND = "repro.run_manifest"
MANIFEST_SCHEMA_VERSION = 1


class ManifestError(ValueError):
    """A manifest failed schema validation."""


def _phase_aggregates(result: "RunResult") -> dict:
    """Per-phase time/instructions/IPC from the run's hardware counters."""
    counters = result.cpu.counters
    agg: dict[str, dict[str, float]] = {}
    for stream in counters.streams:
        for phase, c in counters.phases(stream).items():
            entry = agg.setdefault(
                phase, {"time_s": 0.0, "instructions": 0.0, "occurrences": 0.0}
            )
            entry["time_s"] += c.compute_time
            entry["instructions"] += c.instructions
            entry["occurrences"] += c.occurrences
    for entry in agg.values():
        entry["ipc"] = (
            entry["instructions"] / (entry["time_s"] * counters.frequency_hz)
            if entry["time_s"] > 0
            else 0.0
        )
    return agg


def _mpi_aggregates(result: "RunResult") -> dict:
    """Per-communicator-layer MPI aggregates from the telemetry trace."""
    tel = result.telemetry
    if tel is None:
        return {}
    out: dict[str, dict[str, float]] = {}
    for r in tel.trace.mpi:
        layer = comm_layer(r.comm_name)
        entry = out.setdefault(
            layer, {"calls": 0.0, "bytes": 0.0, "time_s": 0.0, "sync_s": 0.0}
        )
        entry["calls"] += 1
        entry["bytes"] += r.bytes_sent
        entry["time_s"] += r.duration
        entry["sync_s"] += r.sync_time
    return out


def build_manifest(
    result: "RunResult",
    wall_time_s: float | None = None,
    ideal_time_s: float | None = None,
    created: str | None = None,
) -> dict:
    """Assemble the manifest dict for one completed run.

    ``ideal_time_s`` — runtime of the ideal-network replay of the same
    configuration, handed to the run's analysis (which the metrics gauges
    follow, so it is resolved before they are snapshotted).
    """
    analysis = _run_analysis(result, ideal_time_s)
    config = dataclasses.asdict(result.config)
    config["label"] = result.config.label()
    config["n_mpi_ranks"] = result.config.n_mpi_ranks
    config["threads_per_rank"] = result.config.threads_per_rank
    config["total_streams"] = result.config.total_streams
    config["n_iterations"] = result.config.n_iterations

    manifest: dict = {
        "kind": MANIFEST_KIND,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created": created
        if created is not None
        else time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": config,
        "calibration": dataclasses.asdict(result.knl) if result.knl is not None else {},
        "timing": {
            "phase_time_s": result.phase_time,
            "wall_time_s": wall_time_s,
            "sim_events": getattr(result.sim, "n_dispatched", None),
        },
        "phases": _phase_aggregates(result),
        "mpi": _mpi_aggregates(result),
        "engine": {
            "cpu": result.cpu.engine_stats(),
            "network": result.world.network.engine_stats(),
        },
        "average_ipc": result.average_ipc,
        "metrics": (
            result.telemetry.metrics.snapshot() if result.telemetry is not None else {}
        ),
    }
    if result.fault_report is not None:
        manifest["fault_report"] = result.fault_report
        manifest["timing"]["n_attempts"] = result.n_attempts
        manifest["failed"] = result.failed
    if result.dataplane is not None:
        manifest["dataplane"] = result.dataplane
    if result.config.n_nodes > 1:
        manifest["internode"] = result.world.network.internode_summary()
    if result.tuning is not None:
        manifest["tuning"] = result.tuning
    if analysis is not None:
        manifest["analysis"] = analysis
    return manifest


def _run_analysis(result: "RunResult", ideal_time_s: float | None) -> dict | None:
    """The ``analysis`` section: what :func:`repro.analysis.analyze_run` says
    of a telemetry-enabled or replayed run (an untraced, unreplayed run has
    nothing beyond its ``phases`` to report).

    Import is deferred — the analysis package consumes telemetry, not the
    other way round, and the manifest module must stay importable first.
    """
    tel = result.telemetry
    if (tel is None or not tel.enabled) and ideal_time_s is None:
        return None
    from repro.analysis import analyze_run

    analysis = analyze_run(result, ideal_time_s)
    if ideal_time_s is not None and tel is not None and tel.enabled:
        # The replay split is now the session's: its stash and analysis.*
        # gauges follow, so no export of this run quotes two values.
        tel.analysis = analysis
        analysis.publish(tel.metrics)
    return analysis.to_dict()


def write_checked(
    path: str | pathlib.Path,
    manifest: dict,
    validate: _t.Callable[[object], list[str]],
    error: type[ManifestError],
    sort_keys: bool = False,
    default_suffix: str = ".json",
) -> pathlib.Path:
    """Validate and write any manifest kind; returns the written path."""
    errors = validate(manifest)
    if errors:
        raise error("; ".join(errors))
    path = pathlib.Path(path)
    if not path.suffix:
        path = path.with_suffix(default_suffix)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=sort_keys) + "\n")
    return path


def load_checked(
    path: str | pathlib.Path,
    validate: _t.Callable[[object], list[str]],
    error: type[ManifestError],
) -> dict:
    """Read and validate any manifest kind (``JSONDecodeError`` passes through)."""
    manifest = json.loads(pathlib.Path(path).read_text())
    errors = validate(manifest)
    if errors:
        raise error(f"{path}: " + "; ".join(errors))
    return manifest


def write_manifest(path: str | pathlib.Path, manifest: dict) -> pathlib.Path:
    """Validate and write a manifest; returns the written path."""
    return write_checked(path, manifest, validate_manifest, ManifestError)


def load_manifest(path: str | pathlib.Path) -> dict:
    """Read and validate a manifest file."""
    return load_checked(path, validate_manifest, ManifestError)


#: (dotted path, expected type(s), required) rows of one manifest kind.
Rules = list[tuple[str, tuple[type, ...], bool]]

#: (dotted path, expected type(s), required) — the schema's load-bearing core.
_RULES: Rules = [
    ("kind", (str,), True),
    ("schema_version", (int,), True),
    ("created", (str,), True),
    ("config", (dict,), True),
    ("config.version", (str,), True),
    ("config.ranks", (int,), True),
    ("config.taskgroups", (int,), True),
    ("config.nbnd", (int,), True),
    ("config.label", (str,), True),
    ("config.decomposition", (str,), False),
    ("calibration", (dict,), True),
    ("timing", (dict,), True),
    ("timing.phase_time_s", (int, float), True),
    ("phases", (dict,), True),
    ("mpi", (dict,), True),
    ("engine", (dict,), False),
    ("engine.cpu", (dict,), False),
    ("engine.network", (dict,), False),
    ("average_ipc", (int, float), True),
    ("metrics", (dict,), True),
    ("fault_report", (dict,), False),
    ("fault_report.scenario", (dict,), False),
    ("failed", (bool,), False),
    ("dataplane", (dict,), False),
    ("dataplane.decomposition", (str,), False),
    ("internode", (dict,), False),
    ("internode.inter_bytes", (int, float), False),
    ("internode.inter_messages", (int,), False),
    ("internode.link_bytes", (dict,), False),
    ("internode.link_messages", (dict,), False),
    ("tuning", (dict,), False),
    ("tuning.mode", (str,), False),
    ("tuning.digest", (str,), False),
    ("tuning.hit", (bool,), False),
    ("tuning.applied", (bool,), False),
    ("tuning.knobs", (dict, type(None)), False),
    ("tuning.score", (int, float, type(None)), False),
    ("tuning.predicted_s", (int, float, type(None)), False),
    ("tuning.measured_s", (int, float), False),
    ("analysis", (dict,), False),
    ("analysis.schema_version", (int,), False),
    ("analysis.unclosed_spans", (int,), False),
    ("analysis.pop", (dict, type(None)), False),
    ("analysis.critical_path", (dict, type(None)), False),
    ("analysis.task_graph", (dict, type(None)), False),
]


def _lookup(doc: dict, dotted: str):
    node: _t.Any = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None, False
        node = node[part]
    return node, True


def check_rules(doc: dict, rules: Rules, kind: str, max_version: int) -> list[str]:
    """Violations of the typed ``rules``; when those hold, of the document's
    ``kind`` and ``schema_version``.  An empty list means the document is
    well-formed enough for its kind's cross-field laws to be evaluated."""
    errors = []
    for dotted, types, required in rules:
        value, present = _lookup(doc, dotted)
        if not present:
            if required:
                errors.append(f"missing required field {dotted!r}")
            continue
        if not isinstance(value, types):
            names = "/".join(t.__name__ for t in types)
            errors.append(f"{dotted!r} must be {names}, got {type(value).__name__}")
    if errors:
        return errors
    if doc["kind"] != kind:
        errors.append(f"kind must be {kind!r}, got {doc['kind']!r}")
    if doc["schema_version"] > max_version:
        errors.append(
            f"schema_version {doc['schema_version']} is newer than "
            f"supported {max_version}"
        )
    return errors


def validate_manifest(manifest: object) -> list[str]:
    """Return schema violations (empty list = valid)."""
    if not isinstance(manifest, dict):
        return ["manifest must be a JSON object"]
    errors = check_rules(manifest, _RULES, MANIFEST_KIND, MANIFEST_SCHEMA_VERSION)
    if errors:
        return errors
    if manifest["timing"]["phase_time_s"] < 0:
        errors.append("timing.phase_time_s must be >= 0")
    for phase, entry in manifest["phases"].items():
        if not isinstance(entry, dict) or "time_s" not in entry:
            errors.append(f"phases.{phase} must be an object with 'time_s'")
    report = manifest.get("fault_report")
    if report is not None:
        for field in ("scenario", "injected", "recovered_events", "attempts"):
            if field not in report:
                errors.append(f"fault_report missing field {field!r}")
    analysis = manifest.get("analysis")
    if analysis is not None:
        for field in (
            "schema_version",
            "unclosed_spans",
            "pop",
            "critical_path",
            "task_graph",
        ):
            if field not in analysis:
                errors.append(f"analysis missing field {field!r}")
        pop = analysis.get("pop")
        if isinstance(pop, dict):
            for field in (
                "parallel_efficiency",
                "load_balance",
                "serialization_efficiency",
                "transfer_efficiency",
                "phases",
            ):
                if field not in pop:
                    errors.append(f"analysis.pop missing field {field!r}")
    return errors
