"""Sweep manifests: one JSON artifact per sweep.

Extends the run-manifest family (:mod:`repro.telemetry.manifest`) with a
``sweep`` section and a ``points`` map:

* ``sweep`` — the grid description, worker count and mode, wall time, and
  progress counters (``n_tasks`` vs ``n_points`` distinguishes a partial
  manifest from a complete one — that difference is what ``--resume``
  consumes);
* ``points`` — per-point records in task order: the content digest of the
  reduced summary, the simulated phase time, the failure flag, and the
  summary itself.

Validation runs on the run manifest's rules engine (no jsonschema
dependency) plus the cross-field laws below;
``docs/sweep_manifest.schema.json`` mirrors the rules.
"""

from __future__ import annotations

import pathlib
import time
import typing as _t

from repro.telemetry.manifest import (
    ManifestError,
    Rules,
    check_rules,
    load_checked,
    write_checked,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.engine import PointRecord
    from repro.sweep.grid import GridSpec

__all__ = [
    "SWEEP_MANIFEST_KIND",
    "SWEEP_MANIFEST_SCHEMA_VERSION",
    "SweepManifestError",
    "build_sweep_manifest",
    "write_sweep_manifest",
    "load_sweep_manifest",
    "validate_sweep_manifest",
]

SWEEP_MANIFEST_KIND = "repro.sweep_manifest"
SWEEP_MANIFEST_SCHEMA_VERSION = 1


class SweepManifestError(ManifestError):
    """A sweep manifest failed schema validation."""


def build_sweep_manifest(
    records: _t.Sequence["PointRecord"],
    grid: "GridSpec | dict | None" = None,
    jobs: int = 1,
    mode: str = "serial",
    wall_time_s: float | None = None,
    n_tasks: int | None = None,
    created: str | None = None,
) -> dict:
    """Assemble the manifest dict for (possibly partially) finished records."""
    grid_doc: dict | None
    if grid is None or isinstance(grid, dict):
        grid_doc = grid
    else:
        grid_doc = grid.to_dict()
    return {
        "kind": SWEEP_MANIFEST_KIND,
        "schema_version": SWEEP_MANIFEST_SCHEMA_VERSION,
        "created": created
        if created is not None
        else time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "sweep": {
            "grid": grid_doc,
            "jobs": jobs,
            "mode": mode,
            "wall_time_s": wall_time_s,
            "n_tasks": n_tasks if n_tasks is not None else len(records),
            "n_points": len(records),
            "n_failed": sum(1 for r in records if r.failed),
        },
        "points": {r.key: r.to_manifest_entry() for r in records},
    }


def write_sweep_manifest(path: str | pathlib.Path, manifest: dict) -> pathlib.Path:
    """Validate and write a sweep manifest; returns the written path."""
    return write_checked(path, manifest, validate_sweep_manifest, SweepManifestError)


def load_sweep_manifest(path: str | pathlib.Path) -> dict:
    """Read and validate a sweep manifest file."""
    return load_checked(path, validate_sweep_manifest, SweepManifestError)


_RULES: Rules = [
    ("kind", (str,), True),
    ("schema_version", (int,), True),
    ("created", (str,), True),
    ("sweep", (dict,), True),
    ("sweep.jobs", (int,), True),
    ("sweep.mode", (str,), True),
    ("sweep.n_tasks", (int,), True),
    ("sweep.n_points", (int,), True),
    ("sweep.n_failed", (int,), True),
    ("points", (dict,), True),
]


def validate_sweep_manifest(manifest: object) -> list[str]:
    """Return schema violations (empty list = valid)."""
    if not isinstance(manifest, dict):
        return ["sweep manifest must be a JSON object"]
    errors = check_rules(
        manifest, _RULES, SWEEP_MANIFEST_KIND, SWEEP_MANIFEST_SCHEMA_VERSION
    )
    if errors:
        return errors
    sweep = manifest["sweep"]
    if sweep["jobs"] < 1:
        errors.append("sweep.jobs must be >= 1")
    if sweep["n_points"] != len(manifest["points"]):
        errors.append(
            f"sweep.n_points ({sweep['n_points']}) does not match the "
            f"points map ({len(manifest['points'])} entries)"
        )
    if sweep["n_points"] > sweep["n_tasks"]:
        errors.append("sweep.n_points exceeds sweep.n_tasks")
    for key, entry in manifest["points"].items():
        if not isinstance(entry, dict):
            errors.append(f"points.{key} must be an object")
            continue
        for field, types in (
            ("digest", (str,)),
            ("phase_time_s", (int, float)),
            ("failed", (bool,)),
            ("summary", (dict,)),
        ):
            if field not in entry:
                errors.append(f"points.{key} missing field {field!r}")
            elif not isinstance(entry[field], types):
                names = "/".join(t.__name__ for t in types)
                errors.append(f"points.{key}.{field} must be {names}")
    return errors
