"""The service manifest: one JSON artifact per service session.

Built from a :class:`~repro.service.server.ServiceCore` after drain, it
records the policy configuration, the load spec, every request's terminal
verdict, and the resilience counters — queue peaks, shed breakdown,
retries, breaker trips, memo and retry-budget stats.

Two modes:

* **stable** (the soak engine's default) — only virtual-clock and
  policy-deterministic fields, so the same (seed, spec, chaos) always
  produces byte-identical JSON; the chaos-soak CI job and
  ``tests/service/test_soak_determinism.py`` pin this.
* **live** — adds wall-clock SLO numbers and process-warmth diagnostics
  (the FFT plan-cache hit/miss counters), which vary run to run and are
  therefore excluded from stable manifests.

Validation runs on the run manifest's rules engine (no jsonschema
dependency); the conservation law ``submitted == sum(verdicts)`` and
``accepted == ok + batched + expired + failed (+ memoized)`` are checked
structurally, so an engine that loses an accepted request cannot produce
a valid manifest.
"""

from __future__ import annotations

import json
import pathlib
import typing as _t

from repro.service.request import SHED_REASONS, VERDICTS
from repro.service.server import ServiceCore, latency_percentiles
from repro.telemetry.manifest import (
    ManifestError,
    Rules,
    check_rules,
    load_checked,
    write_checked,
)

__all__ = [
    "SERVICE_MANIFEST_KIND",
    "SERVICE_SCHEMA_VERSION",
    "ServiceManifestError",
    "build_service_manifest",
    "validate_service_manifest",
    "write_service_manifest",
    "load_service_manifest",
]

SERVICE_MANIFEST_KIND = "repro.service_manifest"
SERVICE_SCHEMA_VERSION = 1


class ServiceManifestError(ManifestError):
    """A service manifest failed validation or could not be parsed."""


def build_service_manifest(
    core: ServiceCore,
    load: dict | None = None,
    stable: bool = True,
    slo: dict | None = None,
) -> dict:
    """Assemble the manifest dict from a drained core.

    ``load`` is the load spec's ``to_dict()`` (or any provenance dict);
    ``slo`` is the live engine's wall-clock report, ignored in stable
    mode.
    """
    chaos = core.chaos
    doc: dict[str, _t.Any] = {
        "kind": SERVICE_MANIFEST_KIND,
        "schema_version": SERVICE_SCHEMA_VERSION,
        "stable": stable,
        "service": core.config.to_dict(),
        "load": load or {},
        "chaos": None,
        "counts": dict(core.counts),
        "shed_reasons": {r: core.shed_reasons.get(r, 0) for r in SHED_REASONS},
        "admission": core.admission.stats(),
        "retry": core.retry.stats(),
        "breakers": core.breakers.stats(),
        "memo": core.memo.stats(),
        "latency": latency_percentiles(core.latencies),
        "requests": list(core.records),
    }
    if chaos is not None:
        from repro.faults.service import chaos_to_dict

        doc["chaos"] = chaos_to_dict(chaos)
    if not stable:
        from repro.fft.plan import plan_cache_stats

        doc["slo"] = slo or {}
        doc["plan_cache"] = plan_cache_stats()
    return doc


_RULES: Rules = [
    ("kind", (str,), True),
    ("schema_version", (int,), True),
    ("stable", (bool,), True),
    ("service", (dict,), True),
    ("service.workers", (int,), True),
    ("service.max_queue_depth", (int,), True),
    ("load", (dict,), True),
    ("chaos", (dict, type(None)), True),
    ("counts", (dict,), True),
    ("shed_reasons", (dict,), True),
    ("admission", (dict,), True),
    ("retry", (dict,), True),
    ("breakers", (dict,), True),
    ("memo", (dict,), True),
    ("latency", (dict,), True),
    ("requests", (list,), True),
    ("slo", (dict,), False),
    ("plan_cache", (dict,), False),
]


def validate_service_manifest(manifest: object) -> list[str]:
    """Return schema violations (empty list = valid)."""
    if not isinstance(manifest, dict):
        return ["service manifest must be a JSON object"]
    errors = check_rules(
        manifest, _RULES, SERVICE_MANIFEST_KIND, SERVICE_SCHEMA_VERSION
    )
    if errors:
        return errors
    counts = manifest["counts"]
    for name in ("submitted", "accepted", *VERDICTS):
        if not isinstance(counts.get(name), int):
            errors.append(f"counts.{name} must be an int")
    if errors:
        return errors
    # Conservation laws: no request vanishes, no accepted request is lost.
    terminal = sum(counts[v] for v in VERDICTS)
    if counts["submitted"] != terminal:
        errors.append(
            f"counts.submitted ({counts['submitted']}) != sum of verdicts ({terminal})"
        )
    served = (
        counts["ok"]
        + counts["batched"]
        + counts["expired"]
        + counts["failed"]
        + counts["memoized"]
    )
    if counts["accepted"] != served:
        errors.append(
            f"counts.accepted ({counts['accepted']}) != ok+batched+expired+"
            f"failed+memoized ({served})"
        )
    shed = sum(manifest["shed_reasons"].values())
    if counts["shed"] != shed:
        errors.append(
            f"counts.shed ({counts['shed']}) != sum of shed_reasons ({shed})"
        )
    requests = manifest["requests"]
    if len(requests) != counts["submitted"]:
        errors.append(
            f"{len(requests)} request records != counts.submitted "
            f"({counts['submitted']})"
        )
    for i, rec in enumerate(requests):
        if not isinstance(rec, dict):
            errors.append(f"requests[{i}] must be an object")
            continue
        verdict = rec.get("verdict")
        if verdict not in VERDICTS:
            errors.append(f"requests[{i}].verdict {verdict!r} not in {VERDICTS}")
        for field in ("rid", "grid_class", "version", "digest", "attempts"):
            if field not in rec:
                errors.append(f"requests[{i}] missing field {field!r}")
    return errors


def write_service_manifest(path: str | pathlib.Path, manifest: dict) -> pathlib.Path:
    """Validate and write (sorted keys, so stable manifests are byte-stable)."""
    return write_checked(
        path,
        manifest,
        validate_service_manifest,
        ServiceManifestError,
        sort_keys=True,
        default_suffix="",
    )


def load_service_manifest(path: str | pathlib.Path) -> dict:
    """Read and validate a service manifest."""
    try:
        return load_checked(path, validate_service_manifest, ServiceManifestError)
    except json.JSONDecodeError as exc:
        raise ServiceManifestError(f"{path} is not valid JSON: {exc}") from None
