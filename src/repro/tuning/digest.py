"""Workload digests: the wisdom database's lookup key.

A digest identifies *what* is being computed and *where* — the workload
shape (grid cutoffs, bands), the executor family, the node count and the
machine profile — while deliberately excluding every knob the autotuner is
allowed to move (NTG, scheduler, grainsizes, decomposition).  Two runs
with the same digest are the same tuning problem; the DB stores one
best-known knob vector per digest.

The serialization reuses the sweep engine's canonical-JSON convention
(:func:`repro.sweep.engine.canonical_json`), so digests are byte-stable
across hosts, processes and executor modes — the durability tests pin
exactly that.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.core.config import RunConfig
from repro.machine.knl import KnlParameters
from repro.sweep.engine import canonical_json

__all__ = [
    "DIGEST_SCHEMA",
    "KNOB_FIELDS",
    "digest_doc",
    "workload_digest",
    "knobs_of",
]

#: Version tag of the digest document layout.  Bump on any field change:
#: old DB entries then simply stop matching (a clean cold cache), never
#: mis-match.
DIGEST_SCHEMA = "repro.tuning.digest/1"

#: The knob vector the tuner is allowed to move — everything else on a
#: :class:`RunConfig` is workload identity, not tuning.
KNOB_FIELDS: tuple[str, ...] = (
    "taskgroups",
    "scheduler",
    "grainsize_xy",
    "grainsize_z",
    "decomposition",
)


def digest_doc(config: RunConfig, knl: KnlParameters | None = None) -> dict:
    """The canonical document a workload digest hashes.

    ``link_capacity`` rides inside the machine profile: it changes the
    fabric physics, so a run with a per-link contention model is a
    different tuning problem than one without.
    """
    machine = dataclasses.asdict(knl or KnlParameters())
    machine["link_capacity"] = config.link_capacity
    return {
        "schema": DIGEST_SCHEMA,
        "ecutwfc": float(config.ecutwfc),
        "alat": float(config.alat),
        "nbnd": int(config.nbnd),
        "dual": float(config.dual),
        "ranks": int(config.ranks),
        "version": str(config.version),
        "n_nodes": int(config.n_nodes),
        "data_mode": bool(config.data_mode),
        "machine": machine,
    }


def workload_digest(config: RunConfig, knl: KnlParameters | None = None) -> str:
    """``sha256:...`` content digest of the workload's canonical document."""
    doc = canonical_json(digest_doc(config, knl))
    return "sha256:" + hashlib.sha256(doc.encode()).hexdigest()


def knobs_of(config: RunConfig) -> dict:
    """The config's current knob vector (the search incumbent)."""
    return {field: getattr(config, field) for field in KNOB_FIELDS}
