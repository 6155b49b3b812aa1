"""Self-tuning runtime: workload digests, wisdom DB, cost model, search.

The FFTW "wisdom" idea applied to the runtime knobs this codebase has
accumulated (NTG, scheduler, grainsizes, decomposition): search the space
once per workload digest, persist the winner, and let every later run —
driver and sweep — consult the database for free.  The search ranks
its candidates by summing the simulator's own stage table
(:mod:`repro.tuning.costmodel`), so it prices whatever the chain states.

Entry points:

* :func:`resolve_tuning` — what the driver calls with
  ``RunConfig.tuning != "off"``: digest the workload, consult (memoized)
  the wisdom DB, optionally fall back to :func:`repro.tuning.search.search`
  on a cold cache, and return the resolved config plus the manifest's
  ``tuning`` record.
* :class:`WisdomDB` / :func:`consult` — the persisted store.
* :func:`workload_digest` / :data:`KNOB_FIELDS` — the identity scheme.

See ``docs/TUNING.md`` for the file format and search strategy.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib

from repro.core.config import RunConfig
from repro.machine.knl import KnlParameters
from repro.tuning.costmodel import WorkloadModel, predict
from repro.tuning.digest import (
    DIGEST_SCHEMA,
    KNOB_FIELDS,
    digest_doc,
    knobs_of,
    workload_digest,
)
from repro.tuning.search import candidate_knobs, search
from repro.tuning.wisdom import SCHEMA_VERSION, WisdomDB, WisdomEntry, consult

__all__ = [
    "DIGEST_SCHEMA",
    "KNOB_FIELDS",
    "SCHEMA_VERSION",
    "WisdomDB",
    "WisdomEntry",
    "WorkloadModel",
    "apply_knobs",
    "candidate_knobs",
    "consult",
    "default_wisdom_path",
    "digest_doc",
    "knobs_of",
    "predict",
    "resolve_tuning",
    "search",
    "workload_digest",
]


def default_wisdom_path() -> pathlib.Path:
    """``$REPRO_WISDOM`` or ``wisdom.jsonl`` in the working directory."""
    return pathlib.Path(os.environ.get("REPRO_WISDOM", "wisdom.jsonl"))


def apply_knobs(config: RunConfig, knobs: dict) -> RunConfig | None:
    """The config with a stored knob vector applied, or ``None`` if invalid.

    A wisdom entry can postdate the environment it was recorded in (e.g. a
    taskgroup count invalid for a different band total, or keys that are no
    longer knobs — those are ignored).  If the vector does not fit, apply
    nothing — a stale entry must never break a run.
    """
    vector = {k: knobs[k] for k in KNOB_FIELDS if k in knobs}
    if not vector:
        return None
    try:
        return dataclasses.replace(config, **vector)
    except ValueError:
        return None


def resolve_tuning(
    config: RunConfig, knl: KnlParameters | None = None
) -> tuple[RunConfig, dict]:
    """Resolve ``config.tuning`` into a concrete config + manifest record.

    Called once by the driver before any geometry or machine is built;
    the returned config is an ordinary one (its ``tuning`` field is left
    as-is but never re-read), so the simulation downstream is exactly the
    one a hand-written config with the same knobs would produce.
    """
    path = pathlib.Path(config.wisdom_path) if config.wisdom_path else default_wisdom_path()
    digest = workload_digest(config, knl)
    info: dict = {
        "mode": config.tuning,
        "digest": digest,
        "wisdom_path": str(path),
        "hit": False,
        "applied": False,
        "source": None,
        "knobs": None,
        "score": None,
        "predicted_s": None,
    }
    entry = consult(path, digest)
    if entry is not None:
        info["hit"] = True
        info["source"] = entry.source
    elif config.tuning == "search":
        db = WisdomDB(path)
        entry = search(config, knl=knl, db=db)
        info["source"] = "search"
    if entry is None:
        return config, info
    info["knobs"] = dict(entry.knobs)
    info["score"] = float(entry.score)
    info["predicted_s"] = entry.predicted_s
    resolved = apply_knobs(config, entry.knobs)
    if resolved is None:
        return config, info
    info["applied"] = True
    return resolved, info
