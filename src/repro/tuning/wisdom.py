"""The wisdom database: append-only JSONL of best-known knob vectors.

FFTW's wisdom files are the model: a persisted store keyed by problem
identity, consulted at plan time, accumulated across runs.  Here each line
is one self-contained JSON record::

    {"schema": 1, "digest": "sha256:...", "knobs": {...},
     "score": 0.0123, "predicted_s": 0.0117, "source": "search",
     "provenance": {...}}

Design choices, each load-bearing for durability:

* **Append-only.**  A record is written with a single ``os.write`` on an
  ``O_APPEND`` descriptor — on POSIX, concurrent appenders from separate
  processes interleave whole lines, never bytes (the concurrency test
  hammers this).  Nothing ever rewrites the file; the best entry per digest
  is resolved at load time (lowest score wins, later lines break ties).
* **Corruption-tolerant load.**  A truncated tail (a crashed writer) or a
  garbage line is skipped, not fatal; the next append starts by repairing a
  missing trailing newline so the damaged line never concatenates with a
  good one.
* **Versioned schema.**  Records carry ``schema``; :func:`migrate_record`
  upgrades older layouts in memory on load (v0 stored the knob vector under
  ``"best"`` with the score inside it), so a DB written by an older build
  keeps working without a rewrite.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import typing as _t

from repro.tuning.digest import KNOB_FIELDS

__all__ = [
    "SCHEMA_VERSION",
    "WisdomEntry",
    "WisdomDB",
    "migrate_record",
    "consult",
]

#: Current record-layout version.
SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class WisdomEntry:
    """One best-known configuration for one workload digest."""

    digest: str
    knobs: dict
    #: Measured phase time of the winning run (seconds; lower is better).
    score: float
    #: The cost model's prediction for the winner, if one was made.
    predicted_s: float | None = None
    #: Where the entry came from: ``"search"``, ``"import"``, ``"manual"``.
    source: str = "search"
    #: Free-form search record (rungs, candidates evaluated, ...).
    provenance: dict = dataclasses.field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "digest": self.digest,
            "knobs": dict(self.knobs),
            "score": float(self.score),
            "predicted_s": None if self.predicted_s is None else float(self.predicted_s),
            "source": self.source,
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_record(cls, record: dict) -> "WisdomEntry":
        return cls(
            digest=str(record["digest"]),
            knobs=dict(record["knobs"]),
            score=float(record["score"]),
            predicted_s=(
                None if record.get("predicted_s") is None
                else float(record["predicted_s"])
            ),
            source=str(record.get("source", "search")),
            provenance=dict(record.get("provenance", {})),
        )


def migrate_record(record: dict) -> dict | None:
    """Upgrade an older record layout to the current schema, in memory.

    Returns ``None`` for records that cannot be understood (they are
    skipped on load — an unknown *newer* schema is not guessed at).
    """
    schema = record.get("schema")
    if schema == SCHEMA_VERSION:
        return record
    if schema is None and "best" in record:
        # v0: {"digest": ..., "best": {<knobs..., "score": s}}
        best = dict(record.get("best") or {})
        score = best.pop("score", None)
        if "digest" not in record or score is None:
            return None
        return {
            "schema": SCHEMA_VERSION,
            "digest": record["digest"],
            "knobs": {k: v for k, v in best.items() if k in KNOB_FIELDS},
            "score": score,
            "predicted_s": None,
            "source": record.get("source", "migrated-v0"),
            "provenance": {"migrated_from": 0},
        }
    return None


class WisdomDB:
    """In-memory best-per-digest index over one append-only JSONL file.

    ``path=None`` gives a purely in-memory DB (tests, dry runs).
    """

    def __init__(self, path: str | pathlib.Path | None = None):
        self.path = pathlib.Path(path) if path is not None else None
        self._best: dict[str, WisdomEntry] = {}
        self.skipped_lines = 0
        if self.path is not None and self.path.exists():
            self._load()

    # -- load ---------------------------------------------------------------

    def _load(self) -> None:
        assert self.path is not None
        raw = self.path.read_bytes()
        for line in raw.split(b"\n"):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self.skipped_lines += 1
                continue
            if not isinstance(record, dict):
                self.skipped_lines += 1
                continue
            migrated = migrate_record(record)
            if migrated is None:
                self.skipped_lines += 1
                continue
            try:
                entry = WisdomEntry.from_record(migrated)
            except (KeyError, TypeError, ValueError):
                self.skipped_lines += 1
                continue
            self._index(entry)

    def _index(self, entry: WisdomEntry) -> None:
        # Lowest score wins; a later record at an equal-or-better score
        # replaces (later appends carry fresher provenance).
        held = self._best.get(entry.digest)
        if held is None or entry.score <= held.score:
            self._best[entry.digest] = entry

    # -- read ---------------------------------------------------------------

    def lookup(self, digest: str) -> WisdomEntry | None:
        return self._best.get(digest)

    def entries(self) -> list[WisdomEntry]:
        """Best entry per digest, sorted by digest (deterministic)."""
        return [self._best[d] for d in sorted(self._best)]

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, digest: str) -> bool:
        return digest in self._best

    # -- write --------------------------------------------------------------

    def record(self, entry: WisdomEntry) -> None:
        """Index the entry and append it to the JSONL file (if persisted)."""
        self._index(entry)
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = (
            json.dumps(entry.to_record(), sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        # O_RDWR, not O_WRONLY: the tail-repair probe below reads one byte.
        fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            # Repair a truncated tail before extending the log: if the last
            # byte is not a newline (a writer died mid-line), start on a
            # fresh line so the damaged record stays isolated (and skipped
            # on the next load) instead of swallowing this one.
            size = os.fstat(fd).st_size
            if size > 0 and os.pread(fd, 1, size - 1) != b"\n":
                os.write(fd, b"\n")
            os.write(fd, payload.encode("utf-8"))
        finally:
            os.close(fd)

    # -- portability --------------------------------------------------------

    def export(self, path: str | pathlib.Path) -> int:
        """Write the best-per-digest view as fresh JSONL; returns the count."""
        out = pathlib.Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            json.dumps(e.to_record(), sort_keys=True, separators=(",", ":"))
            for e in self.entries()
        ]
        out.write_text("".join(line + "\n" for line in lines))
        return len(lines)

    def import_from(self, path: str | pathlib.Path, source: str = "import") -> int:
        """Merge another wisdom file; returns how many entries improved us."""
        other = WisdomDB(path)
        merged = 0
        for entry in other.entries():
            held = self._best.get(entry.digest)
            if held is not None and held.score <= entry.score:
                continue
            self.record(dataclasses.replace(entry, source=source))
            merged += 1
        return merged


# -- memoized consult ----------------------------------------------------------
#
# The warm path (the driver's tuning resolve) must cost well under 1% of a run.
# The DB file is parsed at most once per (path, mtime, size) generation per
# process; lookups after that are two dict probes.

_DB_CACHE: dict[tuple[str, int, int], WisdomDB] = {}
_DB_CACHE_MAX = 8


def consult(path: str | pathlib.Path, digest: str) -> WisdomEntry | None:
    """Memoized lookup: load/refresh the DB only when the file changed."""
    p = pathlib.Path(path)
    try:
        stat = p.stat()
        key = (str(p), stat.st_mtime_ns, stat.st_size)
    except OSError:
        return None
    db = _DB_CACHE.get(key)
    if db is None:
        if len(_DB_CACHE) >= _DB_CACHE_MAX:
            _DB_CACHE.clear()
        db = WisdomDB(p)
        _DB_CACHE[key] = db
    return db.lookup(digest)
