"""``tune``: the autotuner's wisdom DB (search / show / export / import)."""

from __future__ import annotations

import sys

from repro.cli.parser import QUICK_WORKLOAD
from repro.core import RunConfig
from repro.tuning import (
    WisdomDB,
    default_wisdom_path,
    knobs_of,
    search,
    workload_digest,
)


def cmd_tune(args) -> int:
    """The ``tune`` group: wisdom search / show / export / import."""
    path = args.wisdom or str(default_wisdom_path())

    if args.tune_command == "search":
        workload = dict(QUICK_WORKLOAD) if args.quick else {}
        try:
            config = RunConfig(
                ranks=args.ranks,
                taskgroups=args.taskgroups,
                version=args.version,
                n_nodes=args.nodes,
                **workload,
            )
        except ValueError as exc:
            print(f"error: invalid configuration: {exc}", file=sys.stderr)
            return 2
        db = WisdomDB(path)
        digest = workload_digest(config)
        held = db.lookup(digest)
        if held is not None:
            print(f"already tuned ({held.score * 1e3:.2f} ms); searching again")
        try:
            entry = search(
                config, db=db, jobs=args.jobs, mode=args.mode,
                top_k=args.top_k, survivors=args.survivors,
            )
        except (RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        incumbent_s = entry.provenance.get("incumbent_s")
        print(f"digest: {entry.digest}")
        print(f"winner: {entry.knobs}")
        line = f"score: {entry.score * 1e3:.2f} ms (simulated)"
        if incumbent_s:
            line += f"; default {incumbent_s * 1e3:.2f} ms"
            if entry.knobs != knobs_of(config):
                line += f" ({incumbent_s / entry.score:.2f}x speedup)"
        print(line)
        print(f"recorded in {path}")
        return 0

    if args.tune_command == "show":
        db = WisdomDB(path)
        if db.skipped_lines:
            print(f"({db.skipped_lines} unreadable line(s) skipped)")
        if not len(db):
            print(f"{path}: no wisdom entries")
            return 0
        for entry in db.entries():
            print(f"{entry.digest}  {entry.score * 1e3:10.3f} ms  "
                  f"[{entry.source}]  {entry.knobs}")
        return 0

    if args.tune_command == "export":
        n = WisdomDB(path).export(args.out)
        print(f"{n} entr{'y' if n == 1 else 'ies'} written to {args.out}")
        return 0

    # import
    try:
        merged = WisdomDB(path).import_from(args.src)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{merged} entr{'y' if merged == 1 else 'ies'} merged into {path}")
    return 0
