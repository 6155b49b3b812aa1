"""Audit a refresh of the cross-commit fixtures against a base revision.

A change that fuses or drops simulator *events* legitimately moves event
counts and nothing else.  This script diffs the committed
``tests/perf/golden/run_8x8_quick.json`` and
``tests/core/fixtures/executor_timelines.json`` leaf by leaf against their
content at ``--base`` (read with ``git show``) and fails unless every changed
leaf matches an allowed pattern — by default the event counters and the
transport allocator's memo counters, i.e. every simulated time, timeline,
``engine.cpu`` counter, POP factor and critical path must be byte-identical.
``tests/core/fixtures/arena_pins.json`` is a ratchet: any cell may change,
but only downwards::

    python tests/perf/audit_fixture_refresh.py --base HEAD~1

Exit status 0 with the list of changed leaves, 1 with the offending ones.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: fixture path -> regexes a changed leaf's path may match.
ALLOWED: dict[str, tuple[str, ...]] = {
    "tests/perf/golden/run_8x8_quick.json": (
        r"^\.timing\.sim_events$",
        r"^\.engine\.network\.alloc_cache_(hits|misses|size)$",
        r"^\.metrics\.sim\.events_dispatched\.series\{\}\.value$",
        r"^\.metrics\.engine\.alloc_cache_(hits|misses|size)\.series\{resource=network\}\.value$",
        # RunConfig fields retired with the backend plane (deleted leaves).
        r"^\.config\.(fft_backend|kernel_workers)$",
        # RunConfig fields retired with the single-node network (deleted leaves).
        r"^\.config\.(link_capacity|steps_workers|task_overhead)$",
    ),
    "tests/core/fixtures/executor_timelines.json": (
        r"^\.(cells|fault_replay)\.[^.]+\.n_dispatched$",
    ),
    "tests/core/fixtures/arena_pins.json": (r"^\.[a-z_]+-(slab|pencil)-\dnode$",),
}

#: Fixtures whose changed leaves must also not grow.
SHRINK_ONLY = ("tests/core/fixtures/arena_pins.json",)


def leaves(node, path=""):
    """``(path, value)`` of every leaf: dict keys and list indices spelled
    out, a labelled metric series addressed by its labels."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            if isinstance(value, dict) and isinstance(value.get("labels"), dict):
                labels = ",".join(f"{k}={v}" for k, v in sorted(value["labels"].items()))
                yield from leaves(value, f"{path}{{{labels}}}")
            else:
                yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, node


class _Absent:
    """A leaf one side does not have (an added or a deleted leaf)."""

    def __repr__(self) -> str:
        return "(absent)"


def changed_leaves(before: dict, after: dict) -> list[tuple[str, object, object]]:
    old, new = dict(leaves(before)), dict(leaves(after))
    missing = _Absent()
    return [
        (path, old.get(path, missing), new.get(path, missing))
        for path in sorted(old.keys() | new.keys())
        if old.get(path, missing) != new.get(path, missing)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision holding the old fixtures")
    args = parser.parse_args(argv)
    status = 0
    for rel, patterns in ALLOWED.items():
        shown = subprocess.run(
            ["git", "show", f"{args.base}:{rel}"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        changes = changed_leaves(
            json.loads(shown.stdout), json.loads((ROOT / rel).read_text())
        )
        print(f"{rel}: {len(changes)} changed leaves")
        for path, old, new in changes:
            ok = any(re.search(p, path) for p in patterns)
            if rel in SHRINK_ONLY:
                ok = ok and isinstance(old, int) and isinstance(new, int) and new <= old
            status |= not ok
            print(f"  {'ok ' if ok else 'NOT ALLOWED'} {path}: {old!r} -> {new!r}")
    return status


if __name__ == "__main__":
    sys.exit(main())
