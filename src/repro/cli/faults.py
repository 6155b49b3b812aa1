"""``faults validate``, and the ``--faults`` / ``--chaos`` file arguments of
the commands that inject (see docs/RESILIENCE.md)."""

from __future__ import annotations

import json
import sys

from repro.faults import (
    SERVICE_CHAOS_KIND,
    ScenarioError,
    load_chaos,
    load_scenario,
)


def _load_arg(loader, path: str | None):
    """``(loaded, None)``, or ``(None, 2)`` after the one-line error on bad
    input; ``(None, None)`` when the flag was not given."""
    if path is None:
        return None, None
    try:
        return loader(path), None
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2


def load_scenario_arg(path: str | None):
    """A ``--faults`` scenario file (see :func:`_load_arg`)."""
    return _load_arg(load_scenario, path)


def load_chaos_arg(path: str | None):
    """A ``--chaos`` plan file (see :func:`_load_arg`)."""
    return _load_arg(load_chaos, path)


def cmd_faults(args) -> int:
    """faults validate (machine-level scenarios and service chaos plans)."""
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            doc = json.load(fh)
        kind = doc.get("kind") if isinstance(doc, dict) else None
    except (OSError, json.JSONDecodeError):
        kind = None
    if kind == SERVICE_CHAOS_KIND:
        chaos, code = load_chaos_arg(args.scenario)
        if code is not None:
            return code
        print(
            f"{args.scenario}: valid service chaos plan "
            f"({len(chaos.outages)} outage(s), "
            f"failure_rate {chaos.failure_rate:g}, "
            f"fault_fraction {chaos.fault_fraction:g})"
        )
        return 0
    scenario, code = load_scenario_arg(args.scenario)
    if code is not None:
        return code
    print(
        f"{args.scenario}: valid fault scenario "
        f"({len(scenario.stragglers)} straggler(s), {len(scenario.links)} link fault(s), "
        f"os_noise {scenario.os_noise:g}, "
        f"task_failure_rate {scenario.task_failure_rate:g})"
    )
    return 0
