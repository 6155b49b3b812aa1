"""``faults validate``, and the ``--faults`` file argument of the commands
that inject (see docs/RESILIENCE.md)."""

from __future__ import annotations

import sys

from repro.faults import ScenarioError, load_scenario


def load_scenario_arg(path: str | None):
    """A ``--faults`` scenario file: ``(scenario, None)``, or ``(None, 2)``
    after the one-line error on bad input; ``(None, None)`` when the flag
    was not given."""
    if path is None:
        return None, None
    try:
        return load_scenario(path), None
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2


def cmd_faults(args) -> int:
    """faults validate."""
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
