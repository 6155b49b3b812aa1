"""Deterministic fault injection and resilience (see docs/RESILIENCE.md).

The layer has two halves:

* :mod:`repro.faults.plan` — the declarative :class:`FaultScenario` model
  and its JSON round-trip (what goes wrong, and the recovery budgets);
* :mod:`repro.faults.injector` — the runtime :class:`FaultInjector` the
  machine/network/OmpSs hooks consult, the :class:`FaultError` hierarchy
  those hooks raise, and the :class:`FaultReport` that lands on
  ``RunResult.fault_report``.

Wiring happens in :func:`repro.core.driver.run_fft_phase`: pass a scenario
via ``RunConfig(faults=...)`` or the ``faults=`` argument (CLI:
``--faults scenario.json``) and the driver injects, retries, checkpoints,
and resumes — deterministically for a given ``(RunConfig.seed, scenario)``.
"""

from repro.faults.injector import (
    FaultError,
    FaultInjector,
    FaultReport,
    MpiLinkError,
    MpiTimeoutError,
    TaskFailedError,
)
from repro.faults.plan import (
    SCENARIO_KIND,
    FaultScenario,
    LinkFault,
    ScenarioError,
    Straggler,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__all__ = [
    "SCENARIO_KIND",
    "FaultError",
    "FaultInjector",
    "FaultReport",
    "FaultScenario",
    "LinkFault",
    "MpiLinkError",
    "MpiTimeoutError",
    "ScenarioError",
    "Straggler",
    "TaskFailedError",
    "dump_scenario",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
]
