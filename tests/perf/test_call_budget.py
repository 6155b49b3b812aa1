"""Interpreter-call budget of the simulator core on the ``desync_meta`` pair.

Host time on a shared runner is noise; the number of function calls the
interpreter makes for a fixed seeded workload is not.  One warm op of the
e2e benchmark's ``desync_meta`` workload (the paper's Table II pair: 8x8
``original`` then ``ompss_perfft``, meta mode — 10 752 compute phases, no FFT
runs) is executed under ``sys.setprofile`` and every ``call`` and ``c_call``
event is counted.  The op made 1 888 254 calls (176 per compute phase)
before the completion events were fused and the contention pricing moved to
static tables; the budget below is what that work bought, with headroom for
interpreter versions, and a change that spends it fails here long before it
shows in a wall-clock ratchet.

The telemetry-on twin runs the same pair with ``telemetry=True`` — records,
spans, metrics and the finalization path (analysis, ``analysis.*`` gauges)
on top of the core.  Its budget was set at 1 223 153 calls x 1.2876, the
headroom ratio it had before the record-derived metric families were
folded once per attempt instead of updated per event (2 260 000 /
1 755 253).  The pair now makes 1 161 770 calls telemetry-on and 981 146
off (Python 3.11.7); the CPU model's jitter draw is a Python call per
compute phase (``repro.simkit.rng.UniformStream``).

``python tests/perf/test_call_budget.py`` prints the per-module split as a
markdown table (the CI ``perf-guard`` job's summary).
"""

import collections
import dataclasses
import sys

from repro.core import RunConfig, run_fft_phase

#: The e2e benchmark's ``desync_meta`` op (benchmarks/e2e/workloads.py).
PAIR = tuple(
    RunConfig(
        ecutwfc=80.0, alat=20.0, nbnd=128, ranks=8, taskgroups=8, version=version,
        seed=2017,
    )
    for version in ("original", "ompss_perfft")
)
COMPUTE_PHASES = 10_752
#: ``call`` + ``c_call`` events of one warm op: 126 per compute phase.
CALL_BUDGET = 1_350_000
#: The same with ``telemetry=True``: set at 1 223 153 recorded x 1.2876.
CALL_BUDGET_TELEMETRY = 1_575_000


def count_calls(telemetry: bool = False) -> tuple[collections.Counter, int]:
    """``(calls per repro subpackage, compute phases)`` of one warm op.

    A Python call is charged to the module that defines the callee, a C
    call to the module making it.
    """
    pair = [dataclasses.replace(config, telemetry=telemetry) for config in PAIR]
    for config in pair:  # warm: geometry, exchange plans, phase tables
        run_fft_phase(config)
    per_module: collections.Counter = collections.Counter()

    def on_event(frame, event, _arg):
        if event == "call" or event == "c_call":
            path = frame.f_code.co_filename
            cut = path.find("/repro/")
            per_module[path[cut + 7 :].split("/", 1)[0] if cut >= 0 else "(outside repro)"] += 1

    sys.setprofile(on_event)
    try:
        results = [run_fft_phase(config) for config in pair]
    finally:
        sys.setprofile(None)
    phases = sum(
        counters.occurrences
        for result in results
        for stream in result.cpu.counters.streams
        for counters in result.cpu.counters.phases(stream).values()
    )
    return per_module, phases


def test_desync_meta_pair_stays_within_the_call_budget():
    per_module, phases = count_calls()
    total = sum(per_module.values())
    assert phases == COMPUTE_PHASES  # the workload itself has not changed
    assert total <= CALL_BUDGET, (
        f"{total} interpreter calls for one desync_meta op "
        f"({total / phases:.0f} per compute phase; budget {CALL_BUDGET}): "
        f"{dict(per_module.most_common())}"
    )


def test_telemetry_on_pair_stays_within_the_call_budget():
    per_module, phases = count_calls(telemetry=True)
    total = sum(per_module.values())
    assert phases == COMPUTE_PHASES
    assert total <= CALL_BUDGET_TELEMETRY, (
        f"{total} interpreter calls for one telemetry-on desync_meta op "
        f"(budget {CALL_BUDGET_TELEMETRY}): {dict(per_module.most_common())}"
    )


if __name__ == "__main__":
    for telemetry, budget in ((False, CALL_BUDGET), (True, CALL_BUDGET_TELEMETRY)):
        split, n_phases = count_calls(telemetry)
        grand = sum(split.values())
        print(f"\ntelemetry={telemetry}\n")
        print("| module | calls | per compute phase |")
        print("|---|---:|---:|")
        for module, n in split.most_common():
            print(f"| `{module}` | {n} | {n / n_phases:.1f} |")
        print(f"| **total** (budget {budget}) | **{grand}** | **{grand / n_phases:.1f}** |")
