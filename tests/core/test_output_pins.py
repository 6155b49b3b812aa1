"""Data-mode outputs and phase times pinned bit for bit.

``fixtures/output_pins.json`` holds, per case, the sha256 of
``output_coefficients().tobytes()`` and ``phase_time.hex()`` of one SMALL
data-mode run:

* slab and pencil, each with task groups off (T = 1) and on (T = 2);
* ``original`` (linear), ``ompss_steps`` (staged, T = 2) and
  ``ompss_combined`` (staged, T = 1), the two task versions with
  fault-injected task replay;
* a killed transfer finished by a resumed attempt, slab and pencil.

Each case also validates against the dense reference, so a pin records a
correct output.  ``python tests/core/test_output_pins.py`` prints the
current pins.
"""

import hashlib
import json
import pathlib

import pytest

from repro.core import RunConfig, run_fft_phase
from repro.faults import FaultScenario

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)
PINS_PATH = pathlib.Path(__file__).parent / "fixtures/output_pins.json"
REPLAY = dict(task_failure_rate=0.3, task_max_retries=50)
RESUME = dict(kill_transfer=5, max_resumes=1)

#: case -> (version, taskgroups, fault scenario keywords or None)
SHAPES = {
    "original_t1": ("original", 1, None),
    "original_t2": ("original", 2, None),
    "steps_replay_t2": ("ompss_steps", 2, REPLAY),
    "combined_replay_t1": ("ompss_combined", 2, REPLAY),
    "original_resumed_t2": ("original", 2, RESUME),
}
CASES = {
    f"{decomposition}_{shape}": (decomposition, *SHAPES[shape])
    for decomposition in ("slab", "pencil")
    for shape in SHAPES
}


def run_case(case: str):
    decomposition, version, taskgroups, faults = CASES[case]
    config = RunConfig(
        **SMALL, ranks=4, taskgroups=taskgroups, version=version,
        data_mode=True, decomposition=decomposition,
    )
    scenario = FaultScenario(**faults) if faults is not None else None
    result = run_fft_phase(config, faults=scenario)
    assert not result.failed
    if faults is RESUME:
        assert result.n_attempts == 2
    elif faults is REPLAY:
        assert result.fault_report["counters"]["task_recovered"] > 0
    assert result.validate() < 1e-10
    return result


def pins(result) -> dict:
    return {
        "output_sha256": hashlib.sha256(result.output_coefficients().tobytes()).hexdigest(),
        "phase_time": result.phase_time.hex(),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_and_phase_time_bit_identical_to_pins(case):
    expected = json.loads(PINS_PATH.read_text())[case]
    assert pins(run_case(case)) == expected


if __name__ == "__main__":
    print(json.dumps({case: pins(run_case(case)) for case in sorted(CASES)}, indent=1))
