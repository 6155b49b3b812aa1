"""The record-derived metric families pinned bit for bit.

``fixtures/record_metric_pins.json`` holds the ``machine.*``, ``mpi.*`` and
``ompss.*`` families of ``tel.metrics.snapshot()`` for four sessions, every
float as ``float.hex()``, except ``machine.average_ipc``:

* ``perfft_8x8`` — one telemetry-on 8x8 ``ompss_perfft`` run (quick grid);
* ``shared_pair`` — ``original`` then ``ompss_perfft`` into one session, so
  the second run adds onto the first run's series;
* ``faults_resumed`` — ``ompss_steps`` with task re-execution and a killed
  transfer, finished by a resumed attempt;
* ``pencil_data`` — a small data-mode pencil run.

Bit identity, not a tolerance: a counter summed in another order, or with
compensated summation, fails here.  Every pinned series is built with ``+=``
one value at a time, so its bits do not depend on the Python version.
``machine.average_ipc`` is left out: ``CounterSet.average_ipc`` builds it with
the built-in ``sum()``, which compensates on Python 3.12+ (the golden-manifest
test covers it with a tolerance).  ``python
tests/telemetry/test_record_metric_pins.py`` prints the current pins.
"""

import json
import pathlib

import pytest

from repro import telemetry
from repro.core import RunConfig, run_fft_phase
from repro.faults import FaultScenario
from repro.machine.cpu import ComputeRecord
from repro.mpisim.world import MpiRecord

QUICK = dict(ecutwfc=30.0, alat=10.0, nbnd=32)
SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)
FAMILIES = ("machine.", "mpi.", "ompss.")
UNPINNED = ("machine.average_ipc",)
PINS_PATH = pathlib.Path(__file__).parent / "fixtures/record_metric_pins.json"


def _perfft_8x8() -> telemetry.Telemetry:
    config = RunConfig(**QUICK, ranks=8, taskgroups=8, version="ompss_perfft")
    tel = telemetry.Telemetry()
    run_fft_phase(config, telemetry=tel)
    return tel


def _shared_pair() -> telemetry.Telemetry:
    tel = telemetry.Telemetry()
    for version in ("original", "ompss_perfft"):
        run_fft_phase(
            RunConfig(**QUICK, ranks=4, taskgroups=2, version=version), telemetry=tel
        )
    return tel


def _faults_resumed() -> telemetry.Telemetry:
    scenario = FaultScenario(
        task_failure_rate=0.3, task_max_retries=50, kill_transfer=20, max_resumes=1
    )
    config = RunConfig(**SMALL, ranks=4, taskgroups=2, version="ompss_steps")
    tel = telemetry.Telemetry()
    result = run_fft_phase(config, telemetry=tel, faults=scenario)
    assert result.n_attempts == 2 and not result.failed
    assert result.fault_report["counters"]["task_reexec"] > 0
    return tel


def _pencil_data() -> telemetry.Telemetry:
    config = RunConfig(
        **SMALL, ranks=4, taskgroups=2, version="ompss_combined",
        data_mode=True, decomposition="pencil",
    )
    tel = telemetry.Telemetry()
    run_fft_phase(config, telemetry=tel)
    return tel


CASES = {
    "perfft_8x8": _perfft_8x8,
    "shared_pair": _shared_pair,
    "faults_resumed": _faults_resumed,
    "pencil_data": _pencil_data,
}


def pins(tel: telemetry.Telemetry) -> dict:
    """The pinned families of ``tel``'s snapshot, one string per series.

    A counter or gauge series pins ``float.hex()`` of its value; a histogram
    series pins its count, ``float.hex()`` of its sum and its bucket counts.
    """
    out = {}
    for name, family in tel.metrics.snapshot().items():
        if not name.startswith(FAMILIES) or name in UNPINNED:
            continue
        series = {}
        for entry in family["series"]:
            labels = ",".join(f"{k}={v}" for k, v in entry["labels"].items())
            if family["kind"] == "histogram":
                counts = ",".join(map(str, entry["counts"]))
                series[labels] = f"{entry['count']} {entry['sum'].hex()} {counts}"
            else:
                series[labels] = entry["value"].hex()
        out[f"{name} {family['kind']}"] = series
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_derived_families_bit_identical_to_pins(case):
    expected = json.loads(PINS_PATH.read_text())[case]
    assert pins(CASES[case]()) == expected


@pytest.mark.parametrize(
    "store, record",
    [
        ("compute", ComputeRecord((0, 0), None, "fft_z", -1.0, 0.0, 1.0)),
        ("mpi", MpiRecord((0, 0), "alltoallw", 0, "scatter0", 0.0, 1.0, -8.0, 0.0)),
    ],
)
def test_fold_rejects_a_negative_counter_amount(store, record):
    tel = telemetry.Telemetry()
    getattr(tel.trace, store).append(record)
    with pytest.raises(ValueError, match="only go up"):
        tel.fold_records()


if __name__ == "__main__":
    print(json.dumps({case: pins(make()) for case, make in sorted(CASES.items())}, indent=1))
