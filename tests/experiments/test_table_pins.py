"""Tables I/II pinned bit for bit on the QUICK workload.

``fixtures/table_columns.json`` holds ``float.hex()`` of every one of the
nine factor rows and of the runtimes for ranks (1, 2, 4, 8, 16), recorded
before the factor model moved into :mod:`repro.analysis.pop`.  Bit identity,
not a tolerance: a change that moves a table by an ulp fails here.
"""

import json
import pathlib

import pytest

from repro.experiments import run_table1, run_table2

QUICK = dict(ecutwfc=20.0, alat=8.0, nbnd=16)
RANKS = (1, 2, 4, 8, 16)
PINS = json.loads(
    (pathlib.Path(__file__).parent / "fixtures/table_columns.json").read_text()
)


@pytest.mark.parametrize(
    "name, runner", [("table1", run_table1), ("table2", run_table2)]
)
def test_table_columns_bit_identical_to_pins(name, runner):
    data = runner(ranks=RANKS, **QUICK).data
    got = {
        "columns": {
            label: {row: value.hex() for row, value in column.items()}
            for label, column in data["columns"].items()
        },
        "runtime_s": {label: t.hex() for label, t in data["runtime_s"].items()},
    }
    assert got == PINS[name]
    # Row order is part of the table layout.
    for label, column in data["columns"].items():
        assert list(column) == list(PINS[name]["columns"][label])
