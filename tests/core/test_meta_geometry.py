"""A meta-mode run builds no G-vector table; a data-mode run builds each once.

The descriptor's stick map comes from a per-column count, and its G-level
tables (``sphere``, ``grid_idx``, ``stick_of_g``) are cached properties
that only the data plane, validation and ``repro.qe`` read.  Meta mode —
the paper's tables and figures, the sweeps, the tuner's cost model — sizes
everything from stick counts, so it must never fill them in.
"""

import functools
import json

import pytest

from repro.core import RunConfig, run_fft_phase
from repro.core.driver import build_geometry
from repro.grids import FftDescriptor
from repro.tuning.costmodel import WorkloadModel, predict
from repro.tuning.digest import knobs_of
from tests.core.test_output_pins import PINS_PATH, pins, run_case

G_TABLES = ("sphere", "grid_idx", "stick_of_g")
PAPER = dict(ecutwfc=80.0, alat=20.0)
QUICK = dict(ecutwfc=30.0, alat=10.0, nbnd=32)

META_CELLS = {
    "slab_8x8_paper": dict(PAPER, ranks=8, taskgroups=8),
    "pencil_4node_quick": dict(QUICK, ranks=4, taskgroups=2, n_nodes=4, decomposition="pencil"),
}


@pytest.fixture
def fresh_geometry():
    """Drop cached descriptors, so the run under test builds its own."""
    build_geometry.cache_clear()
    yield
    build_geometry.cache_clear()


def built_tables(desc: FftDescriptor) -> set[str]:
    return set(G_TABLES) & set(vars(desc))


@pytest.mark.parametrize("version", ["original", "ompss_perfft"])
@pytest.mark.parametrize("cell", sorted(META_CELLS))
def test_meta_run_builds_no_g_table(fresh_geometry, cell, version):
    result = run_fft_phase(RunConfig(**META_CELLS[cell], version=version))
    assert not result.failed
    assert result.phase_time > 0
    assert built_tables(result.desc) == set()
    assert result.desc.ngw == result.desc.sticks.total_g


def test_cost_model_builds_no_g_table():
    config = RunConfig(**META_CELLS["slab_8x8_paper"])
    w = WorkloadModel.from_config(config)
    assert built_tables(w.desc) == set()
    assert predict(w, knobs_of(config))["total_s"] > 0
    assert built_tables(w.desc) == set()


@pytest.fixture
def build_counts(monkeypatch, fresh_geometry):
    """Calls of each G-table builder while the test runs."""
    calls = dict.fromkeys(G_TABLES, 0)
    for name in G_TABLES:
        build = FftDescriptor.__dict__[name].func

        def counted(self, build=build, name=name):
            calls[name] += 1
            return build(self)

        prop = functools.cached_property(counted)
        prop.__set_name__(FftDescriptor, name)
        monkeypatch.setattr(FftDescriptor, name, prop)
    return calls


@pytest.mark.parametrize("case", ["slab_original_t2", "pencil_original_t2"])
def test_data_run_builds_each_table_once(build_counts, case):
    result = run_case(case)  # runs and validates against the dense reference
    assert pins(result) == json.loads(PINS_PATH.read_text())[case]
    assert built_tables(result.desc) == set(G_TABLES)
    assert build_counts == dict.fromkeys(G_TABLES, 1)
