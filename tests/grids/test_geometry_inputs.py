"""Geometry inputs are checked where they enter: one typed error each.

NaN fails every ordered comparison, so a bare ``x <= 0`` check lets it
through, and infinity passes it; both used to surface later as an untyped
``cannot convert float NaN to integer`` or ``OverflowError`` (or not at
all).  Every entry point now names the argument in ``RunConfig``'s wording.
"""

import math

import numpy as np
import pytest

from repro.core import RunConfig
from repro.grids import Cell, FftDescriptor, build_sphere, grid_dimensions
from repro.grids.gvectors import column_counts

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("alat", NON_FINITE + [0.0, -1.0])
def test_cell_rejects_a_bad_alat(alat):
    with pytest.raises(ValueError, match=f"alat must be finite and > 0, got {alat!r}$"):
        Cell(alat=alat)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_cell_rejects_a_non_finite_lattice_vector(bad):
    at = np.eye(3)
    at[1, 2] = bad
    with pytest.raises(ValueError, match="at must be finite"):
        Cell(alat=10.0, at=at)


@pytest.mark.parametrize("ecut", NON_FINITE + [0.0])
def test_gcut_from_ecut_rejects_a_bad_cutoff(ecut):
    with pytest.raises(ValueError, match=f"ecut_ry must be finite and > 0, got {ecut!r}$"):
        Cell(alat=10.0).gcut_from_ecut(ecut)


@pytest.mark.parametrize("gcut", NON_FINITE + [0.0])
@pytest.mark.parametrize(
    "build",
    [
        grid_dimensions,
        build_sphere,
        lambda cell, gcut: column_counts(cell, gcut, (16, 16, 16)),
    ],
    ids=["grid_dimensions", "build_sphere", "column_counts"],
)
def test_sphere_builders_reject_a_bad_gcut(build, gcut):
    with pytest.raises(ValueError, match=f"gcut must be finite and > 0, got {gcut!r}$"):
        build(Cell(alat=10.0), gcut)


@pytest.mark.parametrize("ecutwfc", NON_FINITE + [0.0, -5.0])
def test_descriptor_rejects_a_bad_ecutwfc(ecutwfc):
    with pytest.raises(ValueError, match=f"ecutwfc must be finite and > 0, got {ecutwfc!r}$"):
        FftDescriptor(Cell(alat=10.0), ecutwfc=ecutwfc)


@pytest.mark.parametrize("dual", NON_FINITE + [0.5])
def test_descriptor_rejects_a_bad_dual(dual):
    with pytest.raises(ValueError, match=f"dual must be finite and >= 1, got {dual!r}$"):
        FftDescriptor(Cell(alat=10.0), ecutwfc=30.0, dual=dual)


def test_the_wording_is_run_configs():
    with pytest.raises(ValueError) as config_error:
        RunConfig(alat=math.nan)
    with pytest.raises(ValueError) as cell_error:
        Cell(alat=math.nan)
    assert str(cell_error.value) == str(config_error.value)


def test_column_count_of_a_too_small_grid_raises_like_grid_indices():
    cell = Cell(alat=2 * np.pi)
    sphere = build_sphere(cell, 16.001)  # extends to |m| = 4
    with pytest.raises(ValueError, match="too small") as from_sphere:
        sphere.grid_indices((4, 4, 4))
    with pytest.raises(ValueError, match="too small") as from_counts:
        column_counts(cell, 16.001, (4, 4, 4))
    assert str(from_counts.value) == str(from_sphere.value)
