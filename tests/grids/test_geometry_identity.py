"""The cheap geometry build returns the arrays the old build returned.

``build_sphere`` (per-plane prefilter + one stable sort), ``grid_indices``
(conditional add) and the stick map built from per-column counts
(``column_counts`` + ``StickMap.from_column_counts``, no sphere) replaced
numpy slow paths on the cold-start path; the descriptor builds its sphere,
grid indices and ``stick_of_g`` on first use.  Every simulated number and
every data-mode output depends on these arrays, so the old implementations
are kept here as the reference and the new ones must match them in value,
dtype, shape and order — for cubic and non-cubic cells, and all the way
through the R x T layouts built on top.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grids import Cell, DistributedLayout, FftDescriptor, GSphere, StickMap, build_sphere
from repro.grids.gvectors import column_counts, grid_dimensions
from tests.grids.lattices import SHEARED, TETRAGONAL

TRICLINIC = np.array([[1.0, 0.31, 0.17], [0.05, 1.13, 0.23], [0.11, 0.07, 0.93]])
LATTICES = {"cubic": None, "tetragonal": TETRAGONAL, "sheared": SHEARED, "triclinic": TRICLINIC}


# -- the implementations this PR replaced, verbatim ---------------------------

def ref_build_sphere(cell: Cell, gcut: float) -> GSphere:
    radius = np.sqrt(gcut)
    bounds = [int(np.ceil(radius * np.linalg.norm(cell.at[:, i]))) for i in range(3)]
    axes = [np.arange(-b, b + 1) for b in bounds]
    mi, mj, mk = np.meshgrid(*axes, indexing="ij")
    millers = np.column_stack([mi.ravel(), mj.ravel(), mk.ravel()])
    g2 = cell.g_norm2(millers)
    keep = g2 <= gcut + 1e-12
    millers = millers[keep]
    g2 = g2[keep]
    order = np.lexsort((millers[:, 2], millers[:, 1], millers[:, 0], np.round(g2, 10)))
    return GSphere(millers[order], g2[order], gcut)


def ref_grid_indices(sphere: GSphere, dims) -> np.ndarray:
    return np.mod(sphere.millers, np.asarray(dims))


def ref_stick_map(grid_indices: np.ndarray) -> tuple[StickMap, np.ndarray]:
    """The stick map and ``stick_of_g`` of the sphere's grid coordinates."""
    xy = np.ascontiguousarray(grid_indices[:, :2])
    coords, stick_of_g, counts = np.unique(
        xy, axis=0, return_inverse=True, return_counts=True
    )
    return StickMap(coords, counts), stick_of_g.ravel()


def ref_descriptor(desc: FftDescriptor) -> FftDescriptor:
    """``desc`` with its sphere, grid indices and stick map rebuilt the old way."""
    ref = copy.copy(desc)
    ref.sphere = ref_build_sphere(desc.cell, desc.gkcut)
    ref.grid_idx = ref_grid_indices(ref.sphere, desc.grid_shape)
    ref.sticks, ref.stick_of_g = ref_stick_map(ref.grid_idx)
    return ref


def assert_same_array(new: np.ndarray, old: np.ndarray, what: str) -> None:
    assert new.dtype == old.dtype, f"{what}: dtype {new.dtype} != {old.dtype}"
    assert new.shape == old.shape, f"{what}: shape {new.shape} != {old.shape}"
    assert new.flags.c_contiguous == old.flags.c_contiguous, f"{what}: memory order"
    assert np.array_equal(new, old), f"{what}: values differ"


G_TABLES = ("sphere", "grid_idx", "stick_of_g")


def assert_same_sticks(sticks: StickMap, ref: StickMap) -> None:
    assert_same_array(sticks.coords, ref.coords, "stick coords")
    assert_same_array(sticks.counts, ref.counts, "stick counts")
    assert sticks.xy_support == ref.xy_support


def assert_same_descriptor(desc: FftDescriptor, ref: FftDescriptor) -> None:
    # The stick map is built without the sphere: compare it first, while
    # the G-level tables are still unbuilt.
    assert not set(G_TABLES) & set(vars(desc))
    assert_same_sticks(desc.sticks, ref.sticks)
    assert desc.ngw == ref.sphere.ngm
    assert not set(G_TABLES) & set(vars(desc))
    assert_same_array(desc.sphere.millers, ref.sphere.millers, "millers")
    assert_same_array(desc.sphere.g2, ref.sphere.g2, "g2")
    assert_same_array(desc.grid_idx, ref.grid_idx, "grid_idx")
    assert_same_array(desc.stick_of_g, ref.stick_of_g, "stick_of_g")
    # Built once: a second read returns the cached object.
    for name in G_TABLES:
        assert getattr(desc, name) is vars(desc)[name]


# -- properties ----------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    lattice=st.sampled_from(sorted(LATTICES)),
    alat=st.sampled_from([4.0, 5.0, 7.5, 10.0]),
    ecut=st.floats(min_value=10.0, max_value=80.0),
)
def test_descriptor_arrays_equal_the_old_build(lattice, alat, ecut):
    desc = FftDescriptor(Cell(alat=alat, at=LATTICES[lattice]), ecutwfc=ecut)
    assert_same_descriptor(desc, ref_descriptor(desc))


def test_paper_grid_equals_the_old_build():
    desc = FftDescriptor(Cell(alat=20.0), ecutwfc=80.0)
    assert desc.grid_shape == (120, 120, 120) and desc.ngw == 96969
    assert_same_descriptor(desc, ref_descriptor(desc))


@settings(max_examples=25, deadline=None)
@given(
    lattice=st.sampled_from(sorted(LATTICES)),
    gcut=st.floats(min_value=0.5, max_value=40.0),
)
def test_sphere_equals_full_box_evaluation(lattice, gcut):
    """Cutoffs right on a shell included: the prefilter never drops or adds
    a point the exact ``g_norm2 <= gcut + 1e-12`` test decides, and the
    per-column count sees the same points."""
    cell = Cell(alat=6.0, at=LATTICES[lattice])
    for cut in (gcut, float(np.ceil(gcut))):
        new, old = build_sphere(cell, cut), ref_build_sphere(cell, cut)
        assert_same_array(new.millers, old.millers, "millers")
        assert_same_array(new.g2, old.g2, "g2")
        dims = grid_dimensions(cell, 4.0 * cut)
        assert_same_array(new.grid_indices(dims), ref_grid_indices(old, dims), "grid_idx")
        ref_sticks, _stick_of_g = ref_stick_map(ref_grid_indices(old, dims))
        assert_same_sticks(StickMap.from_column_counts(column_counts(cell, cut, dims)), ref_sticks)


@pytest.mark.parametrize("decomposition", ["slab", "pencil"])
@pytest.mark.parametrize("R,T", [(1, 1), (2, 2), (8, 8), (3, 2)])
@pytest.mark.parametrize("lattice", ["cubic", "sheared"])
def test_layouts_built_on_top_are_identical(lattice, R, T, decomposition):
    desc = FftDescriptor(Cell(alat=8.0, at=LATTICES[lattice]), ecutwfc=25.0)
    new = DistributedLayout(desc, R, T, decomposition=decomposition)
    old = DistributedLayout(ref_descriptor(desc), R, T, decomposition=decomposition)
    assert_same_array(new.stick_owner, old.stick_owner, "stick_owner")
    for p in range(new.P):
        assert_same_array(new.sticks_of(p), old.sticks_of(p), f"sticks_of({p})")
        assert_same_array(new.local_flat_index(p), old.local_flat_index(p), f"local_flat({p})")
    for r in range(R):
        assert_same_array(new.group_flat_index(r), old.group_flat_index(r), f"group_flat({r})")
    assert_same_array(new.scatter_plane_index(), old.scatter_plane_index(), "plane index")
