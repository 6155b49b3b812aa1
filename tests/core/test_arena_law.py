"""What a warm data-mode run keeps in its arenas, pinned per cell.

``fixtures/arena_pins.json`` holds the warm ``bytes_resident`` of every
version × {slab, pencil} × {1, 2 nodes} on the quick grid (4 ranks, 2 task
groups): the second of two runs on a freshly built layout, so the pools
hold exactly what this configuration's schedule checks out at once.  An
arena change may only shrink a cell.  ``python tests/core/test_arena_law.py``
prints the current values.

The arenas are keyed by receive slot: a rank's pack and every second
exchange receive into slot 0, the others into slot 1, and each slot's
buffers are sized for the largest block the slot receives.  No exchange
delivers dense real space: the real-space section builds it a chunk at a
time in a scratch borrowed from the slot its block is not in, grown to at
least one plane (slab) or x line (pencil).  So a linear run holds one
buffer per slot and process:

* slab: Σₚ max(stick block, one plane) + ``nst_all · npp(r)`` (slot 0 the
  stick blocks and the scratch, slot 1 the compact scatter block);
* pencil: Σₚ max(stick block, compact x-brick) + max(y-brick, one x line)
  (slot 0 the stick blocks and the x-brick of the stick-carrying x
  columns, slot 1 the y-brick and the scratch).
"""

import json
import math
import pathlib

import pytest

from repro.core import RunConfig, run_fft_phase
from repro.core.config import VERSIONS
from repro.core.driver import build_geometry

QUICK = dict(ecutwfc=30.0, alat=10.0, nbnd=32, ranks=4, taskgroups=2)
PINS_PATH = pathlib.Path(__file__).parent / "fixtures/arena_pins.json"
CELLS = {
    f"{version}-{decomposition}-{n_nodes}node": (version, decomposition, n_nodes)
    for version in VERSIONS
    for decomposition in ("slab", "pencil")
    for n_nodes in (1, 2)
}


def warm_run(cell: str):
    """The second of two runs of ``cell`` on a freshly built layout."""
    version, decomposition, n_nodes = CELLS[cell]
    config = RunConfig(
        **QUICK, data_mode=True, version=version,
        decomposition=decomposition, n_nodes=n_nodes,
    )
    build_geometry.cache_clear()
    run_fft_phase(config)
    return run_fft_phase(config)


def two_slot_bytes(layout) -> int:
    """Σₚ max(stick block, compact x-brick) + max(y-brick, one x line): one
    buffer per receive slot and process of a linear pencil run."""
    nr3 = layout.desc.nr3
    items = 0
    for p in range(layout.P):
        r, _t = layout.rt_of(p)
        items += max(layout.nst_group(r) * nr3, math.prod(layout.xbrick_shape(r)))
        items += max(math.prod(layout.ybrick_shape(r)), layout.desc.nr1)
    return 16 * items


def slab_bytes(layout) -> int:
    """Σₚ max(stick block, one plane) + ``nst_all · npp(r)``: one buffer per
    receive slot and process of a linear slab run."""
    desc = layout.desc
    items = 0
    for p in range(layout.P):
        r, _t = layout.rt_of(p)
        items += max(layout.nst_group(r) * desc.nr3, desc.nr1 * desc.nr2)
        items += desc.sticks.nsticks * layout.npp(r)
    return 16 * items


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_warm_arena_bytes_never_exceed_the_pin(cell):
    pin = json.loads(PINS_PATH.read_text())[cell]
    held = warm_run(cell).dataplane["bytes_resident"]
    if CELLS[cell][1] == "slab":
        assert held == pin
    else:
        assert held <= pin


#: Cells with one unit in flight per rank, so one buffer per slot: the bare
#: linear loop (``pipelined`` pencil chains run it too; a pipelined slab
#: holds two units).  ``ompss_perfft`` runs a band per task-group worker at
#: once.
LINEAR_PENCIL = sorted(
    cell for cell, (version, decomposition, _n) in CELLS.items()
    if decomposition == "pencil" and version in ("original", "pipelined")
)
LINEAR_SLAB = sorted(
    cell for cell, (version, decomposition, _n) in CELLS.items()
    if decomposition == "slab" and version == "original"
)


@pytest.mark.parametrize("cell", LINEAR_PENCIL)
def test_linear_pencil_arena_follows_the_two_slot_law(cell):
    result = warm_run(cell)
    held = result.dataplane["bytes_resident"]
    assert held == two_slot_bytes(result.layout)
    assert held <= json.loads(PINS_PATH.read_text())[cell]


@pytest.mark.parametrize("cell", LINEAR_SLAB)
def test_linear_slab_arena_follows_the_slab_law(cell):
    result = warm_run(cell)
    held = result.dataplane["bytes_resident"]
    assert held == slab_bytes(result.layout)
    assert held <= json.loads(PINS_PATH.read_text())[cell]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_warm_run_allocates_nothing_and_balances(cell):
    dp = warm_run(cell).dataplane
    assert dp["alloc_misses"] == 0
    assert dp["live"] == 0
    assert dp["acquires"] == dp["releases"] > 0


if __name__ == "__main__":
    print(json.dumps(
        {cell: warm_run(cell).dataplane["bytes_resident"] for cell in sorted(CELLS)},
        indent=1,
    ))
