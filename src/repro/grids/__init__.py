"""Plane-wave G-vector and data-distribution machinery.

This is the Quantum ESPRESSO substrate underneath FFTXlib: the kinetic-energy
cutoff constrains the wave function's G-vectors to a *sphere* in reciprocal
space, so the domain of the 3D FFT is a sphere inside a cube — the reason
the parallel transform needs sticks, a redistribution (scatter), and load
balancing at all (paper §II.A).

* :mod:`~repro.grids.lattice` — the simulation cell, direct/reciprocal
  lattices, ``tpiba`` units;
* :mod:`~repro.grids.gvectors` — G-sphere generation under a cutoff, QE's
  canonical ordering, FFT-grid sizing via ``good_fft_order``;
* :mod:`~repro.grids.sticks` — stick maps (the (ix, iy) columns that carry
  sphere points) and their balanced distribution over processes;
* :mod:`~repro.grids.descriptor` — the ``dffts`` analogue: grid dims, the
  stick map (the sphere and its index tables on first use), and
  :class:`DistributedLayout`, which fixes the R x T (scatter x task-group)
  process grid, stick ownership, plane ownership, and all pack/scatter
  index bookkeeping the pipeline needs.
"""

from repro.grids.lattice import Cell
from repro.grids.gvectors import GSphere, build_sphere, grid_dimensions
from repro.grids.sticks import StickMap, distribute_sticks
from repro.grids.pencil import PencilGrid, factor_grid, partition_spans
from repro.grids.descriptor import DistributedLayout, FftDescriptor

__all__ = [
    "Cell",
    "GSphere",
    "build_sphere",
    "grid_dimensions",
    "StickMap",
    "distribute_sticks",
    "PencilGrid",
    "factor_grid",
    "partition_spans",
    "FftDescriptor",
    "DistributedLayout",
]
