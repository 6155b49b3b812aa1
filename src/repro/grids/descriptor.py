"""The FFT descriptor (``dffts`` analogue) and the R x T distributed layout.

:class:`FftDescriptor` holds the global geometry: cell, cutoffs, FFT grid
dimensions and the stick map, built from a per-column count of the wave
sphere without listing its points.  The G-level tables — the sphere itself,
each G's grid coordinates and its stick — are built on first read: the data
plane and the dense reference read them, a meta-mode run (sizes and stick
counts only) never does.

:class:`DistributedLayout` fixes how a descriptor is spread over an
``R x T`` process grid — R the size of each *scatter* group (the ranks that
jointly compute one parallel 3D FFT) and T the number of *FFT task groups*
(concurrently transformed bands), exactly the two MPI layers of the paper:

* process ``p = r * T + t`` — so a *pack* group (fixed ``r``) is T
  consecutive ranks and a *scatter* group (fixed ``t``) is R ranks strided
  by T, reproducing the communicator patterns visible in the paper's Fig. 3
  timeline ("R sub-communicators with T neighboring ranks each" for
  pack/unpack; "T sub-communicators with R alternating ranks each" for the
  scatter);
* sticks are distributed over *all* P = R*T processes (balanced by G count);
* after the pack alltoallv, process (r, t) owns band t on the union of its
  pack group's sticks — the *group sticks* of r, stored as the concatenation
  of the members' stick lists so pack/unpack segments stay contiguous;
* z-planes are distributed over the R scatter ranks.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.grids.gvectors import GSphere, build_sphere, column_counts, grid_dimensions
from repro.grids.lattice import Cell, finite_positive
from repro.grids.pencil import PencilGrid
from repro.grids.sticks import Runs, StickMap, clip_runs, distribute_sticks

__all__ = ["FftDescriptor", "DistributedLayout"]


class FftDescriptor:
    """Global FFT geometry for a wave-function transform.

    Parameters
    ----------
    cell:
        The simulation cell.
    ecutwfc:
        Wave-function kinetic-energy cutoff (Rydberg); the paper's workload
        uses 80.
    dual:
        Ratio of the grid (density) cutoff to ``ecutwfc`` (QE default 4).
    """

    def __init__(self, cell: Cell, ecutwfc: float, dual: float = 4.0):
        ecutwfc = finite_positive("ecutwfc", ecutwfc)
        dual = float(dual)
        if not (dual >= 1 and math.isfinite(dual)):
            raise ValueError(f"dual must be finite and >= 1, got {dual!r}")
        self.cell = cell
        self.ecutwfc = ecutwfc
        self.dual = dual
        self.gkcut = cell.gcut_from_ecut(ecutwfc)
        self.gcut_grid = cell.gcut_from_ecut(dual * ecutwfc)
        self.nr1, self.nr2, self.nr3 = grid_dimensions(cell, self.gcut_grid)
        self.sticks: StickMap = StickMap.from_column_counts(
            column_counts(cell, self.gkcut, self.grid_shape)
        )

    # -- G-level tables: built on first use (data mode, qe, validation) -------

    @functools.cached_property
    def sphere(self) -> GSphere:
        """The wave sphere, canonically ordered."""
        return build_sphere(self.cell, self.gkcut)

    @functools.cached_property
    def grid_idx(self) -> np.ndarray:
        """``(ngw, 3)`` wrapped grid coordinates of the sphere's G-vectors."""
        return self.sphere.grid_indices(self.grid_shape)

    @functools.cached_property
    def stick_of_g(self) -> np.ndarray:
        """``(ngw,)`` stick index of every sphere G-vector."""
        coords = self.sticks.coords
        stick_at = np.empty((self.nr1, self.nr2), dtype=np.int64)
        stick_at[coords[:, 0], coords[:, 1]] = np.arange(len(coords))
        return stick_at[self.grid_idx[:, 0], self.grid_idx[:, 1]]

    @property
    def ngw(self) -> int:
        """Wave-sphere G-vector count (global)."""
        return self.sticks.total_g

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        """Full FFT grid dimensions ``(nr1, nr2, nr3)``."""
        return (self.nr1, self.nr2, self.nr3)

    @property
    def nnr(self) -> int:
        """Total grid points."""
        return self.nr1 * self.nr2 * self.nr3

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FftDescriptor(grid={self.grid_shape}, ngw={self.ngw}, "
            f"nsticks={self.sticks.nsticks})"
        )


class DistributedLayout:
    """Ownership bookkeeping of a descriptor over an R x T process grid.

    ``decomposition`` selects how real space is split over the R scatter
    ranks of each task group: ``"slab"`` (the paper's z-plane scheme) or
    ``"pencil"`` (a ``Pr x Pc`` grid; sticks constrained to per-row
    x-ranges so the two pencil transposes stay row/column-internal, see
    :mod:`repro.grids.pencil`).
    """

    def __init__(
        self,
        desc: FftDescriptor,
        n_scatter: int,
        n_groups: int,
        decomposition: str = "slab",
    ):
        if n_scatter < 1 or n_groups < 1:
            raise ValueError(
                f"process grid must be positive, got R={n_scatter}, T={n_groups}"
            )
        if decomposition not in ("slab", "pencil"):
            raise ValueError(
                f"decomposition must be 'slab' or 'pencil', got {decomposition!r}"
            )
        self.desc = desc
        self.R = n_scatter
        self.T = n_groups
        self.P = n_scatter * n_groups
        self.decomposition = decomposition

        #: Pencil grid geometry (``None`` for the slab scheme).
        self.pencil: PencilGrid | None = None

        #: Global stick -> owning process.
        if decomposition == "pencil":
            self.pencil = PencilGrid(
                desc.grid_shape,
                self.R,
                x_weights=np.bincount(
                    desc.sticks.coords[:, 0],
                    weights=desc.sticks.counts,
                    minlength=desc.nr1,
                ),
            )
            self.stick_owner = self._pencil_stick_owner(self.pencil)
        else:
            self.stick_owner = distribute_sticks(desc.sticks.counts, self.P)

        self._sticks_of = [
            np.flatnonzero(self.stick_owner == p) for p in range(self.P)
        ]
        self._ngw_of = np.array(
            [int(desc.sticks.counts[s].sum()) for s in self._sticks_of]
        )

        # Group sticks: concatenation over the pack group's members in t
        # order — pack/unpack exchange whole contiguous segments.
        self._group_sticks = []
        self._group_offsets = []
        for r in range(self.R):
            segments = [self._sticks_of[self.proc_of(r, t)] for t in range(self.T)]
            offsets = np.zeros(self.T + 1, dtype=np.int64)
            offsets[1:] = np.cumsum([len(s) for s in segments])
            self._group_sticks.append(
                np.concatenate(segments)
                if segments
                else np.empty(0, dtype=np.int64)
            )
            self._group_offsets.append(offsets)

        # z-plane distribution over the scatter dimension.
        base, extra = divmod(desc.nr3, self.R)
        self._npp = np.array([base + (1 if r < extra else 0) for r in range(self.R)])
        self._z_offset = np.zeros(self.R + 1, dtype=np.int64)
        self._z_offset[1:] = np.cumsum(self._npp)

        # Flat index maps (data-plane): built lazily on first data-mode use,
        # then shared by every pack/scatter/wave helper for the layout's
        # lifetime.  Meta-mode runs never pay for them.
        self._g_tables: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
        self._local_flat: list[np.ndarray] = []
        self._group_coeff_offsets: dict[int, np.ndarray] = {}
        self._group_flat: dict[int, np.ndarray] = {}
        self._scatter_stick_offsets: np.ndarray | None = None
        self._scatter_plane_flat: np.ndarray | None = None
        self._xbrick_columns: tuple[np.ndarray, int] | None = None

    def _pencil_stick_owner(self, grid: PencilGrid) -> np.ndarray:
        """Stick ownership honoring the pencil rows' x-ranges.

        Sticks with ``ix in X_i`` may only live on row ``i``'s ``Pc * T``
        processes (so transpose_zy needs no traffic outside the row); the
        same LPT G-balance as the slab scheme runs *within* each row.
        """
        desc = self.desc
        coords = desc.sticks.coords
        counts = desc.sticks.counts
        owner = np.empty(desc.sticks.nsticks, dtype=np.int64)
        for i in range(grid.Pr):
            lo, hi = grid.x_span(i)
            sticks_i = np.flatnonzero((coords[:, 0] >= lo) & (coords[:, 0] < hi))
            procs_i = np.array(
                [
                    r * self.T + t
                    for r in grid.row_ranks(i)
                    for t in range(self.T)
                ],
                dtype=np.int64,
            )
            if len(sticks_i):
                sub = distribute_sticks(counts[sticks_i], len(procs_i))
                owner[sticks_i] = procs_i[sub]
        return owner

    # -- process grid -------------------------------------------------------

    def proc_of(self, r: int, t: int) -> int:
        """Process index of scatter-rank ``r``, task-group ``t``."""
        if not (0 <= r < self.R and 0 <= t < self.T):
            raise ValueError(f"(r={r}, t={t}) outside grid {self.R}x{self.T}")
        return r * self.T + t

    def rt_of(self, p: int) -> tuple[int, int]:
        """Inverse of :meth:`proc_of`."""
        if not 0 <= p < self.P:
            raise ValueError(f"process {p} outside world of size {self.P}")
        return divmod(p, self.T)

    def pack_group(self, r: int) -> list[int]:
        """The T processes of pack group ``r`` (consecutive ranks)."""
        return [self.proc_of(r, t) for t in range(self.T)]

    def scatter_group(self, t: int) -> list[int]:
        """The R processes of scatter group ``t`` (stride-T ranks)."""
        return [self.proc_of(r, t) for r in range(self.R)]

    # -- stick ownership ------------------------------------------------------

    def sticks_of(self, p: int) -> np.ndarray:
        """Global stick indices owned by process ``p`` (ascending)."""
        return self._sticks_of[p]

    def ngw_of(self, p: int) -> int:
        """Wave-sphere G count on process ``p``'s sticks."""
        return int(self._ngw_of[p])

    def group_sticks(self, r: int) -> np.ndarray:
        """Stick indices of pack group ``r`` (members concatenated in t order)."""
        return self._group_sticks[r]

    def group_offsets(self, r: int) -> np.ndarray:
        """Segment offsets of each member inside :meth:`group_sticks`."""
        return self._group_offsets[r]

    def nst_group(self, r: int) -> int:
        """Stick count of pack group ``r``."""
        return len(self._group_sticks[r])

    # -- plane ownership ----------------------------------------------------------

    def npp(self, r: int) -> int:
        """Number of z-planes owned by scatter rank ``r``."""
        return int(self._npp[r])

    def z_offset(self, r: int) -> int:
        """First z-plane of scatter rank ``r``."""
        return int(self._z_offset[r])

    def z_slice(self, r: int) -> slice:
        """Python slice of scatter rank ``r``'s planes."""
        return slice(self.z_offset(r), self.z_offset(r) + self.npp(r))

    # -- data-mode index helpers --------------------------------------------------

    def _ensure_g_tables(self) -> None:
        """One vectorized pass building every process's G-table.

        Replaces the per-call ``np.isin`` + ``searchsorted`` scan (the old
        ``local_g_table`` body, O(ngw * log) *per call* and the dominant
        data-mode hot spot) with a single stable argsort of the G-vectors by
        owning process, done once per layout.
        """
        if self._g_tables is not None:
            return
        desc = self.desc
        stick_of_g = desc.stick_of_g
        g_owner = self.stick_owner[stick_of_g]
        # Stable sort keeps ascending global-G order within each owner —
        # exactly the packed-coefficient storage convention.
        order = np.argsort(g_owner, kind="stable")
        counts = np.bincount(g_owner, minlength=self.P)
        splits = np.zeros(self.P + 1, dtype=np.int64)
        splits[1:] = np.cumsum(counts)
        local_of_stick = np.empty(desc.sticks.nsticks, dtype=np.int64)
        for sticks in self._sticks_of:
            local_of_stick[sticks] = np.arange(len(sticks), dtype=np.int64)
        iz_all = desc.grid_idx[:, 2]
        nr3 = desc.nr3
        tables = []
        flat = []
        for p in range(self.P):
            g_idx = order[splits[p] : splits[p + 1]]
            stick_local = local_of_stick[stick_of_g[g_idx]]
            iz = iz_all[g_idx]
            tables.append((g_idx, stick_local, iz))
            flat.append(stick_local * nr3 + iz)
        self._g_tables = tables
        self._local_flat = flat

    def local_g_table(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index tables for expanding process ``p``'s packed coefficients.

        Returns ``(g_indices, stick_local, iz)``: the sphere positions of
        ``p``'s G-vectors (ascending, i.e. their order within the packed
        coefficient array), the local index of each G's stick within
        ``sticks_of(p)``, and its z grid coordinate.  Cached; computed for
        all processes in one vectorized pass on first use.
        """
        self._ensure_g_tables()
        assert self._g_tables is not None
        return self._g_tables[p]

    def local_flat_index(self, p: int) -> np.ndarray:
        """Raveled ``(stick_local, iz)`` positions of ``p``'s G-vectors.

        Flat indices into process ``p``'s own ``(nst_p, nr3)`` stick block
        (C order), in packed-coefficient order — the single-take/put twin of
        :meth:`local_g_table`.
        """
        self._ensure_g_tables()
        return self._local_flat[p]

    def group_coeff_offsets(self, r: int) -> np.ndarray:
        """``(T+1,)`` offsets of each member's coefficients in the group's
        concatenated packed-coefficient buffer (``ngw_of`` cumsum)."""
        cached = self._group_coeff_offsets.get(r)
        if cached is None:
            cached = np.zeros(self.T + 1, dtype=np.int64)
            cached[1:] = np.cumsum(
                [self.ngw_of(self.proc_of(r, t)) for t in range(self.T)]
            )
            self._group_coeff_offsets[r] = cached
        return cached

    def group_flat_index(self, r: int) -> np.ndarray:
        """Raveled positions of pack group ``r``'s G-vectors in its block.

        Flat indices into the ``(nst_group(r), nr3)`` group stick block
        (C order), member segments concatenated in t order — one fancy
        take/put with these indices replaces the per-member expand/extract
        loop.
        """
        cached = self._group_flat.get(r)
        if cached is None:
            self._ensure_g_tables()
            offsets = self.group_offsets(r)
            nr3 = self.desc.nr3
            parts = []
            for t in range(self.T):
                _g, stick_local, iz = self.local_g_table(self.proc_of(r, t))
                parts.append((offsets[t] + stick_local) * nr3 + iz)
            cached = (
                np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            )
            self._group_flat[r] = cached
        return cached

    def scatter_stick_offsets(self) -> np.ndarray:
        """``(R+1,)`` offsets of each scatter rank's group sticks in the
        concatenated all-ranks stick order (``nst_group`` cumsum)."""
        if self._scatter_stick_offsets is None:
            offsets = np.zeros(self.R + 1, dtype=np.int64)
            offsets[1:] = np.cumsum([self.nst_group(r) for r in range(self.R)])
            self._scatter_stick_offsets = offsets
        return self._scatter_stick_offsets

    def scatter_plane_index(self) -> np.ndarray:
        """Raveled ``(ix, iy)`` plane positions of all group sticks.

        Flat indices into an ``(nr1 * nr2)``-raveled xy plane, for the
        concatenation of ``group_sticks(r')`` over ``r' = 0..R-1`` — the
        take/put map of the scatter's plane assembly/extraction.
        """
        if self._scatter_plane_flat is None:
            coords = self.desc.sticks.coords[
                np.concatenate([self._group_sticks[r] for r in range(self.R)])
                if self.R
                else np.empty(0, dtype=np.int64)
            ]
            self._scatter_plane_flat = coords[:, 0] * self.desc.nr2 + coords[:, 1]
        return self._scatter_plane_flat

    def ybrick_x_runs(self, r: int) -> Runs:
        """The x rows pencil rank ``r``'s y-brick holds, as runs of grid x.

        Row ``i`` of the pencil grid owns every stick with ``ix`` in its
        x-range, so the rows that carry sticks are the stick map's
        ``x_runs`` clipped to that range.  The brick stores those rows
        alone, in ascending x (:meth:`ybrick_shape`).
        """
        grid = self.pencil
        if grid is None:
            raise ValueError("y-bricks need a pencil-decomposed layout")
        i, _j = grid.coords(r)
        return clip_runs(self.desc.sticks.x_runs, *grid.x_span(i))

    def ybrick_shape(self, r: int) -> tuple[int, int, int]:
        """Pencil rank ``r``'s y-brick: ``(n_x, nz_j, nr2)``, one row per x
        of :meth:`ybrick_x_runs` (y last)."""
        n_x = sum(hi - lo for lo, hi in self.ybrick_x_runs(r))
        _i, j = self.pencil.coords(r)
        return (n_x, self.pencil.nz(j), self.desc.nr2)

    def xbrick_columns(self) -> tuple[np.ndarray, int]:
        """The compact x-brick's last axis: ``(col_of_x, n_live_x)``.

        The columns are the stick map's ``x_runs`` packed in ascending x;
        ``col_of_x[x]`` is grid x's column (``-1`` for an x without
        sticks), ``n_live_x`` the number of columns.  Shared by the y->x
        plans and the real-space section.
        """
        if self._xbrick_columns is None:
            col_of_x = np.full(self.desc.nr1, -1, dtype=np.int64)
            n_live = 0
            for lo, hi in self.desc.sticks.x_runs:
                col_of_x[lo:hi] = np.arange(n_live, n_live + hi - lo)
                n_live += hi - lo
            self._xbrick_columns = (col_of_x, n_live)
        return self._xbrick_columns

    def xbrick_shape(self, r: int) -> tuple[int, int, int]:
        """Pencil rank ``r``'s compact x-brick: ``(ny_i, nz_j, n_live_x)``,
        one column per stick-carrying x (:meth:`xbrick_columns`, x last)."""
        ny, nz, _nr1 = self.pencil.x_brick_shape(r)
        return (ny, nz, self.xbrick_columns()[1])

    def stick_coords(self, stick_indices: np.ndarray) -> np.ndarray:
        """(ix, iy) grid coordinates of the given global sticks."""
        return self.desc.sticks.coords[stick_indices]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DistributedLayout(R={self.R}, T={self.T}, P={self.P})"
