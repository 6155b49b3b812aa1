"""Pencil (2D) decomposition of the FFT grid over a Pr x Pc processor grid.

The paper's slab scheme distributes z-sticks over all R scatter ranks and
z-*planes* back over the same R ranks — its scaling ceiling is the plane
count ``nr3``.  The pencil decomposition arranges the R scatter ranks of
one task group as a ``Pr x Pc`` grid instead and never forms slabs:

* **G space / z pencils** — scatter rank ``r = (i, j)`` owns whole sticks
  (z columns), constrained to the x-range ``X_i`` of its *row* (sticks
  are balanced by G weight over the row's ``Pc`` ranks, exactly like the
  slab LPT but within the row).
* **y pencils** — after the z FFT, the row-internal ``transpose_zy``
  (``Pc`` ranks) gives ``(i, j)`` full y-lines for ``ix in X_i``,
  ``iz in Z_j``.
* **x pencils** — after the y FFT, the column-internal ``transpose_yx``
  (``Pr`` ranks) gives ``(i, j)`` full x-lines for ``iy in Y_i``,
  ``iz in Z_j``.

Each transpose involves only ``Pc`` (resp. ``Pr``) ranks instead of all
R, and the per-rank surface shrinks with both factors — the pivotal
scaling choice past one node (AccFFT; Dalcin et al., PAPERS.md).  The
z+y+x 1D FFT chain is a complete 3D transform, so pencil results agree
with the slab path to floating-point roundoff.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PencilGrid", "factor_grid", "partition_spans"]


def factor_grid(R: int) -> tuple[int, int]:
    """Factor R ranks into ``(Pr, Pc)`` with ``Pr <= Pc``, Pr maximal.

    The squarest factorization minimizes the larger transpose group (both
    transposes shrink as the grid approaches square).
    """
    if R < 1:
        raise ValueError(f"need at least one rank, got {R}")
    pr = 1
    for d in range(1, int(np.sqrt(R)) + 1):
        if R % d == 0:
            pr = d
    return pr, R // pr


def partition_spans(weights: np.ndarray, parts: int) -> list[tuple[int, int]]:
    """Split ``range(len(weights))`` into ``parts`` contiguous spans of
    near-equal total weight (quota boundaries on the cumulative sum).

    Zero-weight prefixes/suffixes can yield empty spans; the union always
    covers the full index range and spans never overlap.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    n = len(weights)
    cum = np.cumsum(np.asarray(weights, dtype=np.float64))
    total = float(cum[-1]) if n else 0.0
    if total <= 0:
        # Degenerate: fall back to near-equal index ranges.
        base, extra = divmod(n, parts)
        spans = []
        lo = 0
        for k in range(parts):
            hi = lo + base + (1 if k < extra else 0)
            spans.append((lo, hi))
            lo = hi
        return spans
    targets = total * (np.arange(1, parts) / parts)
    bounds = np.searchsorted(cum, targets, side="left") + 1
    bounds = np.clip(bounds, 0, n)
    edges = [0, *(int(b) for b in bounds), n]
    # Quota boundaries are monotone by construction of the cumsum search,
    # but enforce it defensively (repeated cum values can tie).
    for k in range(1, len(edges)):
        if edges[k] < edges[k - 1]:
            edges[k] = edges[k - 1]
    _refine_edges(cum, edges)
    return [(edges[k], edges[k + 1]) for k in range(parts)]


def _refine_edges(cum: np.ndarray, edges: list[int]) -> None:
    """Greedy local improvement of quota boundaries, in place.

    The quota split places each boundary at the first index past its
    target, which can leave one heavy item on the wrong side.  Each pass
    considers moving every interior edge by one index toward the lighter
    neighbour and accepts the move only when the heavier of the two
    adjacent parts strictly shrinks.  That acceptance rule means the pair
    maximum decreases *and* the pair minimum increases on every accepted
    move, so the global max part weight never grows, the global min never
    shrinks, and the quota split's balance bounds survive refinement.
    Each accepted move strictly decreases the sum of squared part weights,
    so the loop terminates; the pass cap is a defensive bound.
    """

    def weight(k: int) -> float:
        lo, hi = edges[k], edges[k + 1]
        return float(cum[hi - 1] - (cum[lo - 1] if lo > 0 else 0.0)) if hi > lo else 0.0

    parts = len(edges) - 1
    for _pass in range(max(len(cum), 1)):
        improved = False
        for k in range(1, parts):
            left, right = weight(k - 1), weight(k)
            pair_max = max(left, right)
            e = edges[k]
            # Shift one item left->right (edge moves left) ...
            if left > right and e - 1 > edges[k - 1]:
                w = float(cum[e - 1] - (cum[e - 2] if e >= 2 else 0.0))
                if max(left - w, right + w) < pair_max:
                    edges[k] = e - 1
                    improved = True
                    continue
            # ... or right->left (edge moves right).
            if right > left and e + 1 < edges[k + 1]:
                w = float(cum[e] - (cum[e - 1] if e >= 1 else 0.0))
                if max(left + w, right - w) < pair_max:
                    edges[k] = e + 1
                    improved = True
        if not improved:
            break


class PencilGrid:
    """Geometry bookkeeping of one task group's ``Pr x Pc`` scatter grid.

    Parameters
    ----------
    grid_shape:
        The global FFT grid ``(nr1, nr2, nr3)``.
    R:
        Scatter ranks per task group (``Pr * Pc == R``).
    x_weights:
        Per-``ix`` G weight (stick counts summed by x column) used to
        balance the row x-ranges; ``None`` balances by column count.
    """

    def __init__(
        self,
        grid_shape: tuple[int, int, int],
        R: int,
        x_weights: np.ndarray | None = None,
    ):
        self.nr1, self.nr2, self.nr3 = (int(n) for n in grid_shape)
        self.R = int(R)
        self.Pr, self.Pc = factor_grid(self.R)
        if x_weights is None:
            x_weights = np.ones(self.nr1)
        if len(x_weights) != self.nr1:
            raise ValueError(
                f"x_weights has {len(x_weights)} entries; grid has nr1={self.nr1}"
            )
        #: Row x-ranges, weight-balanced (the stick-bearing dimension).
        self.x_spans = partition_spans(np.asarray(x_weights), self.Pr)
        #: Row y-ranges and column z-ranges, near-equal index splits.
        self.y_spans = partition_spans(np.ones(self.nr2), self.Pr)
        self.z_spans = partition_spans(np.ones(self.nr3), self.Pc)

    # -- rank grid ----------------------------------------------------------

    def coords(self, r: int) -> tuple[int, int]:
        """Grid coordinates ``(i, j)`` of scatter rank ``r`` (row-major)."""
        if not 0 <= r < self.R:
            raise ValueError(f"scatter rank {r} outside grid of {self.R}")
        return divmod(r, self.Pc)

    def rank_of(self, i: int, j: int) -> int:
        """Scatter rank at grid coordinates ``(i, j)``."""
        if not (0 <= i < self.Pr and 0 <= j < self.Pc):
            raise ValueError(f"({i}, {j}) outside grid {self.Pr}x{self.Pc}")
        return i * self.Pc + j

    def row_ranks(self, i: int) -> list[int]:
        """Scatter ranks of row ``i`` (the transpose_zy group, Pc ranks)."""
        return [self.rank_of(i, j) for j in range(self.Pc)]

    def col_ranks(self, j: int) -> list[int]:
        """Scatter ranks of column ``j`` (the transpose_yx group, Pr ranks)."""
        return [self.rank_of(i, j) for i in range(self.Pr)]

    # -- owned ranges -------------------------------------------------------

    def x_span(self, i: int) -> tuple[int, int]:
        return self.x_spans[i]

    def y_span(self, i: int) -> tuple[int, int]:
        return self.y_spans[i]

    def z_span(self, j: int) -> tuple[int, int]:
        return self.z_spans[j]

    def nx(self, i: int) -> int:
        lo, hi = self.x_spans[i]
        return hi - lo

    def ny(self, i: int) -> int:
        lo, hi = self.y_spans[i]
        return hi - lo

    def nz(self, j: int) -> int:
        lo, hi = self.z_spans[j]
        return hi - lo

    # -- brick shapes -------------------------------------------------------

    def y_brick_shape(self, r: int) -> tuple[int, int, int]:
        """y-pencil brick of rank ``r``: ``(nx_i, nz_j, nr2)`` (y last) —
        the volume the y<->x transpose is priced at; the data plane stores
        only its stick rows (``DistributedLayout.ybrick_shape``)."""
        i, j = self.coords(r)
        return (self.nx(i), self.nz(j), self.nr2)

    def x_brick_shape(self, r: int) -> tuple[int, int, int]:
        """x-pencil brick of rank ``r``: ``(ny_i, nz_j, nr1)`` (x last)."""
        i, j = self.coords(r)
        return (self.ny(i), self.nz(j), self.nr1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PencilGrid({self.Pr}x{self.Pc}, grid=({self.nr1},{self.nr2},{self.nr3}))"
