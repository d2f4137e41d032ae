"""Uniform grid index.

The workhorse index of this reproduction.  DBSCAN issues region queries with
one fixed radius ``Eps``; a uniform grid whose cell edge equals that radius
answers each query by scanning only the ``3^d`` cells surrounding the query
point.  For the low-dimensional data sets of the paper (2-D point sets A, B,
C) this is the fastest exact structure by a wide margin and plays the role
the R*-tree played in the original system.

The grid supports arbitrary query radii as well (it scans
``ceil(eps / cell)`` rings of cells), so OPTICS and the global clustering can
reuse it with radii different from the build radius — only the constant
factor changes, never correctness.

Cell storage is structure-of-arrays in CSR style: one flat ``intp`` array
holds every point index grouped by cell (ascending within each cell), and
the occupied cells' integer coordinates, in lexicographic order, slice into
it through ``start``/``stop`` arrays.  The layout is built in one vectorized
``lexsort`` pass — no per-point python loop, no per-cell objects — so a
10^6-point build is a sort, not a million dict appends.  Each occupied cell
is also coded as an int64 mixed-radix number (ascending, aligned with the
cell table), so the cells around a whole query batch are found with one
``searchsorted``; a bounding box too large to code falls back to a
vectorized scan of the cell table.

:meth:`GridIndex.neighbors` answers a batch of queries as CSR
``(indptr, neighbors)``: every candidate pair from the gathered cells gets
one row-aligned ``Metric.to_many`` distance, is kept iff ``<= eps`` and is
sorted by its ``(row, col)`` key.  The work runs in row blocks that bound
every temporary to a few MB, and the batched range and region queries are
built on it.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.data.distance import Metric
from repro.index.base import NeighborIndex, _as_query_batch

__all__ = ["GridIndex", "coordinate_reach"]

_GRID_METRICS = {"euclidean", "manhattan", "chebyshev", "squared_euclidean"}

#: Cell codes are int64 mixed-radix numbers; a grid whose bounding box
#: holds more cells than this scans its cell table instead.
_MAX_CODE = 2**62
#: Coordinates per block of candidate pairs in :meth:`GridIndex.neighbors`:
#: 128 KB of float64 per ``(pairs, d)`` temporary.  Larger blocks ran no
#: faster on a 20 000-point round and raised its peak RSS (by about 12% at
#: 2**18) and its local phase's tracemalloc peak.
_BLOCK_COORDS = 2**14


def coordinate_reach(metric: Metric, eps: float) -> float:
    """Half-width of the ``L_inf`` cube containing the ``eps``-ball.

    For euclidean/manhattan/chebyshev that is ``eps`` itself; for
    squared_euclidean the ball of squared radius ``eps`` has coordinate
    half-width ``sqrt(eps)`` (larger than ``eps`` when ``eps < 1`` —
    using ``eps`` there would silently drop true neighbors).
    """
    if eps <= 0:
        return 0.0
    if metric.name == "squared_euclidean":
        return math.sqrt(eps)
    return eps


class GridIndex(NeighborIndex):
    """Exact neighbor index over a uniform grid of cube-shaped cells.

    Args:
        points: array of shape ``(n, d)``.
        metric: metric name or instance.  Must be one of the translation-
            invariant ``L_p``-style metrics whose balls are bounded by
            ``L_inf`` cubes (euclidean, manhattan, chebyshev); other metrics
            should use :class:`~repro.index.brute.BruteForceIndex`.
        cell_size: edge length of a grid cell.  Choose the typical query
            radius (DBSCAN's ``Eps``) for single-ring queries.

    Raises:
        ValueError: if ``cell_size`` is not positive or the metric is not
            grid-compatible.
    """

    def __init__(
        self,
        points: np.ndarray,
        metric: str | Metric = "euclidean",
        *,
        cell_size: float,
    ) -> None:
        super().__init__(points, metric)
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        if self._metric.name not in _GRID_METRICS:
            raise ValueError(
                f"GridIndex supports metrics {sorted(_GRID_METRICS)}, "
                f"got {self._metric.name!r}"
            )
        self._cell_size = float(cell_size)
        # CSR cell storage: ``_flat`` holds point indices grouped by cell;
        # ``_keys`` holds the occupied cells' integer coordinates in
        # lexicographic order, aligned with their ``_starts``/``_stops``
        # slice bounds into ``_flat``.  ``_codes`` holds the same cells'
        # mixed-radix codes, ascending (``None`` when the bounding box has
        # too many cells to code).
        dim = points.shape[1] if points.ndim == 2 else 0
        self._flat: np.ndarray = np.empty(0, dtype=np.intp)
        self._keys: np.ndarray = np.empty((0, dim), dtype=np.int64)
        self._starts: np.ndarray = np.empty(0, dtype=np.intp)
        self._stops: np.ndarray = np.empty(0, dtype=np.intp)
        self._codes: np.ndarray | None = None
        if len(self) > 0:
            self._origin = self._points.min(axis=0)
            coords = self._cell_coords(self._points)
            self._flat, self._keys, self._starts, self._stops = _build_csr(coords)
            # Lexicographic key order is ascending mixed-radix code order
            # (first coordinate most significant, every coordinate >= 0).
            self._extent = self._keys.max(axis=0) + 1
            if math.prod(self._extent.tolist()) < _MAX_CODE:
                self._strides = np.ones(self._keys.shape[1], dtype=np.int64)
                for k in range(self._keys.shape[1] - 2, -1, -1):
                    self._strides[k] = self._strides[k + 1] * self._extent[k + 1]
                self._codes = self._keys @ self._strides
        else:
            self._origin = np.zeros(dim)

    @property
    def cell_size(self) -> float:
        """Edge length of one grid cell."""
        return self._cell_size

    @property
    def n_occupied_cells(self) -> int:
        """Number of non-empty grid cells."""
        return self._starts.size

    def _cell_coords(self, points: np.ndarray) -> np.ndarray:
        """Integer grid coordinates of the cells holding ``points``."""
        return np.floor((points - self._origin) / self._cell_size).astype(np.int64)

    def _rings(self, eps: float) -> int:
        """Cell rings around a query's cell that cover its ``eps``-cube."""
        reach = coordinate_reach(self._metric, eps)
        return int(math.ceil(reach / self._cell_size)) if reach > 0 else 0

    def _box_slots(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Ascending cell-table slots of the occupied cells in ``[low, high]``."""
        low = np.maximum(low, 0)
        high = np.minimum(high, self._extent - 1)
        spans = (high - low + 1).tolist()
        if min(spans, default=1) <= 0:
            return np.empty(0, dtype=np.intp)
        if self._codes is not None and math.prod(spans) <= max(
            4 * self.n_occupied_cells, 64
        ):
            box = np.indices(spans).reshape(len(spans), -1).T + low
            return self._lookup(box @ self._strides)[1]
        # The box holds more cells than are occupied, or cannot be coded:
        # scan the cell table instead of the (possibly huge) box.
        inside = np.all((self._keys >= low) & (self._keys <= high), axis=1)
        return np.flatnonzero(inside)

    def _lookup(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(found, slots)``: which ``codes`` are occupied cells, and the
        cell-table slots of those that are."""
        slots = np.minimum(np.searchsorted(self._codes, codes), self._codes.size - 1)
        found = self._codes[slots] == codes
        return found, slots[found]

    def _cell_hits(
        self, queries: np.ndarray, eps: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(owners, slots)``: every occupied cell in the neighbourhood of
        each query, grouped by query row in ascending order.

        A query's neighbourhood is its own cell and the :meth:`_rings`
        around it — a superset of its ``eps``-cube, since the ``eps``-ball
        of every supported metric lies in the ``L_inf`` cube of half-width
        :func:`coordinate_reach`.  The whole batch's cells are coded and
        looked up with one ``searchsorted``; an uncodable bounding box or a
        stencil wider than the occupied cells goes per query through
        :meth:`_box_slots`.
        """
        dim = self._keys.shape[1]
        rings = self._rings(eps)
        coords = self._cell_coords(queries)
        stencil = (2 * rings + 1) ** dim
        if self._codes is None or stencil > max(4 * self.n_occupied_cells, 64):
            gathered = [self._box_slots(row - rings, row + rings) for row in coords]
            owners = np.repeat(
                np.arange(len(gathered), dtype=np.intp), [g.size for g in gathered]
            )
            return owners, np.concatenate(gathered).astype(np.intp, copy=False)
        offsets = np.indices((2 * rings + 1,) * dim).reshape(dim, stencil).T - rings
        cells = (coords[:, None, :] + offsets[None, :, :]).reshape(-1, dim)
        owners = np.repeat(np.arange(queries.shape[0], dtype=np.intp), stencil)
        inside = np.all((cells >= 0) & (cells < self._extent), axis=1)
        found, slots = self._lookup(cells[inside] @ self._strides)
        return owners[inside][found], slots

    def _members(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(sizes, members)``: each cell's point count, and the point
        indices of all ``slots`` concatenated in slot order."""
        starts = self._starts[slots]
        sizes = self._stops[slots] - starts
        return sizes, self._flat[_concat_ranges(starts, sizes)]

    def range_query(self, query: np.ndarray, eps: float) -> np.ndarray:
        if len(self) == 0:
            return np.empty(0, dtype=np.intp)
        query = np.asarray(query, dtype=float)
        # Only the cells overlapping the query's eps-cube can hold hits.
        reach = coordinate_reach(self._metric, eps)
        low = self._cell_coords(query - reach)
        high = self._cell_coords(query + reach)
        __, candidates = self._members(self._box_slots(low, high))
        if candidates.size == 0:
            return candidates
        distances = self._metric.to_many(query, self._points[candidates])
        hits = candidates[distances <= eps]
        hits.sort()
        return hits

    def neighbors(
        self,
        queries: np.ndarray,
        eps: float,
        *,
        return_distances: bool = False,
    ) -> tuple[np.ndarray, ...]:
        """Every query's ``eps``-neighbourhood as CSR ``(indptr, neighbors)``.

        Candidate pairs come from :meth:`_cell_hits`; each pair's distance
        is one row-aligned ``Metric.to_many`` evaluation (the subtraction
        and reduction of :meth:`range_query`, so bit-equal to it), pairs
        are kept iff ``<= eps`` and sorted by their ``(row, col)`` key.
        The pairs are processed in blocks of whole query rows that keep
        every temporary to a few MB, so memory follows the batch's
        neighbourhoods, never a whole-set graph.  With a registry attached
        it records ``index.candidate_pairs`` and ``index.neighbor_pairs``.

        Args:
            queries: ``(m, d)`` query points.
            eps: query radius (inclusive).
            return_distances: also return each kept pair's distance,
                aligned with ``neighbors``.

        Returns:
            ``(indptr, neighbors)``, or ``(indptr, neighbors, distances)``:
            query ``i``'s neighbours, ascending, are
            ``neighbors[indptr[i]:indptr[i + 1]]``.
        """
        dim = self._points.shape[1] if self._points.ndim == 2 else 0
        queries = _as_query_batch(queries, dim)
        n_queries = queries.shape[0]
        if n_queries == 0 or len(self) == 0:
            empty = (np.zeros(n_queries + 1, dtype=np.intp), np.empty(0, dtype=np.intp))
            return (*empty, np.empty(0)) if return_distances else empty
        owners, slots = self._cell_hits(queries, eps)
        starts = self._starts[slots]
        sizes = self._stops[slots] - starts
        # Candidate pairs per query row decide the row blocks.
        per_row = np.bincount(owners, weights=sizes, minlength=n_queries)
        row_end = np.concatenate(([0], np.cumsum(per_row.astype(np.int64))))
        hit_end = np.searchsorted(owners, np.arange(n_queries + 1))
        budget = max(_BLOCK_COORDS // max(dim, 1), 1)
        n = len(self)
        counts = np.zeros(n_queries, dtype=np.intp)
        kept_cols, kept_distances = [], []
        lo = 0
        while lo < n_queries:
            hi = int(np.searchsorted(row_end, row_end[lo] + budget, side="right")) - 1
            hi = max(hi, lo + 1)
            block = slice(hit_end[lo], hit_end[hi])
            block_sizes = sizes[block]
            rows = np.repeat(owners[block], block_sizes)
            cols = np.take(self._flat, _concat_ranges(starts[block], block_sizes))
            # np.take gathers rows several times faster than fancy indexing.
            distances = self._metric.to_many(
                np.take(queries, rows, axis=0), np.take(self._points, cols, axis=0)
            )
            keep = np.flatnonzero(distances <= eps)
            rows, cols = np.take(rows, keep), np.take(cols, keep)
            # Rows are already grouped ascending, so sorting the (row, col)
            # key leaves every row where it was and orders its columns.
            key = rows.astype(np.int64) * n + cols
            if return_distances:
                order = np.argsort(key)
                cols = cols[order]
                kept_distances.append(np.take(distances, keep)[order])
            else:
                cols = (np.sort(key) - rows.astype(np.int64) * n).astype(np.intp)
            counts[lo:hi] = np.bincount(rows - lo, minlength=hi - lo)
            kept_cols.append(cols)
            lo = hi
        indptr = np.zeros(n_queries + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        neighbors = np.concatenate(kept_cols)
        metrics = self._obs_metrics
        if metrics is not None:
            metrics.inc("index.candidate_pairs", int(row_end[-1]))
            metrics.inc("index.neighbor_pairs", int(neighbors.size))
        if return_distances:
            return indptr, neighbors, np.concatenate(kept_distances)
        return indptr, neighbors

    def region_query_csr(
        self, indices: np.ndarray, eps: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``N_Eps`` of many indexed points through one :meth:`neighbors`
        call (see :meth:`NeighborIndex.region_query_csr`)."""
        indices = np.asarray(indices, dtype=np.intp)
        if self._obs_metrics is None:
            return self.neighbors(self._points[indices], eps)
        start = time.perf_counter()
        indptr, neighbors = self.neighbors(self._points[indices], eps)
        self._record_queries(
            indices.size, time.perf_counter() - start, np.diff(indptr), batch=True
        )
        return indptr, neighbors

    def range_query_batch(self, queries: np.ndarray, eps: float) -> list[np.ndarray]:
        """Batch range queries: :meth:`neighbors`, split per query."""
        indptr, neighbors = self.neighbors(queries, eps)
        return np.split(neighbors, indptr[1:-1]) if indptr.size > 1 else []

    def candidate_pairs(
        self, queries: np.ndarray, eps: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every ``(query, point)`` pair whose point shares a cell
        neighbourhood with the query — the batched gather of
        :meth:`neighbors`, with no distance evaluated.

        This is the plan for many small query batches against one fixed
        indexed set (the relabel coverage index, whose per-pair radii
        differ); callers filter the pairs exactly.

        Returns:
            ``(query_rows, point_indices)``: aligned ``intp`` arrays,
            grouped by query row in ascending order.
        """
        dim = self._points.shape[1] if self._points.ndim == 2 else 0
        queries = _as_query_batch(queries, dim)
        empty = np.empty(0, dtype=np.intp)
        if queries.shape[0] == 0 or len(self) == 0:
            return empty, empty
        owners, slots = self._cell_hits(queries, eps)
        sizes, members = self._members(slots)
        return np.repeat(owners, sizes), members


def _concat_ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, a + k) for a, k in zip(starts, sizes)])``,
    vectorized."""
    ends = np.cumsum(sizes)
    if ends.size == 0:
        return ends
    return np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)


def _build_csr(
    coords: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group row indices of ``coords`` by identical rows, vectorized.

    Returns the flat point-index array (grouped by cell, ascending within
    each cell thanks to the stable sort), the occupied cells' coordinates
    in lexicographic order, and each cell's ``start``/``stop`` slice
    bounds into the flat array.
    """
    n = coords.shape[0]
    if coords.ndim != 2 or coords.shape[1] == 0:
        # Zero-dimensional points: everything lives in the single () cell.
        return (
            np.arange(n, dtype=np.intp),
            np.empty((1, 0), dtype=np.int64),
            np.zeros(1, dtype=np.intp),
            np.full(1, n, dtype=np.intp),
        )
    # lexsort keys run last-to-first, so reversing the columns sorts rows
    # lexicographically; the sort is stable, keeping point indices
    # ascending inside each cell (the order the old per-cell lists had).
    order = np.lexsort(coords.T[::-1]).astype(np.intp)
    sorted_coords = coords[order]
    change = np.any(sorted_coords[1:] != sorted_coords[:-1], axis=1)
    starts = np.concatenate(([0], np.flatnonzero(change) + 1)).astype(np.intp)
    stops = np.concatenate((starts[1:], [n])).astype(np.intp)
    return order, sorted_coords[starts], starts, stops
