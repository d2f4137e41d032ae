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
holds every point index grouped by cell (ascending within each cell), and a
``cell key -> (start, stop)`` table slices into it.  The layout is built in
one vectorized ``lexsort`` pass — no per-point python loop, no per-cell list
objects — so a 10^6-point build is a sort, not a million dict appends, and a
multi-cell gather is a handful of array slices instead of list concatenation.
The same table is also kept as arrays (cell codes in ascending order with
their slice bounds), so :meth:`GridIndex.candidate_pairs` can look up the
neighbouring cells of a whole query batch with one ``searchsorted``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.distance import Metric
from repro.index.base import NeighborIndex, _as_query_batch

__all__ = ["GridIndex", "coordinate_reach"]

_GRID_METRICS = {"euclidean", "manhattan", "chebyshev", "squared_euclidean"}

#: Cell codes are int64 mixed-radix numbers; a grid whose bounding box
#: holds more cells than this falls back to per-query dict lookups.
_MAX_CODE = 2**62


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
        # CSR cell storage: ``_flat`` holds point indices grouped by cell,
        # ``_cells`` maps a cell's integer coordinates to its
        # ``(start, stop)`` slice of ``_flat``.
        # ``_codes`` holds the occupied cells' mixed-radix codes in
        # ascending order, aligned with ``_starts``/``_stops`` (``None``
        # when the bounding box has too many cells to code).
        self._flat: np.ndarray = np.empty(0, dtype=np.intp)
        self._cells: dict[tuple[int, ...], tuple[int, int]] = {}
        self._codes: np.ndarray | None = None
        if len(self) > 0:
            self._origin = self._points.min(axis=0)
            coords = np.floor(
                (self._points - self._origin) / self._cell_size
            ).astype(np.int64)
            self._flat, keys, self._starts, self._stops = _build_csr(coords)
            self._cells = {
                key: bounds
                for key, bounds in zip(
                    map(tuple, keys.tolist()),
                    zip(self._starts.tolist(), self._stops.tolist()),
                )
            }
            # Lexicographic key order is ascending mixed-radix code order
            # (first coordinate most significant, every coordinate >= 0).
            self._extent = keys.max(axis=0) + 1
            if math.prod(self._extent.tolist()) < _MAX_CODE:
                self._strides = np.ones(keys.shape[1], dtype=np.int64)
                for k in range(keys.shape[1] - 2, -1, -1):
                    self._strides[k] = self._strides[k + 1] * self._extent[k + 1]
                self._codes = keys @ self._strides
        else:
            self._origin = np.zeros(points.shape[1] if points.ndim == 2 else 0)

    @property
    def cell_size(self) -> float:
        """Edge length of one grid cell."""
        return self._cell_size

    @property
    def n_occupied_cells(self) -> int:
        """Number of non-empty grid cells."""
        return len(self._cells)

    def _gather_cells(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """All point indices in the occupied cells of the box ``[low, high]``."""
        spans = [range(int(lo), int(hi) + 1) for lo, hi in zip(low, high)]
        total_cells = math.prod(len(span) for span in spans)
        if total_cells > max(4 * len(self._cells), 64):
            # The query cube covers more cells than exist: iterate occupied
            # cells instead of the (possibly huge) cartesian product.
            slices = [
                bounds
                for key, bounds in self._cells.items()
                if all(lo <= k <= hi for k, lo, hi in zip(key, low, high))
            ]
        else:
            slices = []
            for key in _iter_keys(spans):
                bounds = self._cells.get(key)
                if bounds is not None:
                    slices.append(bounds)
        if not slices:
            return np.empty(0, dtype=np.intp)
        return np.concatenate([self._flat[start:stop] for start, stop in slices])

    def _coordinate_reach(self, eps: float) -> float:
        return coordinate_reach(self._metric, eps)

    def _candidate_indices(self, query: np.ndarray, eps: float) -> np.ndarray:
        """All point indices in cells intersecting the ``eps``-cube of ``query``."""
        # The eps-ball of every supported metric is contained in the
        # L_inf cube of half-width _coordinate_reach(eps), so scanning the
        # cells overlapping that cube is sufficient for exactness.
        reach = self._coordinate_reach(eps)
        low = np.floor((query - reach - self._origin) / self._cell_size).astype(np.int64)
        high = np.floor((query + reach - self._origin) / self._cell_size).astype(np.int64)
        return self._gather_cells(low, high)

    def range_query(self, query: np.ndarray, eps: float) -> np.ndarray:
        if len(self) == 0:
            return np.empty(0, dtype=np.intp)
        query = np.asarray(query, dtype=float)
        candidates = self._candidate_indices(query, eps)
        if candidates.size == 0:
            return candidates
        distances = self._metric.to_many(query, self._points[candidates])
        hits = candidates[distances <= eps]
        hits.sort()
        return hits

    def range_query_batch(
        self,
        queries: np.ndarray,
        eps: float,
        *,
        return_distances: bool = False,
    ) -> list[np.ndarray] | tuple[list[np.ndarray], list[np.ndarray]]:
        """Vectorized batch queries: group by grid cell, evaluate per group.

        Queries living in the same cell share one candidate neighborhood
        (the occupied cells within ``ceil(eps / cell)`` rings — a superset
        of each individual query's ``eps``-cube, so exactness is
        preserved), which is gathered once and evaluated with a single
        vectorized distance-matrix call per group.

        Args:
            queries: ``(m, d)`` query points.
            eps: query radius.
            return_distances: also return each query's hit distances.  A
                ``Metric.matrix`` row is bitwise equal to the
                corresponding ``Metric.to_many`` call (same subtraction
                and reduction order), so callers get the exact per-query
                distances for free instead of recomputing them — this is
                what the vectorized relabel kernel builds on.

        Returns:
            The per-query hit arrays, or ``(hits, distances)`` lists when
            ``return_distances`` is true (``distances[i]`` aligned with
            ``hits[i]``).
        """
        dim = self._points.shape[1] if self._points.ndim == 2 else 0
        queries = _as_query_batch(queries, dim)
        n_queries = queries.shape[0]
        empty = np.empty(0, dtype=np.intp)
        empty_distances = np.empty(0, dtype=float)
        out: list[np.ndarray] = [empty] * n_queries
        distances_out: list[np.ndarray] = [empty_distances] * n_queries
        if n_queries == 0 or len(self) == 0:
            return (out, distances_out) if return_distances else out
        reach = self._coordinate_reach(eps)
        reach_cells = int(math.ceil(reach / self._cell_size)) if reach > 0 else 0
        coords = np.floor((queries - self._origin) / self._cell_size).astype(np.int64)
        for key, members in _group_rows(coords).items():
            cell = np.asarray(key, dtype=np.int64)
            candidates = self._gather_cells(cell - reach_cells, cell + reach_cells)
            if candidates.size == 0:
                continue
            candidates.sort()
            distances = self._metric.matrix(queries[members], self._points[candidates])
            rows, cols = np.nonzero(distances <= eps)
            bounds = np.searchsorted(rows, np.arange(len(members) + 1))
            values = distances[rows, cols] if return_distances else None
            for r, i in enumerate(members):
                span = slice(bounds[r], bounds[r + 1])
                out[i] = candidates[cols[span]]
                if values is not None:
                    distances_out[i] = values[span]
        return (out, distances_out) if return_distances else out

    def candidate_pairs(
        self, queries: np.ndarray, eps: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every ``(query, point)`` pair whose point shares a cell
        neighbourhood with the query — the batched gather, with no distance
        evaluated.

        Each query's own cell and the ``ceil(reach / cell)`` rings around
        it (a superset of its ``eps``-cube, as in
        :meth:`range_query_batch`) are coded, looked up in the sorted cell
        table with one ``searchsorted`` and expanded into pairs without a
        per-query loop.  This is the plan for many small query batches
        against one fixed indexed set; callers filter the pairs exactly.

        Returns:
            ``(query_rows, point_indices)``: aligned ``intp`` arrays,
            grouped by query row in ascending order.
        """
        dim = self._points.shape[1] if self._points.ndim == 2 else 0
        queries = _as_query_batch(queries, dim)
        empty = np.empty(0, dtype=np.intp)
        if queries.shape[0] == 0 or len(self) == 0:
            return empty, empty
        reach = self._coordinate_reach(eps)
        rings = int(math.ceil(reach / self._cell_size)) if reach > 0 else 0
        coords = np.floor((queries - self._origin) / self._cell_size).astype(np.int64)
        stencil = (2 * rings + 1) ** dim
        if self._codes is None or stencil > max(4 * len(self._cells), 64):
            # Uncodable bounding box or a stencil wider than the occupied
            # cells: gather per query through the cell table instead.
            gathered = [self._gather_cells(row - rings, row + rings) for row in coords]
            sizes = [members.size for members in gathered]
            rows = np.repeat(np.arange(len(gathered), dtype=np.intp), sizes)
            return rows, (np.concatenate(gathered) if sum(sizes) else empty)
        offsets = np.indices((2 * rings + 1,) * dim).reshape(dim, stencil).T - rings
        cells = (coords[:, None, :] + offsets[None, :, :]).reshape(-1, dim)
        owners = np.repeat(np.arange(queries.shape[0], dtype=np.intp), stencil)
        inside = np.all((cells >= 0) & (cells < self._extent), axis=1)
        cells, owners = cells[inside], owners[inside]
        codes = cells @ self._strides
        slots = np.minimum(np.searchsorted(self._codes, codes), self._codes.size - 1)
        found = self._codes[slots] == codes
        owners, slots = owners[found], slots[found]
        starts = self._starts[slots]
        sizes = self._stops[slots] - starts
        # Expand every (query, cell) hit into its cell's slice of _flat.
        within = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        return np.repeat(owners, sizes), self._flat[np.repeat(starts, sizes) + within]


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


def _group_rows(coords: np.ndarray) -> dict[tuple[int, ...], list[int]]:
    """Group query indices by identical coordinate rows (batch planning)."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(map(tuple, coords.tolist())):
        groups.setdefault(key, []).append(i)
    return groups


def _iter_keys(spans: list[range]):
    """Yield every integer coordinate tuple in the cartesian product of spans."""
    if not spans:
        yield ()
        return
    head, *tail = spans
    for value in head:
        for rest in _iter_keys(tail):
            yield (value, *rest)
