"""The neighbor-index abstraction used by DBSCAN and OPTICS.

The original DBDC/DBSCAN implementations perform their region queries through
a spatial access method (the paper uses R*-trees for vector data and mentions
M-trees for metric data).  Everything in this reproduction that needs an
``Eps``-range query goes through the small :class:`NeighborIndex` protocol
defined here, so the index can be swapped (brute force, uniform grid,
kd-tree, R-tree) without touching the clustering code.

An index is built once over an immutable point set and answers:

* ``region_query(i, eps)`` — indices of all points within distance ``eps``
  of the *indexed* point ``i`` (including ``i`` itself, matching the
  definition of ``N_Eps(q)`` in the paper),
* ``range_query(q, eps)`` — same for an arbitrary query point ``q``,
* ``range_query_batch(Q, eps)`` / ``region_query_batch(indices, eps)`` —
  the batched forms: one call answers a whole group of queries and returns
  one index array per query.  The generic fallback defined here simply
  loops; :class:`~repro.index.brute.BruteForceIndex`,
  :class:`~repro.index.grid.GridIndex` and
  :class:`~repro.index.kdtree.KDTreeIndex` override it with genuinely
  vectorized sweeps.  Batched results are contractually identical
  (element-wise ``array_equal``) to the per-query results,
* ``region_query_csr(indices, eps)`` — the same neighbourhoods as one CSR
  pair ``(indptr, neighbors)``, the form DBSCAN's frontier expansion and
  the local model consume.  The generic form concatenates
  ``region_query_batch``; :class:`~repro.index.grid.GridIndex` answers it
  with one vectorized candidate-pair gather.
"""

from __future__ import annotations

import abc
import time

import numpy as np

from repro.data.distance import Metric, get_metric

__all__ = ["NeighborIndex"]


def _as_query_batch(queries: np.ndarray, dim: int) -> np.ndarray:
    """Normalize a batch of query points to a float array of shape ``(q, d)``.

    Accepts an empty list/array (→ shape ``(0, dim)``) so callers can issue
    degenerate batches without special-casing.
    """
    out = np.asarray(queries, dtype=float)
    if out.size == 0:
        return np.empty((0, dim), dtype=float)
    if out.ndim != 2:
        raise ValueError(f"queries must be a 2-D array, got shape {out.shape}")
    return out


class NeighborIndex(abc.ABC):
    """Abstract exact ``Eps``-neighborhood index over a fixed point set.

    Subclasses index ``points`` (shape ``(n, d)``) under ``metric`` at
    construction time.  All queries are *exact*: approximate indexes would
    change DBSCAN's output and are out of scope for the reproduction.

    A :class:`~repro.obs.MetricsRegistry` can be attached with
    :meth:`attach_metrics`; region-level queries then record counts, batch
    sizes, neighborhood sizes and accumulated query seconds (see
    ``docs/observability.md``).  With nothing attached (the default) the
    query paths pay a single ``None`` check and allocate nothing.
    """

    # Class-level default so existing subclass constructors need no
    # changes and unattached instances carry no extra state.
    _obs_metrics = None

    def __init__(self, points: np.ndarray, metric: str | Metric = "euclidean") -> None:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {points.shape}")
        self._points = points
        self._metric = get_metric(metric)

    @property
    def points(self) -> np.ndarray:
        """The indexed point set (read-only view)."""
        return self._points

    @property
    def metric(self) -> Metric:
        """Metric the index was built under."""
        return self._metric

    def __len__(self) -> int:
        return self._points.shape[0]

    def attach_metrics(self, metrics) -> None:
        """Record region-query metrics into ``metrics`` from now on."""
        self._obs_metrics = metrics

    def detach_metrics(self) -> None:
        """Stop recording (also drops the registry before pickling)."""
        self._obs_metrics = None

    def _record_queries(
        self, n: int, seconds: float, neighbor_counts, *, batch: bool = False
    ) -> None:
        """Record ``n`` region queries answered in ``seconds``."""
        metrics = self._obs_metrics
        metrics.inc("index.region_queries", n)
        metrics.inc("index.query_seconds", seconds)
        if batch:
            metrics.inc("index.batch_queries")
            metrics.observe("index.batch_size", n)
        for count in neighbor_counts:
            metrics.observe("index.neighbors_per_query", count)

    def region_query(self, index: int, eps: float) -> np.ndarray:
        """``N_Eps`` of an indexed point.

        Args:
            index: row index of the query point in the indexed set.
            eps: neighborhood radius (inclusive).

        Returns:
            Sorted integer array of neighbor indices; always contains
            ``index`` itself (a point is in its own ``Eps``-neighborhood).
        """
        if self._obs_metrics is None:
            return self.range_query(self._points[index], eps)
        start = time.perf_counter()
        neighbors = self.range_query(self._points[index], eps)
        self._record_queries(
            1, time.perf_counter() - start, (neighbors.size,)
        )
        return neighbors

    @abc.abstractmethod
    def range_query(self, query: np.ndarray, eps: float) -> np.ndarray:
        """Indices of all indexed points within ``eps`` of ``query``.

        Args:
            query: point of shape ``(d,)``; need not be part of the index.
            eps: neighborhood radius (inclusive).

        Returns:
            Sorted integer array of matching indices.
        """

    def range_query_batch(self, queries: np.ndarray, eps: float) -> list[np.ndarray]:
        """Answer many range queries at once.

        The generic fallback loops over :meth:`range_query`; subclasses
        override it with vectorized group evaluation.  Results are
        guaranteed identical to issuing the queries one at a time.

        Args:
            queries: array of shape ``(q, d)`` (an empty array is allowed
                and yields an empty list).
            eps: neighborhood radius (inclusive), shared by all queries.

        Returns:
            A list of ``q`` sorted integer index arrays, one per query row.
        """
        dim = self._points.shape[1] if self._points.ndim == 2 else 0
        queries = _as_query_batch(queries, dim)
        return [self.range_query(query, eps) for query in queries]

    def region_query_batch(self, indices: np.ndarray, eps: float) -> list[np.ndarray]:
        """``N_Eps`` of many indexed points at once.

        Args:
            indices: integer array of row indices into the indexed set.
            eps: neighborhood radius (inclusive), shared by all queries.

        Returns:
            A list of sorted integer index arrays, one per entry of
            ``indices``; element ``k`` equals ``region_query(indices[k], eps)``.
        """
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size == 0:
            return []
        if self._obs_metrics is None:
            return self.range_query_batch(self._points[indices], eps)
        start = time.perf_counter()
        results = self.range_query_batch(self._points[indices], eps)
        self._record_queries(
            len(results),
            time.perf_counter() - start,
            [result.size for result in results],
            batch=True,
        )
        return results

    def region_query_csr(
        self, indices: np.ndarray, eps: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``N_Eps`` of many indexed points as CSR ``(indptr, neighbors)``.

        Args:
            indices: integer array of row indices into the indexed set.
            eps: neighborhood radius (inclusive), shared by all queries.

        Returns:
            ``indptr`` of length ``len(indices) + 1`` and the concatenated
            neighbourhoods: ``neighbors[indptr[k]:indptr[k + 1]]`` equals
            ``region_query(indices[k], eps)``.  With a registry attached
            the kept pairs are counted in ``index.neighbor_pairs``.
        """
        batch = self.region_query_batch(indices, eps)
        indptr = np.zeros(len(batch) + 1, dtype=np.intp)
        np.cumsum([hits.size for hits in batch], out=indptr[1:])
        neighbors = np.concatenate(batch) if batch else np.empty(0, dtype=np.intp)
        if self._obs_metrics is not None:
            self._obs_metrics.inc("index.neighbor_pairs", int(neighbors.size))
        return indptr, neighbors.astype(np.intp, copy=False)

    def count_in_range(self, query: np.ndarray, eps: float) -> int:
        """Number of indexed points within ``eps`` of ``query``."""
        return int(self.range_query(query, eps).size)
