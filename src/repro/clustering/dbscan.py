"""DBSCAN — the density-based clustering algorithm of Ester et al. (KDD'96).

This is the algorithm DBDC runs on every local site *and* (with adapted
parameters) on the server.  The implementation follows Definitions 1-5 of
the paper exactly:

* a *core object* has at least ``MinPts`` objects in its ``Eps``-
  neighborhood (which contains the object itself),
* clusters are maximal sets of density-connected objects,
* everything else is *noise*.

Objects are processed in a deterministic order (ascending index), which the
paper explicitly leans on: "the actual processing order of the objects
during the DBSCAN run determines a concrete set of specific core points"
(Section 5).  DBDC hooks into the run through the :class:`DBSCANObserver`
protocol — the local-model builders receive every core point *in processing
order* together with its neighborhood, exactly the information needed to
pick specific core points on the fly.

Two expansion strategies produce that identical processing order:

* the classic one-seed-at-a-time loop (``batched=False``), which issues one
  region query per popped seed, and
* the default frontier-at-a-time loop (``batched=True``), which drains the
  whole seed queue each round and applies it with array operations: one
  CSR neighbour query (``NeighborIndex.region_query_csr``) answers the
  frontier, core flags come from the CSR degrees, and the next frontier is
  the first occurrences of unclassified points in the core members'
  concatenated neighbourhoods, in FIFO order.

Because the seed queue is FIFO, one "round" of the sequential loop processes
precisely the seeds that were enqueued before the round started — the
frontier.  Region queries read only the immutable index, never the label
array, so evaluating them up front cannot change any neighborhood; a
member's absorb claims exactly the unclassified neighbours no earlier member
claimed, which is the first-occurrence rule.  Labels, core flags,
``n_region_queries`` and the observer event sequence are therefore
bit-identical between the two strategies (guarded by
``tests/test_dbscan_batched.py``).

Points must be finite: a NaN or inf coordinate has no place in a metric
space, and a grid index would compute garbage cell coordinates for it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.clustering.labels import NOISE, UNCLASSIFIED, n_clusters
from repro.data.distance import Metric, get_metric
from repro.index import NeighborIndex, build_index

__all__ = ["DBSCAN", "DBSCANResult", "DBSCANObserver", "dbscan"]


class DBSCANObserver(Protocol):
    """Callback protocol invoked during a DBSCAN run.

    Implementations receive events in processing order; DBDC's specific-
    core-point selector is the canonical observer.
    """

    def on_cluster_start(self, cluster_id: int, seed_index: int) -> None:
        """A new cluster ``cluster_id`` starts expanding from ``seed_index``."""

    def on_core_point(
        self, index: int, cluster_id: int, neighbors: np.ndarray
    ) -> None:
        """``index`` was identified as a core point of ``cluster_id``.

        Args:
            index: the core object's row index.
            cluster_id: cluster being expanded.
            neighbors: indices of ``N_Eps(index)`` (includes ``index``).
        """


@dataclass
class DBSCANResult:
    """Outcome of one DBSCAN run.

    Attributes:
        labels: per-object cluster id, ``NOISE`` (-1) for noise.
        core_mask: boolean array, ``True`` for core objects.
        eps: the ``Eps`` parameter used.
        min_pts: the ``MinPts`` parameter used.
        n_region_queries: number of ``Eps``-range queries issued (cost
            proxy used by the efficiency experiments).
        index: the neighbor index built for (or passed into) the run;
            reusable for follow-up queries such as specific ε-ranges.
    """

    labels: np.ndarray
    core_mask: np.ndarray
    eps: float
    min_pts: int
    n_region_queries: int
    index: NeighborIndex = field(repr=False)

    @property
    def n_clusters(self) -> int:
        """Number of clusters found."""
        return n_clusters(self.labels)

    @property
    def n_noise(self) -> int:
        """Number of noise objects."""
        return int(np.count_nonzero(self.labels == NOISE))

    def members(self, cluster_id: int) -> np.ndarray:
        """Sorted indices of the objects in ``cluster_id``."""
        return np.flatnonzero(self.labels == cluster_id)

    def core_points_of(self, cluster_id: int) -> np.ndarray:
        """Sorted indices of the *core* objects of ``cluster_id``."""
        return np.flatnonzero((self.labels == cluster_id) & self.core_mask)


class DBSCAN:
    """Configurable DBSCAN runner.

    Args:
        eps: neighborhood radius ``Eps``.
        min_pts: density threshold ``MinPts`` (neighborhood cardinality,
            the query object included — as in Definition 1).
        metric: distance metric name or instance.
        index_kind: neighbor index to build (``"auto"`` picks the grid for
            ``L_p`` metrics, see :func:`repro.index.build_index`).
        batched: expand clusters frontier-at-a-time through batched region
            queries (default).  ``False`` selects the classic one-query-per-
            seed loop; both produce bit-identical results (see the module
            docstring) — the sequential loop is kept as the equivalence
            reference and benchmark baseline.

    Raises:
        ValueError: for non-positive ``eps`` or ``min_pts < 1``.
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        *,
        metric: str | Metric = "euclidean",
        index_kind: str = "auto",
        batched: bool = True,
    ) -> None:
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {min_pts}")
        self.eps = float(eps)
        self.min_pts = int(min_pts)
        self.metric = get_metric(metric)
        self.index_kind = index_kind
        self.batched = bool(batched)

    def fit(
        self,
        points: np.ndarray,
        *,
        index: NeighborIndex | None = None,
        observer: DBSCANObserver | None = None,
        order: Sequence[int] | None = None,
        metrics=None,
    ) -> DBSCANResult:
        """Cluster ``points``.

        Args:
            points: array of shape ``(n, d)``.
            index: pre-built neighbor index over the same points (built
                automatically when omitted).
            observer: optional event sink (see :class:`DBSCANObserver`).
            order: processing order of start objects; defaults to
                ascending index.  Must be a permutation of ``range(n)``.
            metrics: optional :class:`~repro.obs.MetricsRegistry`.  The
                run records its counters (``dbscan.*``) and attaches the
                registry to the index for the duration of the fit so the
                per-query metrics (``index.*``) are captured too.  Labels
                and query counts are identical with or without it.

        Returns:
            A :class:`DBSCANResult`.
        """
        points = np.asarray(points, dtype=float)
        if not np.isfinite(points).all():
            raise ValueError("points must be finite, got NaN or inf coordinates")
        n = points.shape[0] if points.ndim == 2 else 0
        if index is None:
            index = build_index(
                points, self.index_kind, metric=self.metric, eps=self.eps
            )
        labels = np.full(n, UNCLASSIFIED, dtype=np.intp)
        core_mask = np.zeros(n, dtype=bool)
        if order is None:
            start_order: Sequence[int] = range(n)
        else:
            start_order = list(order)
            if sorted(start_order) != list(range(n)):
                raise ValueError("order must be a permutation of range(n)")
        queries = 0
        next_cluster = 0
        observe_index = metrics is not None and hasattr(index, "attach_metrics")
        if observe_index:
            index.attach_metrics(metrics)
        expand = self._expand_batched if self.batched else self._expand_sequential
        try:
            for start in start_order:
                if labels[start] != UNCLASSIFIED:
                    continue
                neighbors = index.region_query(start, self.eps)
                queries += 1
                if neighbors.size < self.min_pts:
                    labels[start] = NOISE
                    continue
                cluster_id = next_cluster
                next_cluster += 1
                if observer is not None:
                    observer.on_cluster_start(cluster_id, int(start))
                labels[start] = cluster_id
                core_mask[start] = True
                if observer is not None:
                    observer.on_core_point(int(start), cluster_id, neighbors)
                queries += expand(
                    index,
                    neighbors,
                    int(start),
                    cluster_id,
                    labels,
                    core_mask,
                    observer,
                    metrics,
                )
        finally:
            if observe_index:
                # Detached so the registry (which holds a lock) never
                # rides along when the result's index is pickled.
                index.detach_metrics()
        if metrics is not None:
            metrics.inc("dbscan.runs")
            metrics.inc("dbscan.region_queries", queries)
            metrics.observe("dbscan.clusters", next_cluster)
        return DBSCANResult(
            labels=labels,
            core_mask=core_mask,
            eps=self.eps,
            min_pts=self.min_pts,
            n_region_queries=queries,
            index=index,
        )

    def _expand_sequential(
        self,
        index: NeighborIndex,
        neighbors: np.ndarray,
        start: int,
        cluster_id: int,
        labels: np.ndarray,
        core_mask: np.ndarray,
        observer: DBSCANObserver | None,
        metrics=None,
    ) -> int:
        """Classic expansion: one region query per popped seed.

        Returns:
            The number of region queries issued.
        """
        seeds: deque[int] = deque()
        self._absorb(neighbors, cluster_id, labels, seeds, exclude=start)
        queries = 0
        while seeds:
            current = seeds.popleft()
            current_neighbors = index.region_query(current, self.eps)
            queries += 1
            if current_neighbors.size < self.min_pts:
                continue  # border object: keeps its label, expands nothing
            core_mask[current] = True
            if observer is not None:
                observer.on_core_point(current, cluster_id, current_neighbors)
            self._absorb(
                current_neighbors, cluster_id, labels, seeds, exclude=current
            )
        return queries

    def _expand_batched(
        self,
        index: NeighborIndex,
        neighbors: np.ndarray,
        start: int,
        cluster_id: int,
        labels: np.ndarray,
        core_mask: np.ndarray,
        observer: DBSCANObserver | None,
        metrics=None,
    ) -> int:
        """Frontier expansion: one CSR neighbour query per BFS round.

        Each round drains the entire seed queue (the frontier), answers it
        with one ``region_query_csr`` call and applies it with array
        operations in the FIFO order :meth:`_expand_sequential` would have
        used, so every observable output is bit-identical to the classic
        loop.  Each round still counts one region query per frontier
        member to keep the paper's cost proxy comparable.

        Returns:
            The number of region queries issued.
        """
        frontier = self._claim(neighbors, cluster_id, labels)
        queries = 0
        while frontier.size:
            if metrics is not None:
                metrics.observe("dbscan.frontier_batch_size", frontier.size)
            indptr, flat = index.region_query_csr(frontier, self.eps)
            queries += frontier.size
            degrees = np.diff(indptr)
            is_core = degrees >= self.min_pts
            core_mask[frontier[is_core]] = True
            if observer is not None:
                bounds = indptr.tolist()
                members = frontier.tolist()
                for k in np.flatnonzero(is_core).tolist():
                    observer.on_core_point(
                        members[k], cluster_id, flat[bounds[k] : bounds[k + 1]]
                    )
            frontier = self._claim(
                flat[np.repeat(is_core, degrees)], cluster_id, labels
            )
        return queries

    @staticmethod
    def _absorb(
        neighbors: np.ndarray,
        cluster_id: int,
        labels: np.ndarray,
        seeds: deque[int],
        *,
        exclude: int,
    ) -> None:
        """Pull a core point's neighborhood into ``cluster_id``.

        Unclassified neighbors are claimed and scheduled for expansion
        (appended to ``seeds`` in ascending index order — ``neighbors`` is
        sorted); former noise objects become border members (they were
        already proven non-core, so they are not re-expanded).
        """
        for j in neighbors:
            if j == exclude:
                continue
            label = labels[j]
            if label == UNCLASSIFIED:
                labels[j] = cluster_id
                seeds.append(int(j))
            elif label == NOISE:
                labels[j] = cluster_id

    @staticmethod
    def _claim(reached: np.ndarray, cluster_id: int, labels: np.ndarray) -> np.ndarray:
        """:meth:`_absorb` for a whole frontier's core neighbourhoods.

        ``reached`` concatenates the neighbourhoods in FIFO order.  The
        scalar loop claims a point at its first occurrence while it is
        still unclassified, so the new seeds are the first occurrences of
        the unclassified points, in order; former noise becomes border.
        The expanding core points are already labeled ``cluster_id``, so
        no ``exclude`` check is needed.

        Returns:
            The claimed points in claim order (the next frontier).
        """
        reached_labels = labels[reached]
        labels[reached[reached_labels == NOISE]] = cluster_id
        fresh = reached[reached_labels == UNCLASSIFIED]
        if fresh.size:
            order = np.argsort(fresh, kind="stable")
            ordered = fresh[order]
            first = np.ones(fresh.size, dtype=bool)
            np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
            fresh = fresh[np.sort(order[first])]
            labels[fresh] = cluster_id
        return fresh


def dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    metric: str | Metric = "euclidean",
    index_kind: str = "auto",
    index: NeighborIndex | None = None,
    observer: DBSCANObserver | None = None,
    batched: bool = True,
    metrics=None,
) -> DBSCANResult:
    """Functional one-shot wrapper around :class:`DBSCAN`.

    Args:
        points: array of shape ``(n, d)``.
        eps: neighborhood radius.
        min_pts: density threshold.
        metric: metric name or instance.
        index_kind: neighbor index kind.
        index: optional pre-built index.
        observer: optional run observer.
        batched: frontier-at-a-time expansion (default) or the classic
            one-query-per-seed loop; results are bit-identical.
        metrics: optional :class:`~repro.obs.MetricsRegistry` (see
            :meth:`DBSCAN.fit`).

    Returns:
        A :class:`DBSCANResult`.
    """
    runner = DBSCAN(eps, min_pts, metric=metric, index_kind=index_kind, batched=batched)
    return runner.fit(points, index=index, observer=observer, metrics=metrics)
