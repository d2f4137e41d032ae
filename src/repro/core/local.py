"""Local clustering and local-model determination (Sections 4 and 5).

Each site clusters its objects with DBSCAN and condenses every local cluster
into few representatives.  Both schemes of the paper are implemented:

* ``REP_Scor`` (§5.1) — a *complete set of specific core points* per cluster
  (Definition 6), each with its *specific ε-range* (Definition 7),
* ``REP_kMeans`` (§5.2) — k-means centroids seeded by the specific core
  points, each with the max distance of its assigned objects as ε-range.

The specific core points are collected **on the fly during the DBSCAN run**
through the observer hook, exactly as the paper describes ("all information
which is comprised within the local model ... is computed on-the-fly during
the DBSCAN run"): a core point enters ``Scor`` iff, at the moment it is
identified, it is not within ``Eps`` of an already-selected specific core
point of its cluster.  This greedy rule satisfies all three conditions of
Definition 6 and makes the selection a function of the processing order,
which the paper points out explicitly.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.clustering.dbscan import DBSCAN, DBSCANResult
from repro.clustering.kmeans import lloyd_iterations
from repro.core.models import LocalModel, Representative
from repro.data.distance import Metric, get_metric
from repro.index import NeighborIndex

__all__ = [
    "SpecificCorePointCollector",
    "specific_eps_range",
    "specific_eps_ranges",
    "verify_specific_core_set",
    "build_rep_scor_model",
    "build_rep_kmeans_model",
    "build_local_model",
    "build_rep_scor_from_clustering",
    "select_specific_core_points",
    "LocalClusteringOutcome",
    "LOCAL_MODEL_SCHEMES",
]

LOCAL_MODEL_SCHEMES = ("rep_scor", "rep_kmeans")


class SpecificCorePointCollector:
    """DBSCAN observer that greedily picks specific core points (Def. 6).

    A core point enters ``Scor`` iff no already-chosen point lies in the
    ``Eps``-neighbourhood DBSCAN hands over with it, which is one mask
    lookup ``chosen[neighbors].any()``.  That equals the distance check
    against the chosen points of its own cluster because the index
    computes a neighbourhood with the metric's own kernel, which gives a
    pair the same distance in either direction, and two core points within
    ``Eps`` of each other always share a cluster, so a chosen neighbour is
    one of this cluster's.

    Args:
        points: the site's point array (shape ``(n, d)``).
        eps: the local DBSCAN ``Eps``; the neighbourhoods carry it.
        metric: distance metric of the run; the neighbourhoods carry it.
    """

    def __init__(
        self, points: np.ndarray, eps: float, metric: str | Metric = "euclidean"
    ) -> None:
        self._chosen = np.zeros(len(points), dtype=bool)
        self._scor: dict[int, list[int]] = defaultdict(list)

    def on_cluster_start(self, cluster_id: int, seed_index: int) -> None:
        """No-op; selection happens per core point."""

    def on_core_point(
        self, index: int, cluster_id: int, neighbors: np.ndarray
    ) -> None:
        """Admit ``index`` into ``Scor`` iff no chosen point covers it."""
        if self._chosen[neighbors].any():
            return
        self._chosen[index] = True
        self._scor[cluster_id].append(index)

    def specific_core_points(self) -> dict[int, np.ndarray]:
        """Mapping ``local cluster id -> Scor index array`` (selection order)."""
        return {
            cid: np.asarray(idx, dtype=np.intp) for cid, idx in self._scor.items()
        }


def specific_eps_range(
    point_index: int,
    result: DBSCANResult,
    *,
    metric: Metric,
) -> float:
    """Specific ε-range of a core point (Definition 7).

    ``ε_s = Eps + max{dist(s, s_i) | s_i ∈ Cor ∧ s_i ∈ N_Eps(s)}`` — the
    maximum runs over *core* points inside ``s``'s ``Eps``-neighborhood, so
    ``s`` also covers the neighborhoods of the core points it suppressed.
    With no other core point nearby the range degenerates to ``Eps``.

    Args:
        point_index: index of the specific core point ``s``.
        result: the finished DBSCAN run (provides core flags and the index).
        metric: distance metric.

    Returns:
        The ε_s value.
    """
    return float(specific_eps_ranges([point_index], result, metric=metric)[0])


def specific_eps_ranges(
    point_indices: np.ndarray | list[int], result: DBSCANResult, *, metric: Metric
) -> np.ndarray:
    """:func:`specific_eps_range` of many core points, whose
    neighbourhoods come from one ``region_query_csr`` call."""
    indices = np.asarray(point_indices, dtype=np.intp)
    indptr, neighbors = result.index.region_query_csr(indices, result.eps)
    points = result.index.points
    core = result.core_mask[neighbors]
    out = np.full(indices.size, result.eps)
    for k, s in enumerate(indices.tolist()):
        span = slice(indptr[k], indptr[k + 1])
        core_neighbors = neighbors[span][core[span]]
        core_neighbors = core_neighbors[core_neighbors != s]
        if core_neighbors.size:
            distances = metric.to_many(points[s], points[core_neighbors])
            out[k] = result.eps + distances.max()
    return out


def verify_specific_core_set(
    points: np.ndarray,
    result: DBSCANResult,
    cluster_id: int,
    scor: np.ndarray,
    *,
    metric: str | Metric = "euclidean",
) -> bool:
    """Check the three conditions of Definition 6 for one cluster.

    Used by the test suite (and available to users as an invariant check):

    1. ``Scor_C ⊆ Cor_C`` — every chosen point is a core point of ``C``;
    2. chosen points are pairwise farther than ``Eps`` apart;
    3. every core point of ``C`` lies within ``Eps`` of a chosen point.

    Returns:
        ``True`` iff all conditions hold.
    """
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    scor = np.asarray(scor, dtype=np.intp)
    cores = set(map(int, result.core_points_of(cluster_id)))
    if not set(map(int, scor)) <= cores:
        return False
    for i, s in enumerate(scor):
        others = scor[i + 1 :]
        if others.size:
            distances = resolved.to_many(points[s], points[others])
            if bool((distances <= result.eps).any()):
                return False
    if cores:
        core_idx = np.asarray(sorted(cores), dtype=np.intp)
        covered = np.zeros(core_idx.size, dtype=bool)
        for s in scor:
            covered |= resolved.to_many(points[s], points[core_idx]) <= result.eps
        if not covered.all():
            return False
    return True


@dataclass
class LocalClusteringOutcome:
    """A site's local clustering plus the model derived from it.

    Attributes:
        model: the transmitted :class:`~repro.core.models.LocalModel`.
        clustering: the full local DBSCAN result (stays on the site).
        specific_core_points: per local cluster, the chosen ``Scor`` indices.
    """

    model: LocalModel
    clustering: DBSCANResult
    specific_core_points: dict[int, np.ndarray] = field(default_factory=dict)


def _run_local_dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    metric: Metric,
    index_kind: str,
    index: NeighborIndex | None,
    tracer=None,
    metrics=None,
) -> tuple[DBSCANResult, dict[int, np.ndarray]]:
    collector = SpecificCorePointCollector(points, eps, metric)
    runner = DBSCAN(eps, min_pts, metric=metric, index_kind=index_kind)
    if tracer is None and metrics is None:
        result = runner.fit(points, observer=collector, index=index)
        return result, collector.specific_core_points()
    query_s0 = metrics.value("index.query_seconds") if metrics is not None else 0.0
    start = time.perf_counter()
    result = runner.fit(points, observer=collector, index=index, metrics=metrics)
    end = time.perf_counter()
    if tracer is not None:
        span = tracer.record(
            "dbscan",
            wall_start=start,
            wall_end=end,
            attrs={
                "n_points": int(points.shape[0]),
                "n_region_queries": result.n_region_queries,
                "n_clusters": result.n_clusters,
            },
        )
        if metrics is not None and span is not None:
            # A synthetic child summarizing the time spent inside the
            # index: anchored at the dbscan start, its duration is the
            # accumulated per-query seconds measured during this fit
            # (clamped so it can never outgrow its parent).
            query_seconds = metrics.value("index.query_seconds") - query_s0
            tracer.record(
                "region_queries",
                wall_start=start,
                wall_end=min(end, start + query_seconds),
                attrs={"n_queries": result.n_region_queries},
                parent=span,
            )
    return result, collector.specific_core_points()


def _record_derive_span(tracer, start: float, scheme: str, n: int) -> None:
    """Close a ``derive_model`` span opened at ``start`` (no-op untraced)."""
    if tracer is not None:
        tracer.record(
            "derive_model",
            wall_start=start,
            wall_end=time.perf_counter(),
            attrs={"scheme": scheme, "n_representatives": n},
        )


def build_rep_scor_model(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    site_id: int = 0,
    metric: str | Metric = "euclidean",
    index_kind: str = "auto",
    index: NeighborIndex | None = None,
    tracer=None,
    metrics=None,
) -> LocalClusteringOutcome:
    """Cluster a site's data and build its ``REP_Scor`` local model (§5.1).

    Args:
        points: the site's objects, shape ``(n, d)``.
        eps: local DBSCAN ``Eps``.
        min_pts: local DBSCAN ``MinPts``.
        site_id: identifier stamped on the representatives.
        metric: distance metric.
        index_kind: neighbor index kind.
        index: optional pre-built index over ``points``.
        tracer: optional :class:`~repro.obs.Tracer`; records ``dbscan``
            (with a ``region_queries`` child) and ``derive_model`` spans.
        metrics: optional :class:`~repro.obs.MetricsRegistry`.

    Returns:
        A :class:`LocalClusteringOutcome` whose model holds, per local
        cluster, the specific core points with their specific ε-ranges.
    """
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    result, scor_map = _run_local_dbscan(
        points, eps, min_pts, resolved, index_kind, index, tracer, metrics
    )
    derive_start = time.perf_counter() if tracer is not None else 0.0
    owners = [(cid, int(s)) for cid in sorted(scor_map) for s in scor_map[cid]]
    eps_ranges = specific_eps_ranges(
        [s for __, s in owners], result, metric=resolved
    )
    representatives = [
        Representative(
            point=points[s].copy(),
            eps_range=float(eps_range),
            site_id=site_id,
            local_cluster_id=cid,
        )
        for (cid, s), eps_range in zip(owners, eps_ranges.tolist())
    ]
    _record_derive_span(tracer, derive_start, "rep_scor", len(representatives))
    model = LocalModel(
        site_id=site_id,
        representatives=representatives,
        n_objects=points.shape[0],
        scheme="rep_scor",
        eps_local=float(eps),
        min_pts_local=int(min_pts),
    )
    return LocalClusteringOutcome(model, result, scor_map)


def build_rep_kmeans_model(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    site_id: int = 0,
    metric: str | Metric = "euclidean",
    index_kind: str = "auto",
    index: NeighborIndex | None = None,
    max_iter: int = 100,
    tracer=None,
    metrics=None,
) -> LocalClusteringOutcome:
    """Cluster a site's data and build its ``REP_kMeans`` local model (§5.2).

    Per local DBSCAN cluster ``C``: run k-means over ``C``'s members with
    ``k = |Scor_C|`` seeded by the specific core points; every centroid
    becomes a representative whose ε-range is the maximum distance of its
    assigned objects ``ε_c = max{dist(o, c) | o ∈ O_c}``.

    Args: as :func:`build_rep_scor_model`, plus ``max_iter`` for Lloyd.

    Returns:
        A :class:`LocalClusteringOutcome`.
    """
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    result, scor_map = _run_local_dbscan(
        points, eps, min_pts, resolved, index_kind, index, tracer, metrics
    )
    derive_start = time.perf_counter() if tracer is not None else 0.0
    representatives = []
    for cid in sorted(scor_map):
        members = result.members(cid)
        seeds = points[scor_map[cid]]
        km = lloyd_iterations(
            points[members], seeds, metric=resolved, max_iter=max_iter
        )
        for j in range(km.k):
            # A degenerate cell (empty, or every member exactly on the
            # centroid) has radius 0, which Representative rejects; the
            # smallest positive float keeps the old "covers only exact
            # coincidences" semantics while satisfying ε_r > 0.
            radius = max(km.radius_of(j, points[members]), np.finfo(float).tiny)
            representatives.append(
                Representative(
                    point=km.centroids[j].copy(),
                    eps_range=radius,
                    site_id=site_id,
                    local_cluster_id=cid,
                )
            )
    _record_derive_span(tracer, derive_start, "rep_kmeans", len(representatives))
    model = LocalModel(
        site_id=site_id,
        representatives=representatives,
        n_objects=points.shape[0],
        scheme="rep_kmeans",
        eps_local=float(eps),
        min_pts_local=int(min_pts),
    )
    return LocalClusteringOutcome(model, result, scor_map)


def select_specific_core_points(
    points: np.ndarray,
    labels: np.ndarray,
    core_mask: np.ndarray,
    eps: float,
    *,
    metric: str | Metric = "euclidean",
) -> dict[int, np.ndarray]:
    """Greedy Def.-6 selection from an already-finished clustering.

    The observer-based collector needs a live DBSCAN run; incremental
    sites maintain their clustering with insert/delete operations instead
    and re-derive ``Scor`` from the current state.  Core points are
    scanned in ascending index order (the "processing order" of this
    selection), admitted iff no already-chosen point of the same cluster
    covers them — the same greedy rule, hence the same guarantees.

    Args:
        points: the site's objects.
        labels: finished cluster labels.
        core_mask: per-object core flags.
        eps: the clustering's ``Eps``.
        metric: distance metric.

    Returns:
        Mapping ``cluster id -> Scor index array``.
    """
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    chosen: dict[int, list[int]] = defaultdict(list)
    for i in np.flatnonzero(core_mask):
        cid = int(labels[i])
        current = chosen[cid]
        if current:
            distances = resolved.to_many(points[i], points[current])
            if bool((distances <= eps).any()):
                continue
        current.append(int(i))
    return {cid: np.asarray(idx, dtype=np.intp) for cid, idx in chosen.items()}


def build_rep_scor_from_clustering(
    points: np.ndarray,
    labels: np.ndarray,
    core_mask: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    site_id: int = 0,
    metric: str | Metric = "euclidean",
) -> LocalModel:
    """Build a ``REP_Scor`` local model from clustering state.

    Used by incremental sites (whose clustering is maintained, not
    re-run).  Equivalent to :func:`build_rep_scor_model` up to the
    specific-core-point processing order.

    Args:
        points: the site's objects.
        labels: finished cluster labels.
        core_mask: per-object core flags.
        eps: the clustering's ``Eps``.
        min_pts: the clustering's ``MinPts`` (model metadata).
        site_id: identifier stamped on the representatives.
        metric: distance metric.

    Returns:
        The :class:`~repro.core.models.LocalModel`.
    """
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=np.intp)
    core_mask = np.asarray(core_mask, dtype=bool)
    scor_map = select_specific_core_points(
        points, labels, core_mask, eps, metric=resolved
    )
    representatives = []
    for cid in sorted(scor_map):
        for s in scor_map[cid]:
            # Definition 7 without a prebuilt index: scan for core
            # neighbors directly (the Scor sets are small).
            distances = resolved.to_many(points[s], points)
            nearby_cores = np.flatnonzero(
                (distances <= eps) & core_mask & (np.arange(points.shape[0]) != s)
            )
            eps_range = eps + (distances[nearby_cores].max() if nearby_cores.size else 0.0)
            representatives.append(
                Representative(
                    point=points[s].copy(),
                    eps_range=float(eps_range),
                    site_id=site_id,
                    local_cluster_id=int(cid),
                )
            )
    return LocalModel(
        site_id=site_id,
        representatives=representatives,
        n_objects=points.shape[0],
        scheme="rep_scor",
        eps_local=float(eps),
        min_pts_local=int(min_pts),
    )


def build_local_model(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    scheme: str = "rep_scor",
    site_id: int = 0,
    metric: str | Metric = "euclidean",
    index_kind: str = "auto",
    index: NeighborIndex | None = None,
    tracer=None,
    metrics=None,
) -> LocalClusteringOutcome:
    """Dispatch to the configured local-model scheme.

    Args:
        points: the site's objects.
        eps: local ``Eps``.
        min_pts: local ``MinPts``.
        scheme: ``"rep_scor"`` or ``"rep_kmeans"``.
        site_id: identifier stamped on representatives.
        metric: distance metric.
        index_kind: neighbor index kind.
        index: optional pre-built index.
        tracer: optional :class:`~repro.obs.Tracer`.
        metrics: optional :class:`~repro.obs.MetricsRegistry`.

    Returns:
        A :class:`LocalClusteringOutcome`.

    Raises:
        ValueError: for unknown schemes.
    """
    if scheme == "rep_scor":
        return build_rep_scor_model(
            points,
            eps,
            min_pts,
            site_id=site_id,
            metric=metric,
            index_kind=index_kind,
            index=index,
            tracer=tracer,
            metrics=metrics,
        )
    if scheme == "rep_kmeans":
        return build_rep_kmeans_model(
            points,
            eps,
            min_pts,
            site_id=site_id,
            metric=metric,
            index_kind=index_kind,
            index=index,
            tracer=tracer,
            metrics=metrics,
        )
    raise ValueError(
        f"unknown local model scheme {scheme!r}; known: {LOCAL_MODEL_SCHEMES}"
    )
