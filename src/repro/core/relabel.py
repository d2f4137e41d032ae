"""Updating the local clustering based on the global model (Section 7).

After the server broadcasts the global model, every site relabels its
objects independently:

* an object in the ``ε_r``-neighborhood of a global representative ``r``
  joins ``r``'s global cluster (when several representatives cover an
  object, the nearest one wins) — this is how former *local noise* becomes
  part of a global cluster, as in the paper's Figure 5 example;
* objects of a local cluster that no representative happens to cover still
  inherit the global id of their own cluster's representatives (the local
  cluster as a whole is part of that global cluster);
* everything else stays noise.

Two formerly independent local clusters end up with the same global id iff
the server merged their representatives — the "merge two local clusters to
one" effect of Section 1.

Three interchangeable coverage paths implement the first step; the
``kernel=`` knob of :func:`relabel_site` selects among them:

* ``"reference"`` (:func:`relabel_site_reference`) sweeps a dense
  ``(m, n)`` distance matrix in chunks — O(n·m) work regardless of how
  little of the site each representative actually covers;
* ``"vectorized"`` builds a uniform grid over the site's points once and
  answers **one batched range query for all representatives** — the
  path for site-scale inputs, where the grid over the n points pays for
  itself;
* the **coverage index** (:func:`relabel_site_indexed`, no knob name of
  its own) is built once per global model and cached on it
  (:meth:`GlobalModel.coverage_index`): a grid over the representatives
  whose cell edge is the reach of the largest ε_r, so a batch of points
  finds every candidate representative in its ``3^d`` neighbouring cells
  with one vectorized gather.  Label queries and other small inputs
  reuse it across calls instead of building a grid per call.

All paths are **bit-identical**: every surviving distance is computed
with the same float kernel as the dense sweep, and distance ties break
toward the lowest representative index, exactly like the reference
argmin.  ``"auto"`` uses the reference sweep for metrics without grid
support; for the grid family it takes the coverage index when the input
is query-shaped (:func:`prefers_index`, a rule in the point count n and
the representative count m) and the vectorized kernel otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.labels import NOISE, validate_labels
from repro.core.models import GlobalModel
from repro.data.distance import Metric, get_metric

__all__ = [
    "RELABEL_KERNELS",
    "CoverageIndex",
    "RelabelStats",
    "check_query_points",
    "relabel_site",
    "relabel_site_indexed",
    "relabel_site_reference",
]

RELABEL_KERNELS = ("auto", "reference", "vectorized")

#: The size rule of ``auto`` (:func:`prefers_index`): relabels of
#: ``n <= 2 * m + 256`` points against ``m`` representatives take the
#: cached coverage index.  Time of the index over the vectorized kernel,
#: index built inside the call (cold), set A at four cardinalities,
#: medians of 9 calls on 2 CPUs:
#:
#:   =====  =====  =====  ======  ======  ======  =======
#:   m      n=64   n=512  n=1000  n=2000  n=5000  n=20000
#:   =====  =====  =====  ======  ======  ======  =======
#:   94     0.20   0.39   0.58    0.85    1.12    1.34
#:   240    0.14   0.36   0.42    0.73    0.98    1.13
#:   619    0.16   0.47   0.47    0.63    1.09    1.01
#:   874    0.14   0.32   0.40    0.55    0.88    1.04
#:   =====  =====  =====  ======  ======  ======  =======
#:
#: The two break even at n of about 3000-7000 (5-30 m).  The rule sits
#: well below that, where the index is still about twice as fast: its
#: candidate pairs (about 40 per point on set A) cost memory in
#: proportion to n, and site-scale relabels (a ``batch_round`` site,
#: n = 5000 against m = 874) gain nothing from it, so they stay on the
#: vectorized kernel.
_INDEX_POINTS_PER_REP = 2
_INDEX_MIN_POINTS = 256

#: Metrics whose ε-balls are bounded by L_inf cubes — the grid-index
#: family (mirrors ``repro.index.grid._GRID_METRICS``).
_GRID_METRICS = {"euclidean", "manhattan", "chebyshev", "squared_euclidean"}


@dataclass(frozen=True)
class RelabelStats:
    """Bookkeeping of one site's relabeling pass.

    Attributes:
        n_objects: objects on the site.
        n_covered: objects covered by some representative's ε_r-range.
        n_noise_promoted: former local-noise objects assigned to a global
            cluster (Figure 5's A and B).
        n_inherited: uncovered cluster members that inherited their local
            cluster's global id.
        n_still_noise: objects that remain noise after the update.
        n_local_clusters_merged: local clusters that shared their global id
            with another local cluster of the same site after the update.
    """

    n_objects: int
    n_covered: int
    n_noise_promoted: int
    n_inherited: int
    n_still_noise: int
    n_local_clusters_merged: int


def _empty_stats(n: int, out: np.ndarray) -> RelabelStats:
    return RelabelStats(
        n_objects=n,
        n_covered=0,
        n_noise_promoted=0,
        n_inherited=0,
        n_still_noise=int(np.count_nonzero(out == NOISE)),
        n_local_clusters_merged=0,
    )


def _apply_inheritance(
    points: np.ndarray,
    local_labels: np.ndarray,
    out: np.ndarray,
    was_noise: np.ndarray,
    global_model: GlobalModel,
    site_id: int | None,
    metric: Metric,
) -> int:
    """Inheritance fallback shared by every kernel.

    Members of a local cluster that no ε_r-range covers still belong to
    the global cluster their representatives joined.  Vectorized per local
    cluster, not per object: clusters with a single own representative
    inherit its global id directly, clusters whose representatives split
    across global clusters follow the nearest own representative.

    Returns:
        The number of objects that inherited a label (``out`` is updated
        in place).
    """
    if site_id is None:
        return 0
    own = np.flatnonzero(global_model.site_ids() == site_id)
    uncovered = np.flatnonzero((out == NOISE) & ~was_noise)
    if not own.size or not uncovered.size:
        return 0
    own_local = global_model.local_cluster_ids()[own]
    own_labels = global_model.global_labels[own]
    own_points = global_model.points()[own]
    n_inherited = 0
    uncovered_locals = local_labels[uncovered]
    for local_id in np.unique(uncovered_locals):
        members = uncovered[uncovered_locals == local_id]
        reps_of_cluster = np.flatnonzero(own_local == local_id)
        if reps_of_cluster.size == 0:
            continue
        if reps_of_cluster.size == 1:
            out[members] = own_labels[reps_of_cluster[0]]
        else:
            distances = metric.matrix(
                points[members], own_points[reps_of_cluster]
            )
            nearest = reps_of_cluster[np.argmin(distances, axis=1)]
            out[members] = own_labels[nearest]
        n_inherited += int(members.size)
    return n_inherited


def _count_merged(
    local_labels: np.ndarray, out: np.ndarray, site_id: int | None
) -> int:
    """Merge accounting: how many of this site's local clusters now share
    a global id with another local cluster of the same site.  The summed
    ``(len(locals) - 1)`` over shared globals equals the number of
    distinct (global, local) pairs minus the number of distinct globals.
    """
    if site_id is None:
        return 0
    counted = (local_labels >= 0) & (out != NOISE)
    if not np.any(counted):
        return 0
    pairs = np.unique(np.stack([out[counted], local_labels[counted]]), axis=1)
    return int(pairs.shape[1] - np.unique(pairs[0]).size)


def _finish(
    points: np.ndarray,
    local_labels: np.ndarray,
    out: np.ndarray,
    n_covered: int,
    global_model: GlobalModel,
    site_id: int | None,
    metric: Metric,
) -> tuple[np.ndarray, RelabelStats]:
    """Shared tail of every kernel: inheritance, merge and noise stats."""
    was_noise = local_labels == NOISE
    n_noise_promoted = int(np.count_nonzero(was_noise & (out != NOISE)))
    n_inherited = _apply_inheritance(
        points, local_labels, out, was_noise, global_model, site_id, metric
    )
    stats = RelabelStats(
        n_objects=points.shape[0],
        n_covered=n_covered,
        n_noise_promoted=n_noise_promoted,
        n_inherited=n_inherited,
        n_still_noise=int(np.count_nonzero(out == NOISE)),
        n_local_clusters_merged=_count_merged(local_labels, out, site_id),
    )
    return out, stats


def check_query_points(
    points: np.ndarray, global_model: GlobalModel
) -> np.ndarray:
    """The objects to relabel as a float ``(n, d)`` array.

    Raises:
        ValueError: when ``points`` is not 2-D, its dimensionality differs
            from the representatives', or it holds NaN or inf (a NaN
            coordinate covers nothing under the dense sweep but poisons a
            grid's origin, so the kernels would disagree).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(
            f"points must be a 2-D (n, d) array, got shape {points.shape}"
        )
    if len(global_model) and points.shape[1] != global_model.points().shape[1]:
        raise ValueError(
            f"points have {points.shape[1]} coordinates, the model's "
            f"representatives {global_model.points().shape[1]}"
        )
    if not np.isfinite(points).all():
        raise ValueError("points must be finite, got NaN or inf coordinates")
    return points


def _reference_coverage(
    points: np.ndarray, global_model: GlobalModel, metric: Metric
) -> np.ndarray:
    """Nearest covering representative per object via one dense
    distance-matrix sweep, chunked over the (possibly large) site data so
    the ``(m, chunk)`` matrix stays small.  Distance ties pick the lowest
    representative index (argmin), matching the historical first-wins
    scan.
    """
    n, m = points.shape[0], len(global_model)
    rep_points = global_model.points()
    rep_ranges = global_model.eps_ranges()
    nearest = np.full(n, -1, dtype=np.intp)
    chunk = max(1, 4_000_000 // max(m, 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        distances = metric.matrix(rep_points, points[start:stop])
        masked = np.where(distances <= rep_ranges[:, None], distances, np.inf)
        best_rep = np.argmin(masked, axis=0)
        covered = np.isfinite(masked[best_rep, np.arange(stop - start)])
        nearest[start:stop][covered] = best_rep[covered]
    return nearest


def _vectorized_coverage(
    points: np.ndarray, global_model: GlobalModel, metric: Metric
) -> np.ndarray:
    """Batched broadcast-relabel kernel (see the module docstring).

    One grid-index build over the site's points, one batched range query
    for all representatives at the maximum ε_r, then a per-representative
    exact filter and a single sort pass picking every covered object's
    nearest representative.
    """
    from repro.index.grid import GridIndex

    rep_points = np.ascontiguousarray(global_model.points(), dtype=float)
    rep_ranges = global_model.eps_ranges()
    max_eps = float(rep_ranges.max())

    # One CSR neighbour query answers every representative's max-ε_r
    # neighborhood at once and hands back the hit distances it already
    # evaluated (a row-aligned `to_many` pair is bitwise equal to the
    # matrix entry the dense reference sweep computes, so no recompute
    # is needed); representatives with a smaller ε_r are then filtered
    # exactly in one vectorized pass.
    index = GridIndex(points, metric, cell_size=max_eps)
    indptr, objects, distances = index.neighbors(
        rep_points, max_eps, return_distances=True
    )
    reps = np.repeat(np.arange(len(global_model), dtype=np.intp), np.diff(indptr))
    keep = distances <= rep_ranges[reps]
    objects, distances, reps = objects[keep], distances[keep], reps[keep]
    # The hit stream is representative-major; group it by object.
    order = np.argsort(objects, kind="stable")
    objects = objects[order]
    distances = distances[order]
    reps = reps[order]
    return _nearest_hits(points.shape[0], objects, reps, distances)


def _index_coverage(
    points: np.ndarray, global_model: GlobalModel, metric: Metric
) -> np.ndarray:
    """Nearest covering representative per object from the model's cached
    :class:`CoverageIndex` — no per-call index build."""
    return global_model.coverage_index(metric).nearest(points)


def _nearest_hits(
    n: int, objects: np.ndarray, reps: np.ndarray, distances: np.ndarray
) -> np.ndarray:
    """Per object, the nearest representative among its covering hits
    (``-1`` for objects without one).

    The hits must lie within their representative's ε_r, be grouped by
    object, and carry the distances the dense sweep computes, bit for
    bit.  A per-object minimum (a comparison, not arithmetic — no
    rounding), then the lowest representative index among the hits at
    that minimum, is the reference kernel's masked argmin: nearest first,
    exact ties toward the lowest index.
    """
    nearest = np.full(n, -1, dtype=np.intp)
    if objects.size:
        starts = np.flatnonzero(
            np.concatenate(([True], objects[1:] != objects[:-1]))
        )
        sizes = np.diff(np.append(starts, objects.size))
        closest = np.repeat(np.minimum.reduceat(distances, starts), sizes)
        tied = np.where(distances == closest, reps, np.iinfo(np.intp).max)
        nearest[objects[starts]] = np.minimum.reduceat(tied, starts)
    return nearest


class CoverageIndex:
    """Immutable coverage index over one global model's representatives.

    Holds the model's read-only representative arrays and a uniform grid
    over the representatives whose cell edge is the coordinate reach of
    the largest ε_r, so every representative that can cover a point lies
    in the ``3^d`` cells around the point's cell.  A batch of points is
    answered with one vectorized candidate gather
    (:meth:`~repro.index.grid.GridIndex.candidate_pairs`), one distance
    evaluation per candidate pair and two per-point reductions —
    bit-identical to the dense reference sweep.  Build it through
    :meth:`GlobalModel.coverage_index`, which caches it per model.

    Args:
        global_model: the model to index (non-empty).
        metric: a grid-compatible metric.
    """

    def __init__(self, global_model: GlobalModel, metric: Metric) -> None:
        from repro.index.grid import GridIndex, coordinate_reach

        self.metric = metric
        self.points = global_model.points()
        self.eps_ranges = global_model.eps_ranges()
        self.max_eps = float(self.eps_ranges.max())
        self._grid = GridIndex(
            self.points, metric, cell_size=coordinate_reach(metric, self.max_eps)
        )

    def nearest(self, queries: np.ndarray) -> np.ndarray:
        """Index of each query's nearest covering representative
        (``-1`` where no ε_r-range covers it)."""
        rows, reps = self._grid.candidate_pairs(queries, self.max_eps)
        # `to_many` broadcasts a row-aligned (pairs, d) first argument, so
        # every pair gets the subtraction and reduction of the dense
        # sweep's matrix entry.
        distances = self.metric.to_many(self.points[reps], queries[rows])
        keep = distances <= self.eps_ranges[reps]
        return _nearest_hits(
            queries.shape[0], rows[keep], reps[keep], distances[keep]
        )


_COVERAGE = {
    "reference": _reference_coverage,
    "vectorized": _vectorized_coverage,
    "index": _index_coverage,
}


def _relabel(
    points: np.ndarray,
    local_labels: np.ndarray,
    global_model: GlobalModel,
    site_id: int | None,
    metric: str | Metric,
    kernel: str,
) -> tuple[np.ndarray, RelabelStats]:
    """Run one coverage path (``kernel``, a key of ``_COVERAGE``) over
    checked ``points``, then the shared :func:`_finish`."""
    resolved = get_metric(metric)
    local_labels = validate_labels(local_labels)
    n, m = points.shape[0], len(global_model)
    if local_labels.size != n:
        raise ValueError(f"{n} points but {local_labels.size} local labels")
    out = np.full(n, NOISE, dtype=np.intp)
    if m == 0 or n == 0:
        return out, _empty_stats(n, out)
    nearest = _COVERAGE[kernel](points, global_model, resolved)
    covered = nearest >= 0
    out[covered] = global_model.global_labels[nearest[covered]]
    return _finish(
        points,
        local_labels,
        out,
        int(np.count_nonzero(covered)),
        global_model,
        site_id,
        resolved,
    )


def relabel_site_reference(
    points: np.ndarray,
    local_labels: np.ndarray,
    global_model: GlobalModel,
    *,
    site_id: int | None = None,
    metric: str | Metric = "euclidean",
) -> tuple[np.ndarray, RelabelStats]:
    """The historical dense-sweep relabel kernel (kept as the oracle).

    See :func:`relabel_site` for the argument contract.
    """
    points = check_query_points(points, global_model)
    return _relabel(
        points, local_labels, global_model, site_id, metric, "reference"
    )


def relabel_site_indexed(
    points: np.ndarray,
    local_labels: np.ndarray,
    global_model: GlobalModel,
    *,
    site_id: int | None = None,
    metric: str | Metric = "euclidean",
) -> tuple[np.ndarray, RelabelStats]:
    """Relabel through the model's cached :class:`CoverageIndex` — the
    path ``kernel="auto"`` takes for query-shaped inputs.  Needs a
    grid-compatible metric.  See :func:`relabel_site` for the argument
    contract.
    """
    points = check_query_points(points, global_model)
    return _relabel(points, local_labels, global_model, site_id, metric, "index")


def prefers_index(n_points: int, n_representatives: int) -> bool:
    """The size rule of ``kernel="auto"``: whether relabeling
    ``n_points`` objects against ``n_representatives`` representatives
    is query-shaped, so the cached coverage index beats the vectorized
    kernel even when the index is built for this one call.
    """
    return n_points <= _INDEX_POINTS_PER_REP * n_representatives + _INDEX_MIN_POINTS


def resolve_relabel_kernel(
    kernel: str,
    metric: str | Metric = "euclidean",
    *,
    n_points: int | None = None,
    n_representatives: int | None = None,
) -> str:
    """Resolve a kernel knob value to a concrete coverage path.

    ``"auto"`` selects, for grid-compatible metrics (the paper's L_p
    family), the cached coverage index (``"index"``) when the input sizes
    are known and :func:`prefers_index` says they are query-shaped, the
    vectorized kernel otherwise; other metrics get the reference sweep.

    Raises:
        ValueError: for unknown kernel names.
    """
    if kernel not in RELABEL_KERNELS:
        raise ValueError(
            f"unknown relabel kernel {kernel!r}; known: {RELABEL_KERNELS}"
        )
    if kernel != "auto":
        return kernel
    resolved = get_metric(metric)
    if resolved.name not in _GRID_METRICS:
        return "reference"
    if (
        n_points is not None
        and n_representatives is not None
        and prefers_index(n_points, n_representatives)
    ):
        return "index"
    return "vectorized"


def relabel_site(
    points: np.ndarray,
    local_labels: np.ndarray,
    global_model: GlobalModel,
    *,
    site_id: int | None = None,
    metric: str | Metric = "euclidean",
    kernel: str = "auto",
) -> tuple[np.ndarray, RelabelStats]:
    """Relabel one site's objects with global cluster ids.

    Args:
        points: the site's objects, shape ``(n, d)`` with the
            representatives' ``d``, all finite.
        local_labels: the site's local DBSCAN labels (noise = -1).
        global_model: the broadcast global model.
        site_id: this site's id — used for the inheritance fallback (maps
            the site's local clusters to their representatives' global ids).
            ``None`` disables inheritance by site (pure coverage relabel).
        metric: distance metric.
        kernel: coverage kernel — ``"auto"`` (default), ``"vectorized"``
            or ``"reference"``.  All kernels produce bit-identical labels
            and stats; the knob only trades constant factors.

    Returns:
        ``(global_labels, stats)`` where ``global_labels`` holds global
        cluster ids (noise = -1).

    Raises:
        ValueError: for unknown kernels, mismatched label counts, and
            points that are not 2-D, have the wrong dimensionality or are
            not finite (:func:`check_query_points`).
    """
    points = check_query_points(points, global_model)
    chosen = resolve_relabel_kernel(
        kernel,
        metric,
        n_points=points.shape[0],
        n_representatives=len(global_model),
    )
    return _relabel(points, local_labels, global_model, site_id, metric, chosen)
