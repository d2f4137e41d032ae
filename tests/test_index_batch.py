"""Property tests for the batched query layer.

For every index kind and metric, ``range_query_batch`` /
``region_query_batch`` must return exactly the per-query results — on
random point sets, duplicated points, empty query batches, external query
points, and (for the grid) radii larger than the build radius.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.distance import Metric, get_metric
from repro.index import build_index

# (index kind, metric) combinations each index supports exactly.  The
# M-tree needs the triangle inequality, so squared_euclidean is excluded
# there; the grid rejects non-L_p metrics at construction time.
INDEX_METRICS = [
    ("brute", "euclidean"),
    ("brute", "manhattan"),
    ("brute", "chebyshev"),
    ("brute", "squared_euclidean"),
    ("grid", "euclidean"),
    ("grid", "manhattan"),
    ("grid", "chebyshev"),
    ("grid", "squared_euclidean"),
    ("kdtree", "euclidean"),
    ("kdtree", "manhattan"),
    ("kdtree", "chebyshev"),
    ("rtree", "euclidean"),
    ("rtree", "manhattan"),
    ("mtree", "euclidean"),
    ("mtree", "manhattan"),
]

BUILD_EPS = 1.1


def _point_set(seed: int, n: int = 140, dim: int = 2) -> np.ndarray:
    """Clumps + scatter + exact duplicates, the hard cases for indexes."""
    rng = np.random.default_rng(seed)
    clumped = rng.normal(0.0, 1.0, size=(n // 2, dim))
    scattered = rng.uniform(-8.0, 8.0, size=(n - n // 2, dim))
    points = np.concatenate([clumped, scattered])
    # Duplicate a slice of rows verbatim (ties at distance 0 and on cell
    # borders must behave identically in both query paths).
    points[-10:] = points[:10]
    return points


def _assert_batch_matches(index, queries: np.ndarray, eps: float) -> None:
    batch = index.range_query_batch(queries, eps)
    assert len(batch) == len(queries)
    for query, hits in zip(queries, batch):
        expected = index.range_query(query, eps)
        assert np.array_equal(hits, expected)


@pytest.mark.parametrize("kind,metric", INDEX_METRICS)
@pytest.mark.parametrize("seed", [0, 1])
def test_range_query_batch_equals_per_query(kind, metric, seed):
    points = _point_set(seed)
    index = build_index(points, kind, metric=metric, eps=BUILD_EPS)
    rng = np.random.default_rng(seed + 99)
    external = rng.uniform(-10.0, 10.0, size=(25, points.shape[1]))
    for eps in (0.0, 0.4, BUILD_EPS, 3.7):
        _assert_batch_matches(index, points[:40], eps)
        _assert_batch_matches(index, external, eps)


@pytest.mark.parametrize("kind,metric", INDEX_METRICS)
def test_region_query_batch_equals_per_query(kind, metric):
    points = _point_set(3)
    index = build_index(points, kind, metric=metric, eps=BUILD_EPS)
    indices = np.asarray([0, 5, 5, 17, points.shape[0] - 1], dtype=np.intp)
    for eps in (0.4, BUILD_EPS):
        batch = index.region_query_batch(indices, eps)
        assert len(batch) == indices.size
        for i, hits in zip(indices, batch):
            assert np.array_equal(hits, index.region_query(int(i), eps))


@pytest.mark.parametrize("kind", ["brute", "grid", "kdtree", "rtree", "mtree"])
def test_empty_query_batch(kind):
    points = _point_set(4)
    index = build_index(points, kind, eps=BUILD_EPS)
    assert index.range_query_batch([], 1.0) == []
    assert index.range_query_batch(np.empty((0, 2)), 1.0) == []
    assert index.region_query_batch([], 1.0) == []
    assert index.region_query_batch(np.empty(0, dtype=np.intp), 1.0) == []


@pytest.mark.parametrize("kind", ["brute", "grid", "kdtree"])
def test_batch_on_empty_index(kind):
    index = build_index(np.empty((0, 2)), kind, eps=BUILD_EPS)
    batch = index.range_query_batch(np.asarray([[0.0, 0.0], [1.0, 1.0]]), 2.0)
    assert len(batch) == 2
    assert all(hits.size == 0 for hits in batch)


def test_grid_batch_eps_larger_than_build_radius():
    """Queries spanning several cell rings stay exact in the batch path."""
    points = _point_set(5)
    index = build_index(points, "grid", eps=0.3)  # small cells
    for eps in (0.9, 2.5, 40.0):  # up to "covers every cell"
        _assert_batch_matches(index, points[:30], eps)


def test_brute_batch_falls_back_for_unknown_metric():
    """A metric outside the L_p family uses the exact per-query fallback."""
    euclid = get_metric("euclidean")
    custom = Metric("custom_scaled", euclid.pairwise, euclid.to_many)
    points = _point_set(6)
    index = build_index(points, "brute", metric=custom)
    _assert_batch_matches(index, points[:25], 1.3)


@pytest.mark.parametrize("name", ["euclidean", "squared_euclidean", "manhattan", "chebyshev"])
def test_metric_matrix_rows_bitwise_equal_to_many(name):
    """The batched kernels' determinism guarantee: matrix row == to_many."""
    metric = get_metric(name)
    rng = np.random.default_rng(11)
    queries = rng.normal(0, 5, size=(17, 3))
    points = rng.normal(0, 5, size=(200, 3))
    matrix = metric.matrix(queries, points)
    for i, query in enumerate(queries):
        row = metric.to_many(query, points)
        assert np.array_equal(matrix[i], row)  # bitwise, not approx


@pytest.mark.parametrize("kind,metric", INDEX_METRICS)
def test_region_query_csr_equals_per_query(kind, metric):
    """The CSR form carries exactly the per-query neighbourhoods, in order."""
    points = _point_set(7)
    index = build_index(points, kind, metric=metric, eps=BUILD_EPS)
    indices = np.asarray([3, 0, 3, 50, points.shape[0] - 1], dtype=np.intp)
    for eps in (0.0, 0.4, BUILD_EPS):
        indptr, neighbors = index.region_query_csr(indices, eps)
        assert indptr.tolist()[0] == 0 and indptr[-1] == neighbors.size
        for k, i in enumerate(indices):
            expected = index.region_query(int(i), eps)
            assert np.array_equal(neighbors[indptr[k] : indptr[k + 1]], expected)
    indptr, neighbors = index.region_query_csr(np.empty(0, dtype=np.intp), 1.0)
    assert indptr.tolist() == [0] and neighbors.size == 0


@pytest.mark.parametrize("kind", ["kdtree", "rtree", "grid"])
def test_squared_euclidean_below_one_matches_brute_force(kind):
    """The eps-ball of squared_euclidean reaches sqrt(eps) > eps along an
    axis when eps < 1; a tree that pruned its split planes or boxes at
    eps would drop true neighbours."""
    points = _point_set(8, n=200)
    brute = build_index(points, "brute", metric="squared_euclidean")
    index = build_index(points, kind, metric="squared_euclidean", eps=0.3)
    for eps in (0.04, 0.3, 0.9, 2.0):
        for i in range(0, points.shape[0], 7):
            expected = brute.region_query(i, eps)
            assert np.array_equal(index.region_query(i, eps), expected)
    if kind == "kdtree":
        metric = get_metric("squared_euclidean")
        for query in points[:20]:
            expected = np.sort(metric.to_many(query, points))[:6]
            assert np.array_equal(index.knn_query(query, 6)[1], expected)


@pytest.mark.parametrize("name", ["euclidean", "squared_euclidean", "manhattan", "chebyshev"])
def test_metric_row_aligned_pairs_bitwise_equal_to_many(name):
    """``to_many`` on row-aligned pairs (the grid's neighbour query) gives
    each pair the per-query distance, bit for bit."""
    metric = get_metric(name)
    rng = np.random.default_rng(12)
    queries = rng.normal(0, 5, size=(17, 3))
    points = rng.normal(0, 5, size=(200, 3))
    rows = rng.integers(0, 17, size=500)
    cols = rng.integers(0, 200, size=500)
    paired = metric.to_many(queries[rows], points[cols])
    for k in range(rows.size):
        single = metric.to_many(queries[rows[k]], points[cols[k] : cols[k] + 1])
        assert paired[k] == single[0]  # bitwise, not approx
