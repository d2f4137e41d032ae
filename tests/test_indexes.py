"""Unit + property tests for all neighbor indexes (vs the brute oracle)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import (
    BruteForceIndex,
    GridIndex,
    KDTreeIndex,
    RTreeIndex,
    available_indexes,
    build_index,
)

INDEX_BUILDERS = {
    "brute": lambda pts, metric="euclidean": BruteForceIndex(pts, metric),
    "grid": lambda pts, metric="euclidean": GridIndex(pts, metric, cell_size=1.0),
    "kdtree": lambda pts, metric="euclidean": KDTreeIndex(pts, metric, leaf_size=4),
    "rtree": lambda pts, metric="euclidean": RTreeIndex(pts, metric, node_capacity=4),
}


def _oracle(points, query, eps, metric="euclidean"):
    return BruteForceIndex(points, metric).range_query(query, eps)


@pytest.mark.parametrize("kind", list(INDEX_BUILDERS), ids=str)
class TestAllIndexes:
    def test_region_query_contains_self(self, kind, rng):
        points = rng.normal(size=(50, 2))
        index = INDEX_BUILDERS[kind](points)
        for i in (0, 17, 49):
            assert i in index.region_query(i, 0.5)

    def test_matches_oracle_random_points(self, kind, rng):
        points = rng.uniform(-5, 5, size=(200, 2))
        index = INDEX_BUILDERS[kind](points)
        for eps in (0.1, 0.7, 2.5, 12.0):
            for qi in range(0, 200, 37):
                expected = _oracle(points, points[qi], eps)
                got = index.range_query(points[qi], eps)
                np.testing.assert_array_equal(got, expected)

    def test_matches_oracle_external_query(self, kind, rng):
        points = rng.uniform(-5, 5, size=(100, 3))
        index = INDEX_BUILDERS[kind](points)
        query = np.asarray([9.0, 0.0, -1.0])
        np.testing.assert_array_equal(
            index.range_query(query, 6.0), _oracle(points, query, 6.0)
        )

    def test_manhattan_metric(self, kind, rng):
        points = rng.uniform(-3, 3, size=(80, 2))
        index = INDEX_BUILDERS[kind](points, metric="manhattan")
        query = points[5]
        np.testing.assert_array_equal(
            index.range_query(query, 1.3),
            _oracle(points, query, 1.3, metric="manhattan"),
        )

    def test_empty_index(self, kind):
        points = np.empty((0, 2))
        index = INDEX_BUILDERS[kind](points)
        assert index.range_query(np.zeros(2), 1.0).size == 0
        assert len(index) == 0

    def test_single_point(self, kind):
        index = INDEX_BUILDERS[kind](np.asarray([[1.0, 2.0]]))
        assert list(index.range_query(np.asarray([1.0, 2.0]), 0.0)) == [0]
        assert index.range_query(np.asarray([5.0, 5.0]), 1.0).size == 0

    def test_duplicate_points_all_returned(self, kind):
        points = np.asarray([[0.0, 0.0]] * 5 + [[3.0, 0.0]])
        index = INDEX_BUILDERS[kind](points)
        hits = index.range_query(np.zeros(2), 0.1)
        assert list(hits) == [0, 1, 2, 3, 4]

    def test_eps_boundary_inclusive(self, kind):
        points = np.asarray([[0.0, 0.0], [1.0, 0.0]])
        index = INDEX_BUILDERS[kind](points)
        assert 1 in index.range_query(np.zeros(2), 1.0)
        assert 1 not in index.range_query(np.zeros(2), 0.999)

    def test_count_in_range(self, kind, rng):
        points = rng.uniform(-2, 2, size=(60, 2))
        index = INDEX_BUILDERS[kind](points)
        q = points[0]
        assert index.count_in_range(q, 1.0) == _oracle(points, q, 1.0).size

    @given(seed=st.integers(0, 10_000), eps=st.floats(0.01, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_property_random_configurations(self, kind, seed, eps):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        dim = int(rng.integers(1, 4))
        points = rng.uniform(-4, 4, size=(n, dim))
        index = INDEX_BUILDERS[kind](points)
        query = rng.uniform(-5, 5, size=dim)
        np.testing.assert_array_equal(
            index.range_query(query, eps), _oracle(points, query, eps)
        )


class TestGridSpecifics:
    def test_rejects_nonpositive_cell(self):
        with pytest.raises(ValueError, match="cell_size"):
            GridIndex(np.zeros((3, 2)), cell_size=0.0)

    def test_rejects_unsupported_metric(self):
        from repro.data.distance import Metric, euclidean

        weird = Metric("weird", euclidean.pairwise, euclidean.to_many)
        with pytest.raises(ValueError, match="supports metrics"):
            GridIndex(np.zeros((3, 2)), weird, cell_size=1.0)

    def test_query_radius_larger_than_cell(self, rng):
        points = rng.uniform(0, 10, size=(150, 2))
        index = GridIndex(points, cell_size=0.5)
        q = points[3]
        np.testing.assert_array_equal(
            index.range_query(q, 4.0), _oracle(points, q, 4.0)
        )

    def test_occupied_cells_counted(self):
        points = np.asarray([[0.1, 0.1], [0.2, 0.2], [5.0, 5.0]])
        index = GridIndex(points, cell_size=1.0)
        assert index.n_occupied_cells == 2


class TestKDTreeSpecifics:
    def test_rejects_bad_leaf_size(self):
        with pytest.raises(ValueError, match="leaf_size"):
            KDTreeIndex(np.zeros((3, 2)), leaf_size=0)

    def test_knn_matches_sorted_oracle(self, rng):
        points = rng.normal(size=(120, 2))
        index = KDTreeIndex(points, leaf_size=5)
        q = rng.normal(size=2)
        idx, dist = index.knn_query(q, 7)
        diff = points - q
        all_dist = np.sqrt((diff * diff).sum(axis=1))
        expected = np.sort(all_dist)[:7]
        np.testing.assert_allclose(np.sort(dist), expected, rtol=1e-12)
        assert np.all(np.diff(dist) >= -1e-12)

    def test_knn_k_exceeds_n(self, rng):
        points = rng.normal(size=(5, 2))
        index = KDTreeIndex(points)
        idx, dist = index.knn_query(np.zeros(2), 50)
        assert idx.size == 5

    def test_knn_rejects_bad_k(self):
        index = KDTreeIndex(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="k must be"):
            index.knn_query(np.zeros(2), 0)

    def test_identical_points_leaf(self):
        points = np.zeros((40, 2))
        index = KDTreeIndex(points, leaf_size=4)
        assert index.range_query(np.zeros(2), 0.1).size == 40


class TestRTreeSpecifics:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="node_capacity"):
            RTreeIndex(np.zeros((3, 2)), node_capacity=1)

    def test_height_grows_with_points(self, rng):
        small = RTreeIndex(rng.normal(size=(10, 2)), node_capacity=4)
        large = RTreeIndex(rng.normal(size=(1000, 2)), node_capacity=4)
        assert large.height > small.height >= 1

    def test_three_dimensional(self, rng):
        points = rng.uniform(-2, 2, size=(300, 3))
        index = RTreeIndex(points, node_capacity=8)
        q = points[42]
        np.testing.assert_array_equal(
            index.range_query(q, 1.2), _oracle(points, q, 1.2)
        )


class TestFactory:
    def test_available_names(self):
        assert set(available_indexes()) == {
            "auto",
            "brute",
            "grid",
            "kdtree",
            "rtree",
            "mtree",
        }

    def test_auto_prefers_grid_with_eps(self, rng):
        points = rng.normal(size=(20, 2))
        index = build_index(points, "auto", eps=1.0)
        assert isinstance(index, GridIndex)

    def test_auto_without_eps_uses_kdtree(self, rng):
        points = rng.normal(size=(20, 2))
        index = build_index(points, "auto")
        assert isinstance(index, KDTreeIndex)

    def test_auto_empty_points_brute(self):
        index = build_index(np.empty((0, 2)), "auto", eps=1.0)
        assert isinstance(index, BruteForceIndex)

    @pytest.mark.parametrize(
        "kind,cls",
        [("brute", BruteForceIndex), ("grid", GridIndex), ("kdtree", KDTreeIndex), ("rtree", RTreeIndex)],
    )
    def test_explicit_kinds(self, kind, cls, rng):
        points = rng.normal(size=(10, 2))
        index = build_index(points, kind, eps=1.0)
        assert isinstance(index, cls)

    def test_grid_without_eps_raises(self, rng):
        with pytest.raises(ValueError, match="grid index needs"):
            build_index(rng.normal(size=(5, 2)), "grid")

    def test_unknown_kind_raises(self, rng):
        with pytest.raises(ValueError, match="unknown index kind"):
            build_index(rng.normal(size=(5, 2)), "balltree")


class TestGridCSRStorage:
    """The structure-of-arrays (CSR) cell layout of :class:`GridIndex`."""

    def _naive_cells(self, index: GridIndex) -> dict:
        """Rebuild the cell -> sorted point indices map the slow way."""
        coords = np.floor(
            (index._points - index._origin) / index.cell_size
        ).astype(np.int64)
        cells: dict = {}
        for i, key in enumerate(map(tuple, coords.tolist())):
            cells.setdefault(key, []).append(i)
        return cells

    def test_flat_is_a_permutation(self, rng):
        points = rng.uniform(-5, 5, size=(200, 2))
        index = GridIndex(points, cell_size=1.3)
        np.testing.assert_array_equal(np.sort(index._flat), np.arange(200))

    def test_slices_partition_flat(self, rng):
        points = rng.uniform(-5, 5, size=(150, 3))
        index = GridIndex(points, cell_size=2.0)
        assert index._starts[0] == 0
        assert index._stops[-1] == 150
        # contiguous, non-overlapping, in cell-table order
        np.testing.assert_array_equal(index._stops[:-1], index._starts[1:])
        assert np.all(index._stops > index._starts)

    def test_csr_matches_naive_bucketing(self, rng):
        for trial in range(5):
            points = rng.uniform(-4, 4, size=(120, 2))
            index = GridIndex(points, cell_size=0.9)
            expected = self._naive_cells(index)
            keys = list(map(tuple, index._keys.tolist()))
            assert keys == sorted(expected)  # lexicographic cell table
            # Codes ascend with the keys, so searchsorted finds each cell.
            assert np.all(np.diff(index._codes) > 0)
            np.testing.assert_array_equal(index._codes, index._keys @ index._strides)
            for key, start, stop in zip(keys, index._starts, index._stops):
                # Stable lexsort keeps indices ascending within a cell,
                # exactly like the per-cell append lists used to.
                assert index._flat[start:stop].tolist() == expected[key]

    def test_occupied_cell_count(self, rng):
        points = rng.uniform(0, 3, size=(80, 2))
        index = GridIndex(points, cell_size=1.0)
        assert index.n_occupied_cells == len(self._naive_cells(index))
        assert index.n_occupied_cells == len(index._codes) == len(index._keys)

    def test_duplicate_points_share_one_cell(self):
        points = np.tile([[1.5, -0.5]], (7, 1))
        index = GridIndex(points, cell_size=1.0)
        assert index.n_occupied_cells == 1
        np.testing.assert_array_equal(
            index.range_query(points[0], 0.1), np.arange(7)
        )

    def test_empty_index(self):
        index = GridIndex(np.empty((0, 2)), cell_size=1.0)
        assert index.n_occupied_cells == 0
        assert index.range_query(np.zeros(2), 5.0).size == 0
        assert all(
            hits.size == 0
            for hits in index.range_query_batch(np.zeros((3, 2)), 5.0)
        )

    def test_single_point(self):
        index = GridIndex(np.asarray([[2.0, 2.0]]), cell_size=1.0)
        assert index.n_occupied_cells == 1
        np.testing.assert_array_equal(index.range_query([2.0, 2.0], 0.5), [0])
        assert index.range_query([9.0, 9.0], 0.5).size == 0

    def test_queries_through_empty_cells(self, rng):
        # Two far-apart clumps: the query cube between them spans many
        # empty cells, exercising both gather branches.
        points = np.concatenate(
            [rng.normal(0, 0.2, size=(30, 2)), rng.normal(50, 0.2, size=(30, 2))]
        )
        index = GridIndex(points, cell_size=0.5)
        brute = BruteForceIndex(points)
        for query in ([25.0, 25.0], [0.0, 0.0], [50.0, 50.0]):
            for eps in (0.4, 30.0, 80.0):
                np.testing.assert_array_equal(
                    index.range_query(np.asarray(query), eps),
                    brute.range_query(np.asarray(query), eps),
                )

    def test_uncodable_bounding_box_matches_brute(self, rng):
        # 10^5 cells along each of 4 coordinates: too many to code in int64,
        # so every gather scans the cell table.
        points = np.concatenate([rng.uniform(0, 3, size=(60, 4)), [[1e5] * 4]])
        index = GridIndex(points, cell_size=1.0)
        assert index._codes is None
        brute = BruteForceIndex(points)
        queries = np.concatenate([points[:10], [[1e5 - 0.5] * 4]])
        for eps in (0.7, 2.0):
            indptr, neighbors = index.neighbors(queries, eps)
            for k, query in enumerate(queries):
                expected = brute.range_query(query, eps)
                np.testing.assert_array_equal(
                    neighbors[indptr[k] : indptr[k + 1]], expected
                )
                np.testing.assert_array_equal(index.range_query(query, eps), expected)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 120),
        cell=st.floats(0.3, 3.0),
        eps=st.floats(0.05, 6.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_grids_match_brute_oracle(self, seed, n, cell, eps):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-6, 6, size=(n, 2))
        index = GridIndex(points, cell_size=cell)
        brute = BruteForceIndex(points)
        queries = points[:: max(1, n // 7)]
        batched = index.range_query_batch(queries, eps)
        for query, batch_hits in zip(queries, batched):
            expected = brute.range_query(query, eps)
            np.testing.assert_array_equal(index.range_query(query, eps), expected)
            np.testing.assert_array_equal(np.sort(batch_hits), expected)


class TestGridCandidatePairs:
    """``GridIndex.candidate_pairs``: the batched cell gather behind the
    relabel step's coverage index."""

    def _pairs(self, rows, points):
        return set(zip(rows.tolist(), points.tolist()))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_pairs_cover_every_true_neighbor(self, rng, dim):
        points = rng.uniform(-5, 5, size=(150, dim))
        queries = rng.uniform(-8, 8, size=(40, dim))  # some outside the box
        index = GridIndex(points, cell_size=1.5)
        rows, cands = index.candidate_pairs(queries, 1.5)
        assert np.all(np.diff(rows) >= 0)  # grouped by query row
        pairs = self._pairs(rows, cands)
        for q, query in enumerate(queries):
            for p in index.range_query(query, 1.5):
                assert (q, int(p)) in pairs

    @pytest.mark.parametrize("dim", [2, 4])
    def test_per_query_fallback_gathers_the_same_pairs(self, rng, dim):
        points = rng.uniform(-5, 5, size=(120, dim))
        queries = rng.uniform(-6, 6, size=(30, dim))
        index = GridIndex(points, cell_size=2.0)
        rows, cands = index.candidate_pairs(queries, 2.0)
        index._codes = None  # as for a bounding box too large to code
        fallback_rows, fallback_cands = index.candidate_pairs(queries, 2.0)
        assert self._pairs(rows, cands) == self._pairs(fallback_rows, fallback_cands)

    def test_empty_inputs(self, rng):
        index = GridIndex(rng.uniform(size=(10, 2)), cell_size=0.5)
        rows, cands = index.candidate_pairs(np.empty((0, 2)), 0.5)
        assert rows.size == 0 and cands.size == 0
        empty = GridIndex(np.empty((0, 2)), cell_size=0.5)
        rows, cands = empty.candidate_pairs(np.zeros((3, 2)), 0.5)
        assert rows.size == 0 and cands.size == 0
