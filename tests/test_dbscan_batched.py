"""Equivalence guard: frontier-batched DBSCAN == classic single-query DBSCAN.

The frontier expansion (``batched=True``, the default) must be
*bit-identical* to the reference one-query-per-seed loop in every
observable: labels, core mask, ``n_region_queries`` and the complete
observer event sequence.  Checked on the paper's A/B/C-style data sets and
on adversarial small layouts (exact-integer coordinates with boundary
distances, custom processing orders).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.dbscan import DBSCAN
from repro.core.local import (
    build_rep_scor_model,
    specific_eps_range,
    verify_specific_core_set,
)
from repro.data.datasets import load_dataset
from repro.data.distance import get_metric
from repro.index import build_index


class RecordingObserver:
    """Captures the full event stream, including neighbor array contents."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_cluster_start(self, cluster_id: int, seed_index: int) -> None:
        self.events.append(("start", cluster_id, seed_index))

    def on_core_point(self, index, cluster_id, neighbors) -> None:
        self.events.append(("core", index, cluster_id, tuple(neighbors.tolist())))


def _run_both(
    points, eps, min_pts, *, index_kind="auto", order=None, metric="euclidean"
):
    results = []
    for batched in (False, True):
        observer = RecordingObserver()
        runner = DBSCAN(
            eps, min_pts, metric=metric, index_kind=index_kind, batched=batched
        )
        result = runner.fit(points, observer=observer, order=order)
        results.append((result, observer))
    return results


def _assert_identical(
    points, eps, min_pts, *, index_kind="auto", order=None, metric="euclidean"
):
    (ref, ref_obs), (bat, bat_obs) = _run_both(
        points, eps, min_pts, index_kind=index_kind, order=order, metric=metric
    )
    assert np.array_equal(ref.labels, bat.labels)
    assert np.array_equal(ref.core_mask, bat.core_mask)
    assert ref.n_region_queries == bat.n_region_queries
    assert ref_obs.events == bat_obs.events


@pytest.mark.parametrize("index_kind", ["brute", "grid", "kdtree"])
@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_equivalence_on_paper_datasets(name, index_kind):
    data = load_dataset(name, cardinality=700)
    _assert_identical(
        data.points, data.eps_local, data.min_pts, index_kind=index_kind
    )


@pytest.mark.parametrize("index_kind", ["brute", "grid", "kdtree", "rtree", "mtree"])
def test_equivalence_exact_boundary_layout(tiny_grid_points, index_kind):
    """Integer coordinates with distances exactly equal to eps."""
    _assert_identical(tiny_grid_points, 1.5, 3, index_kind=index_kind)
    _assert_identical(tiny_grid_points, 1.0, 2, index_kind=index_kind)


def test_equivalence_on_blobs_all_parameters(small_blobs):
    points, __ = small_blobs
    for eps, min_pts in [(0.5, 3), (1.2, 5), (2.5, 10), (8.0, 2)]:
        _assert_identical(points, eps, min_pts)


def test_equivalence_with_custom_order(small_blobs):
    points, __ = small_blobs
    rng = np.random.default_rng(0)
    order = rng.permutation(points.shape[0])
    _assert_identical(points, 1.2, 5, order=list(order))


def test_equivalence_with_prebuilt_shared_index(small_blobs):
    """Both strategies reuse one prebuilt index (the DBDC site pattern)."""
    points, __ = small_blobs
    index = build_index(points, "grid", eps=1.2)
    ref = DBSCAN(1.2, 5, batched=False).fit(points, index=index)
    bat = DBSCAN(1.2, 5, batched=True).fit(points, index=index)
    assert np.array_equal(ref.labels, bat.labels)
    assert np.array_equal(ref.core_mask, bat.core_mask)
    assert ref.n_region_queries == bat.n_region_queries


@pytest.mark.parametrize("seed", range(8))
def test_equivalence_randomized(seed):
    rng = np.random.default_rng(seed)
    points = np.concatenate(
        [
            rng.normal(0, 1.0, size=(60, 2)),
            rng.uniform(-6, 6, size=(60, 2)),
            np.repeat(rng.normal(3, 0.2, size=(5, 2)), 4, axis=0),  # duplicates
        ]
    )
    eps = float(rng.uniform(0.2, 2.0))
    min_pts = int(rng.integers(1, 8))
    _assert_identical(points, eps, min_pts)


@pytest.mark.slow
@pytest.mark.parametrize("index_kind", ["brute", "grid"])
def test_equivalence_at_scale(index_kind):
    data = load_dataset("A", cardinality=5000)
    _assert_identical(
        data.points, data.eps_local, data.min_pts, index_kind=index_kind
    )


class DistanceCheckCollector:
    """The Def. 6 greedy rule as a distance check against the chosen points
    of the same cluster: the oracle for the collector's mask lookup."""

    def __init__(self, points, eps, metric):
        self.points, self.eps, self.metric = points, eps, metric
        self.scor = defaultdict(list)

    def on_cluster_start(self, cluster_id, seed_index):
        pass

    def on_core_point(self, index, cluster_id, neighbors):
        chosen = self.scor[cluster_id]
        if chosen:
            distances = self.metric.to_many(self.points[index], self.points[chosen])
            if (distances <= self.eps).any():
                return
        chosen.append(int(index))


def _definition7(points, result, s, metric):
    """ε_s straight from Definition 7, by a full distance sweep."""
    distances = metric.to_many(points[s], points)
    near = (distances <= result.eps) & result.core_mask
    near[s] = False
    return result.eps + (distances[near].max() if near.any() else 0.0)


_GRID_METRICS = ["euclidean", "manhattan", "chebyshev", "squared_euclidean"]


@st.composite
def _cases(draw):
    """A layout, metric, index kind, parameters and processing order."""
    seed = draw(st.integers(0, 2**31 - 1))
    dim = draw(st.integers(1, 3))
    metric = draw(st.sampled_from(_GRID_METRICS))
    kind = draw(st.sampled_from(["grid", "brute", "kdtree"]))
    layout = draw(st.sampled_from(["random", "lattice", "duplicates"]))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 90))
    if layout == "lattice":
        # Exactly representable coordinates: many distances equal eps.
        step = 0.5 if metric == "squared_euclidean" else 1.0
        points = rng.integers(0, 6, size=(n, dim)) * step
        eps = draw(
            st.sampled_from(
                [0.25, 0.5] if metric == "squared_euclidean" else [1.0, 1.5, 2.0]
            )
        )
    else:
        points = rng.normal(0.0, 1.5, size=(n, dim))
        if layout == "duplicates":
            points = np.repeat(points[: max(1, n // 4)], 4, axis=0)
        if metric == "squared_euclidean":
            eps = draw(st.floats(0.05, 0.95))
        else:
            eps = draw(st.floats(0.1, 2.5))
    min_pts = draw(st.integers(1, 7))
    order = None
    if draw(st.booleans()):
        order = rng.permutation(points.shape[0]).tolist()
    return points, eps, min_pts, metric, kind, order


@given(case=_cases())
@settings(max_examples=120, deadline=None)
def test_property_frontier_equals_sequential(case):
    """Labels, core mask, query count and the full observer event sequence
    of the default expansion equal ``batched=False`` for every grid metric
    (``squared_euclidean`` with eps < 1), grid/brute/kdtree, d in {1, 2, 3},
    duplicates, exact-boundary lattices and custom orders."""
    points, eps, min_pts, metric, kind, order = case
    _assert_identical(
        points, eps, min_pts, index_kind=kind, order=order, metric=metric
    )


@given(case=_cases())
@settings(max_examples=60, deadline=None)
def test_property_rep_scor_matches_definitions(case):
    """``build_rep_scor_model`` picks the Scor sets of the distance-checked
    greedy rule over the sequential run, each passes Definition 6, and each
    ε-range equals ``specific_eps_range`` and a full Definition 7 sweep."""
    points, eps, min_pts, metric_name, kind, __ = case
    metric = get_metric(metric_name)
    outcome = build_rep_scor_model(
        points, eps, min_pts, metric=metric, index_kind=kind
    )
    oracle = DistanceCheckCollector(points, eps, metric)
    DBSCAN(eps, min_pts, metric=metric, index_kind=kind, batched=False).fit(
        points, observer=oracle
    )
    result = outcome.clustering
    scor = outcome.specific_core_points
    assert {cid: s.tolist() for cid, s in scor.items()} == dict(oracle.scor)
    for cid, chosen in scor.items():
        assert verify_specific_core_set(points, result, cid, chosen, metric=metric)
    flat = [int(s) for cid in sorted(scor) for s in scor[cid]]
    ranges = [rep.eps_range for rep in outcome.model.representatives]
    assert ranges == [specific_eps_range(s, result, metric=metric) for s in flat]
    assert ranges == [float(_definition7(points, result, s, metric)) for s in flat]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("batched", [False, True])
def test_non_finite_points_are_rejected(bad, batched):
    """A NaN or inf row would poison a grid's origin and cell coordinates."""
    points = np.asarray(
        [[0, 0], [bad, 0], [0.1, 0], [0.2, 0], [5, 0], [5.1, 0], [5.2, 0]]
    )
    with pytest.raises(ValueError, match="finite"):
        DBSCAN(1.0, 2, batched=batched).fit(points)
