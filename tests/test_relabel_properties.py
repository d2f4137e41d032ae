"""Hypothesis property tests: every relabel path ≡ the reference kernel.

The vectorized kernel, the cached coverage index and ``auto`` (on both
sides of its size rule) share one contract: *bit-identical* labels and
stats — not "close", identical — across datasets, local-model schemes,
metrics, dimensionalities and eps ranges, including tie-heavy layouts
where several global representatives cover the same object at exactly
equal distance, and queries outside the representatives' bounding box.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.labels import NOISE
from repro.core.global_model import build_global_model
from repro.core.local import build_local_model
from repro.core.models import GlobalModel
from repro.core.relabel import (
    prefers_index,
    relabel_site,
    relabel_site_indexed,
    relabel_site_reference,
    resolve_relabel_kernel,
)
from repro.data.distance import minkowski_metric
from repro.distributed.partition import partition, split

GRID_METRICS = ["euclidean", "manhattan", "chebyshev", "squared_euclidean"]


def _random_points(seed: int, n: int, dim: int = 2, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    clumped = rng.normal(0, scale, size=(n // 2, dim))
    scattered = rng.uniform(-8 * scale, 8 * scale, size=(n - n // 2, dim))
    return np.concatenate([clumped, scattered])


def _assert_paths_agree(points, local_labels, model, *, site_id, metric):
    """Every path — vectorized, the coverage index called directly, and
    ``auto`` — returns the reference kernel's labels and stats."""
    expected = relabel_site_reference(
        points, local_labels, model, site_id=site_id, metric=metric
    )
    outcomes = [
        relabel_site(
            points, local_labels, model, site_id=site_id, metric=metric,
            kernel=kernel,
        )
        for kernel in ("vectorized", "auto")
    ]
    outcomes.append(
        relabel_site_indexed(
            points, local_labels, model, site_id=site_id, metric=metric
        )
    )
    for labels, stats in outcomes:
        np.testing.assert_array_equal(labels, expected[0])
        assert stats == expected[1]


def _assert_queries_agree(points, model, metric):
    """Pure-coverage label queries on both sides of ``auto``'s size rule:
    data points plus 16 points scattered up to one data span beyond the
    data's bounding box (and so mostly outside the representatives')."""
    m, dim = len(model), points.shape[1]
    rng = np.random.default_rng(points.shape[0])
    low, high = points.min(axis=0), points.max(axis=0)
    span = high - low + 1.0
    outside = rng.uniform(low - span, high + span, size=(16, dim))
    small = np.concatenate([points[:48], outside])
    n_large = small.shape[0]
    while prefers_index(n_large, m):
        n_large *= 2
    large = small[np.arange(n_large) % small.shape[0]]
    for queries, side in ((small, "index"), (large, "vectorized")):
        assert resolve_relabel_kernel(
            "auto", metric, n_points=queries.shape[0], n_representatives=m
        ) == side
        noise = np.full(queries.shape[0], NOISE, dtype=np.intp)
        _assert_paths_agree(queries, noise, model, site_id=None, metric=metric)


def _assert_kernels_agree(points, eps, min_pts, *, scheme, metric, n_sites):
    site_points = split(points, partition(points, n_sites, "uniform_random", 0))
    outcomes = [
        build_local_model(
            site, eps, min_pts, scheme=scheme, site_id=i, metric=metric
        )
        for i, site in enumerate(site_points)
    ]
    global_model, __ = build_global_model(
        [o.model for o in outcomes], metric=metric
    )
    for i, (site, outcome) in enumerate(zip(site_points, outcomes)):
        _assert_paths_agree(
            site, outcome.clustering.labels, global_model, site_id=i,
            metric=metric,
        )
    _assert_queries_agree(points, global_model, metric)
    return global_model


@given(
    seed=st.integers(0, 100_000),
    n=st.integers(8, 120),
    eps=st.floats(0.3, 3.0),
    min_pts=st.integers(2, 5),
    scheme=st.sampled_from(["rep_scor", "rep_kmeans"]),
    n_sites=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_vectorized_matches_reference(seed, n, eps, min_pts, scheme, n_sites):
    points = _random_points(seed, n)
    _assert_kernels_agree(
        points, eps, min_pts, scheme=scheme, metric="euclidean",
        n_sites=n_sites,
    )


@given(
    seed=st.integers(0, 100_000),
    metric=st.sampled_from(GRID_METRICS),
)
@settings(max_examples=20, deadline=None)
def test_vectorized_matches_reference_per_metric(seed, metric):
    points = _random_points(seed, 60)
    _assert_kernels_agree(
        points, 1.0, 3, scheme="rep_scor", metric=metric, n_sites=2
    )


@given(
    seed=st.integers(0, 100_000),
    n=st.integers(20, 120),
    grid=st.integers(2, 5),
)
@settings(max_examples=30, deadline=None)
def test_tie_heavy_integer_layout(seed, n, grid):
    """Duplicate coordinates force exact distance ties between several
    representatives per object — the tie-break (lowest representative
    index wins) must match bitwise."""
    rng = np.random.default_rng(seed)
    points = rng.integers(0, grid, size=(n, 2)).astype(float)
    _assert_kernels_agree(
        points, 1.0, 2, scheme="rep_scor", metric="euclidean", n_sites=2
    )


@given(
    seed=st.integers(0, 100_000),
    dim=st.sampled_from([1, 3]),
    metric=st.sampled_from(GRID_METRICS),
)
@settings(max_examples=20, deadline=None)
def test_paths_agree_in_one_and_three_dimensions(seed, dim, metric):
    points = _random_points(seed, 80, dim)
    _assert_kernels_agree(
        points, 1.5, 3, scheme="rep_scor", metric=metric, n_sites=2
    )


@given(seed=st.integers(0, 100_000), eps=st.floats(0.02, 0.2))
@settings(max_examples=20, deadline=None)
def test_squared_euclidean_with_sub_unit_ranges(seed, eps):
    """Every ε_r below 1: the coordinate reach sqrt(ε_r) exceeds ε_r, so
    a grid sized by ε_r itself would miss true covers."""
    points = _random_points(seed, 80, scale=0.3)
    model = _assert_kernels_agree(
        points, eps, 2, scheme="rep_scor", metric="squared_euclidean",
        n_sites=2,
    )
    assert len(model) == 0 or model.eps_ranges().max() < 1.0


class TestEmptyInputs:
    def _model(self):
        points = _random_points(3, 60)
        outcome = build_local_model(points, 1.0, 3, site_id=0)
        return points, build_global_model([outcome.model])[0]

    @pytest.mark.parametrize("kernel", ["reference", "vectorized", "auto"])
    def test_empty_model_leaves_everything_noise(self, kernel):
        model = GlobalModel([], [], eps_global=1.0)
        points = _random_points(4, 10)
        labels, stats = relabel_site(
            points, np.zeros(10, dtype=np.intp), model, site_id=0,
            kernel=kernel,
        )
        assert (labels == NOISE).all() and stats.n_covered == 0

    def test_empty_model_through_the_index(self):
        model = GlobalModel([], [], eps_global=1.0)
        labels, stats = relabel_site_indexed(
            _random_points(4, 10), np.full(10, NOISE), model
        )
        assert (labels == NOISE).all() and stats.n_covered == 0

    def test_empty_query(self):
        __, model = self._model()
        empty = np.empty((0, 2))
        _assert_paths_agree(
            empty, np.empty(0, dtype=np.intp), model, site_id=None,
            metric="euclidean",
        )
        labels, __ = relabel_site_indexed(empty, np.empty(0, np.intp), model)
        assert labels.shape == (0,)


class TestKernelDispatch:
    def test_auto_follows_the_size_rule_for_grid_metrics(self):
        """Query-shaped inputs take the cached coverage index, site-scale
        ones (a batch-round site: 5000 points, ~620 representatives) the
        vectorized kernel; without sizes auto stays vectorized."""
        for metric in GRID_METRICS:
            assert resolve_relabel_kernel(
                "auto", metric, n_points=64, n_representatives=620
            ) == "index"
            assert resolve_relabel_kernel(
                "auto", metric, n_points=5000, n_representatives=620
            ) == "vectorized"
            assert resolve_relabel_kernel("auto", metric) == "vectorized"

    def test_auto_takes_the_reference_for_other_metrics(self):
        assert resolve_relabel_kernel(
            "auto", minkowski_metric(3), n_points=64, n_representatives=620
        ) == "reference"

    def test_index_is_not_a_knob_value(self):
        with pytest.raises(ValueError, match="kernel"):
            resolve_relabel_kernel("index", "euclidean")

    def test_explicit_kernels_pass_through(self):
        assert resolve_relabel_kernel("reference", "euclidean") == "reference"
        assert resolve_relabel_kernel("vectorized", "euclidean") == "vectorized"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            resolve_relabel_kernel("warp", "euclidean")

    def test_relabel_site_rejects_unknown_kernel(self, rng):
        points = rng.normal(size=(10, 2))
        outcome = build_local_model(points, 1.0, 2, site_id=0)
        model, __ = build_global_model([outcome.model])
        with pytest.raises(ValueError, match="kernel"):
            relabel_site(
                points, outcome.clustering.labels, model, kernel="warp"
            )
