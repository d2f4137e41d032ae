"""Differential test: every driver of the DBDC round labels alike.

One random blob workload runs through the plain pipeline, the runner
(sequential, threaded, under an inactive plan and under an active plan
that changes nothing) and a one-round streaming session.  All of them
must label every object the same, up to the names of the clusters.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dbdc import DBDCConfig, run_dbdc_partitioned
from repro.data.generators import gaussian_blobs, uniform_noise
from repro.distributed.partition import split, uniform_random
from repro.distributed.runner import DistributedRunConfig, DistributedRunner
from repro.distributed.streaming import run_streaming_session
from repro.faults.plan import FaultPlan, SiteFaults


def _same_up_to_permutation(left: np.ndarray, right: np.ndarray) -> bool:
    """Equal labelings up to a one-to-one renaming of cluster ids."""
    if left.shape != right.shape or not np.array_equal(left < 0, right < 0):
        return False
    pairs = np.unique(np.stack([left, right]), axis=1)
    return (
        np.unique(pairs[0]).size == pairs.shape[1]
        and np.unique(pairs[1]).size == pairs.shape[1]
    )


@given(
    seed=st.integers(0, 20_000),
    n_sites=st.integers(1, 4),
    eps_local=st.sampled_from([0.8, 1.2, 1.6]),
    min_pts_local=st.sampled_from([3, 5]),
)
@settings(max_examples=12, deadline=None)
def test_all_drivers_label_alike(seed, n_sites, eps_local, min_pts_local):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 40, size=(3, 2))
    points, __ = gaussian_blobs([40, 40, 40], centers, 1.0, seed=rng)
    points = np.concatenate([points, uniform_noise(12, (0.0, 40.0), seed=rng)])
    assignment = uniform_random(points.shape[0], n_sites, seed=seed)
    site_points = split(points, assignment)

    reference = run_dbdc_partitioned(
        points,
        assignment,
        DBDCConfig(eps_local=eps_local, min_pts_local=min_pts_local),
    ).labels_in_original_order()

    def runner_labels(fault_plan=None, **overrides) -> np.ndarray:
        config = DistributedRunConfig(
            eps_local=eps_local, min_pts_local=min_pts_local, **overrides
        )
        report = DistributedRunner(config, fault_plan=fault_plan).run_on_sites(
            site_points, assignment
        )
        assert not report.degraded
        return report.labels_in_original_order()

    stream = run_streaming_session(
        [site_points], eps_local=eps_local, min_pts_local=min_pts_local
    )
    streamed = np.empty(points.shape[0], dtype=np.intp)
    for site_id, labels in enumerate(stream.labels[0]):
        streamed[assignment == site_id] = labels

    drivers = {
        "runner": runner_labels(),
        "runner_threads": runner_labels(parallelism=2, auto_fallback=False),
        "runner_inactive_plan": runner_labels(FaultPlan.none(seed=seed)),
        "runner_unit_stragglers": runner_labels(
            FaultPlan(
                seed=seed,
                site=SiteFaults(straggler_prob=1.0, straggler_factor=1.0),
            )
        ),
        "streaming_one_round": streamed,
    }
    for name, labels in drivers.items():
        assert _same_up_to_permutation(labels, reference), name
