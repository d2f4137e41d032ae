"""Parallel local phase: reports must match the sequential run exactly.

``DistributedRunConfig.parallelism`` only changes *when* site work
executes, never *what* it computes: parallel runs must agree with
``parallelism=1`` on every deterministic report field (labels, global
model, relabel stats, network traffic) — only the wall-clock timings may
differ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.generators import gaussian_blobs
from repro.distributed.network import SimulatedNetwork
from repro.distributed.runner import DistributedRunConfig, DistributedRunner


@pytest.fixture
def blobs():
    points, __ = gaussian_blobs(
        [120, 120, 120], np.asarray([[0.0, 0.0], [14.0, 0.0], [7.0, 12.0]]), 1.0, seed=7
    )
    return points


def _config(**overrides):
    defaults = dict(eps_local=1.0, min_pts_local=5, seed=3)
    defaults.update(overrides)
    return DistributedRunConfig(**defaults)


def _run(points, config, n_sites=4):
    network = SimulatedNetwork()
    return DistributedRunner(config, network).run(points, n_sites=n_sites)


def _assert_reports_equal(reference, candidate):
    """Equality on everything except the wall-clock timing fields."""
    assert np.array_equal(
        reference.labels_in_original_order(), candidate.labels_in_original_order()
    )
    assert np.array_equal(
        np.asarray(reference.assignment), np.asarray(candidate.assignment)
    )
    assert len(reference.global_model) == len(candidate.global_model)
    assert np.array_equal(
        reference.global_model.global_labels, candidate.global_model.global_labels
    )
    assert reference.global_model.to_bytes() == candidate.global_model.to_bytes()
    for ref_site, cand_site in zip(reference.sites, candidate.sites):
        assert np.array_equal(ref_site.global_labels, cand_site.global_labels)
        assert ref_site.relabel_stats == cand_site.relabel_stats
        assert (
            ref_site.local_outcome.model.to_bytes()
            == cand_site.local_outcome.model.to_bytes()
        )
    assert reference.network.n_messages == candidate.network.n_messages
    assert reference.network.bytes_upstream == candidate.network.bytes_upstream
    assert reference.network.bytes_downstream == candidate.network.bytes_downstream


@pytest.mark.parametrize("parallelism", [2, 4, 8])
def test_thread_parallelism_matches_sequential(blobs, parallelism):
    reference = _run(blobs, _config(parallelism=1))
    candidate = _run(blobs, _config(parallelism=parallelism))
    _assert_reports_equal(reference, candidate)


def test_process_backend_matches_sequential(blobs):
    reference = _run(blobs, _config(parallelism=1))
    candidate = _run(blobs, _config(parallelism=2, parallel_backend="process"))
    _assert_reports_equal(reference, candidate)


def test_parallelism_larger_than_site_count(blobs):
    reference = _run(blobs, _config(parallelism=1), n_sites=2)
    candidate = _run(blobs, _config(parallelism=16), n_sites=2)
    _assert_reports_equal(reference, candidate)


def test_wall_times_recorded(blobs):
    report = _run(blobs, _config(parallelism=2))
    assert report.local_wall_seconds > 0
    assert report.relabel_wall_seconds > 0
    # Wall time of the whole phase can't beat the slowest *measured* site
    # by more than scheduling noise; sanity-check the fields are coherent.
    assert report.overall_wall_seconds > 0


def test_parallel_report_separates_wall_and_cpu(blobs):
    """Satellite of the observability sweep: a parallel local phase must
    report max-over-sites *wall* time and aggregate *CPU* time as
    separate, clock-named fields — the historical single number silently
    mixed the two."""
    report = _run(blobs, _config(parallelism=4))
    # max_local_wall_seconds is a max, not a sum: it can never exceed the
    # whole phase's wall time but must cover the slowest site.
    slowest = max(site.times.local_wall_seconds for site in report.sites)
    assert report.max_local_wall_seconds == slowest
    assert report.max_local_wall_seconds <= report.local_wall_seconds
    # CPU time aggregates across sites and is attributed per site too.
    assert report.local_cpu_seconds > 0
    assert report.local_cpu_seconds == pytest.approx(
        sum(site.times.local_cpu_seconds for site in report.sites)
    )
    assert report.relabel_cpu_seconds == pytest.approx(
        sum(site.times.relabel_cpu_seconds for site in report.sites)
    )


def test_per_site_times_name_their_clock(blobs):
    report = _run(blobs, _config(parallelism=2))
    for site in report.sites:
        assert site.times.local_wall_seconds > 0
        assert site.times.local_cpu_seconds >= 0
        assert site.times.local_seconds == site.times.local_wall_seconds
        assert site.times.relabel_seconds == site.times.relabel_wall_seconds


def test_config_rejects_bad_parallelism():
    with pytest.raises(ValueError, match="parallelism"):
        _config(parallelism=0)
    with pytest.raises(ValueError, match="parallelism"):
        _config(parallelism=-2)


def test_config_rejects_unknown_backend():
    with pytest.raises(ValueError, match="parallel_backend"):
        _config(parallel_backend="mpi")


def test_labels_in_original_order_validates_assignment(blobs):
    report = _run(blobs, _config())
    # Out-of-range site id.
    report.assignment = np.asarray(report.assignment).copy()
    report.assignment[0] = len(report.sites)
    with pytest.raises(ValueError, match="site"):
        report.labels_in_original_order()
    # Count mismatch: legal ids, but site 0 gets one object too many.
    report.assignment = np.zeros(sum(s.points.shape[0] for s in report.sites), dtype=np.intp)
    with pytest.raises(ValueError, match="objects"):
        report.labels_in_original_order()


# ---------------------------------------------------------------------------
# auto-fallback + shared memory (million-point-scale PR)
# ---------------------------------------------------------------------------
def _patch_cpus(monkeypatch, n):
    import repro.distributed.runner as runner_mod

    monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: n)


def test_auto_fallback_single_cpu(blobs, monkeypatch):
    _patch_cpus(monkeypatch, 1)
    report = _run(blobs, _config(parallelism=4))
    assert report.effective_parallelism == 1
    assert report.parallelism_fallback_reason == "single_cpu"


def test_auto_fallback_small_sites(blobs, monkeypatch):
    # 360 points over 4 sites is far below the 20k-per-site threshold.
    _patch_cpus(monkeypatch, 8)
    report = _run(blobs, _config(parallelism=4))
    assert report.effective_parallelism == 1
    assert report.parallelism_fallback_reason == "small_sites"


def test_auto_fallback_can_be_disabled(blobs, monkeypatch):
    _patch_cpus(monkeypatch, 8)
    report = _run(blobs, _config(parallelism=4, auto_fallback=False))
    assert report.effective_parallelism == 4
    assert report.parallelism_fallback_reason is None


def test_fallback_threshold_is_tunable(blobs, monkeypatch):
    _patch_cpus(monkeypatch, 8)
    report = _run(blobs, _config(parallelism=4, fallback_min_points=10))
    assert report.effective_parallelism == 4
    assert report.parallelism_fallback_reason is None


def test_fallback_run_matches_parallel_run(blobs, monkeypatch):
    """The fallback decision may change *when* work runs, never results."""
    _patch_cpus(monkeypatch, 8)
    fell_back = _run(blobs, _config(parallelism=4))
    forced = _run(blobs, _config(parallelism=4, auto_fallback=False))
    _assert_reports_equal(fell_back, forced)


def test_sequential_run_reports_no_fallback(blobs):
    report = _run(blobs, _config(parallelism=1))
    assert report.effective_parallelism == 1
    assert report.parallelism_fallback_reason is None


def test_fallback_fields_in_flat_metrics(blobs):
    metrics = _run(blobs, _config(parallelism=4)).flat_metrics()
    assert metrics["parallel.effective_workers"] == 1.0
    assert metrics["parallel.fallback_count"] == 1.0
    assert "shm.bytes_shared" in metrics
    assert "shm.setup_seconds" in metrics
    assert "shm.teardown_seconds" in metrics


def test_process_shm_matches_sequential(blobs):
    reference = _run(blobs, _config(parallelism=1))
    candidate = _run(
        blobs,
        _config(
            parallelism=2,
            parallel_backend="process",
            auto_fallback=False,
        ),
    )
    _assert_reports_equal(reference, candidate)
    assert candidate.effective_parallelism == 2
    # Point arrays for the local phase + labels for the relabel phase
    # travelled via shared memory, not pickle.
    assert candidate.shm_bytes_shared > blobs.nbytes
    assert candidate.shm_setup_seconds >= 0.0
    assert candidate.shm_teardown_seconds >= 0.0
    assert reference.shm_bytes_shared == 0


def test_thread_backend_never_uses_shm(blobs, monkeypatch):
    _patch_cpus(monkeypatch, 8)
    report = _run(
        blobs,
        _config(parallelism=4, auto_fallback=False),
    )
    assert report.shm_bytes_shared == 0


def test_config_rejects_bad_new_knobs():
    with pytest.raises(ValueError, match="relabel_kernel"):
        _config(relabel_kernel="warp")
    with pytest.raises(ValueError, match="fallback_min_points"):
        _config(fallback_min_points=-1)


@pytest.mark.parametrize("kernel", ["reference", "vectorized"])
def test_relabel_kernels_match_default(blobs, kernel):
    reference = _run(blobs, _config())
    candidate = _run(blobs, _config(relabel_kernel=kernel))
    _assert_reports_equal(reference, candidate)
