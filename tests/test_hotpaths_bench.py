"""Tests for the hot-path benchmark module (repro.perf.hotpaths)."""

from __future__ import annotations

import argparse

import numpy as np
import pytest

import repro.perf.hotpaths as hotpaths
from repro.perf.hotpaths import (
    _normalize_cardinalities,
    _parse_cardinality,
    bench_relabel_kernels,
    bench_scale_pipeline,
    bench_shm_pool,
    flat_metrics,
    run_hotpath_bench,
)


@pytest.fixture(scope="module")
def small_report():
    """One real (tiny) bench run shared by the section/metric tests."""
    return run_hotpath_bench(
        cardinality=400, n_sites=2, parallelism=2, seed=11
    )


class TestReportShape:
    def test_all_sections_present_at_small_primary(self, small_report):
        for section in (
            "region_queries",
            "dbscan",
            "local_phase",
            "relabel_kernels",
            "shm_pool",
            "scale",
            "meta",
        ):
            assert section in small_report

    def test_meta_records_sweep_and_workers(self, small_report):
        meta = small_report["meta"]
        assert meta["cardinalities"] == [400]
        assert meta["cardinality"] == 400
        assert meta["effective_workers"] >= 1
        assert "parallelism_fallback_reason" in meta
        assert meta["parallelism"] == 2

    def test_relabel_kernels_section(self, small_report):
        row = small_report["relabel_kernels"]
        assert row["labels_identical"] is True
        assert row["reference_seconds"] > 0
        assert row["vectorized_seconds"] > 0
        assert row["n_representatives"] > 0
        assert row["query_labels_identical"] is True
        assert row["n_queries"] == -(-400 // 64)
        assert row["query_auto_seconds"] > 0

    def test_dbscan_work_counters(self, small_report):
        rows = small_report["dbscan"]
        grid = rows["grid"]
        assert grid["candidate_pairs"] >= grid["neighbor_pairs"] > 0
        # Every kind answers the same frontiers with the same neighbours.
        assert {row["neighbor_pairs"] for row in rows.values()} == {
            grid["neighbor_pairs"]
        }
        metrics = flat_metrics(small_report)
        assert metrics["dbscan.candidate_pairs_count[grid]"] == grid["candidate_pairs"]
        assert metrics["dbscan.neighbor_pairs_count[brute]"] == grid["neighbor_pairs"]
        assert "dbscan.candidate_pairs_count[brute]" not in metrics

    def test_shm_pool_section(self, small_report):
        row = small_report["shm_pool"]
        assert row["roundtrip_ok"] is True
        assert row["bytes_shared"] == 400 * 2 * 8

    def test_local_phase_stamps_effective_workers(self, small_report):
        for name, row in small_report["local_phase"].items():
            if name == "n_sites":
                continue
            assert row["effective_workers"] >= 1
            assert "parallelism_fallback_reason" in row

    def test_scale_section_has_per_phase_budgets(self, small_report):
        row = small_report["scale"]["400"]
        assert set(row["phases"]) == {
            "generate",
            "partition",
            "local",
            "global",
            "relabel",
        }
        for budget in row["phases"].values():
            assert budget["wall_seconds"] >= 0
            assert budget["tracemalloc_peak_mb"] >= 0
            assert budget["rss_peak_mb"] > 0
        assert row["total_wall_seconds"] == pytest.approx(
            sum(b["wall_seconds"] for b in row["phases"].values())
        )
        assert row["peak_rss_mb"] > 0
        assert row["n_global_clusters"] >= 1

    def test_flat_metrics_expose_gateable_names(self, small_report):
        metrics = flat_metrics(small_report)
        assert metrics["relabel_kernels.labels_identical"] == 1.0
        assert metrics["shm.roundtrip_ok"] == 1.0
        assert "relabel_kernels.wall_seconds[reference]" in metrics
        assert "relabel_kernels.wall_seconds[vectorized]" in metrics
        assert metrics["relabel_kernels.query_labels_identical"] == 1.0
        assert "relabel_kernels.query_wall_seconds[auto]" in metrics
        assert "relabel_kernels.query_wall_seconds[reference]" in metrics
        assert "scale.total_wall_seconds[400]" in metrics
        assert "scale.tracemalloc_peak_mb[400:relabel]" in metrics
        assert "scale.rss_peak_mb[400]" in metrics
        assert "local_phase.effective_workers[sequential]" in metrics
        assert "local_phase.relabel_wall_seconds[sequential]" in metrics
        assert all(
            value is None or np.isfinite(value) for value in metrics.values()
        )

    def test_flat_metrics_tolerate_missing_sections(self):
        report = {
            "scale": {
                "10": {
                    "total_wall_seconds": 1.0,
                    "peak_rss_mb": 2.0,
                    "n_global_clusters": 1,
                    "n_covered": 3,
                    "phases": {
                        "local": {
                            "wall_seconds": 1.0,
                            "tracemalloc_peak_mb": 0.5,
                            "rss_peak_mb": 2.0,
                        }
                    },
                }
            }
        }
        metrics = flat_metrics(report)
        assert metrics["scale.total_wall_seconds[10]"] == 1.0
        assert "relabel_kernels.speedup" not in metrics


class TestSweepSemantics:
    def test_large_primary_skips_classic_sections(self, monkeypatch):
        monkeypatch.setattr(hotpaths, "_CLASSIC_MAX", 100)
        monkeypatch.setattr(hotpaths, "_KERNELS_MAX", 100)
        report = run_hotpath_bench(cardinality=300, n_sites=2, seed=11)
        assert "region_queries" not in report
        assert "relabel_kernels" not in report
        assert "300" in report["scale"]
        assert report["meta"]["cardinality"] == 300

    def test_sweep_runs_scale_per_entry(self, monkeypatch):
        report = run_hotpath_bench(
            cardinality=[300, 500],
            n_sites=2,
            seed=11,
            kinds=("grid",),
        )
        assert report["meta"]["cardinalities"] == [300, 500]
        assert set(report["scale"]) == {"300", "500"}
        # Classic sections ran at the primary (first) entry only.
        assert report["meta"]["cardinality"] == 300

    def test_rejects_bad_cardinalities(self):
        with pytest.raises(ValueError, match="positive"):
            _normalize_cardinalities([100, 0])
        with pytest.raises(ValueError, match="positive"):
            _normalize_cardinalities([])

    def test_parse_cardinality(self):
        assert _parse_cardinality("20000") == [20000]
        assert _parse_cardinality("300, 500 ,700") == [300, 500, 700]
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_cardinality("lots")


class TestGitProvenance:
    def test_strict_git_refuses_dirty_tree(self, monkeypatch):
        monkeypatch.setattr(
            hotpaths,
            "run_environment",
            lambda: {"git_rev": "abc", "git_dirty": True},
        )
        with pytest.raises(RuntimeError, match="dirty"):
            run_hotpath_bench(cardinality=100, strict_git=True)

    def test_dirty_tree_warns_without_strict(self, monkeypatch, capsys):
        environment = dict(hotpaths.run_environment())
        environment["git_dirty"] = True
        monkeypatch.setattr(hotpaths, "run_environment", lambda: environment)
        run_hotpath_bench(cardinality=100, n_sites=2, kinds=("grid",))
        assert "dirty" in capsys.readouterr().err


class TestStandaloneSections:
    def test_relabel_kernels_asserts_identity(self, rng):
        points = rng.normal(size=(300, 2))
        row = bench_relabel_kernels(points, 0.5, 4, n_sites=2, seed=3)
        assert row["labels_identical"] is True

    def test_shm_pool_roundtrip(self, rng):
        row = bench_shm_pool(rng.normal(size=(64, 2)), n_sites=4)
        assert row["roundtrip_ok"] is True
        assert row["n_arrays"] == 4
        assert row["bytes_shared"] == 64 * 2 * 8

    def test_scale_pipeline_budgets(self):
        row = bench_scale_pipeline(250, n_sites=2, seed=5)
        assert row["cardinality"] == 250
        assert row["relabel_kernel"] == "vectorized"
        assert len(row["phases"]) == 5
