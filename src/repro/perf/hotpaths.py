"""Hot-path benchmark: single vs. batched vs. parallel execution, at scale.

Times the layers this repository's performance work targets and writes a
machine-readable ``BENCH_hotpaths.json`` so successive PRs can track the
trajectory:

* **region queries** — a fixed batch of ``region_query`` calls answered one
  at a time vs. one ``region_query_batch`` call, per index kind;
* **DBSCAN** — the classic one-query-per-seed loop (``batched=False``) vs.
  the frontier-at-a-time expansion (``batched=True``), per index kind, with
  a sanity check that both produce identical labels and query counts, and
  the expansion's work counters: candidate pairs the index scanned (grid
  only) and neighbour pairs it kept (``*pairs_count*``, deterministic, so
  they gate at zero tolerance even across machines);
* **the distributed local phase** — ``DistributedRunner`` with
  ``parallelism=1`` vs. ``parallelism=N`` (thread and process backends).
  Each variant records the *effective* worker count after the runner's
  auto-fallback — on a single-CPU box, or with sites below the fallback
  threshold, a parallel config legitimately runs sequentially;
* **relabel kernels** — the dense ``relabel_site_reference`` sweep vs. the
  vectorized grid-backed kernel over the same sites and global model,
  asserting bit-identical labels and stats (``labels_identical`` rides into
  the registry as a zero-tolerance correctness metric), plus a
  query-shaped row: 64-point label queries against the same model through
  ``auto`` (the model's cached coverage index) vs. the reference
  (``query_labels_identical``, gated the same way);
* **the shared-memory pool** — share / zero-copy attach / verify / unlink
  round-trip of the per-site arrays, with the byte volume that the process
  backend no longer pickles;
* **scale sweep** — ``--cardinality`` accepts a comma-separated list (the
  first entry is the primary cardinality the classic sections run at); every
  entry gets a full generate → partition → local → global → relabel
  pipeline with a per-phase memory budget: wall seconds, ``tracemalloc``
  peak (python-visible allocations, numpy buffers included) and
  ``ru_maxrss`` (the process' monotone RSS high-water mark).  This is the
  section that makes 10^6-point runs honest: phase walls *and* peak memory,
  not just an end-to-end number.  Note the tracemalloc hooks add their own
  overhead, so sweep walls are upper bounds — the classic sections stay
  unprobed for clean comparisons.

Run it via ``python -m repro.cli bench`` or directly::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py --cardinality 20000
    PYTHONPATH=src python benchmarks/bench_hotpaths.py \
        --cardinality 20000,200000,1000000

The report refuses to pretend provenance it does not have: a dirty git
tree produces a loud warning (or a hard error under ``--strict-git``),
because numbers recorded against a stale revision are worse than no
numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import tracemalloc
from typing import Callable, Sequence

import numpy as np

from repro.clustering.dbscan import DBSCAN
from repro.clustering.labels import NOISE
from repro.core.global_model import build_global_model
from repro.core.local import build_local_model
from repro.core.relabel import relabel_site
from repro.core.shm import ShmArrayPool, attach_array
from repro.data.datasets import dataset_a
from repro.distributed.partition import partition, split
from repro.distributed.runner import DistributedRunConfig, DistributedRunner
from repro.index import build_index
from repro.obs import MetricsRegistry, Tracer, phase_totals
from repro.obs.registry import run_environment, utc_now_iso

__all__ = [
    "run_hotpath_bench",
    "bench_relabel_kernels",
    "bench_shm_pool",
    "bench_scale_pipeline",
    "flat_metrics",
    "record_bench_run",
    "write_report",
    "format_summary",
    "main",
]

DEFAULT_REPORT_PATH = "BENCH_hotpaths.json"

#: Largest primary cardinality the classic cross-kind sections run at —
#: the brute-force index and the one-query-per-seed DBSCAN loop are
#: quadratic-ish and pointless to "benchmark" at 10^6.
_CLASSIC_MAX = 50_000
#: Largest primary cardinality the relabel-kernel oracle comparison runs
#: at (it executes the dense O(n·m) reference sweep on purpose).
_KERNELS_MAX = 200_000
#: Points per label query in the relabel section's query row (the
#: service benchmark's query size).
QUERY_POINTS = 64


def _best_of(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    """Best-of-``repeats`` wall time of ``fn`` plus its (last) result."""
    best = float("inf")
    result: object = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _probe(fn: Callable[[], object]) -> tuple[object, dict]:
    """Run ``fn`` under the per-phase memory budget probe.

    Returns ``(result, budget)`` where the budget holds the phase's wall
    seconds (including the tracemalloc hook overhead), the ``tracemalloc``
    peak over the phase and the process RSS high-water mark *after* the
    phase (``ru_maxrss`` is monotone — it never goes down, so per-phase
    values are a running maximum, not per-phase deltas).
    """
    tracemalloc.start()
    wall_start = time.perf_counter()
    result = fn()
    wall_seconds = time.perf_counter() - wall_start
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result, {
        "wall_seconds": wall_seconds,
        "tracemalloc_peak_mb": traced_peak / 2**20,
        "rss_peak_mb": rss_kb / 1024.0,
    }


def bench_region_queries(
    points: np.ndarray,
    eps: float,
    *,
    kinds: tuple[str, ...] = ("brute", "grid", "kdtree"),
    n_queries: int = 2000,
    repeats: int = 1,
    seed: int = 0,
) -> dict:
    """Per-query vs. batched region-query throughput per index kind."""
    rng = np.random.default_rng(seed)
    indices = rng.choice(points.shape[0], size=min(n_queries, points.shape[0]), replace=False)
    indices = np.sort(indices).astype(np.intp)
    out: dict = {}
    for kind in kinds:
        index = build_index(points, kind, eps=eps)

        def per_query():
            return [index.region_query(int(i), eps) for i in indices]

        def batched():
            return index.region_query_batch(indices, eps)

        single_seconds, single_result = _best_of(per_query, repeats)
        batch_seconds, batch_result = _best_of(batched, repeats)
        assert all(
            np.array_equal(a, b) for a, b in zip(single_result, batch_result)
        ), f"batched {kind} region queries diverged from per-query results"
        out[kind] = {
            "n_queries": int(indices.size),
            "single_seconds": single_seconds,
            "batched_seconds": batch_seconds,
            "speedup": single_seconds / batch_seconds if batch_seconds > 0 else None,
        }
    return out


def bench_dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    kinds: tuple[str, ...] = ("brute", "grid", "kdtree"),
    repeats: int = 1,
) -> dict:
    """Classic vs. frontier-batched DBSCAN, per index kind."""
    out: dict = {}
    for kind in kinds:
        index = build_index(points, kind, eps=eps)
        single = DBSCAN(eps, min_pts, batched=False)
        frontier = DBSCAN(eps, min_pts, batched=True)
        single_seconds, single_result = _best_of(
            lambda: single.fit(points, index=index), repeats
        )
        batch_seconds, batch_result = _best_of(
            lambda: frontier.fit(points, index=index), repeats
        )
        assert np.array_equal(single_result.labels, batch_result.labels)
        assert np.array_equal(single_result.core_mask, batch_result.core_mask)
        assert single_result.n_region_queries == batch_result.n_region_queries
        # The work counters come from one more (untimed) run with a
        # registry attached, so the timed runs stay unprobed.
        registry = MetricsRegistry()
        frontier.fit(points, index=index, metrics=registry)
        out[kind] = {
            "single_seconds": single_seconds,
            "batched_seconds": batch_seconds,
            "speedup": single_seconds / batch_seconds if batch_seconds > 0 else None,
            "n_clusters": single_result.n_clusters,
            "n_region_queries": single_result.n_region_queries,
            "candidate_pairs": registry.value("index.candidate_pairs", None),
            "neighbor_pairs": registry.value("index.neighbor_pairs", None),
        }
    return out


def bench_local_phase(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    n_sites: int = 4,
    parallelism: int = 4,
    seed: int = 42,
) -> dict:
    """Sequential vs. parallel distributed local phase (threads/processes).

    Each parallel variant reports its post-fallback ``effective_workers``
    — a row whose effective workers collapsed to 1 measured the runner's
    auto-fallback decision, not a worker pool.
    """
    variants = {
        "sequential": {"parallelism": 1, "parallel_backend": "thread"},
        f"thread_x{parallelism}": {
            "parallelism": parallelism,
            "parallel_backend": "thread",
        },
        f"process_x{parallelism}": {
            "parallelism": parallelism,
            "parallel_backend": "process",
        },
    }
    out: dict = {"n_sites": n_sites}
    for name, overrides in variants.items():
        config = DistributedRunConfig(
            eps_local=eps, min_pts_local=min_pts, seed=seed, **overrides
        )
        # Tracing is on so the report breaks each variant down per phase;
        # timing fields and trace spans come from the same clock reads.
        report = DistributedRunner(
            config, tracer=Tracer(), metrics=MetricsRegistry()
        ).run(points, n_sites)
        totals = phase_totals(report.trace)
        out[name] = {
            "local_wall_seconds": report.local_wall_seconds,
            "local_cpu_seconds": report.local_cpu_seconds,
            "relabel_wall_seconds": report.relabel_wall_seconds,
            "max_local_wall_seconds": report.max_local_wall_seconds,
            "effective_workers": report.effective_parallelism,
            "parallelism_fallback_reason": report.parallelism_fallback_reason,
            "shm_bytes_shared": report.shm_bytes_shared,
            "n_global_clusters": len(
                set(int(g) for g in report.global_model.global_labels)
            ),
            "phase_wall_seconds": {
                phase: totals[phase]["wall_seconds"]
                for phase in (
                    "local_phase",
                    "global_phase",
                    "broadcast",
                    "relabel",
                )
                if phase in totals
            },
        }
    sequential = out["sequential"]["local_wall_seconds"]
    for name in variants:
        if name != "sequential":
            wall = out[name]["local_wall_seconds"]
            out[name]["speedup_vs_sequential"] = (
                sequential / wall if wall > 0 else None
            )
    return out


def bench_relabel_kernels(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    n_sites: int = 4,
    seed: int = 42,
    repeats: int = 1,
) -> dict:
    """Dense reference sweep vs. vectorized relabel kernel, same inputs.

    Builds the local models and the global model once, then times a full
    all-sites relabel pass per kernel and asserts the outputs are
    bit-identical (labels *and* stats) — the hard invariant of the kernel
    dispatch.  The query row cuts the points into ``QUERY_POINTS``-point
    pure-coverage queries and times them through ``auto`` and the
    reference, per query, asserting identical labels.
    """
    assignment = partition(points, n_sites, "uniform_random", seed)
    site_points = split(points, assignment)
    outcomes = [
        build_local_model(site, eps, min_pts, scheme="rep_scor", site_id=i)
        for i, site in enumerate(site_points)
    ]
    global_model, __ = build_global_model([o.model for o in outcomes])
    seconds: dict[str, float] = {}
    outputs: dict[str, list] = {}
    for kernel in ("reference", "vectorized"):

        def run_all(kernel: str = kernel):
            return [
                relabel_site(
                    site,
                    outcome.clustering.labels,
                    global_model,
                    site_id=i,
                    kernel=kernel,
                )
                for i, (site, outcome) in enumerate(zip(site_points, outcomes))
            ]

        seconds[kernel], outputs[kernel] = _best_of(run_all, repeats)
    identical = all(
        np.array_equal(ref[0], vec[0]) and ref[1] == vec[1]
        for ref, vec in zip(outputs["reference"], outputs["vectorized"])
    )
    assert identical, "vectorized relabel diverged from the reference kernel"
    queries = [
        points[start : start + QUERY_POINTS]
        for start in range(0, points.shape[0], QUERY_POINTS)
    ]
    query_seconds: dict[str, float] = {}
    query_labels: dict[str, list] = {}
    for kernel in ("reference", "auto"):

        def run_queries(kernel: str = kernel):
            return [
                relabel_site(
                    query,
                    np.full(query.shape[0], NOISE, dtype=np.intp),
                    global_model,
                    site_id=None,
                    kernel=kernel,
                )[0]
                for query in queries
            ]

        total, query_labels[kernel] = _best_of(run_queries, repeats)
        query_seconds[kernel] = total / len(queries)
    query_identical = all(
        np.array_equal(ref, auto)
        for ref, auto in zip(query_labels["reference"], query_labels["auto"])
    )
    assert query_identical, "auto label queries diverged from the reference"
    vectorized = seconds["vectorized"]
    return {
        "n_sites": n_sites,
        "n_representatives": len(global_model),
        "reference_seconds": seconds["reference"],
        "vectorized_seconds": vectorized,
        "speedup": seconds["reference"] / vectorized if vectorized > 0 else None,
        "labels_identical": identical,
        "n_covered": int(sum(stats.n_covered for __, stats in outputs["vectorized"])),
        "n_queries": len(queries),
        "query_reference_seconds": query_seconds["reference"],
        "query_auto_seconds": query_seconds["auto"],
        "query_labels_identical": query_identical,
    }


def bench_shm_pool(points: np.ndarray, *, n_sites: int = 4) -> dict:
    """Share / attach / verify / unlink round-trip of per-site arrays."""
    parts = [
        part for part in np.array_split(points, max(1, n_sites)) if part.size
    ]
    start = time.perf_counter()
    pool = ShmArrayPool()
    refs = [pool.share(part) for part in parts]
    setup_seconds = time.perf_counter() - start
    start = time.perf_counter()
    copies = [attach_array(ref) for ref in refs]
    attach_seconds = time.perf_counter() - start
    roundtrip_ok = all(
        np.array_equal(copy, part) for copy, part in zip(copies, parts)
    )
    start = time.perf_counter()
    pool.close()
    teardown_seconds = time.perf_counter() - start
    return {
        "n_arrays": len(refs),
        "bytes_shared": int(sum(ref.nbytes for ref in refs)),
        "setup_seconds": setup_seconds,
        "attach_seconds": attach_seconds,
        "teardown_seconds": teardown_seconds,
        "roundtrip_ok": bool(roundtrip_ok),
    }


def bench_scale_pipeline(
    cardinality: int,
    *,
    n_sites: int = 4,
    seed: int = 42,
    relabel_kernel: str = "vectorized",
) -> dict:
    """One full DBDC pipeline at ``cardinality`` with per-phase budgets.

    Hand-rolled (generate → partition → local → global → relabel) rather
    than run through ``DistributedRunner`` so every phase can carry its
    own wall + memory probe without network-simulation noise.
    """
    phases: dict[str, dict] = {}
    data, phases["generate"] = _probe(
        lambda: dataset_a(cardinality=cardinality, seed=seed)
    )
    points, eps, min_pts = data.points, data.eps_local, data.min_pts

    def do_partition():
        assignment = partition(points, n_sites, "uniform_random", seed)
        return split(points, assignment)

    site_points, phases["partition"] = _probe(do_partition)
    outcomes, phases["local"] = _probe(
        lambda: [
            build_local_model(site, eps, min_pts, scheme="rep_scor", site_id=i)
            for i, site in enumerate(site_points)
        ]
    )
    (global_model, __stats), phases["global"] = _probe(
        lambda: build_global_model([o.model for o in outcomes])
    )
    relabeled, phases["relabel"] = _probe(
        lambda: [
            relabel_site(
                site,
                outcome.clustering.labels,
                global_model,
                site_id=i,
                kernel=relabel_kernel,
            )
            for i, (site, outcome) in enumerate(zip(site_points, outcomes))
        ]
    )
    labels = np.concatenate([site_labels for site_labels, __ in relabeled])
    return {
        "cardinality": int(points.shape[0]),
        "n_sites": n_sites,
        "relabel_kernel": relabel_kernel,
        "phases": phases,
        "total_wall_seconds": sum(p["wall_seconds"] for p in phases.values()),
        "peak_rss_mb": max(p["rss_peak_mb"] for p in phases.values()),
        "n_representatives": len(global_model),
        "n_global_clusters": int(np.unique(labels[labels >= 0]).size),
        "n_covered": int(sum(stats.n_covered for __, stats in relabeled)),
    }


def _normalize_cardinalities(cardinality: int | Sequence[int]) -> list[int]:
    if isinstance(cardinality, (int, np.integer)):
        values = [int(cardinality)]
    else:
        values = [int(value) for value in cardinality]
    if not values or any(value <= 0 for value in values):
        raise ValueError(f"cardinalities must be positive, got {values}")
    return values


def run_hotpath_bench(
    *,
    cardinality: int | Sequence[int] = 20_000,
    n_sites: int = 4,
    parallelism: int = 4,
    repeats: int = 1,
    seed: int = 42,
    kinds: tuple[str, ...] = ("brute", "grid", "kdtree"),
    strict_git: bool = False,
) -> dict:
    """Run all hot-path benchmarks on data set A and return the report.

    Args:
        cardinality: one cardinality, or a sweep list — the first entry
            is the *primary* the classic sections run at, every entry gets
            a memory-budgeted scale pipeline.
        strict_git: refuse to run on a dirty git tree instead of warning.

    Raises:
        RuntimeError: dirty tree under ``strict_git``.
        ValueError: non-positive cardinalities.
    """
    cardinalities = _normalize_cardinalities(cardinality)
    primary = cardinalities[0]
    environment = run_environment()
    if environment["git_dirty"]:
        message = (
            "git tree is dirty: the report would attribute these numbers to "
            f"rev {environment['git_rev']!r}, which does not match the "
            "working tree — commit (or stash) before recording numbers"
        )
        if strict_git:
            raise RuntimeError(message)
        print(f"warning: {message}", file=sys.stderr)

    # The runner's own fallback logic decides the effective worker count
    # for this box + primary cardinality; the bench stamps the decision.
    probe_runner = DistributedRunner(
        DistributedRunConfig(
            eps_local=1.0,
            min_pts_local=1,
            parallelism=parallelism,
            parallel_backend="process",
        )
    )
    effective_workers, fallback_reason = probe_runner._resolve_parallelism(
        [np.empty((max(1, primary // max(1, n_sites)), 0))] * n_sites
    )

    report: dict = {"bench": "hotpaths"}
    points = eps = min_pts = None
    if primary <= _KERNELS_MAX:
        data = dataset_a(cardinality=primary, seed=seed)
        points, eps, min_pts = data.points, data.eps_local, data.min_pts
    if points is not None and primary <= _CLASSIC_MAX:
        report["region_queries"] = bench_region_queries(
            points, eps, kinds=kinds, repeats=repeats, seed=seed
        )
        report["dbscan"] = bench_dbscan(
            points, eps, min_pts, kinds=kinds, repeats=repeats
        )
        report["local_phase"] = bench_local_phase(
            points, eps, min_pts, n_sites=n_sites, parallelism=parallelism, seed=seed
        )
    if points is not None:
        report["relabel_kernels"] = bench_relabel_kernels(
            points, eps, min_pts, n_sites=n_sites, seed=seed, repeats=repeats
        )
        report["shm_pool"] = bench_shm_pool(points, n_sites=n_sites)
    report["scale"] = {
        str(value): bench_scale_pipeline(value, n_sites=n_sites, seed=seed)
        for value in cardinalities
    }
    dim = (
        int(points.shape[1])
        if points is not None
        else int(dataset_a(cardinality=64, seed=seed).points.shape[1])
    )
    report["meta"] = {
        "cardinality": (
            int(points.shape[0]) if points is not None else int(primary)
        ),
        "cardinalities": cardinalities,
        "dim": dim,
        "eps": float(eps) if eps is not None else None,
        "min_pts": int(min_pts) if min_pts is not None else None,
        "repeats": int(repeats),
        "seed": int(seed),
        "parallelism": int(parallelism),
        "effective_workers": int(effective_workers),
        "parallelism_fallback_reason": fallback_reason,
        "created_utc": utc_now_iso(),
        "git_rev": environment["git_rev"],
        "git_dirty": environment["git_dirty"],
        "cpu_count": environment["cpu_count"],
        "python": environment["python"],
        "numpy": environment["numpy"],
        "platform": environment["platform"],
    }
    return report


def flat_metrics(report: dict) -> dict[str, float]:
    """Flatten a hot-path report into RunRecord metrics.

    Per-kind numbers keep the kind in brackets
    (``"dbscan.speedup[grid]"``) per the :mod:`repro.obs` name contract;
    the regression gate treats ``*speedup*`` as higher-is-better and
    ``*seconds*`` as lower-is-better.  Deterministic correctness metrics
    (``relabel_kernels.labels_identical``, ``shm.roundtrip_ok``, cluster
    and coverage counts) survive ``--ignore-timing`` and are what the CI
    smoke gate actually pins.
    """
    out: dict[str, float] = {}
    for kind, row in report.get("region_queries", {}).items():
        out[f"region_queries.single_seconds[{kind}]"] = row["single_seconds"]
        out[f"region_queries.batched_seconds[{kind}]"] = row["batched_seconds"]
        if row["speedup"] is not None:
            out[f"region_queries.speedup[{kind}]"] = row["speedup"]
    for kind, row in report.get("dbscan", {}).items():
        out[f"dbscan.single_seconds[{kind}]"] = row["single_seconds"]
        out[f"dbscan.batched_seconds[{kind}]"] = row["batched_seconds"]
        if row["speedup"] is not None:
            out[f"dbscan.speedup[{kind}]"] = row["speedup"]
        out[f"dbscan.clusters_count[{kind}]"] = row["n_clusters"]
        out[f"dbscan.region_queries_count[{kind}]"] = row["n_region_queries"]
        for counter in ("candidate_pairs", "neighbor_pairs"):
            if row.get(counter) is not None:
                out[f"dbscan.{counter}_count[{kind}]"] = float(row[counter])
    for name, row in report.get("local_phase", {}).items():
        if name == "n_sites":
            continue
        out[f"local_phase.wall_seconds[{name}]"] = row["local_wall_seconds"]
        out[f"local_phase.cpu_seconds[{name}]"] = row["local_cpu_seconds"]
        out[f"local_phase.relabel_wall_seconds[{name}]"] = row[
            "relabel_wall_seconds"
        ]
        out[f"local_phase.effective_workers[{name}]"] = float(
            row["effective_workers"]
        )
        if "speedup_vs_sequential" in row and row["speedup_vs_sequential"]:
            out[f"local_phase.speedup[{name}]"] = row["speedup_vs_sequential"]
    kernels = report.get("relabel_kernels")
    if kernels:
        out["relabel_kernels.wall_seconds[reference]"] = kernels[
            "reference_seconds"
        ]
        out["relabel_kernels.wall_seconds[vectorized]"] = kernels[
            "vectorized_seconds"
        ]
        if kernels["speedup"] is not None:
            out["relabel_kernels.speedup"] = kernels["speedup"]
        out["relabel_kernels.labels_identical"] = float(
            kernels["labels_identical"]
        )
        out["relabel_kernels.covered_count"] = float(kernels["n_covered"])
        out["relabel_kernels.representatives_count"] = float(
            kernels["n_representatives"]
        )
        out["relabel_kernels.query_labels_identical"] = float(
            kernels["query_labels_identical"]
        )
        for kernel in ("reference", "auto"):
            out[f"relabel_kernels.query_wall_seconds[{kernel}]"] = kernels[
                f"query_{kernel}_seconds"
            ]
    shm = report.get("shm_pool")
    if shm:
        out["shm.setup_seconds"] = shm["setup_seconds"]
        out["shm.attach_seconds"] = shm["attach_seconds"]
        out["shm.teardown_seconds"] = shm["teardown_seconds"]
        out["shm.bytes_shared"] = float(shm["bytes_shared"])
        out["shm.roundtrip_ok"] = float(shm["roundtrip_ok"])
    for value, row in report.get("scale", {}).items():
        out[f"scale.total_wall_seconds[{value}]"] = row["total_wall_seconds"]
        out[f"scale.rss_peak_mb[{value}]"] = row["peak_rss_mb"]
        out[f"scale.clusters_count[{value}]"] = float(row["n_global_clusters"])
        out[f"scale.covered_count[{value}]"] = float(row["n_covered"])
        for phase, budget in row["phases"].items():
            out[f"scale.wall_seconds[{value}:{phase}]"] = budget["wall_seconds"]
            out[f"scale.tracemalloc_peak_mb[{value}:{phase}]"] = budget[
                "tracemalloc_peak_mb"
            ]
    return out


def write_report(report: dict, path: str = DEFAULT_REPORT_PATH) -> str:
    """Write the benchmark report as pretty-printed JSON (makes parent dirs)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_summary(report: dict) -> str:
    """Human-readable summary of a hot-path benchmark report."""
    meta = report["meta"]
    workers = f"workers={meta['effective_workers']}/{meta['parallelism']}"
    if meta.get("parallelism_fallback_reason"):
        workers += f" ({meta['parallelism_fallback_reason']})"
    lines = [
        f"hot paths @ n={meta['cardinality']} "
        f"(cpus={meta['cpu_count']}, {workers})"
    ]
    if "region_queries" in report:
        lines.append("region queries (single -> batched):")
        for kind, row in report["region_queries"].items():
            lines.append(
                f"  {kind:7s} {row['single_seconds']:.3f}s -> "
                f"{row['batched_seconds']:.3f}s  ({row['speedup']:.2f}x)"
            )
    if "dbscan" in report:
        lines.append("DBSCAN (classic -> frontier-batched):")
        for kind, row in report["dbscan"].items():
            lines.append(
                f"  {kind:7s} {row['single_seconds']:.3f}s -> "
                f"{row['batched_seconds']:.3f}s  ({row['speedup']:.2f}x, "
                f"{row['n_region_queries']} queries)"
            )
    if "local_phase" in report:
        lines.append(
            f"local phase over {report['local_phase']['n_sites']} sites "
            f"(wall seconds):"
        )
        for name, row in report["local_phase"].items():
            if name == "n_sites":
                continue
            extra = f"  [workers={row['effective_workers']}"
            if row.get("parallelism_fallback_reason"):
                extra += f", fallback={row['parallelism_fallback_reason']}"
            extra += "]"
            if "speedup_vs_sequential" in row:
                extra += f"  ({row['speedup_vs_sequential']:.2f}x vs sequential)"
            lines.append(f"  {name:12s} {row['local_wall_seconds']:.3f}s{extra}")
    if "relabel_kernels" in report:
        row = report["relabel_kernels"]
        lines.append(
            f"relabel kernels ({row['n_representatives']} representatives, "
            f"bit-identical={row['labels_identical']}):"
        )
        lines.append(
            f"  reference  {row['reference_seconds']:.3f}s -> "
            f"vectorized {row['vectorized_seconds']:.3f}s  "
            f"({row['speedup']:.2f}x)"
        )
        lines.append(
            f"  {row['n_queries']} label queries of {QUERY_POINTS} points: "
            f"reference {row['query_reference_seconds'] * 1e3:.2f}ms -> "
            f"auto {row['query_auto_seconds'] * 1e3:.2f}ms per query "
            f"(bit-identical={row['query_labels_identical']})"
        )
    if "shm_pool" in report:
        row = report["shm_pool"]
        lines.append(
            f"shm pool: {row['bytes_shared']} bytes in {row['n_arrays']} "
            f"arrays, share {row['setup_seconds'] * 1e3:.1f}ms / attach "
            f"{row['attach_seconds'] * 1e3:.1f}ms / unlink "
            f"{row['teardown_seconds'] * 1e3:.1f}ms, "
            f"roundtrip_ok={row['roundtrip_ok']}"
        )
    if report.get("scale"):
        lines.append("scale sweep (wall s | tracemalloc peak MB | rss MB):")
        for value, row in report["scale"].items():
            lines.append(
                f"  n={value}: total {row['total_wall_seconds']:.2f}s, "
                f"rss peak {row['peak_rss_mb']:.0f}MB, "
                f"{row['n_global_clusters']} clusters"
            )
            for phase, budget in row["phases"].items():
                lines.append(
                    f"    {phase:9s} {budget['wall_seconds']:8.2f}s | "
                    f"{budget['tracemalloc_peak_mb']:8.1f} | "
                    f"{budget['rss_peak_mb']:8.0f}"
                )
    return "\n".join(lines)


def record_bench_run(report: dict, registry_root: str) -> dict:
    """Append one hot-path report to the run registry.

    The registry holds the durable history; the top-level
    ``BENCH_hotpaths.json`` is just the generated "latest" view.  The
    record's run id is stamped back into ``report["meta"]["run_id"]`` so
    the latest view points at its registry entry.
    """
    from repro.obs.registry import RunRegistry

    meta = report["meta"]
    record = RunRegistry(registry_root).record(
        "bench",
        config={
            key: meta[key]
            for key in ("cardinality", "dim", "eps", "min_pts", "repeats", "seed")
        },
        metrics=flat_metrics(report),
        artifacts={"BENCH_hotpaths.json": report},
    )
    meta["run_id"] = record["run_id"]
    return record


def _parse_cardinality(text: str) -> list[int]:
    """Parse ``"20000"`` or ``"20000,200000,1000000"``."""
    try:
        return [int(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"cardinality must be a comma-separated list of ints, got {text!r}"
        ) from error


def main(argv: list[str] | None = None) -> int:
    """Stand-alone entry point (also reachable as ``repro.cli bench``)."""
    parser = argparse.ArgumentParser(description="DBDC hot-path benchmarks")
    parser.add_argument(
        "--cardinality",
        type=_parse_cardinality,
        default=[20_000],
        help="primary cardinality, or a comma-separated sweep "
        "(e.g. 20000,200000,1000000); every entry gets a memory-budgeted "
        "scale pipeline, the first also runs the classic sections",
    )
    parser.add_argument("--sites", type=int, default=4)
    parser.add_argument("--parallelism", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--strict-git",
        action="store_true",
        help="refuse to run on a dirty git tree (default: warn)",
    )
    parser.add_argument("--out", default=DEFAULT_REPORT_PATH)
    parser.add_argument("--registry", default=".runs")
    parser.add_argument("--no-registry", action="store_true")
    args = parser.parse_args(argv)
    report = run_hotpath_bench(
        cardinality=args.cardinality,
        n_sites=args.sites,
        parallelism=args.parallelism,
        repeats=args.repeats,
        seed=args.seed,
        strict_git=args.strict_git,
    )
    print(format_summary(report))
    if not args.no_registry:
        try:
            record = record_bench_run(report, args.registry)
        except Exception as error:  # never fail the run over bookkeeping
            print(f"warning: could not record run: {error}", file=sys.stderr)
        else:
            print(f"recorded {record['run_id']} in {args.registry}")
    path = write_report(report, args.out)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
