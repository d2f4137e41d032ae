"""Sustained-load bench against a live :class:`DBDCService`.

``python -m repro serve-bench`` boots the service in-process (its own
event-loop thread), runs the full site protocol over real sockets, then
hammers the label-query path with concurrent clients — and scores the
run on three axes the regress rules gate:

* **correctness** — ``serve.labels_identical``: the socket run's labels
  must be bit-identical to the same seed/config run through
  ``SimulatedNetwork`` (zero tolerance, survives ``--ignore-timing``);
  ``serve.scrape_roundtrip_ok``: the live OpenMetrics endpoint must
  strict-parse.
* **reliability** — ``serve.upload_failed`` / ``serve.query_failed``
  stay at zero.  Every query reply is checked against the reference
  relabel kernel over the served model, so a wrong answer is a failed
  query; the report's ``query_failures`` names each failure's cause
  (``label_mismatch`` or the exception type).
* **throughput/latency** — ``serve.query_throughput_rps`` and the
  ``serve.*_wall_seconds`` percentiles (timing-tagged: dropped on
  cross-machine CI comparisons, gated on like-for-like reruns).

The report lands in the ``.runs/`` registry via :func:`record_serve_bench`
(artifact ``BENCH_serve.json``), mirroring the hot-path and chaos
benches.
"""

from __future__ import annotations

import argparse
import tempfile
import threading
import time
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.clustering.labels import NOISE
from repro.core.models import GlobalModel
from repro.core.relabel import relabel_site
from repro.data.datasets import load_dataset
from repro.distributed.partition import partition, split
from repro.distributed.runner import DistributedRunConfig, DistributedRunner
from repro.obs import MetricsRegistry, Tracer, validate_trace
from repro.obs.openmetrics import parse_openmetrics
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, ServiceHandle
from repro.service.worker import run_site_worker

__all__ = [
    "run_serve_bench",
    "run_client_sweep",
    "format_serve_summary",
    "format_sweep_summary",
    "record_serve_bench",
    "record_client_sweep",
    "main",
]


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples), q))


#: Points per slice of the reference relabel; keeps its distance
#: matrices, and so the bench's memory high-water mark, small.
_REFERENCE_SLICE = 2048


def _reference_labels(points: np.ndarray, model: GlobalModel) -> np.ndarray:
    """The label a query must return for each point under ``model``."""
    n_slices = max(1, -(-points.shape[0] // _REFERENCE_SLICE))
    return np.concatenate(
        [
            relabel_site(
                part,
                np.full(part.shape[0], NOISE, dtype=np.intp),
                model,
                site_id=None,
                kernel="reference",
            )[0]
            for part in np.array_split(points, n_slices)
        ]
    )


def run_serve_bench(
    *,
    dataset: str = "A",
    cardinality: int | None = None,
    n_sites: int = 4,
    n_clients: int = 8,
    n_queries: int = 200,
    query_batch: int = 256,
    scheme: str = "rep_scor",
    seed: int = 42,
    trace: bool = False,
    journal_dir: str | None = None,
) -> dict:
    """Run the sustained-load service bench.

    Phases: (1) reference run through the simulated path; (2) boot the
    service with a write-ahead journal; (3) concurrent site uploads over
    sockets + bit-identity check; (4) ``n_clients`` threads issuing
    ``n_queries`` label queries total; (5) live HTTP metrics scrape,
    strict-parsed; (6) the recovery drill — hard-kill the service
    thread, restart it against the same journal directory, and check
    that the recovered model labels the data set identically.

    Args:
        dataset: data set name (A/B/C).
        cardinality: data set size override.
        n_sites: client sites uploading models.
        n_clients: concurrent query clients.
        n_queries: total label queries across all clients.
        query_batch: points per label query.
        scheme: local model scheme.
        seed: partitioning seed.
        trace: also trace the bench — service and site workers share one
            trace id, workers ship their spans over ``TRACE_UPLOAD``,
            and the merged document is schema-gated
            (``serve.trace_*`` metrics) and stored in the report.
        journal_dir: write-ahead journal directory (a temporary one per
            bench run when omitted — the journal and recovery drill are
            always exercised).

    Returns:
        A JSON-able report with a flat ``metrics`` dict — including
        ``serve.journal_bytes``, ``serve.journal_fsync_count``,
        ``serve.recovery_wall_seconds`` and
        ``serve.recovery_labels_identical`` from the drill.
    """
    with tempfile.TemporaryDirectory(prefix="dbdc-wal-") as scratch_dir:
        return _run_serve_bench_journaled(
            dataset=dataset,
            cardinality=cardinality,
            n_sites=n_sites,
            n_clients=n_clients,
            n_queries=n_queries,
            query_batch=query_batch,
            scheme=scheme,
            seed=seed,
            trace=trace,
            journal_dir=journal_dir if journal_dir is not None else scratch_dir,
        )


def _run_serve_bench_journaled(
    *,
    dataset: str,
    cardinality: int | None,
    n_sites: int,
    n_clients: int,
    n_queries: int,
    query_batch: int,
    scheme: str,
    seed: int,
    trace: bool,
    journal_dir: str,
) -> dict:
    """The bench body with a concrete journal directory."""
    data = load_dataset(dataset, cardinality=cardinality)
    points = data.points
    run_config = DistributedRunConfig(
        eps_local=data.eps_local,
        min_pts_local=data.min_pts,
        scheme=scheme,
        seed=seed,
    )

    # Phase 1: the same workload through the simulated in-process path —
    # the oracle the socket run must match bit for bit.
    reference = DistributedRunner(run_config).run(points, n_sites)
    ref_labels = reference.labels_in_original_order()

    assignment = partition(points, n_sites, run_config.partition_strategy, seed)
    parts = split(points, assignment)

    report: dict = {
        "meta": {
            "dataset": data.name,
            "cardinality": int(points.shape[0]),
            "n_sites": n_sites,
            "n_clients": n_clients,
            "n_queries": n_queries,
            "query_batch": query_batch,
            "scheme": scheme,
            "seed": seed,
        }
    }
    bench_start = time.perf_counter()

    server_tracer = Tracer() if trace else None
    worker_tracers = (
        {
            site_id: Tracer(trace_id=server_tracer.trace_id)
            for site_id in range(n_sites)
        }
        if server_tracer is not None
        else {}
    )
    server_metrics = MetricsRegistry()
    service_config = ServiceConfig(
        expected_sites=n_sites,
        relabel_kernel=run_config.relabel_kernel,
        journal_dir=journal_dir,
    )
    handle = ServiceHandle.start(
        service_config,
        metrics=server_metrics,
        tracer=server_tracer,
    )
    with handle:
        # Phase 3: concurrent uploads + relabel over real sockets.
        upload_start = time.perf_counter()
        worker_results: dict[int, object] = {}

        def upload(site_id: int) -> None:
            worker_results[site_id] = run_site_worker(
                handle.host,
                handle.port,
                site_id,
                parts[site_id],
                eps_local=data.eps_local,
                min_pts_local=data.min_pts,
                scheme=scheme,
                tracer=worker_tracers.get(site_id),
            )

        threads = [
            threading.Thread(target=upload, args=(site_id,))
            for site_id in range(n_sites)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        upload_seconds = time.perf_counter() - upload_start

        socket_labels = np.empty(points.shape[0], dtype=np.intp)
        upload_failed = 0
        upload_attempts = 0
        bytes_up = 0
        for site_id, result in worker_results.items():
            if result.verdict != "admitted" or result.labels.size == 0:
                upload_failed += 1
                continue
            socket_labels[assignment == site_id] = result.labels
            upload_attempts += result.upload_attempts
            bytes_up += result.bytes_sent
        labels_identical = upload_failed == 0 and bool(
            np.array_equal(ref_labels, socket_labels)
        )

        # Phase 4: sustained concurrent label-query load.  Every client
        # owns one connection and walks fixed slices of the data set, so
        # the total work is deterministic; only the timings vary.  Each
        # reply is checked against the reference labels of the served
        # model, computed once before the storm.
        with ServiceClient(handle.host, handle.port) as service:
            expected = _reference_labels(
                points, service.await_global_model(timeout_s=30.0)
            )
        query_start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            outcomes = list(
                pool.map(
                    lambda client: _query_slice(
                        handle.host,
                        handle.port,
                        points,
                        expected,
                        list(range(client, n_queries, n_clients)),
                        query_batch,
                    ),
                    range(n_clients),
                )
            )
        query_seconds = time.perf_counter() - query_start
        latencies = [latency for mine, __ in outcomes for latency in mine]
        query_failures: Counter[str] = Counter()
        for __, failures in outcomes:
            query_failures.update(failures)

        # Phase 5: live scrape of the HTTP OpenMetrics endpoint, parsed
        # with the strict parser — a malformed exposition *or* a missing
        # OpenMetrics content-type is a failure.
        scrape_ok = 0.0
        scrape_families = 0
        try:
            with urllib.request.urlopen(
                f"http://{handle.host}:{handle.metrics_port}/metrics", timeout=10
            ) as response:
                exposition = response.read().decode("utf-8")
                content_type = response.headers.get("Content-Type")
            families = parse_openmetrics(exposition, content_type=content_type)
            scrape_families = len(families)
            scrape_ok = 1.0 if scrape_families > 0 else 0.0
        except Exception as error:
            report["scrape_error"] = str(error)

        health = {}
        try:
            with ServiceClient(handle.host, handle.port) as service:
                health = service.health()
        except Exception as error:
            report["health_error"] = str(error)

        # Phase 5b (--trace): merge the distributed trace while the loop
        # is still running and gate it — schema-valid, every process
        # shipped its spans, one admission span per site.
        trace_doc = None
        if trace:
            trace_doc = handle.merged_trace()

        # Phase 6: recovery drill.  Snapshot what the live server says
        # about the data set, then stop its loop dead — no drain, no
        # journal close — and bring a fresh service up on the same
        # journal directory.  The recovered model must answer the same
        # query bit-identically.
        precrash_labels = None
        try:
            with ServiceClient(handle.host, handle.port) as service:
                precrash_labels = service.query(points)
        except Exception as error:
            report["precrash_query_error"] = str(error)
        handle.kill()

    journal_bytes = server_metrics.value("service.journal_bytes")
    journal_fsyncs = server_metrics.value("service.journal_fsyncs")
    recovery_metrics = MetricsRegistry()
    recovery_labels_identical = 0.0
    drill_start = time.perf_counter()
    with ServiceHandle.start(
        ServiceConfig(
            expected_sites=n_sites,
            relabel_kernel=run_config.relabel_kernel,
            journal_dir=journal_dir,
            metrics_port=None,
        ),
        metrics=recovery_metrics,
    ) as recovered_handle:
        try:
            with ServiceClient(
                recovered_handle.host, recovered_handle.port
            ) as service:
                recovered_labels = service.query(points)
            recovery_labels_identical = (
                1.0
                if precrash_labels is not None
                and np.array_equal(precrash_labels, recovered_labels)
                else 0.0
            )
        except Exception as error:
            report["recovery_error"] = str(error)
    drill_seconds = time.perf_counter() - drill_start

    total_seconds = time.perf_counter() - bench_start
    n_failed_queries = sum(query_failures.values())
    n_ok_queries = len(latencies)
    throughput = n_ok_queries / query_seconds if query_seconds > 0 else 0.0

    report["health"] = health
    report["query_failures"] = dict(sorted(query_failures.items()))
    report["metrics"] = {
        "serve.labels_identical": 1.0 if labels_identical else 0.0,
        "serve.scrape_roundtrip_ok": scrape_ok,
        "serve.scrape_families_count": float(scrape_families),
        "serve.upload_failed": float(upload_failed),
        "serve.query_failed": float(n_failed_queries),
        "serve.uploads_count": float(n_sites),
        "serve.upload_attempts_count": float(upload_attempts),
        "serve.queries_count": float(n_ok_queries),
        "serve.labels_served_count": float(n_ok_queries * query_batch),
        "serve.bytes_up": float(bytes_up),
        "serve.query_throughput_rps": throughput,
        "serve.upload_phase_wall_seconds": upload_seconds,
        "serve.query_phase_wall_seconds": query_seconds,
        "serve.query_p50_wall_seconds": _percentile(latencies, 50),
        "serve.query_p95_wall_seconds": _percentile(latencies, 95),
        "serve.query_p99_wall_seconds": _percentile(latencies, 99),
        "serve.query_max_wall_seconds": max(latencies, default=0.0),
        "serve.journal_bytes": journal_bytes,
        "serve.journal_fsync_count": journal_fsyncs,
        "serve.journal_records_count": server_metrics.value(
            "service.journal_records"
        ),
        "serve.recovery_labels_identical": recovery_labels_identical,
        "serve.recovered_models_count": recovery_metrics.value(
            "service.recovered_models"
        ),
        "serve.recovery_wall_seconds": recovery_metrics.value(
            "service.recovery_wall_seconds"
        ),
        "serve.recovery_drill_wall_seconds": drill_seconds,
        "serve.total_wall_seconds": total_seconds,
    }
    if trace_doc is not None:
        schema_errors = validate_trace(trace_doc)
        processes = trace_doc.get("processes", {})
        expected = {"server"} | {f"site-{i}" for i in range(n_sites)}
        n_admissions = _count_named_spans(trace_doc, "serve[local_model]")
        report["trace"] = trace_doc
        report["metrics"].update(
            {
                "serve.trace_schema_ok": 0.0 if schema_errors else 1.0,
                "serve.trace_processes_ok": (
                    1.0 if expected <= set(processes) else 0.0
                ),
                "serve.trace_admissions_ok": (
                    1.0 if n_admissions == n_sites else 0.0
                ),
                "serve.trace_processes_count": float(len(processes)),
                "serve.trace_spans_count": float(
                    _count_named_spans(trace_doc, None)
                ),
            }
        )
        if schema_errors:
            report["trace_schema_errors"] = schema_errors
    return report


def _count_named_spans(doc: dict, name: str | None) -> int:
    """Spans named ``name`` anywhere in the document (all when ``None``)."""

    def count(spans: list) -> int:
        total = 0
        for span in spans:
            if name is None or span.get("name") == name:
                total += 1
            total += count(span.get("children", []))
        return total

    return count(doc.get("spans", []))


def _query_slice(
    host: str,
    port: int,
    points: np.ndarray,
    expected: np.ndarray,
    indices: list[int],
    query_batch: int,
) -> tuple[list[float], Counter[str]]:
    """Send query ``index`` for every index over one connection.

    Query ``index`` labels ``query_batch`` points from a fixed offset;
    its reply must equal ``expected`` there.

    Returns:
        ``(latencies, failures)`` — one latency per correct reply, and
        the failed queries counted by cause: ``label_mismatch`` for a
        wrong reply, else the exception type that ended the connection
        (every query it left unsent fails with it).
    """
    n_points = points.shape[0]
    latencies: list[float] = []
    failures: Counter[str] = Counter()
    n_sent = 0
    try:
        with ServiceClient(host, port) as service:
            for index in indices:
                lo = (index * query_batch) % max(n_points - query_batch, 1)
                start = time.perf_counter()
                labels = service.query(points[lo : lo + query_batch])
                elapsed = time.perf_counter() - start
                n_sent += 1
                if np.array_equal(labels, expected[lo : lo + query_batch]):
                    latencies.append(elapsed)
                else:
                    failures["label_mismatch"] += 1
    except Exception as error:
        failures[type(error).__name__] += len(indices) - n_sent
    return latencies, failures


def _sweep_worker(
    host: str,
    port: int,
    dataset: str,
    cardinality: int | None,
    expected: np.ndarray,
    n_queries: int,
    query_batch: int,
    client_index: int,
    n_clients: int,
    out_queue,
) -> None:
    """One sweep client *process*: connect, walk its query slice, report.

    Module-level so the ``spawn`` start method can import it; the child
    reloads the data set itself (deterministic for a fixed name/size),
    so only scalars and the expected labels are pickled.
    """
    points = load_dataset(dataset, cardinality=cardinality).points
    start = time.perf_counter()
    latencies, failures = _query_slice(
        host,
        port,
        points,
        expected,
        list(range(client_index, n_queries, n_clients)),
        query_batch,
    )
    out_queue.put(
        (client_index, len(latencies), dict(failures), time.perf_counter() - start)
    )


def run_client_sweep(
    *,
    dataset: str = "A",
    cardinality: int | None = None,
    n_sites: int = 4,
    client_counts: tuple[int, ...] = (8, 16, 32),
    n_queries: int = 256,
    query_batch: int = 256,
    scheme: str = "rep_scor",
    seed: int = 42,
) -> dict:
    """Query-throughput sweep with *separate client processes*.

    The thread-based bench shares one GIL across all clients, so it
    understates what a deployment of independent site processes can pull
    from the service.  This sweep boots one service, uploads the models
    once, then for each client count spawns that many real processes
    (``multiprocessing`` spawn — each with its own interpreter and
    connection) and splits ``n_queries`` across them.

    Args:
        dataset: data set name (A/B/C).
        cardinality: data set size override.
        n_sites: client sites uploading models.
        client_counts: the swept process counts.
        n_queries: total label queries per swept point.
        query_batch: points per label query.
        scheme: local model scheme.
        seed: partitioning seed.

    Returns:
        A JSON-able report with a flat ``metrics`` dict — throughput
        entries are timing-tagged (``*_rps``), failure counts gate at
        zero (``*failed*``).
    """
    import multiprocessing

    data = load_dataset(dataset, cardinality=cardinality)
    points = data.points
    assignment = partition(points, n_sites, seed=seed)
    parts = split(points, assignment)

    report: dict = {
        "meta": {
            "dataset": data.name,
            "cardinality": int(points.shape[0]),
            "n_sites": n_sites,
            "client_counts": [int(count) for count in client_counts],
            "n_queries": n_queries,
            "query_batch": query_batch,
            "scheme": scheme,
            "seed": seed,
        }
    }
    metrics: dict[str, float] = {}
    sweep_rows = []
    context = multiprocessing.get_context("spawn")
    bench_start = time.perf_counter()
    with ServiceHandle.start(
        ServiceConfig(expected_sites=n_sites, metrics_port=None)
    ) as handle:
        upload_threads = [
            threading.Thread(
                target=run_site_worker,
                args=(handle.host, handle.port, site_id, parts[site_id]),
                kwargs={
                    "eps_local": data.eps_local,
                    "min_pts_local": data.min_pts,
                    "scheme": scheme,
                },
            )
            for site_id in range(n_sites)
        ]
        for thread in upload_threads:
            thread.start()
        for thread in upload_threads:
            thread.join()
        with ServiceClient(handle.host, handle.port) as service:
            expected = _reference_labels(
                points, service.await_global_model(timeout_s=30.0)
            )

        for n_clients in client_counts:
            out_queue = context.Queue()
            processes = [
                context.Process(
                    target=_sweep_worker,
                    args=(
                        handle.host,
                        handle.port,
                        dataset,
                        cardinality,
                        expected,
                        n_queries,
                        query_batch,
                        client_index,
                        n_clients,
                        out_queue,
                    ),
                )
                for client_index in range(n_clients)
            ]
            sweep_start = time.perf_counter()
            for process in processes:
                process.start()
            results = [out_queue.get() for __ in processes]
            for process in processes:
                process.join()
            wall = time.perf_counter() - sweep_start
            n_ok = sum(row[1] for row in results)
            failures: Counter[str] = Counter()
            for row in results:
                failures.update(row[2])
            # Process exits without a result (crash before the queue
            # put) would show up here as missing queries.
            missing = n_queries - n_ok - sum(failures.values())
            if missing > 0:
                failures["no_result"] += missing
            n_failed = sum(failures.values())
            throughput = n_ok / wall if wall > 0 else 0.0
            label = f"clients={n_clients}"
            metrics[f"serve.sweep_query_throughput_rps[{label}]"] = throughput
            metrics[f"serve.sweep_query_failed[{label}]"] = float(n_failed)
            metrics[f"serve.sweep_queries_count[{label}]"] = float(n_ok)
            metrics[f"serve.sweep_wall_seconds[{label}]"] = wall
            sweep_rows.append(
                {
                    "n_clients": int(n_clients),
                    "n_ok": int(n_ok),
                    "n_failed": int(n_failed),
                    "failures": dict(sorted(failures.items())),
                    "wall_seconds": wall,
                    "throughput_rps": throughput,
                }
            )
    metrics["serve.sweep_total_wall_seconds"] = (
        time.perf_counter() - bench_start
    )
    metrics["serve.sweep_clients_max"] = float(max(client_counts, default=0))
    report["sweep"] = sweep_rows
    report["metrics"] = metrics
    return report


def format_sweep_summary(report: dict) -> str:
    """Human-readable client-sweep summary."""
    meta = report["meta"]
    lines = [
        f"serve-bench client sweep: data set {meta['dataset']} "
        f"({meta['cardinality']} objects, {meta['n_sites']} sites) — "
        f"{meta['n_queries']} queries of {meta['query_batch']} points per "
        "point, separate client processes",
    ]
    for row in report["sweep"]:
        lines.append(
            f"  {row['n_clients']:4d} clients: "
            f"{row['throughput_rps']:8.1f} queries/s  "
            f"({row['n_ok']} ok, {row['n_failed']} failed, "
            f"{row['wall_seconds']:.2f}s)"
        )
    return "\n".join(lines)


def record_client_sweep(report: dict, registry_root: str = ".runs") -> dict:
    """Append the client sweep to the registry (``serve-sweep`` record)."""
    from repro.obs.registry import RunRegistry

    meta = report["meta"]
    record = RunRegistry(registry_root).record(
        "serve-sweep",
        config={
            key: meta[key]
            for key in (
                "dataset",
                "cardinality",
                "n_sites",
                "client_counts",
                "n_queries",
                "query_batch",
                "scheme",
                "seed",
            )
        },
        metrics=report["metrics"],
        artifacts={"BENCH_serve_sweep.json": report},
    )
    meta["run_id"] = record["run_id"]
    return record


def format_serve_summary(report: dict) -> str:
    """Human-readable bench summary."""
    meta = report["meta"]
    metrics = report["metrics"]
    lines = [
        f"serve-bench: data set {meta['dataset']} "
        f"({meta['cardinality']} objects, {meta['n_sites']} sites) — "
        f"{meta['n_clients']} clients x {meta['n_queries']} queries "
        f"of {meta['query_batch']} points",
        f"  labels bit-identical to simulated run: "
        f"{'yes' if metrics['serve.labels_identical'] else 'NO'}",
        f"  OpenMetrics scrape strict-parsed:      "
        f"{'yes' if metrics['serve.scrape_roundtrip_ok'] else 'NO'} "
        f"({int(metrics['serve.scrape_families_count'])} families)",
        f"  failures: {int(metrics['serve.upload_failed'])} uploads, "
        f"{int(metrics['serve.query_failed'])} queries"
        + "".join(
            f", {count} {cause}"
            for cause, count in report.get("query_failures", {}).items()
        ),
        f"  throughput: {metrics['serve.query_throughput_rps']:.1f} queries/s "
        f"({int(metrics['serve.labels_served_count'])} labels served)",
        f"  query latency: p50 {1e3 * metrics['serve.query_p50_wall_seconds']:.2f}ms  "
        f"p95 {1e3 * metrics['serve.query_p95_wall_seconds']:.2f}ms  "
        f"p99 {1e3 * metrics['serve.query_p99_wall_seconds']:.2f}ms  "
        f"max {1e3 * metrics['serve.query_max_wall_seconds']:.2f}ms",
        f"  journal: {int(metrics['serve.journal_bytes'])} bytes, "
        f"{int(metrics['serve.journal_records_count'])} records, "
        f"{int(metrics['serve.journal_fsync_count'])} fsyncs",
        f"  recovery drill: labels identical "
        f"{'yes' if metrics['serve.recovery_labels_identical'] else 'NO'} "
        f"({int(metrics['serve.recovered_models_count'])} models replayed "
        f"in {1e3 * metrics['serve.recovery_wall_seconds']:.2f}ms)",
        f"  phases: upload {metrics['serve.upload_phase_wall_seconds']:.2f}s, "
        f"queries {metrics['serve.query_phase_wall_seconds']:.2f}s, "
        f"total {metrics['serve.total_wall_seconds']:.2f}s",
    ]
    if "serve.trace_schema_ok" in metrics:
        lines.append(
            f"  distributed trace: schema "
            f"{'ok' if metrics['serve.trace_schema_ok'] else 'INVALID'}, "
            f"{int(metrics['serve.trace_processes_count'])} processes, "
            f"{int(metrics['serve.trace_spans_count'])} spans "
            f"(all sites shipped: "
            f"{'yes' if metrics['serve.trace_processes_ok'] else 'NO'})"
        )
    return "\n".join(lines)


def record_serve_bench(report: dict, registry_root: str = ".runs") -> dict:
    """Append the bench to the run registry (``serve-bench`` RunRecord)."""
    from repro.obs.registry import RunRegistry

    meta = report["meta"]
    artifacts = {"BENCH_serve.json": report}
    if report.get("trace") is not None:
        artifacts["TRACE_serve.json"] = report["trace"]
    record = RunRegistry(registry_root).record(
        "serve-bench",
        config={
            key: meta[key]
            for key in (
                "dataset",
                "cardinality",
                "n_sites",
                "n_clients",
                "n_queries",
                "query_batch",
                "scheme",
                "seed",
            )
        },
        metrics=report["metrics"],
        artifacts=artifacts,
    )
    meta["run_id"] = record["run_id"]
    return record


def build_bench_parser() -> argparse.ArgumentParser:
    """Parser of the ``serve-bench`` command."""
    parser = argparse.ArgumentParser(
        prog="repro serve-bench",
        description="sustained-load bench against a live DBDCService",
    )
    parser.add_argument("--dataset", default="A", help="data set name (A/B/C)")
    parser.add_argument(
        "--cardinality", type=int, default=2_000, help="data set size"
    )
    parser.add_argument("--sites", type=int, default=4, help="client sites")
    parser.add_argument(
        "--clients", type=int, default=8, help="concurrent query clients"
    )
    parser.add_argument(
        "--queries", type=int, default=200, help="total label queries"
    )
    parser.add_argument(
        "--query-batch", type=int, default=256, help="points per query"
    )
    parser.add_argument(
        "--scheme",
        default="rep_scor",
        choices=["rep_scor", "rep_kmeans"],
        help="local model scheme",
    )
    parser.add_argument("--seed", type=int, default=42, help="partition seed")
    parser.add_argument(
        "--journal-dir",
        default=None,
        help="write-ahead journal directory (default: a fresh temporary "
        "directory per run)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="trace the bench: merge the distributed trace, gate it "
        "(serve.trace_* metrics) and store it as a TRACE_serve.json "
        "artifact",
    )
    parser.add_argument(
        "--client-sweep",
        default="",
        help="comma-separated client *process* counts; when set, run the "
        "multi-process throughput sweep after the bench (own RunRecord)",
    )
    parser.add_argument(
        "--sweep-queries",
        type=int,
        default=256,
        help="total label queries per swept client count",
    )
    parser.add_argument(
        "--registry", default=".runs", help="run registry root"
    )
    parser.add_argument(
        "--no-registry",
        action="store_true",
        help="do not append a RunRecord to the registry",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """The ``serve-bench`` command body."""
    import sys

    args = build_bench_parser().parse_args(argv)
    report = run_serve_bench(
        dataset=args.dataset,
        cardinality=args.cardinality,
        n_sites=args.sites,
        n_clients=args.clients,
        n_queries=args.queries,
        query_batch=args.query_batch,
        scheme=args.scheme,
        seed=args.seed,
        trace=args.trace,
        journal_dir=args.journal_dir,
    )
    print(format_serve_summary(report))
    if not args.no_registry:
        try:
            record = record_serve_bench(report, args.registry)
            print(f"recorded {record['run_id']} in {args.registry}")
        except Exception as error:
            print(f"warning: could not record run: {error}", file=sys.stderr)
    failed = (
        not report["metrics"]["serve.labels_identical"]
        or not report["metrics"]["serve.scrape_roundtrip_ok"]
        or not report["metrics"]["serve.recovery_labels_identical"]
        or report["metrics"]["serve.upload_failed"]
        or report["metrics"]["serve.query_failed"]
    )
    if args.trace:
        failed = failed or not (
            report["metrics"].get("serve.trace_schema_ok")
            and report["metrics"].get("serve.trace_processes_ok")
            and report["metrics"].get("serve.trace_admissions_ok")
        )
    if args.client_sweep:
        counts = tuple(
            int(part) for part in args.client_sweep.split(",") if part.strip()
        )
        sweep = run_client_sweep(
            dataset=args.dataset,
            cardinality=args.cardinality,
            n_sites=args.sites,
            client_counts=counts,
            n_queries=args.sweep_queries,
            query_batch=args.query_batch,
            scheme=args.scheme,
            seed=args.seed,
        )
        print(format_sweep_summary(sweep))
        if not args.no_registry:
            try:
                record = record_client_sweep(sweep, args.registry)
                print(f"recorded {record['run_id']} in {args.registry}")
            except Exception as error:
                print(
                    f"warning: could not record run: {error}", file=sys.stderr
                )
        if any(row["n_failed"] for row in sweep["sweep"]):
            failed = True
    return 1 if failed else 0
