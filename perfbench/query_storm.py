"""``query_storm``: 64-point label queries against a journaled service.

Set-up uploads the 4 site models of data set A (8 700 points) to a
``repro serve`` subprocess.  Then a closed loop of one client
connection sends label queries, each after the reply to the one
before.  With two connections, the two client threads and the server's
event loop and executor thread contended for two interpreter locks: the
median query latency was 25 ms instead of 10 ms and spread up to half
its median between runs of the same code.  A sweep cuts the data set
into 64-point chunks at a seeded random offset and sends every chunk
once, in a seeded random order; it leaves the whole data set labeled.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import traced
from perfbench.layers import BENCH, LayerTracer, install_service_layers
from perfbench.oracles import check_replies
from perfbench.probe import HostProbe
from perfbench.report import Result
from perfbench.service import ServerProcess, server_deltas
from repro.clustering.dbscan import dbscan
from repro.clustering.labels import NOISE
from repro.core.relabel import relabel_site
from repro.data.datasets import load_dataset
from repro.distributed.partition import partition, split
from repro.distributed.site import ClientSite
from repro.quality.qdbdc import q_dbdc_p2
from repro.service.transport import ServiceError
from repro.service.wire import WireError

N_SITES = 4
CHUNK = 64
SETUPS = 3
MIN_SWEEPS = 3
#: Queries per block of the tail: each block's tail is its p90.83.  A
#: p98 over blocks of 550 spread twice as much between runs when the
#: shared machine slowed a whole run, and a p95.43 over blocks of 220
#: still spread 0.21 of its median over 5 runs.
TAIL_BLOCK = 110
#: Points per call of the reference relabel.
REFERENCE_SLICE = 1024
TRACED_SWEEPS = 2
TRACED_PASSES = 2

#: What a failed query raises; anything else is a bug and ends the run.
QUERY_ERRORS = (ServiceError, WireError, OSError)


def set_up(ctx, index: int):
    """Generate set A, start a server and upload the 4 site models.

    The seed picks the partition (and, later, the query order); the data
    set keeps its generator seed.
    """
    start = time.perf_counter()
    data = load_dataset("A")
    server = ServerProcess(
        ctx.root, ctx.workdir / f"server-{index}", expected_sites=N_SITES
    )
    try:
        assignment = partition(data.points, N_SITES, seed=ctx.seed)
        for site_id, part in enumerate(split(data.points, assignment)):
            site = ClientSite(
                site_id, part, eps_local=data.eps_local, min_pts_local=data.min_pts
            )
            with server.client(site_id=site_id) as client:
                client.submit(site.run_local_clustering())
        with server.client() as client:
            client.await_global_model(timeout_s=30.0)
    except BaseException:
        server.stop()
        raise
    return time.perf_counter() - start, data, server


def sweep_queries(n_points: int, rng: np.random.Generator) -> list:
    """One sweep: ``(lo, hi)`` bounds covering every point once, in a seeded order.

    The chunk boundaries are shifted by a seeded random offset in
    ``[0, CHUNK)``, so a query rarely repeats one of an earlier sweep;
    the first and the last chunk of a sweep may be shorter than
    ``CHUNK``.
    """
    offset = int(rng.integers(CHUNK))
    edges = [0, *range(offset, n_points, CHUNK), n_points]
    bounds = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
    return [bounds[k] for k in rng.permutation(len(bounds))]


class Storm:
    """The client connection, and the check of every reply.

    The model is fixed once set-up has uploaded every site, so the
    oracle is one reference relabel of every point, made before the
    first query; a query's expected reply is its slice.  Only the
    latest reply per point is kept, so the benchmark's memory does not
    grow with the number of queries.
    """

    def __init__(self, client, points, reference, result: Result) -> None:
        self.client = client
        self.points = points
        self.reference = reference
        self.result = result
        self.latest = np.full(points.shape[0], NOISE, dtype=np.intp)

    def sweep(self, queries, latencies: list, layers=None) -> float:
        """Send every query, each after the reply to the one before.

        Returns the wall time; the replies are checked after it is taken.
        """
        result = self.result
        answered = []
        start = time.perf_counter()
        for lo, hi in queries:
            result.attempted += 1
            sent = time.perf_counter()
            try:
                if layers is None:
                    labels = self.client.query(self.points[lo:hi])
                else:
                    with layers.span(BENCH):
                        labels = self.client.query(self.points[lo:hi])
            except QUERY_ERRORS as error:
                result.fail(error)
                continue
            latencies.append(time.perf_counter() - sent)
            if labels.shape == (hi - lo,):
                self.latest[lo:hi] = labels
                answered.append((lo, hi))
            else:
                result.problems.append(
                    f"query of points [{lo}, {hi}): {labels.shape} labels"
                )
        wall = time.perf_counter() - start
        replies = ((lo, hi, self.latest[lo:hi]) for lo, hi in answered)
        result.problems.extend(check_replies(replies, self.reference))
        return wall


def run(ctx, units: dict[str, str]) -> Result:
    result = Result()
    probe = HostProbe()
    setups = []
    servers = []
    try:
        for index in range(SETUPS):
            seconds, data, server = set_up(ctx, index)
            setups.append(seconds)
            servers.append(server)
            if index < SETUPS - 1:
                servers.pop().stop()
        return _storm(ctx, units, result, data, servers[0], setups, probe)
    finally:
        for server in servers:
            server.stop()


def _storm(
    ctx,
    units,
    result: Result,
    data,
    server: ServerProcess,
    setups: list[float],
    probe: HostProbe,
) -> Result:
    points = data.points
    rng = np.random.default_rng(ctx.seed)
    with server.client() as client:
        model = client.await_global_model(timeout_s=30.0)
    reference = np.concatenate(
        [
            relabel_site(
                part,
                np.full(part.shape[0], NOISE, dtype=np.intp),
                model,
                site_id=None,
                kernel="reference",
            )[0]
            # Slices keep the kernel's distance matrices, and so this
            # process's memory high-water mark, small.
            for part in np.array_split(points, -(-points.shape[0] // REFERENCE_SLICE))
        ]
    )
    latencies: list[float] = []
    walls: list[float] = []
    storm = Storm(server.client(), points, reference, result)
    try:
        # Warm-up sweep: connection, first-touch, the server's caches.
        warm = Result()
        Storm(storm.client, points, reference, warm).sweep(
            sweep_queries(points.shape[0], rng), []
        )
        result.problems.extend(warm.problems)
        result.problems.extend(
            f"warm-up query failed: {kind} x{n}"
            for kind, n in warm.failures_by_type.items()
        )
        if ctx.trace:
            sweeps = [sweep_queries(points.shape[0], rng) for __ in range(TRACED_SWEEPS)]
            # Untraced and traced passes alternate, so drift hits both alike.
            untraced: list[float] = []
            passes = []
            for __ in range(TRACED_PASSES):
                for queries in sweeps:
                    storm.sweep(queries, untraced)
                passes.append(_traced_pass(storm, server, sweeps))
        else:
            before = server.scrape()
            start = time.perf_counter()
            while len(walls) < MIN_SWEEPS or time.perf_counter() - start < ctx.seconds:
                queries = sweep_queries(points.shape[0], rng)
                walls.append(storm.sweep(queries, latencies))
                probe.keep_up(time.perf_counter() - start)
            after = server.scrape()
            rss = ctx.peak_rss_mb(), server.peak_rss_mb()
            result.details["peak rss MB (benchmark, server)"] = rss
            peak_rss_mb = max(rss)
    finally:
        storm.client.close()

    if ctx.trace:
        kernel_s = _replay_kernel(points, sweeps, model)
        for traced_pass in passes:
            traced_pass.times["relabel.query_s"] = kernel_s
        traced.finish(
            result, units, passes, untraced_wall_s=sum(untraced) / TRACED_PASSES
        )
        return result

    counts, __, __ = server_deltas(before, after)
    central = dbscan(points, data.eps_local, data.min_pts).labels
    wire_bytes = sum(v for k, v in counts.items() if k.startswith("wire.bytes."))
    result.put_end_to_end(
        op=f"one label query of up to {CHUNK} points",
        setup_walls=setups,
        pass_walls=walls,
        op_latencies=latencies,
        tail_block=TAIL_BLOCK,
        quality_p2=q_dbdc_p2(storm.latest, central),
        bytes_per_pass=wire_bytes / len(walls),
        peak_rss_mb=peak_rss_mb,
        probe=probe,
    )
    return result


def _traced_pass(storm: Storm, server, sweeps) -> traced.TracedPass:
    latencies: list[float] = []
    before = server.scrape()
    with LayerTracer() as layers:
        install_service_layers(layers)
        for queries in sweeps:
            storm.sweep(queries, latencies, layers)
    after = server.scrape()
    counts, times, dispatch_s = server_deltas(before, after)
    counts.update(layers.counts)
    counts["relabel.points"] = counts.pop("server.labels_served")
    return traced.TracedPass(layers.roots(), sum(latencies), counts, dispatch_s, times)


def _replay_kernel(points, sweeps, model) -> float:
    """The relabel kernel's time on the traced queries, replayed in process.

    The server runs the kernel in its own process, out of the spans'
    reach; this replays the same calls with the server's kernel choice.
    """
    start = time.perf_counter()
    for queries in sweeps:
        for lo, hi in queries:
            relabel_site(
                points[lo:hi],
                np.full(hi - lo, NOISE, dtype=np.intp),
                model,
                site_id=None,
            )
    return time.perf_counter() - start
