"""``stream_rounds``: a multi-round streaming session over the service.

2 site connections run a session against a ``repro serve`` subprocess
with an fsync'd journal.  Per round each site opens the round, runs
local DBSCAN on a small batch, submits, waits for the round's
``MODEL_DELTA`` and then relabels every batch it has seen so far.
Every session starts on a fresh server, so each session has its own
set-up.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from perfbench import traced
from perfbench.layers import (
    BENCH,
    LayerTracer,
    install_compute_layers,
    install_global_layers,
    install_service_layers,
    metric_times,
)
from perfbench.oracles import check_stream
from perfbench.probe import HostProbe
from perfbench.report import Result, median
from perfbench.service import ServerProcess, server_deltas
from repro.clustering.dbscan import dbscan
from repro.data.datasets import load_dataset
from repro.distributed.streaming import run_streaming_session
from repro.quality.qdbdc import q_dbdc_p2
from repro.service.worker import run_site_worker_session

N_SITES = 2
ROUNDS = 16
BATCH = 200
MIN_SESSIONS = 3
#: Rounds per block of the tail, whole sessions: each block's tail is
#: its p78.72.
TAIL_BLOCK = MIN_SESSIONS * ROUNDS
TRACED_PASSES = 2


def inputs(seed: int):
    """Set A cut into ``ROUNDS`` x ``N_SITES`` batches in a seeded order.

    The data set keeps its generator seed; the seed picks the order.
    """
    data = load_dataset("A", cardinality=ROUNDS * N_SITES * BATCH)
    order = np.random.default_rng(seed).permutation(data.points.shape[0])
    rows = order.reshape(ROUNDS, N_SITES, BATCH)
    batches = [
        [data.points[rows[r, i]] for i in range(N_SITES)] for r in range(ROUNDS)
    ]
    return data, batches


class Session:
    """One streaming session on a fresh server.

    Attributes:
        setup_s: data generation plus server start.
        wall_s: first round opened to last batch relabeled.
        busy_s: the sites' session times, summed.
        round_s: per round, from the first site receiving its batch to
            the last site holding the round's relabeled labels.
        results: per site, its :class:`SiteSessionResult`.
        counts, times, dispatch_s: the server's work between two scrapes.
        server_rss_mb: the server's resident-set high-water mark.
    """

    def __init__(self, ctx, index: int, layers: LayerTracer | None = None) -> None:
        start = time.perf_counter()
        self.data, self.batches = inputs(ctx.seed)
        server = ServerProcess(
            ctx.root, ctx.workdir / f"server-{index}", expected_sites=N_SITES
        )
        self.setup_s = time.perf_counter() - start
        try:
            before = server.scrape()
            self._run(server, layers)
            after = server.scrape()
            self.server_rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        self.counts, self.times, self.dispatch_s = server_deltas(before, after)

    def _run(self, server: ServerProcess, layers: LayerTracer | None) -> None:
        data = self.data
        self.results = [None] * N_SITES
        ends: list[list[float]] = [[] for __ in range(N_SITES)]
        busy = [0.0] * N_SITES

        def site(site_id: int) -> None:
            def session():
                return run_site_worker_session(
                    server.host,
                    server.port,
                    site_id,
                    [batches[site_id] for batches in self.batches],
                    n_sites=N_SITES,
                    eps_local=data.eps_local,
                    min_pts_local=data.min_pts,
                    round_hook=lambda r, model: ends[site_id].append(
                        time.perf_counter()
                    ),
                )

            start = time.perf_counter()
            if layers is None:
                self.results[site_id] = session()
            else:
                with layers.span(BENCH):
                    self.results[site_id] = session()
            busy[site_id] = time.perf_counter() - start

        threads = [threading.Thread(target=site, args=(i,)) for i in range(N_SITES)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall_s = time.perf_counter() - start
        self.busy_s = sum(busy)
        done = min(len(site_ends) for site_ends in ends)
        self.round_s = [
            max(ends[i][r] for i in range(N_SITES))
            - min(
                ends[i][r] - self.results[i].round_wall_seconds[r]
                for i in range(N_SITES)
            )
            for r in range(done)
        ]

    def check(self, result: Result, oracle) -> list:
        """Count and check the site-rounds, then let go of the outputs.

        Attempted and failed site-rounds are counted, failures by type;
        the labels are checked against ``oracle``.  Memory is measured,
        so a session keeps only its timings and counts afterwards.

        Returns:
            Per site, per round, the labels of that round's batch.
        """
        for outcome in self.results:
            result.attempted += ROUNDS
            missing = ROUNDS - len(outcome.round_wall_seconds)
            if outcome.error or missing:
                kind = outcome.error.split(":", 1)[0] or "incomplete"
                result.fail_as(kind, max(missing, 1))
        labels = [outcome.labels for outcome in self.results]
        result.problems.extend(check_stream(labels, oracle.labels))
        self.results = self.data = self.batches = None
        return labels


def run(ctx, units: dict[str, str]) -> Result:
    result = Result()
    probe = HostProbe()
    Session(ctx, 0)  # warm-up: imports and first-touch on both sides
    data, batches = inputs(ctx.seed)
    with LayerTracer() as replay:
        if ctx.trace:
            install_global_layers(replay)
        oracle = run_streaming_session(
            batches, eps_local=data.eps_local, min_pts_local=data.min_pts
        )
    sessions: list[Session] = []
    if ctx.trace:
        # Untraced and traced sessions alternate, so drift hits both alike.
        untraced = []
        passes = []
        for index in range(TRACED_PASSES):
            untraced.append(Session(ctx, 1 + 2 * index))
            untraced[-1].check(result, oracle)
            passes.append(_traced_pass(ctx, 2 + 2 * index, sessions))
            sessions[-1].check(result, oracle)
        sessions.extend(untraced)
    else:
        start = time.perf_counter()
        while len(sessions) < MIN_SESSIONS or time.perf_counter() - start < ctx.seconds:
            sessions.append(Session(ctx, len(sessions) + 1))
            labels = sessions[-1].check(result, oracle)
            if len(sessions) == 1:
                first_labels = labels
            probe.keep_up(time.perf_counter() - start)
        peak_rss_mb = max(
            ctx.peak_rss_mb(), max(s.server_rss_mb for s in sessions)
        )
    if ctx.trace:
        for traced_pass in passes:
            _add_replay(traced_pass, replay, oracle)
            if replay.counts["global.repairs"] != traced_pass.counts["global.repairs"]:
                result.problems.append(
                    "the in-process replay repaired the model "
                    f"{replay.counts['global.repairs']} times, the server "
                    f"{traced_pass.counts['global.repairs']:g} times"
                )
        traced.finish(
            result,
            units,
            passes,
            untraced_wall_s=median(s.busy_s for s in untraced),
        )
        return result

    points = np.concatenate([b for round_batches in batches for b in round_batches])
    session_labels = np.concatenate(
        [first_labels[i][r] for r in range(ROUNDS) for i in range(N_SITES)]
    )
    central = dbscan(points, data.eps_local, data.min_pts).labels
    wire_bytes = [
        sum(v for k, v in s.counts.items() if k.startswith("wire.bytes."))
        for s in sessions
    ]
    result.put_end_to_end(
        op=(
            f"one streaming round of {N_SITES} sites x {BATCH} points, "
            f"{ROUNDS} rounds a session"
        ),
        setup_walls=[s.setup_s for s in sessions],
        pass_walls=[s.wall_s for s in sessions],
        op_latencies=[r for s in sessions for r in s.round_s],
        tail_block=TAIL_BLOCK,
        quality_p2=q_dbdc_p2(session_labels, central),
        bytes_per_pass=median(wire_bytes),
        peak_rss_mb=peak_rss_mb,
        probe=probe,
    )
    return result


def _traced_pass(ctx, index: int, sessions: list) -> traced.TracedPass:
    with LayerTracer() as layers:
        install_compute_layers(layers, "relabel.stream_s")
        install_service_layers(layers)
        session = Session(ctx, index, layers)
    sessions.append(session)
    counts = dict(session.counts)
    counts.pop("server.labels_served")
    counts.update(layers.counts)
    counts["client.reconnects"] = sum(r.reconnects for r in session.results)
    return traced.TracedPass(
        layers.roots(), session.busy_s, counts, session.dispatch_s, dict(session.times)
    )


def _add_replay(traced_pass, replay: LayerTracer, oracle) -> None:
    """Global build and repair times, replayed in process.

    The server builds and repairs the session model in its own process,
    out of the spans' reach; the oracle's in-process replay of the same
    session runs the same calls on the same models.
    """
    for name, seconds in metric_times(replay.roots()).items():
        traced_pass.times[name] = seconds
    traced_pass.counts["global.representatives"] = len(oracle.model.representatives)
    traced_pass.counts["global.clusters"] = oracle.model.n_global_clusters
