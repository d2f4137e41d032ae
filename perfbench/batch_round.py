"""``batch_round``: one in-process DBDC round over data set A.

``DistributedRunner(config).run(points, 4)`` with ``parallelism=2``.
Local clustering (index, DBSCAN, REP_Scor) does most of the work here,
relabel most of the rest; wire, server and journal do nothing.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

from perfbench import traced
from perfbench.layers import BENCH, LayerTracer, install_compute_layers
from perfbench.oracles import check_batch
from perfbench.probe import HostProbe
from perfbench.report import Result, median
from perfbench.service import python_env
from repro.clustering.dbscan import dbscan
from repro.core.dbdc import DBDCConfig, run_dbdc_partitioned
from repro.data.datasets import load_dataset
from repro.distributed.partition import partition
from repro.distributed.runner import DistributedRunConfig, DistributedRunner
from repro.quality.qdbdc import q_dbdc_p2

CARDINALITY = 20_000
N_SITES = 4
PARALLELISM = 2
SETUPS = 5
MIN_ROUNDS = 5
#: Rounds per block of the tail: with fewer than 21 operations a block's
#: tail is its median.
TAIL_BLOCK = 5
TRACED_PASSES = 2
SETUP_CODE = (
    "import sys; from perfbench.batch_round import inputs; inputs(int(sys.argv[1]))"
)


def inputs(seed: int):
    """Data set A at ``CARDINALITY`` points and the run configuration.

    The seed picks the partition; the data set keeps its generator seed,
    so every seed clusters the same points.
    """
    data = load_dataset("A", cardinality=CARDINALITY)
    config = DistributedRunConfig(
        eps_local=data.eps_local,
        min_pts_local=data.min_pts,
        parallelism=PARALLELISM,
        seed=seed,
    )
    return data, config


def one_round(points: np.ndarray, config: DistributedRunConfig):
    start = time.perf_counter()
    report = DistributedRunner(config).run(points, N_SITES)
    return time.perf_counter() - start, report


def set_up(ctx) -> float:
    """Start a fresh interpreter that imports the runner and makes the inputs.

    Set-up is what a batch user pays before the round: the imports and
    the input generation.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(ctx.seed)],
        cwd=ctx.root,
        env=python_env(ctx.root),
        check=True,
        timeout=120,
    )
    return time.perf_counter() - start


def run(ctx, units: dict[str, str]) -> Result:
    result = Result()
    probe = HostProbe()
    setups = [set_up(ctx) for __ in range(SETUPS)]
    data, config = inputs(ctx.seed)
    points = data.points
    one_round(points, config)  # warm-up: lazy imports and first-touch

    assignment = partition(points, N_SITES, config.partition_strategy, config.seed)
    first = []
    walls = []

    def keep(report) -> None:
        """Check a round against the first; keep only the first's labels.

        Memory is measured, so what is kept must not grow with the
        number of rounds.
        """
        result.attempted += 1
        if report.degraded:
            result.fail_as("degraded_round")
        if not np.array_equal(report.assignment, assignment):
            result.problems.append("runner partitioned differently from partition()")
        labels = report.labels_in_original_order()
        if not first:
            first.append(labels)
        else:
            name = f"round {result.attempted - 1} vs round 0"
            result.problems.extend(check_batch(labels, first[0], name))

    if ctx.trace:
        # Untraced and traced rounds alternate, so drift hits both alike.
        passes = []
        for __ in range(TRACED_PASSES):
            walls.append(one_round(points, config)[0])
            report, traced_pass = _traced_round(points, config)
            keep(report)
            passes.append(traced_pass)
    else:
        start = time.perf_counter()
        while len(walls) < MIN_ROUNDS or time.perf_counter() - start < ctx.seconds:
            wall, report = one_round(points, config)
            walls.append(wall)
            keep(report)
            probe.keep_up(time.perf_counter() - start)
        peak_rss_mb = ctx.peak_rss_mb()

    oracle = run_dbdc_partitioned(
        points,
        assignment,
        DBDCConfig(eps_local=data.eps_local, min_pts_local=data.min_pts),
    )
    result.problems.extend(
        check_batch(
            first[0],
            oracle.labels_in_original_order(),
            "round 0 vs run_dbdc_partitioned",
        )
    )
    last = report
    result.details["local phase fallback"] = last.parallelism_fallback_reason
    result.details["effective parallelism"] = last.effective_parallelism

    if ctx.trace:
        traced.finish(result, units, passes, untraced_wall_s=median(walls))
        return result
    central = dbscan(points, data.eps_local, data.min_pts).labels
    result.put_end_to_end(
        op=f"one DBDC round over {CARDINALITY} points",
        setup_walls=setups,
        pass_walls=walls,
        op_latencies=walls,
        tail_block=TAIL_BLOCK,
        quality_p2=q_dbdc_p2(first[0], central),
        bytes_per_pass=last.network.bytes_total,
        peak_rss_mb=peak_rss_mb,
        probe=probe,
    )
    return result


def _traced_round(points, config):
    with LayerTracer() as layers:
        install_compute_layers(layers, "relabel.batch_s")
        layers.wrap(DistributedRunner, "run", "distributed.runner", None)
        start = time.perf_counter()
        with layers.span(BENCH):
            report = DistributedRunner(config).run(points, N_SITES)
        wall = time.perf_counter() - start
    counts = dict(layers.counts)
    counts["runner.effective_parallelism"] = report.effective_parallelism
    return report, traced.TracedPass(
        layers.roots(),
        wall,
        counts,
        times={"runner.local_phase_s": report.local_wall_seconds},
    )
