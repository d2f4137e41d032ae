"""Self-tests of the benchmark's checks, at small sizes.

    python3 perfbench/selftest.py

Each oracle check must accept the program's true output and reject a
corrupted one, for example one flipped label.  Exits non-zero on the
first failed expectation.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.oracles import (  # noqa: E402
    check_batch,
    check_counts_repeat,
    check_replies,
    check_stream,
    same_up_to_permutation,
)
from perfbench.query_storm import sweep_queries  # noqa: E402
from perfbench.report import block_tail, tail  # noqa: E402
from repro.clustering.labels import NOISE  # noqa: E402
from repro.core.dbdc import DBDCConfig, run_dbdc_partitioned  # noqa: E402
from repro.core.relabel import relabel_site  # noqa: E402
from repro.data.datasets import load_dataset  # noqa: E402
from repro.distributed.partition import partition  # noqa: E402
from repro.distributed.runner import (  # noqa: E402
    DistributedRunConfig,
    DistributedRunner,
)
from repro.distributed.streaming import run_streaming_session  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def flip_one(labels: np.ndarray) -> np.ndarray:
    """The labels with the first clustered object moved to another id."""
    corrupted = np.array(labels, copy=True)
    index = int(np.flatnonzero(corrupted >= 0)[0])
    corrupted[index] = corrupted.max() + 1
    return corrupted


def test_permutation() -> None:
    labels = np.array([0, 0, 1, -1, 2, 2])
    expect(same_up_to_permutation(labels, np.array([5, 5, 3, -1, 0, 0])), "renamed ids")
    expect(not same_up_to_permutation(labels, np.array([0, 0, 0, -1, 2, 2])), "merge")
    expect(not same_up_to_permutation(labels, np.array([0, 0, 1, 4, 2, 2])), "noise")
    expect(not same_up_to_permutation(labels, np.array([0, 1, 1, -1, 2, 2])), "split")


def test_batch_check() -> None:
    data = load_dataset("A", cardinality=1200, seed=5)
    config = DistributedRunConfig(
        eps_local=data.eps_local, min_pts_local=data.min_pts, parallelism=2, seed=5
    )
    report = DistributedRunner(config).run(data.points, 4)
    assignment = partition(data.points, 4, config.partition_strategy, config.seed)
    oracle = run_dbdc_partitioned(
        data.points,
        assignment,
        DBDCConfig(eps_local=data.eps_local, min_pts_local=data.min_pts),
    ).labels_in_original_order()
    labels = report.labels_in_original_order()
    expect(not check_batch(labels, oracle, "round"), "true batch labels rejected")
    expect(check_batch(flip_one(labels), oracle, "round"), "flipped label accepted")


def test_reply_check() -> None:
    data = load_dataset("A", cardinality=1200, seed=6)
    config = DistributedRunConfig(
        eps_local=data.eps_local, min_pts_local=data.min_pts, seed=6
    )
    model = DistributedRunner(config).run(data.points, 4).global_model

    def label(points, kernel):
        noise = np.full(points.shape[0], NOISE, dtype=np.intp)
        return relabel_site(points, noise, model, site_id=None, kernel=kernel)[0]

    # The oracle relabels every point once; the pure-coverage relabel is
    # per point, so its slice is what a query of those points gets.
    reference = label(data.points, "reference")
    queries = sweep_queries(data.points.shape[0], np.random.default_rng(6))
    expect(len({hi - lo for lo, hi in queries}) > 1, "the offset did not shift")
    replies = [(lo, hi, label(data.points[lo:hi], "auto")) for lo, hi in queries]
    expect(not check_replies(replies, reference), "true replies rejected")
    lo, hi, labels = replies[1]
    replies[1] = (lo, hi, flip_one(labels))
    expect(check_replies(replies, reference), "flipped reply label accepted")


def test_stream_check() -> None:
    data = load_dataset("A", cardinality=3 * 2 * 120, seed=7)
    rows = np.random.default_rng(7).permutation(data.points.shape[0]).reshape(3, 2, 120)
    batches = [[data.points[rows[r, i]] for i in range(2)] for r in range(3)]

    def session(kernel):
        return run_streaming_session(
            batches,
            eps_local=data.eps_local,
            min_pts_local=data.min_pts,
            relabel_kernel=kernel,
        ).labels

    oracle = session("auto")
    other = session("reference")
    per_site = [[other[r][i] for r in range(3)] for i in range(2)]
    expect(not check_stream(per_site, oracle), "true stream labels rejected")
    per_site[1][2] = flip_one(per_site[1][2])
    expect(check_stream(per_site, oracle), "flipped stream label accepted")
    missing = [per_site[0], per_site[1][:2]]
    expect(check_stream(missing, oracle), "missing round accepted")


def test_counts_check() -> None:
    counts = {"dbscan.region_queries": 100, "journal.fsyncs": 64}
    expect(not check_counts_repeat(counts, dict(counts)), "equal counts rejected")
    expect(
        check_counts_repeat(counts, {**counts, "journal.fsyncs": 65}),
        "differing count accepted",
    )


def test_tail() -> None:
    value, percentile, n = tail(range(100))
    expect((value, n) == (89, 100) and abs(percentile - 89.9) < 0.1, "tail of 100")
    value, percentile, __ = tail([3.0, 1.0, 2.0])
    expect((value, percentile) == (2.0, 50.0), "tail of a small sample is the median")
    # One burst of stalls in one of three blocks leaves the median tail.
    samples = [1.0] * 2000
    samples[100:130] = [9.0] * 30
    value, percentile, blocks = block_tail(samples, 550)
    expect((value, blocks) == (1.0, 3) and percentile >= 98.0, "block tail")
    # The percentile depends on the block, not on the number of samples.
    percentiles = {block_tail(range(n), 48)[1] for n in (48, 95, 144, 300)}
    expect(len(percentiles) == 1, "percentile moved with the sample count")
    expect(block_tail(range(100), 100)[:1] == tail(range(100))[:1], "one block")


def main() -> int:
    tests = [
        test_permutation,
        test_batch_check,
        test_reply_check,
        test_stream_check,
        test_counts_check,
        test_tail,
    ]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
