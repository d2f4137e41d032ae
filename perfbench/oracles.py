"""Oracle checks: each returns the list of problems it found (empty = ok).

They run outside the timed region.  ``selftest.py`` shows that each one
rejects a corrupted output.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "same_up_to_permutation",
    "check_batch",
    "check_replies",
    "check_stream",
    "check_counts_repeat",
]


def same_up_to_permutation(left: np.ndarray, right: np.ndarray) -> bool:
    """Whether two labelings are equal up to renaming the clusters.

    Noise (-1) must stay noise; every cluster id must map to exactly one
    id on the other side, and back.
    """
    left = np.asarray(left)
    right = np.asarray(right)
    if left.shape != right.shape:
        return False
    if not np.array_equal(left < 0, right < 0):
        return False
    pairs = np.unique(np.stack([left, right]), axis=1)
    return (
        np.unique(pairs[0]).size == pairs.shape[1]
        and np.unique(pairs[1]).size == pairs.shape[1]
    )


def check_batch(labels: np.ndarray, oracle: np.ndarray, name: str) -> list[str]:
    """``labels`` equal the oracle's up to label permutation.

    Args:
        labels: the labels to check.
        oracle: the labels they must equal.
        name: what ``labels`` are, and what ``oracle`` is, for the message.
    """
    if same_up_to_permutation(labels, oracle):
        return []
    return [f"{name}: labels differ"]


def check_replies(replies, reference: np.ndarray) -> list[str]:
    """Every reply equals the oracle labels of the points it answered.

    Args:
        replies: ``(lo, hi, labels)`` per answered query of the points
            ``[lo, hi)``.
        reference: the oracle label of every point.
    """
    return [
        f"query of points [{lo}, {hi}): reply differs from oracle"
        for lo, hi, labels in replies
        if not np.array_equal(labels, reference[lo:hi])
    ]


def check_stream(session_labels: list, oracle_labels: list) -> list[str]:
    """Per-round, per-site labels are bit-identical to the oracle.

    Args:
        session_labels: ``session_labels[i][r]`` — site ``i``'s labels
            of its round-``r`` batch.
        oracle_labels: ``oracle_labels[r][i]`` from
            ``run_streaming_session``.
    """
    problems = []
    for round_index, oracle_round in enumerate(oracle_labels):
        for site, expected in enumerate(oracle_round):
            site_rounds = session_labels[site]
            if round_index >= len(site_rounds) or not np.array_equal(
                site_rounds[round_index], expected
            ):
                problems.append(
                    f"round {round_index} site {site}: labels differ from "
                    "run_streaming_session"
                )
    return problems


def check_counts_repeat(first: dict, second: dict) -> list[str]:
    """Work counts of two passes over the same inputs are equal."""
    return [
        f"work count {name} did not repeat: {first.get(name)} vs {second.get(name)}"
        for name in sorted(set(first) | set(second))
        if first.get(name) != second.get(name)
    ]
