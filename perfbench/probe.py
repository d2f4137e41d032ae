"""A fixed probe of the host's speed, to take its drift out of the timings.

The benchmark runs on a shared machine whose speed drifts by tens of
percent over minutes, as other tenants come and go; a set of runs of
the same code then spreads wider than any bound a regression check can
use.  The probe is a fixed kernel of the kind of work the program does:
NumPy distance sweeps and a plain grid DBSCAN over a fixed random
sample.  It lives here and calls nothing of the program, so no change
to the program moves it.  A run samples it before its timed loop and
between its passes, for a fixed share of the loop's time, and every
end-to-end time is reported as

    measured time x REFERENCE_S / median probe time,

that is, in seconds of a host on which the probe takes ``REFERENCE_S``.
A slower program reads slower; a slower host does not, as far as it
slows the probe alike.  On a 2-CPU VM whose speed drifted by up to 60%
over 5 minutes, the spread (interquartile range over median) of
25-second medians of one DBDC round fell from 0.16 to 0.05 this way.
The measured times are printed beside the adjusted ones.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench.report import median

__all__ = ["REFERENCE_S", "SHARE", "HostProbe"]

#: Probe time that defines the adjusted second: about the probe's median
#: on a quiet stretch of a 2-CPU VM.
REFERENCE_S = 0.1

#: Samples taken when the probe is made, before the timed loop.
FIRST = 3

#: Share of a run's timed loop given to the probe.
SHARE = 0.15

_SWEEP_POINTS = 3000
_SWEEP_STRIDE = 3
_SWEEP_RADIUS_SQ = 1e-3
_DBSCAN_POINTS = 4000
_DBSCAN_EPS = 0.02
_DBSCAN_MIN_PTS = 5


class HostProbe:
    """Samples of the probe kernel: ``FIRST`` at once, then between passes."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._sweep_points = rng.random((_SWEEP_POINTS, 2))
        self._dbscan_points = rng.random((_DBSCAN_POINTS, 2))
        self._kernel()  # first-touch, not sampled
        self.samples = [self._kernel() for __ in range(FIRST)]
        self._paced_s = 0.0

    def _kernel(self) -> float:
        start = time.perf_counter()
        near = _sweep(self._sweep_points)
        clusters = _grid_dbscan(self._dbscan_points)
        elapsed = time.perf_counter() - start
        if near < _SWEEP_POINTS // _SWEEP_STRIDE or clusters < 1:
            raise AssertionError("the probe kernel computed nothing")
        return elapsed

    def keep_up(self, elapsed_s: float) -> None:
        """Sample until the probe has had ``SHARE`` of ``elapsed_s``.

        Called between passes with the time since the timed loop began,
        it spreads the samples evenly over the run, however long a pass
        takes.
        """
        while self._paced_s < SHARE * elapsed_s:
            self.samples.append(self._kernel())
            self._paced_s += self.samples[-1]

    @property
    def factor(self) -> float:
        """``REFERENCE_S`` over the median probe time: times are multiplied by it."""
        return REFERENCE_S / median(self.samples)


def _sweep(points: np.ndarray) -> int:
    """Neighbors within a radius of every third point, one NumPy sweep each."""
    near = 0
    for i in range(0, points.shape[0], _SWEEP_STRIDE):
        diff = points - points[i]
        near += int((np.einsum("ij,ij->i", diff, diff) < _SWEEP_RADIUS_SQ).sum())
    return near


def _grid_dbscan(points: np.ndarray) -> int:
    """A plain DBSCAN over an ``eps`` grid; returns the number of clusters."""
    cells = np.floor(points / _DBSCAN_EPS).astype(np.int64).tolist()
    members: dict = {}
    for i, cell in enumerate(cells):
        members.setdefault(tuple(cell), []).append(i)
    grid = {cell: np.array(rows) for cell, rows in members.items()}
    around = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]

    def region(i: int) -> np.ndarray:
        cx, cy = cells[i]
        cells_around = ((cx + dx, cy + dy) for dx, dy in around)
        candidates = np.concatenate([grid[c] for c in cells_around if c in grid])
        diff = points[candidates] - points[i]
        return candidates[np.einsum("ij,ij->i", diff, diff) <= _DBSCAN_EPS**2]

    unseen, noise = -2, -1
    labels = np.full(points.shape[0], unseen)
    cluster = 0
    for i in range(points.shape[0]):
        if labels[i] != unseen:
            continue
        neighbors = region(i)
        if neighbors.size < _DBSCAN_MIN_PTS:
            labels[i] = noise
            continue
        labels[i] = cluster
        seeds = neighbors.tolist()
        while seeds:
            j = seeds.pop()
            if labels[j] == noise:
                labels[j] = cluster
            if labels[j] != unseen:
                continue
            labels[j] = cluster
            reached = region(j)
            if reached.size >= _DBSCAN_MIN_PTS:
                seeds.extend(reached.tolist())
        cluster += 1
    return cluster
