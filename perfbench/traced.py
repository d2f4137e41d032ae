"""Turning traced passes into per-layer metrics.

A traced run alternates untraced and traced passes of the same fixed
work, two of each.  Times are the mean over the traced passes; work
counts must repeat exactly between them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from perfbench.layers import BENCH, LAYERS, metric_times, self_times
from perfbench.oracles import check_counts_repeat
from perfbench.report import Result

__all__ = ["RECONCILE_TOLERANCE", "OVERHEAD_TOLERANCE", "TracedPass", "finish"]

#: The per-layer self times must add up to the traced wall time within
#: this share of it.
RECONCILE_TOLERANCE = 0.01

#: ... and to the untraced wall time of the same work within this share:
#: the difference is the tracing overhead plus the drift between
#: adjacent passes on a shared machine (together -11% to +22% measured
#: on 2 CPUs).
OVERHEAD_TOLERANCE = 0.5


@dataclass
class TracedPass:
    """What one traced pass recorded.

    Attributes:
        roots: the root spans of every thread.
        wall_s: the benchmark-measured time of the traced work, summed
            over threads (what the root spans should add up to).
        counts: machine-independent work counts.
        server_s: time the server spent dispatching the pass's requests;
            it is moved from the client's self time to the server's.
        times: per-layer times measured outside the spans.
    """

    roots: list
    wall_s: float
    counts: dict
    server_s: float = 0.0
    times: dict = field(default_factory=dict)


def finish(
    result: Result,
    units: dict[str, str],
    passes: list[TracedPass],
    untraced_wall_s: float,
) -> None:
    """Put every per-layer metric of ``units`` (name -> unit) into ``result``.

    Metrics the workload never touches read 0: the layer was bypassed.
    """
    for name, unit in units.items():
        result.put(name, 0.0, unit)
    n = len(passes)
    selfs: Counter = Counter()
    inclusive: Counter = Counter()
    times: Counter = Counter()
    for traced in passes:
        layer_self = self_times(traced.roots)
        layer_self["service.client"] -= traced.server_s
        layer_self["service.server"] += traced.server_s
        selfs.update(layer_self)
        inclusive.update(metric_times(traced.roots))
        times.update(traced.times)
    for layer in (*LAYERS, BENCH):
        if f"self_s.{layer}" in units:
            result.put(f"self_s.{layer}", selfs[layer] / n, "s")
    for name, seconds in (inclusive + times).items():
        if name in units:
            result.put(name, seconds / n, units[name])
    round_trips = sum(
        seconds
        for name, seconds in inclusive.items()
        if name.startswith("client.rtt_s.")
    )
    server_s = sum(traced.server_s for traced in passes)
    result.put("server.wait_s", (round_trips - server_s) / n, "s")
    for name, value in passes[0].counts.items():
        if name in units:
            result.put(name, value, units[name])
    for later in passes[1:]:
        result.problems.extend(check_counts_repeat(passes[0].counts, later.counts))

    traced_wall = sum(traced.wall_s for traced in passes) / n
    self_total = sum(selfs.values()) / n
    reconcile = abs(self_total - traced_wall) / traced_wall
    overhead = (self_total - untraced_wall_s) / untraced_wall_s
    result.put("trace.wall_s", traced_wall, "s")
    result.put("trace.untraced_wall_s", untraced_wall_s, "s")
    result.put("trace.overhead_s", traced_wall - untraced_wall_s, "s")
    result.put("trace.reconcile_error", reconcile, "1")
    result.details["trace overhead share"] = round(overhead, 4)
    if reconcile > RECONCILE_TOLERANCE:
        result.problems.append(
            f"layer self times {self_total:.4f} s do not reconcile with the "
            f"traced wall time {traced_wall:.4f} s"
        )
    if abs(overhead) > OVERHEAD_TOLERANCE:
        result.problems.append(
            f"layer self times {self_total:.4f} s are {overhead:+.1%} off the "
            f"untraced wall time {untraced_wall_s:.4f} s "
            f"(tolerance {OVERHEAD_TOLERANCE:.0%})"
        )
