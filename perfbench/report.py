"""Result of one benchmark run, its statistics and its printed form."""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field

__all__ = ["Result", "block_tail", "median", "tail"]


def median(samples) -> float:
    """The median of a non-empty sample."""
    return float(statistics.median(samples))


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Never below the median: with fewer than 21 samples no percentile
    above the median has ten samples beyond it, and the median is
    returned.

    Returns:
        ``(value, percentile, sample_count)``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - 11, (n - 1) // 2)
    percentile = 100.0 * rank / (n - 1) if n > 1 else 100.0
    return float(ordered[rank]), percentile, n


def block_tail(samples, block: int) -> tuple[float, float, int]:
    """The median over blocks of exactly ``block`` samples of their :func:`tail`.

    The samples are cut, in order, into whole blocks and the remainder
    is dropped, so the percentile depends on ``block`` alone and not on
    how many operations a run managed: a faster program gives more
    blocks, not a higher percentile.  One burst of stalls moves one
    block's tail, not the median.

    Returns:
        ``(value, percentile, blocks)``.

    Raises:
        ValueError: with fewer than ``block`` samples.
    """
    samples = list(samples)
    n_blocks = len(samples) // block
    if n_blocks == 0:
        raise ValueError(f"{len(samples)} samples, fewer than one block of {block}")
    tails = [tail(samples[k * block : (k + 1) * block]) for k in range(n_blocks)]
    return median(value for value, __, __ in tails), tails[0][1], n_blocks


@dataclass
class Result:
    """What one run measured and whether its outputs were right."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    failures_by_type: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def fail(self, error: BaseException) -> None:
        """Count one failed operation under its exception type."""
        kind = type(error).__name__
        status = getattr(error, "status", None)
        self.fail_as(f"{kind}:{status}" if status else kind)

    def fail_as(self, kind: str, n: int = 1) -> None:
        """Count ``n`` failed operations under ``kind``."""
        self.failed += n
        self.failures_by_type[kind] = self.failures_by_type.get(kind, 0) + n

    def put_end_to_end(
        self,
        *,
        op: str,
        setup_walls: list[float],
        pass_walls: list[float],
        op_latencies: list[float],
        tail_block: int,
        quality_p2: float,
        bytes_per_pass: float,
        peak_rss_mb: float,
        probe,
    ) -> None:
        """Put the end-to-end metrics of a timed run.

        Every time is adjusted for the host's speed by ``probe`` (a
        :class:`perfbench.probe.HostProbe`); the measured times go into
        the details.

        Args:
            op: what one operation is, for the printout.
            setup_walls: wall time of each set-up.
            pass_walls: wall time of each pass.
            op_latencies: latency of each completed operation, in order.
            tail_block: operations per block of the tail
                (:func:`block_tail`), fixed per workload.
            quality_p2: Q_DBDC under P^II, a share in [0, 1].
            bytes_per_pass: bytes moved by one pass.
            peak_rss_mb: the resident-set high-water mark.
            probe: the host-speed probe sampled between the passes.
        """
        if len(op_latencies) < tail_block:
            self.problems.append(
                f"{len(op_latencies)} operations completed, fewer than one "
                f"tail block of {tail_block}"
            )
            tail_block = max(1, len(op_latencies))
        tail_s, percentile, n_blocks = block_tail(op_latencies, tail_block)
        self.details["op"] = op
        self.details["op_tail"] = (
            f"median over {n_blocks} block(s) of {tail_block} operations of "
            f"each block's p{percentile:.2f}, {len(op_latencies)} operations"
        )
        self.details["passes"] = len(pass_walls)
        measured = {
            "setup_s": median(setup_walls),
            "batch_s": median(pass_walls),
            "ops_per_s": len(op_latencies) / len(pass_walls) / median(pass_walls),
            "op_p50_ms": 1e3 * median(op_latencies),
            "op_tail_ms": 1e3 * tail_s,
        }
        self.details["measured times"] = {
            name: round(value, 6) for name, value in measured.items()
        }
        self.details["host probe"] = (
            f"median {median(probe.samples):.6f} s over {len(probe.samples)} "
            f"samples: times x {probe.factor:.4f}"
        )
        factor = probe.factor
        self.put("setup_s", measured["setup_s"] * factor, "s")
        self.put("batch_s", measured["batch_s"] * factor, "s")
        self.put("ops_per_s", measured["ops_per_s"] / factor, "1/s")
        self.put("op_p50_ms", measured["op_p50_ms"] * factor, "ms")
        self.put("op_tail_ms", measured["op_tail_ms"] * factor, "ms")
        self.put("quality_p2", 100.0 * quality_p2, "%")
        self.put("bytes_transmitted", bytes_per_pass, "bytes")
        self.put("ok_share", 1.0 - self.failed / self.attempted, "1")
        self.put("peak_rss_mb", peak_rss_mb, "MB")

    @property
    def correct(self) -> bool:
        return not self.problems

    def print(self, units: dict[str, str]) -> None:
        """Print the details, every metric by name, then the JSON line.

        Only the metrics of ``units`` (name -> unit) go into the JSON
        line, in that order; a missing one or a unit that differs is a
        bug of the benchmark and raises.
        """
        for name, unit in units.items():
            if self.metrics[name]["unit"] != unit:
                raise ValueError(
                    f"{name} measured in {self.metrics[name]['unit']}, not {unit}"
                )
        for name, value in sorted(self.details.items()):
            print(f"  {name}: {value}")
        if self.failures_by_type:
            print(f"  failures by type: {self.failures_by_type}")
        for problem in self.problems:
            print(f"  CHECK FAILED: {problem}")
        metrics = {name: self.metrics[name] for name in units}
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        print(
            json.dumps(
                {
                    "correct": self.correct,
                    "attempted": int(self.attempted),
                    "failed": int(self.failed),
                    "metrics": metrics,
                }
            ),
            flush=True,
        )
