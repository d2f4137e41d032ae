"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch_round --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` and the service runs as ``python -m repro serve`` subprocesses.
With ``--trace 0`` the run measures the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it makes the traced passes and
prints the per-layer metrics.  Every run checks the program's outputs
against an oracle.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("batch_round", "query_storm", "stream_rounds")


@dataclass
class Context:
    """What a workload needs to know about its run."""

    seed: int
    seconds: float
    trace: bool
    root: Path
    workdir: Path

    @staticmethod
    def peak_rss_mb() -> float:
        """This process's resident-set high-water mark."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance() -> dict:
    """Where the numbers come from."""

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    import numpy

    revision = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if revision else None
    return {
        "git revision": revision or "unknown (not a git checkout)",
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    if not (ROOT / "src" / "repro").is_dir():
        parser.error(
            f"no program at {ROOT / 'src' / 'repro'}: run from a source checkout"
        )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import importlib

    workload = importlib.import_module(f"perfbench.{args.workload}")
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    ctx = Context(args.seed, args.seconds, bool(args.trace), ROOT, workdir)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for key, value in provenance().items():
        print(f"  {key}: {value}")
    try:
        result = workload.run(ctx, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()
    result.print(units)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
