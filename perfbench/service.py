"""The service under test: one ``python -m repro serve`` subprocess.

The load generator shares no interpreter lock with the server.  The
server's own counters and histograms are read from its ``/metrics``
endpoint before and after each measured pass.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import urllib.request
from pathlib import Path

from repro.obs.openmetrics import parse_openmetrics
from repro.service.client import ServiceClient

__all__ = ["ServerProcess", "metric_delta", "python_env", "server_deltas"]

_READY = re.compile(
    r"DBDC service on ([\d.]+):(\d+), metrics on http://[\d.]+:(\d+)/metrics"
)


def python_env(root: Path) -> dict:
    """The environment of a child interpreter that imports the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root), env.get("PYTHONPATH")])
    )
    return env


class ServerProcess:
    """Start ``repro serve`` with a journal and wait until it listens.

    Args:
        root: the checkout root (its ``src`` is put on ``PYTHONPATH``).
        workdir: directory for the journal and the server's stderr log.
        expected_sites: sites per round.
        start_timeout_s: how long the server may take to listen.
    """

    def __init__(
        self,
        root: Path,
        workdir: Path,
        *,
        expected_sites: int,
        start_timeout_s: float = 30.0,
    ) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self._log_path = workdir / "server.log"
        self._log = open(self._log_path, "w")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--metrics-port",
                "0",
                "--expected-sites",
                str(expected_sites),
                "--journal-dir",
                str(workdir / "journal"),
            ],
            cwd=root,
            env=python_env(root),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            line = self._ready_line(start_timeout_s)
        except BaseException:
            self.stop()
            raise
        match = _READY.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"unexpected server banner: {line!r}")
        self.host = match.group(1)
        self.port = int(match.group(2))
        self.metrics_port = int(match.group(3))

    def _ready_line(self, timeout_s: float) -> str:
        ready, __, __ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"server did not start within {timeout_s} s: "
                f"{self._log_path.read_text()[-2000:]}"
            )
        return line

    def client(self, **kwargs) -> ServiceClient:
        """A connected client of this server."""
        return ServiceClient(self.host, self.port, **kwargs).connect()

    def scrape(self) -> dict[str, float]:
        """The ``/metrics`` exposition, flattened to ``{sample: value}``."""
        url = f"http://{self.host}:{self.metrics_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            text = response.read().decode("utf-8")
            content_type = response.headers.get("Content-Type")
        flat: dict[str, float] = {}
        for family in parse_openmetrics(text, content_type=content_type).values():
            for name, labels, value in family["samples"]:
                if name.endswith("_bucket"):
                    continue
                suffix = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                flat[f"{name}{{{suffix}}}" if suffix else name] = float(value)
        return flat

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kib / 1024.0

    def stop(self, timeout_s: float = 10.0) -> None:
        """Ask the server to shut down; kill it if it does not exit."""
        if self.proc.poll() is None and hasattr(self, "port"):
            try:
                with ServiceClient(
                    self.host, self.port, timeout_s=timeout_s
                ) as client:
                    client.shutdown()
            except OSError:
                pass  # already gone: the wait below reaps it
        else:
            self.proc.kill()
        try:
            self.proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout_s)
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def metric_delta(before: dict, after: dict, name: str) -> float:
    """``after - before`` of one flattened sample (absent = 0)."""
    return after.get(name, 0.0) - before.get(name, 0.0)


#: Frame kinds whose payload bytes are reported per kind.
WIRE_KINDS = (
    "local_model",
    "label_query",
    "label_reply",
    "round_open",
    "model_delta",
    "ack",
)

#: Request kinds whose server dispatch time is reported per kind.
DISPATCH_KINDS = ("local_model", "label_query", "round_open", "model_delta")


def server_deltas(before: dict, after: dict) -> tuple[dict, dict, float]:
    """The server's work counts and times between two scrapes.

    Returns:
        ``(counts, times, dispatch_s)``: per-layer work counts, per-layer
        times, and the server's dispatch time summed over every kind.
    """

    def delta(name: str) -> float:
        return metric_delta(before, after, name)

    def delta_family(prefix: str) -> float:
        return sum(
            delta(name)
            for name in set(before) | set(after)
            if name.startswith(prefix)
        )

    prefix = "dbdc_service_"
    counts = {
        f"wire.bytes.{kind}": sum(
            delta(f"{prefix}frame_bytes_{way}_total{{kind={kind}}}")
            for way in ("received", "sent")
        )
        for kind in WIRE_KINDS
    }
    counts.update(
        {
            "journal.records": delta(f"{prefix}journal_records"),
            "journal.fsyncs": delta(f"{prefix}journal_fsyncs"),
            "journal.bytes": delta(f"{prefix}journal_bytes"),
            "global.repairs": delta(f"{prefix}model_repairs"),
            "server.load_shed": delta_family(f"{prefix}load_shed_total"),
            "server.internal_errors": delta(f"{prefix}internal_errors_total"),
            "server.labels_served": delta(f"{prefix}labels_served_total"),
        }
    )
    times = {
        f"server.dispatch_s.{kind}": delta(
            f"{prefix}dispatch_seconds_sum{{kind={kind}}}"
        )
        for kind in DISPATCH_KINDS
    }
    times["server.label_query_s"] = delta(f"{prefix}label_query_seconds_sum")
    return counts, times, delta_family(f"{prefix}dispatch_seconds_sum")
