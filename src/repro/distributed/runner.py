"""End-to-end orchestration of the DBDC protocol over the simulated network.

:class:`DistributedRunner` drives :class:`~repro.distributed.site.ClientSite`
objects, a :class:`~repro.distributed.round_core.RoundCore` (admission
gate, build-or-repair commit) and a
:class:`~repro.faults.transport.ResilientTransport` over a
:class:`~repro.distributed.network.SimulatedNetwork` through the four
protocol steps of the paper's Figure 2, with the same runtime accounting
the paper uses (sites run conceptually in parallel: overall = max local +
global).  Every round — the base round 0 and any recovery round — runs
through one loop; a clean run is the same loop under a plan that injects
nothing.

This is the "whole system" view; :func:`repro.core.dbdc.run_dbdc` offers the
same pipeline as a plain function when network accounting is not needed.

The local phase (steps 1+2) and the relabel fan-out (step 4) are
"conceptually parallel" in the paper — every site works independently.  The
``parallelism`` config knob makes that real: with ``parallelism > 1`` the
runner fans the per-site compute out over a ``concurrent.futures`` executor
(threads by default, processes via ``parallel_backend="process"``) and then
applies the results in deterministic site order, so the report is identical
to a sequential run except for wall-clock timing fields.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.core.models import GlobalModel, LocalModel
from repro.core.relabel import RELABEL_KERNELS, relabel_site
from repro.core.shm import ShmArrayPool, ShmArrayRef
from repro.data.distance import Metric
from repro.distributed.network import SERVER, NetworkStats, SimulatedNetwork
from repro.distributed.partition import partition, split
from repro.distributed.round_core import RoundCore
from repro.distributed.site import ClientSite
from repro.faults.plan import FaultPlan
from repro.faults.transport import (
    BreakerPolicy,
    DeliveryOutcome,
    ResilientTransport,
    TransportPolicy,
    TransportStats,
)
from repro.obs import MetricsRegistry, Span, Tracer, trace_document

__all__ = [
    "DistributedRunConfig",
    "DistributedRunReport",
    "DistributedRunner",
    "RecoveryPolicy",
    "RecoveryRoundStats",
    "RoundPolicy",
]

#: Failure reasons a recovery round heals by re-uploading the local model.
_UPLOAD_REASONS = frozenset(
    {"crash_before_local", "link_failed", "deadline_missed", "quarantined"}
)
#: Failure reasons where the model is already admitted and only the
#: broadcast + relabel leg is missing.
_BROADCAST_REASONS = frozenset(
    {"crash_after_send", "broadcast_lost", "broadcast_corrupt"}
)

_T = TypeVar("_T")
_R = TypeVar("_R")


def _local_clustering_task(site: ClientSite):
    """Worker task: a site's pure local-clustering compute (picklable)."""
    return site.compute_local_clustering()


def _relabel_task(item: tuple[ClientSite, GlobalModel]):
    """Worker task: a site's pure relabel compute (picklable)."""
    site, model = item
    return site.compute_relabel(model)


def _observed_local_task(site: ClientSite):
    """Observed worker task: local clustering under a worker-local tracer
    and metrics registry, whose exports ride back with the result so the
    driver can graft/merge them (works for thread *and* process pools)."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    with tracer.span(
        f"site[{site.site_id}].local",
        attrs={"site": site.site_id, "n_objects": int(site.points.shape[0])},
    ):
        outcome, wall_s, cpu_s = site.compute_local_clustering(
            tracer=tracer, metrics=metrics
        )
    return outcome, wall_s, cpu_s, tracer.export_spans(origin=0.0), metrics.to_dict()


def _observed_relabel_task(item: tuple[ClientSite, GlobalModel]):
    """Observed worker task: relabel with a worker-local tracer."""
    site, model = item
    tracer = Tracer()
    with tracer.span(
        f"site[{site.site_id}].relabel", attrs={"site": site.site_id}
    ):
        labels, stats, wall_s, cpu_s = site.compute_relabel(model)
    return labels, stats, wall_s, cpu_s, tracer.export_spans(origin=0.0)


def _shift_span_dict(span: dict, delta: float) -> None:
    """Shift an exported span tree's wall timestamps by ``delta``."""
    span["wall_start"] += delta
    span["wall_end"] += delta
    for child in span.get("children", []):
        _shift_span_dict(child, delta)


def _graft_worker_spans(parent: Span, exported: list[dict]) -> None:
    """Attach worker-exported span trees under ``parent``.

    Thread workers share the driver's ``perf_counter`` clock, so their
    timestamps land inside the parent window as-is.  Process workers have
    their own clock epoch; a span starting outside the parent window is
    re-anchored at the window start (durations are preserved).
    """
    for data in exported:
        if not parent.wall_start <= data["wall_start"] <= parent.wall_end:
            _shift_span_dict(data, parent.wall_start - data["wall_start"])
        parent.children.append(Span.from_dict(data))


# ----------------------------------------------------------------------
# Shared-memory fan-out (process backend).
#
# The plain process-pool path pickles every site's full point array into
# the worker task — and the worker pickles it *back* inside the result's
# neighbor index.  With shared memory enabled the driver copies each
# site's points into an OS shared-memory block once (ShmArrayPool) and
# ships only a tiny ShmArrayRef per task; the worker attaches zero-copy
# and strips the neighbor index from the returned outcome so the result
# carries labels + model, never the points.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ShmLocalSpec:
    """Picklable task spec of one site's shared-memory local phase.

    Exactly one of ``points_ref`` / ``points`` is set (zero-size arrays
    cannot live in shared memory and travel inline instead).
    """

    site_id: int
    points_ref: ShmArrayRef | None
    points: np.ndarray | None
    eps_local: float
    min_pts_local: int
    scheme: str
    metric: str | Metric
    index_kind: str
    relabel_kernel: str
    observed: bool


@dataclass(frozen=True)
class _ShmRelabelSpec:
    """Picklable task spec of one site's shared-memory relabel pass."""

    site_id: int
    points_ref: ShmArrayRef | None
    points: np.ndarray | None
    labels_ref: ShmArrayRef | None
    labels: np.ndarray | None
    metric: str | Metric
    relabel_kernel: str
    model: GlobalModel
    observed: bool


def _shm_local_task(spec: _ShmLocalSpec):
    """Worker task: local clustering against shared-memory points."""
    if spec.points_ref is not None:
        points, segment = spec.points_ref.open()
    else:
        points, segment = spec.points, None
    try:
        site = ClientSite(
            spec.site_id,
            points,
            eps_local=spec.eps_local,
            min_pts_local=spec.min_pts_local,
            scheme=spec.scheme,
            metric=spec.metric,
            index_kind=spec.index_kind,
            relabel_kernel=spec.relabel_kernel,
        )
        task = _observed_local_task if spec.observed else _local_clustering_task
        result = task(site)
        # The clustering's neighbor index references the (shared) point
        # array; stripping it keeps the pickled result at labels + model
        # size instead of shipping the points back to the driver.
        result[0].clustering.index = None
        return result
    finally:
        if segment is not None:
            segment.close()


def _shm_relabel_task(spec: _ShmRelabelSpec):
    """Worker task: relabel against shared-memory points and labels."""
    segments = []
    try:
        if spec.points_ref is not None:
            points, segment = spec.points_ref.open()
            segments.append(segment)
        else:
            points = spec.points
        if spec.labels_ref is not None:
            labels, segment = spec.labels_ref.open()
            segments.append(segment)
        else:
            labels = spec.labels
        if not spec.observed:
            return _timed_relabel(points, labels, spec)
        tracer = Tracer()
        with tracer.span(
            f"site[{spec.site_id}].relabel", attrs={"site": spec.site_id}
        ):
            global_labels, stats, wall_s, cpu_s = _timed_relabel(
                points, labels, spec
            )
        return global_labels, stats, wall_s, cpu_s, tracer.export_spans(origin=0.0)
    finally:
        for segment in segments:
            segment.close()


def _timed_relabel(points, labels, spec: _ShmRelabelSpec):
    """One relabel pass with the wall/CPU timing of ``compute_relabel``."""
    wall_start = time.perf_counter()
    cpu_start = time.thread_time()
    global_labels, stats = relabel_site(
        points,
        labels,
        spec.model,
        site_id=spec.site_id,
        metric=spec.metric,
        kernel=spec.relabel_kernel,
    )
    return (
        global_labels,
        stats,
        time.perf_counter() - wall_start,
        time.thread_time() - cpu_start,
    )


@dataclass(frozen=True)
class DistributedRunConfig:
    """Configuration of a distributed run.

    Attributes:
        eps_local: local DBSCAN ``Eps``.
        min_pts_local: local DBSCAN ``MinPts``.
        scheme: local model scheme.
        eps_global: server merge radius (``None`` → paper default).
        metric: distance metric.
        index_kind: neighbor index kind.
        partition_strategy: how the data is spread over sites.
        seed: partitioning seed.
        parallelism: maximum number of sites whose local phase / relabel
            pass runs concurrently (1 = strictly sequential).  Results are
            identical either way; only wall-clock timing changes.
        parallel_backend: ``"thread"`` (default) or ``"process"``.  The
            process backend sidesteps the GIL for CPU-bound local phases
            but requires the metric to be picklable (all registered named
            metrics are; ``minkowski_metric`` closures are not).
        relabel_kernel: coverage kernel of the update step (``"auto"`` /
            ``"vectorized"`` / ``"reference"``); every kernel produces
            bit-identical labels, the knob only trades constants.
        auto_fallback: when true (default), a parallel run silently
            degrades to sequential execution whenever parallelism cannot
            win: a single-CPU box, or every site below
            ``fallback_min_points`` objects (worker startup + pickling
            then dominates — the committed 20k bench showed process_x4 at
            a 0.76x *slowdown*).  The decision lands on the report as
            :attr:`DistributedRunReport.effective_parallelism` /
            ``parallelism_fallback_reason``.  Results are identical
            either way; only wall-clock timing changes.
        fallback_min_points: the largest site must hold at least this
            many objects for parallel fan-out to engage (with
            ``auto_fallback``).
    """

    eps_local: float
    min_pts_local: int
    scheme: str = "rep_scor"
    eps_global: float | None = None
    metric: str | Metric = "euclidean"
    index_kind: str = "auto"
    partition_strategy: str = "uniform_random"
    seed: int = 0
    parallelism: int = 1
    parallel_backend: str = "thread"
    relabel_kernel: str = "auto"
    auto_fallback: bool = True
    fallback_min_points: int = 20_000

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.parallel_backend not in ("thread", "process"):
            raise ValueError(
                f"parallel_backend must be 'thread' or 'process', "
                f"got {self.parallel_backend!r}"
            )
        if self.relabel_kernel not in RELABEL_KERNELS:
            raise ValueError(
                f"unknown relabel_kernel {self.relabel_kernel!r}; "
                f"known: {RELABEL_KERNELS}"
            )
        if self.fallback_min_points < 0:
            raise ValueError(
                f"fallback_min_points must be >= 0, got {self.fallback_min_points}"
            )


@dataclass(frozen=True)
class RoundPolicy:
    """Server-side round policy for degraded-mode runs.

    Simulated time, not wall time, drives the policy so that runs are
    reproducible: a site's simulated local phase lasts
    ``n_objects / compute_rate_objects_per_s`` (times its straggler
    slowdown), and its model's arrival time adds the transport's
    simulated delivery delay on top.

    Attributes:
        deadline_s: simulated time after which the server rejects late
            local models (``None`` = wait forever, the paper's behavior).
        quorum: minimum fraction of sites whose models must be admitted
            for the round to count as healthy.
        compute_rate_objects_per_s: nominal local clustering throughput
            used to convert a site's object count into simulated seconds.
    """

    deadline_s: float | None = None
    quorum: float = 0.0
    compute_rate_objects_per_s: float = 50_000.0

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if not 0.0 <= self.quorum <= 1.0:
            raise ValueError(f"quorum must be in [0, 1], got {self.quorum}")
        if self.compute_rate_objects_per_s <= 0:
            raise ValueError(
                "compute_rate_objects_per_s must be positive, got "
                f"{self.compute_rate_objects_per_s}"
            )

    def sim_local_seconds(self, n_objects: int, slowdown: float = 1.0) -> float:
        """Simulated duration of one site's local phase."""
        return n_objects / self.compute_rate_objects_per_s * slowdown


@dataclass(frozen=True)
class RecoveryPolicy:
    """Recovery-round policy: let failed sites rejoin and heal the model.

    After the base round, up to ``max_recovery_rounds`` recovery rounds
    run.  In each round every still-failed site gets one chance to
    rejoin: crashed sites reboot (re-running their local phase if they
    never computed one; local state survives a crash-after-send),
    sites whose upload was lost, late or quarantined resubmit, and sites
    that missed the broadcast receive it again.  The server folds late
    models into the existing global model *incrementally*
    (:class:`~repro.core.global_model.GlobalModelRepairer`) instead of
    re-running the global DBSCAN, and re-broadcasts only when the repair
    actually changed the model (recovered sites always receive it).

    Site-crash decisions are *not* re-drawn in recovery rounds — a
    crashed site is assumed rebooted — but every transfer still rides the
    resilient transport under the plan's link faults, so rejoins can fail
    again and retry in the next round.

    Attributes:
        max_recovery_rounds: recovery rounds to attempt (0 = disabled,
            today's single-round degraded behavior).
        deadline_s: per-round admission deadline, relative to the round's
            start (``None`` = wait forever).  Like the
            :class:`RoundPolicy` deadline, arrival exactly *at* the
            deadline is admitted.
        rejoin_backoff_s: simulated delay before the first recovery round
            starts (gives rebooting sites time to come back).
        backoff_multiplier: factor applied to the backoff for each
            further round (round *r* waits
            ``rejoin_backoff_s * backoff_multiplier**(r-1)``).
    """

    max_recovery_rounds: int = 0
    deadline_s: float | None = None
    rejoin_backoff_s: float = 0.5
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_recovery_rounds < 0:
            raise ValueError(
                f"max_recovery_rounds must be >= 0, got {self.max_recovery_rounds}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.rejoin_backoff_s < 0:
            raise ValueError(
                f"rejoin_backoff_s must be >= 0, got {self.rejoin_backoff_s}"
            )
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any recovery round can run."""
        return self.max_recovery_rounds > 0

    def backoff_seconds(self, round_index: int) -> float:
        """Simulated backoff before recovery round ``round_index`` (1-based)."""
        return self.rejoin_backoff_s * self.backoff_multiplier ** (round_index - 1)


@dataclass(frozen=True)
class RecoveryRoundStats:
    """What one recovery round did.

    Attributes:
        round_index: 1-based recovery round number.
        start_sim_seconds: simulated time the round started (previous
            round end + rejoin backoff).
        end_sim_seconds: simulated time of the round's last transport
            activity.
        wall_seconds: driver wall-clock time the round took.
        attempted_sites: sites the round tried to heal (failed or stale
            at round start), sorted.
        recovered_sites: sites that completed the full protocol this
            round (model merged and global labels applied), sorted.
        quarantined_sites: sites whose resubmission was quarantined this
            round (corrupt or invalid), sorted.
        rebroadcast_sites: sites the repaired model was broadcast to,
            sorted.
        relabel_changed_sites: broadcast receivers whose global labels
            actually changed after relabeling, sorted.
        still_failed_sites: sites still failed after the round, sorted.
        retries: transport retries spent in this round.
    """

    round_index: int
    start_sim_seconds: float
    end_sim_seconds: float
    wall_seconds: float
    attempted_sites: list[int]
    recovered_sites: list[int]
    quarantined_sites: list[int]
    rebroadcast_sites: list[int]
    relabel_changed_sites: list[int]
    still_failed_sites: list[int]
    retries: int


@dataclass
class _RoundLog:
    """What one round did on the simulated and the driver's wall clock.

    The report's timing fields and the trace are assembled from these
    marks, worker span exports and send entries.
    """

    sim_start: float
    wall_start: float
    sim_end: float = 0.0
    retries: int = 0
    compute_end: float = 0.0
    upload_end: float = 0.0
    global_start: float = 0.0
    broadcast_start: float = 0.0
    broadcast_end: float = 0.0
    relabel_start: float = 0.0
    relabel_compute_end: float = 0.0
    end: float = 0.0
    local_spans: list[dict] = field(default_factory=list)
    relabel_spans: list[dict] = field(default_factory=list)
    sends: list[tuple] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.sim_end = self.sim_start

    def deliver(
        self,
        transport: ResilientTransport,
        tracer: Tracer | None,
        site_id: int,
        kind: str,
        payload: bytes,
        start_s: float,
        *,
        receiver_down: bool = False,
    ) -> DeliveryOutcome:
        """Move one message between ``site_id`` and the server.

        ``local_model`` goes up, ``global_model`` comes down.  Logs the
        retries, the round's simulated end and, when traced, a
        ``(wall_start, wall_end, sim_start, sim_end, attrs)`` send entry.
        """
        if kind == "local_model":
            sender, receiver = site_id, SERVER
        else:
            sender, receiver = SERVER, site_id
        wall_start = time.perf_counter() if tracer is not None else 0.0
        delivery = transport.deliver(
            sender,
            receiver,
            kind,
            payload,
            start_s=start_s,
            receiver_down=receiver_down,
        )
        if tracer is not None:
            self.sends.append(
                (
                    wall_start,
                    time.perf_counter(),
                    start_s,
                    delivery.arrival_s,
                    {
                        "site": site_id,
                        "kind": kind,
                        "bytes": delivery.bytes_sent,
                        "delivered": delivery.delivered,
                        "attempts": delivery.attempts,
                    },
                )
            )
        self.retries += delivery.retries
        self.sim_end = max(self.sim_end, delivery.arrival_s)
        return delivery


@dataclass
class DistributedRunReport:
    """Everything a distributed run produces.

    Every timing field names its clock: ``*_wall_seconds`` is real
    elapsed ``perf_counter`` time on the driver or a worker,
    ``*_cpu_seconds`` is accumulated per-thread CPU time, and
    ``*_sim_seconds`` is the deterministic simulated protocol clock
    (the one ``RoundPolicy`` deadlines and transport delays run on).

    Attributes:
        sites: the client sites (holding their labels and stats).
        global_model: the broadcast model.
        network: traffic statistics.
        raw_bytes: what centralizing the raw data would have transmitted.
        raw_sim_seconds: simulated transfer time of the raw data.
        max_local_wall_seconds: slowest site's local phase (wall clock,
            measured on whichever worker ran the site).
        global_wall_seconds: server clustering time (wall clock).
        assignment: per original object, its site (when partitioned by the
            runner; ``None`` when sites were handed in pre-split).
        local_wall_seconds: actual elapsed wall time of the whole local
            compute fan-out on the driver (= sum of sites when
            sequential, ideally the max when parallel).
        local_cpu_seconds: CPU time summed over all sites' local phases —
            unlike wall time, this is additive under parallelism.
        relabel_wall_seconds: actual elapsed wall time of the step-4
            relabel fan-out.
        relabel_cpu_seconds: CPU time summed over all sites' relabels.
        local_sim_seconds: simulated time at which the last *admitted*
            local model arrived at the server (0 on a clean run).
        round_sim_seconds: simulated time at which the round's last
            transport activity finished — uploads, retries and broadcast
            included (0 on a clean run).
        participating_sites: sites whose local model the server admitted
            into the global model, in simulated arrival order (site order
            on a clean run, which reports no simulated timeline).
        failed_sites: sites that missed some part of the round (crashed,
            link failed, deadline missed, or lost the broadcast), sorted.
            A site can appear in both lists: its model was merged but it
            never received the global model back.
        retries: transport retries across all messages of the round.
        degraded: whether the round was degraded — any site failed (even
            after recovery), a site holds stale labels, or the server's
            quorum was missed.
        transport_stats: detailed transport bookkeeping (``None`` for
            clean runs, whose transport injects nothing).
        recovered_sites: sites that failed the initial round but completed
            the protocol in a recovery round, sorted.  They appear in
            ``participating_sites`` too and *not* in ``failed_sites``.
        quarantined_sites: sites whose model was quarantined by the
            integrity gate at least once (corrupt payload or invalid
            model), sorted.  A quarantined site that later recovered is
            listed here *and* in ``recovered_sites``.
        stale_sites: previously healthy sites that missed a re-broadcast
            of a repaired model and therefore hold labels of an older
            global model, sorted.  Stale is not failed — the labels are
            internally consistent, just out of date — but it keeps the
            run degraded.
        recovery_rounds_used: recovery rounds actually executed.
        recovery_rounds: per-round recovery bookkeeping.
        trace: the run's trace document (spans + metrics, see
            ``docs/observability.md``) when the runner was handed a
            tracer; ``None`` otherwise.
        effective_parallelism: workers the fan-outs actually used after
            auto-fallback (equals ``config.parallelism`` when no fallback
            fired).
        parallelism_fallback_reason: why a parallel config degraded to
            sequential execution (``"single_cpu"`` / ``"small_sites"``),
            ``None`` when it did not.
        shm_bytes_shared: payload bytes placed in shared-memory blocks
            instead of being pickled per worker task (0 without the
            shared-memory path).
        shm_setup_seconds: wall time spent copying arrays into the
            shared-memory pool.
        shm_teardown_seconds: wall time spent closing and unlinking the
            pool's blocks.
    """

    sites: list[ClientSite]
    global_model: GlobalModel
    network: NetworkStats
    raw_bytes: int
    raw_sim_seconds: float
    max_local_wall_seconds: float
    global_wall_seconds: float
    assignment: np.ndarray | None = None
    local_wall_seconds: float = 0.0
    local_cpu_seconds: float = 0.0
    relabel_wall_seconds: float = 0.0
    relabel_cpu_seconds: float = 0.0
    local_sim_seconds: float = 0.0
    round_sim_seconds: float = 0.0
    participating_sites: list[int] = field(default_factory=list)
    failed_sites: list[int] = field(default_factory=list)
    retries: int = 0
    degraded: bool = False
    transport_stats: TransportStats | None = None
    recovered_sites: list[int] = field(default_factory=list)
    quarantined_sites: list[int] = field(default_factory=list)
    stale_sites: list[int] = field(default_factory=list)
    recovery_rounds_used: int = 0
    recovery_rounds: list[RecoveryRoundStats] = field(default_factory=list)
    trace: dict | None = None
    effective_parallelism: int = 1
    parallelism_fallback_reason: str | None = None
    shm_bytes_shared: int = 0
    shm_setup_seconds: float = 0.0
    shm_teardown_seconds: float = 0.0

    @property
    def overall_wall_seconds(self) -> float:
        """The paper's overall runtime (max local + global, wall clock)."""
        return self.max_local_wall_seconds + self.global_wall_seconds

    @property
    def n_objects(self) -> int:
        """Objects across all sites."""
        return sum(site.points.shape[0] for site in self.sites)

    @property
    def n_representatives(self) -> int:
        """Representatives the server clustered."""
        return len(self.global_model)

    @property
    def transmission_cost_ratio(self) -> float:
        """Upstream bytes as a fraction of the raw-data baseline.

        ``0.03`` means the models cost 3% of shipping the raw data — the
        paper's "low transmission cost" claim.  0.0 for an empty baseline.
        """
        if self.raw_bytes == 0:
            return 0.0
        return self.network.bytes_upstream / self.raw_bytes

    @property
    def transmission_saving(self) -> float:
        """Fraction of the raw-data baseline *saved* by shipping models.

        The complement of :attr:`transmission_cost_ratio`: ``0.97`` means
        97% of the raw-data bytes never crossed the network.  (Earlier
        revisions returned the cost ratio under this name.)  0.0 for an
        empty baseline.
        """
        if self.raw_bytes == 0:
            return 0.0
        return 1.0 - self.transmission_cost_ratio

    @property
    def bytes_by_kind(self) -> dict[str, int]:
        """Traffic per message kind (``local_model`` vs ``global_model``)."""
        return dict(self.network.bytes_by_kind)

    def flat_metrics(self) -> dict[str, float]:
        """The report as the flat metric dict a RunRecord stores.

        Names follow the :mod:`repro.obs` contract (dotted, units in the
        name, per-kind variants in brackets); the run registry appends
        them and ``python -m repro runs regress`` compares them under the
        direction-aware rules of :mod:`repro.obs.regress`.
        """
        metrics: dict[str, float] = {
            "local.wall_seconds": self.local_wall_seconds,
            "local.cpu_seconds": self.local_cpu_seconds,
            "local.max_wall_seconds": self.max_local_wall_seconds,
            "global.wall_seconds": self.global_wall_seconds,
            "relabel.wall_seconds": self.relabel_wall_seconds,
            "relabel.cpu_seconds": self.relabel_cpu_seconds,
            "overall.wall_seconds": self.overall_wall_seconds,
            "local.admitted_sim_seconds": self.local_sim_seconds,
            "round.round_sim_seconds": self.round_sim_seconds,
            "raw.baseline_sim_seconds": self.raw_sim_seconds,
            "net.bytes_total": float(self.network.bytes_total),
            "net.bytes_upstream": float(self.network.bytes_upstream),
            "net.bytes_downstream": float(self.network.bytes_downstream),
            "transport.retries": float(self.retries),
            "transmission.cost_ratio": self.transmission_cost_ratio,
            "sites.participating_count": float(len(self.participating_sites)),
            "sites.failed": float(len(self.failed_sites)),
            "run.degraded_count": float(self.degraded),
            "model.representatives_count": float(self.n_representatives),
            "model.objects_count": float(self.n_objects),
            "recovery.rounds_used": float(self.recovery_rounds_used),
            "recovery.recovered_sites_count": float(len(self.recovered_sites)),
            "sites.quarantined_count": float(len(self.quarantined_sites)),
            "sites.stale_count": float(len(self.stale_sites)),
            "parallel.effective_workers": float(self.effective_parallelism),
            "parallel.fallback_count": float(
                self.parallelism_fallback_reason is not None
            ),
            "shm.bytes_shared": float(self.shm_bytes_shared),
            "shm.setup_seconds": self.shm_setup_seconds,
            "shm.teardown_seconds": self.shm_teardown_seconds,
        }
        if self.transport_stats is not None:
            metrics["transport.corrupted"] = float(self.transport_stats.n_corrupted)
            metrics["breaker.fast_fails"] = float(
                self.transport_stats.n_fast_failed
            )
            metrics["breaker.state_changes"] = float(
                self.transport_stats.n_breaker_state_changes
            )
        for kind, n_bytes in sorted(self.bytes_by_kind.items()):
            metrics[f"net.bytes[{kind}]"] = float(n_bytes)
        return metrics

    def labels_in_original_order(self) -> np.ndarray:
        """Global labels aligned with the pre-partition object order.

        Raises:
            RuntimeError: when the runner was given pre-split sites (no
                assignment is known).
            ValueError: when the assignment does not cover every site (it
                references unknown site ids, or its per-site object counts
                disagree with the sites' actual data).
        """
        if self.assignment is None:
            raise RuntimeError("no partition assignment recorded for this run")
        assignment = np.asarray(self.assignment, dtype=np.intp)
        n_sites = len(self.sites)
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= n_sites
        ):
            raise ValueError(
                f"assignment references site ids outside 0..{n_sites - 1}"
            )
        counts = np.bincount(assignment, minlength=n_sites)
        for site_id, site in enumerate(self.sites):
            if counts[site_id] != site.points.shape[0]:
                raise ValueError(
                    f"assignment covers {counts[site_id]} objects for site "
                    f"{site_id}, which holds {site.points.shape[0]}"
                )
        # A stable sort by site id lists, per site, its members in original
        # order — exactly the order partition.split handed the points over,
        # so concatenated per-site labels scatter straight back.
        order = np.argsort(assignment, kind="stable")
        out = np.empty(assignment.size, dtype=np.intp)
        out[order] = np.concatenate(
            [site.global_labels for site in self.sites]
        )
        return out


class DistributedRunner:
    """Executes the four DBDC protocol steps over a simulated network.

    Every message travels via a :class:`ResilientTransport` (timeouts,
    retries, backoff) under the ``fault_plan``, the round core applies the
    ``round_policy``'s deadline and quorum, the global model is built from
    whichever local models were admitted, and sites that missed the round
    fall back to their local labels.  Without a plan (or with an inactive
    one) nothing fails, so every site takes part and the labels, model and
    traffic equal the paper's protocol run site by site; the report then
    carries no simulated timeline and no transport statistics.

    Args:
        config: run configuration.
        network: optional pre-configured network (fresh default otherwise).
        fault_plan: faults to inject (``None`` or inactive = clean run).
        transport_policy: retry/backoff parameters of the transport.
        round_policy: server deadline/quorum policy.
        recovery_policy: optional :class:`RecoveryPolicy`; with
            ``max_recovery_rounds > 0`` failed sites get recovery rounds
            to rejoin and the global model is repaired incrementally.
            ``None`` (or 0 rounds) keeps today's single-round behavior.
        breaker_policy: optional per-link circuit breaker for the
            resilient transport (``None`` = disabled).
        tracer: optional :class:`~repro.obs.Tracer`.  When given, the run
            produces the full span tree (``run > local_phase > site[i]
            …``) and the report carries the trace document.  ``None``
            (the default) leaves the hot path untouched: no spans, no
            allocations, bit-identical output.
        metrics: optional :class:`~repro.obs.MetricsRegistry` threaded
            through the index layer, DBSCAN, server and transport.
    """

    def __init__(
        self,
        config: DistributedRunConfig,
        network: SimulatedNetwork | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        transport_policy: TransportPolicy | None = None,
        round_policy: RoundPolicy | None = None,
        recovery_policy: RecoveryPolicy | None = None,
        breaker_policy: BreakerPolicy | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        self.network = network or SimulatedNetwork()
        self.fault_plan = fault_plan
        self.transport_policy = transport_policy or TransportPolicy()
        self.round_policy = round_policy or RoundPolicy()
        self.recovery_policy = recovery_policy or RecoveryPolicy()
        self.breaker_policy = breaker_policy
        self.tracer = tracer
        self.metrics = metrics
        self._effective_parallelism = config.parallelism
        self._fallback_reason: str | None = None
        self._shm_pool: ShmArrayPool | None = None
        self._shm_point_refs: dict[int, ShmArrayRef] = {}
        self._shm_bytes_shared = 0
        self._shm_setup_seconds = 0.0
        self._shm_teardown_seconds = 0.0

    def _make_sites(self, site_points: list[np.ndarray]) -> list[ClientSite]:
        return [
            ClientSite(
                site_id,
                points,
                eps_local=self.config.eps_local,
                min_pts_local=self.config.min_pts_local,
                scheme=self.config.scheme,
                metric=self.config.metric,
                index_kind=self.config.index_kind,
                relabel_kernel=self.config.relabel_kernel,
            )
            for site_id, points in enumerate(site_points)
        ]

    def _resolve_parallelism(
        self, site_points: list[np.ndarray]
    ) -> tuple[int, str | None]:
        """Decide how many workers the fan-outs actually get.

        With ``auto_fallback`` a parallel config degrades to sequential
        execution when parallelism cannot win: one CPU, or every site's
        work below the ``fallback_min_points`` threshold.  Results are
        identical either way — only scheduling changes.
        """
        config = self.config
        if config.parallelism <= 1 or not config.auto_fallback:
            return config.parallelism, None
        if (os.cpu_count() or 1) <= 1:
            return 1, "single_cpu"
        largest = max(
            (np.asarray(points).shape[0] for points in site_points), default=0
        )
        if largest < config.fallback_min_points:
            return 1, "small_sites"
        return config.parallelism, None

    def _setup_shm_pool(self, sites: list[ClientSite]) -> None:
        """Copy every site's points into shared memory, once, traced."""
        setup_start = time.perf_counter()
        pool = ShmArrayPool()
        for site in sites:
            if site.points.size:
                self._shm_point_refs[site.site_id] = pool.share(site.points)
        self._shm_pool = pool
        self._shm_bytes_shared = pool.bytes_shared
        self._shm_setup_seconds = time.perf_counter() - setup_start
        if self.tracer is not None:
            self.tracer.record(
                "shm_pool.setup",
                wall_start=setup_start,
                wall_end=setup_start + self._shm_setup_seconds,
                attrs={"arrays": pool.n_arrays, "bytes": pool.bytes_shared},
            )

    def _close_shm_pool(self) -> None:
        """Unlink every shared block (idempotent), traced."""
        pool = self._shm_pool
        if pool is None:
            return
        self._shm_pool = None
        self._shm_bytes_shared = pool.bytes_shared
        teardown_start = time.perf_counter()
        pool.close()
        self._shm_teardown_seconds = time.perf_counter() - teardown_start
        if self.tracer is not None:
            self.tracer.record(
                "shm_pool.teardown",
                wall_start=teardown_start,
                wall_end=teardown_start + self._shm_teardown_seconds,
            )

    def run_on_sites(
        self,
        site_points: list[np.ndarray],
        assignment: np.ndarray | None = None,
    ) -> DistributedRunReport:
        """Run the protocol over pre-split site data.

        Args:
            site_points: one point array per site.
            assignment: optional original-order assignment (for realignment).

        Returns:
            A :class:`DistributedRunReport`.

        Raises:
            ValueError: when no sites are given.
        """
        if not site_points:
            raise ValueError("at least one site is required")
        self._effective_parallelism, self._fallback_reason = (
            self._resolve_parallelism(site_points)
        )
        self._shm_point_refs = {}
        self._shm_bytes_shared = 0
        self._shm_setup_seconds = 0.0
        self._shm_teardown_seconds = 0.0
        sites = self._make_sites(site_points)
        if (
            self._effective_parallelism > 1
            and len(sites) > 1
            and self.config.parallel_backend == "process"
        ):
            self._setup_shm_pool(sites)
        try:
            return self._run(sites, site_points, assignment)
        finally:
            # Normally a no-op: the run tears the pool down before
            # assembling its report so the teardown cost is recorded.
            self._close_shm_pool()

    def _local_fanout(self, sites: list[ClientSite], observing: bool) -> list:
        """Fan the local-phase compute out (shared-memory aware)."""
        if self._shm_pool is None:
            task = _observed_local_task if observing else _local_clustering_task
            return self._map_over(task, sites)
        config = self.config
        specs = [
            _ShmLocalSpec(
                site_id=site.site_id,
                points_ref=self._shm_point_refs.get(site.site_id),
                points=(
                    None if site.site_id in self._shm_point_refs else site.points
                ),
                eps_local=config.eps_local,
                min_pts_local=config.min_pts_local,
                scheme=config.scheme,
                metric=config.metric,
                index_kind=config.index_kind,
                relabel_kernel=config.relabel_kernel,
                observed=observing,
            )
            for site in sites
        ]
        return self._map_over(_shm_local_task, specs)

    def _relabel_fanout(
        self,
        sites: list[ClientSite],
        global_model: GlobalModel,
        observing: bool,
    ) -> list:
        """Fan the step-4 relabel compute out (shared-memory aware)."""
        if self._shm_pool is None:
            task = _observed_relabel_task if observing else _relabel_task
            return self._map_over(task, [(site, global_model) for site in sites])
        config = self.config
        specs = []
        for site in sites:
            labels = site.local_outcome.clustering.labels
            labels_ref = self._shm_pool.share(labels) if labels.size else None
            specs.append(
                _ShmRelabelSpec(
                    site_id=site.site_id,
                    points_ref=self._shm_point_refs.get(site.site_id),
                    points=(
                        None
                        if site.site_id in self._shm_point_refs
                        else site.points
                    ),
                    labels_ref=labels_ref,
                    labels=None if labels_ref is not None else labels,
                    metric=config.metric,
                    relabel_kernel=config.relabel_kernel,
                    model=global_model,
                    observed=observing,
                )
            )
        self._shm_bytes_shared = self._shm_pool.bytes_shared
        return self._map_over(_shm_relabel_task, specs)

    def _raw_cost(self, site_points: list[np.ndarray]) -> tuple[int, float]:
        dim = site_points[0].shape[1] if site_points[0].ndim == 2 else 0
        return self.network.raw_data_cost(
            sum(p.shape[0] for p in site_points), dim
        )

    def _run(
        self,
        sites: list[ClientSite],
        site_points: list[np.ndarray],
        assignment: np.ndarray | None,
    ) -> DistributedRunReport:
        """Run every round of the protocol through one loop.

        Round 0 is the base round: every site that is up computes and
        uploads its local model, the server commits whatever it admitted
        and broadcasts the global model back, and every site that
        receives it relabels.  Rounds r >= 1 are the
        :class:`RecoveryPolicy` rounds: the same steps for the sites that
        are still failed or stale, with the commit folding the late
        models into the global model.  Sites that never completed the
        protocol fall back to their local labels at the end.
        """
        plan = FaultPlan.none() if self.fault_plan is None else self.fault_plan
        faulty = plan.is_active()
        policy = self.round_policy
        recovery = self.recovery_policy
        tracer = self.tracer
        metrics = self.metrics
        observing = tracer is not None or metrics is not None
        transport = ResilientTransport(
            self.network,
            plan,
            self.transport_policy,
            breaker_policy=self.breaker_policy,
            metrics=metrics,
        )
        core = RoundCore(
            self.config.eps_global,
            metric=self.config.metric,
            index_kind=self.config.index_kind,
            deadline_s=policy.deadline_s,
            quorum=policy.quorum,
            expected_sites=len(sites),
            metrics=metrics,
        )
        behaviors = {site.site_id: plan.resolve_site(site.site_id) for site in sites}
        sites_by_id = {site.site_id: site for site in sites}
        models_by_site: dict[int, LocalModel] = {}
        failed: dict[int, str] = {}
        stale: set[int] = set()
        relabeled: set[int] = set()
        recovered_total: set[int] = set()
        quarantined_total: set[int] = set()
        local_cpu_seconds = 0.0
        relabel_cpu_seconds = 0.0
        local_sim_seconds = 0.0
        round_sim_end = 0.0
        rounds: list[_RoundLog] = []
        recovery_rounds_stats: list[RecoveryRoundStats] = []

        run_start = time.perf_counter()
        for round_index in range(recovery.max_recovery_rounds + 1):
            reasons = dict(failed)
            if round_index == 0:
                attempted = sorted(sites_by_id)
                round_start = 0.0
                # Crash decisions are drawn once, for the base round; a
                # site that crashed before its local phase reboots and
                # computes in the next round (stragglers stay slow).
                for site_id in attempted:
                    if behaviors[site_id].crashes_before_local:
                        failed[site_id] = "crash_before_local"
            else:
                attempted = sorted(set(reasons) | stale)
                if not attempted:
                    break
                round_start = round_sim_end + recovery.backoff_seconds(round_index)
                # Recovery rounds run their own deadline, relative to
                # the round start like the base round's.
                core.server.deadline_s = recovery.deadline_s
            log = _RoundLog(round_start, time.perf_counter())
            rounds.append(log)

            # Steps 1+2: sites without a local model compute one (possibly
            # in parallel); results are applied in deterministic site
            # order so reports match sequential runs.
            computing = [
                sites_by_id[site_id]
                for site_id in attempted
                if site_id not in models_by_site
                and not (round_index == 0 and behaviors[site_id].crashes_before_local)
            ]
            local_results = self._local_fanout(computing, observing)
            log.compute_end = time.perf_counter()
            for site, result in zip(computing, local_results):
                if observing:
                    outcome, wall_s, cpu_s, spans, worker_metrics = result
                    if metrics is not None:
                        metrics.merge(worker_metrics)
                    log.local_spans.extend(spans)
                else:
                    outcome, wall_s, cpu_s = result
                local_cpu_seconds += cpu_s
                models_by_site[site.site_id] = site.apply_local_outcome(
                    outcome, wall_s, cpu_s
                )

            # Upload: fresh models and every upload-reason resubmission
            # ride the transport (fresh sequence numbers per message, so
            # a resubmission's retry stream differs from the first try's).
            fresh = {site.site_id for site in computing}
            deliveries: list[tuple[float, int, bool]] = []
            for site_id in attempted:
                if site_id not in fresh and reasons.get(site_id) not in _UPLOAD_REASONS:
                    continue
                start_s = round_start
                if site_id in fresh:
                    start_s += policy.sim_local_seconds(
                        sites_by_id[site_id].points.shape[0],
                        behaviors[site_id].slowdown,
                    )
                delivery = log.deliver(
                    transport,
                    tracer,
                    site_id,
                    "local_model",
                    models_by_site[site_id].to_bytes(),
                    start_s,
                )
                if delivery.delivered:
                    deliveries.append(
                        (delivery.arrival_s, site_id, delivery.checksum_ok)
                    )
                else:
                    failed[site_id] = "link_failed"
            log.upload_end = time.perf_counter()

            # Step 3: the gate admits in simulated-arrival order —
            # integrity first (corrupt payloads are quarantined, never
            # merged), then the round deadline — and the core commits
            # whatever was admitted.
            admitted: list[LocalModel] = []
            quarantined: list[int] = []
            broadcast_start = round_start
            for arrival_s, site_id, checksum_ok in sorted(deliveries):
                model = models_by_site[site_id]
                verdict = core.admit(
                    model, arrival_s=arrival_s - round_start, checksum_ok=checksum_ok
                )
                if verdict == "admitted":
                    admitted.append(model)
                    broadcast_start = max(broadcast_start, arrival_s)
                    continue
                failed[site_id] = verdict
                if verdict == "quarantined":
                    quarantined_total.add(site_id)
                    quarantined.append(site_id)
            log.global_start = time.perf_counter()
            global_model = core.commit(admitted)
            if round_index == 0:
                local_sim_seconds = broadcast_start

            # Broadcast: sites that missed it, sites admitted this round
            # and stale sites get the model; when new representatives
            # arrived, so does every relabeled site — they can promote
            # noise on *any* site (Definition 9), not just the late one's.
            need_broadcast = {
                site_id
                for site_id in attempted
                if reasons.get(site_id) in _BROADCAST_REASONS
            }
            need_broadcast.update(model.site_id for model in admitted)
            need_broadcast.update(stale)
            if any(len(model.representatives) for model in admitted):
                need_broadcast.update(relabeled)
            payload = global_model.to_bytes()
            log.broadcast_start = time.perf_counter()
            receivers: list[ClientSite] = []
            for site_id in sorted(need_broadcast):
                # A crash-after-send site still gets its broadcast
                # attempts — the server is not omniscient — they just can
                # never land.
                receiver_down = (
                    round_index == 0 and behaviors[site_id].crashes_after_send
                )
                delivery = log.deliver(
                    transport,
                    tracer,
                    site_id,
                    "global_model",
                    payload,
                    broadcast_start,
                    receiver_down=receiver_down,
                )
                if delivery.delivered and delivery.checksum_ok:
                    receivers.append(sites_by_id[site_id])
                elif site_id in relabeled:
                    # A relabeled site that misses a refresh is *stale*,
                    # not failed: its old labels are still internally
                    # consistent, just out of date.  It is retried next
                    # round and never fallback-wiped.
                    stale.add(site_id)
                elif receiver_down:
                    failed[site_id] = "crash_after_send"
                else:
                    # Bytes that flipped in flight must not be applied.
                    failed[site_id] = (
                        "broadcast_corrupt" if delivery.delivered else "broadcast_lost"
                    )
            log.broadcast_end = time.perf_counter()

            # Step 4 on the sites that actually hold the model.
            log.relabel_start = time.perf_counter()
            relabel_results = self._relabel_fanout(receivers, global_model, observing)
            log.relabel_compute_end = time.perf_counter()
            changed: list[int] = []
            recovered: list[int] = []
            for site, result in zip(receivers, relabel_results):
                if observing:
                    global_labels, stats, wall_s, cpu_s, spans = result
                    log.relabel_spans.extend(spans)
                else:
                    global_labels, stats, wall_s, cpu_s = result
                relabel_cpu_seconds += cpu_s
                site_id = site.site_id
                old_labels = site.global_labels if site_id in relabeled else None
                site.apply_relabel(global_labels, stats, wall_s, cpu_s)
                if old_labels is None or not np.array_equal(
                    old_labels, site.global_labels
                ):
                    changed.append(site_id)
                if site_id in failed:
                    del failed[site_id]
                    recovered_total.add(site_id)
                    recovered.append(site_id)
                stale.discard(site_id)
                relabeled.add(site_id)
            log.end = time.perf_counter()
            round_sim_end = max(round_sim_end, log.sim_end)
            if round_index == 0:
                continue
            log.attrs = {
                "attempted": len(attempted),
                "recovered": len(recovered),
                "rebroadcast": len(need_broadcast),
            }
            recovery_rounds_stats.append(
                RecoveryRoundStats(
                    round_index=round_index,
                    start_sim_seconds=round_start,
                    end_sim_seconds=log.sim_end,
                    wall_seconds=log.end - log.wall_start,
                    attempted_sites=attempted,
                    recovered_sites=sorted(recovered),
                    quarantined_sites=sorted(quarantined),
                    rebroadcast_sites=sorted(need_broadcast),
                    relabel_changed_sites=sorted(changed),
                    still_failed_sites=sorted(failed),
                    retries=log.retries,
                )
            )
            if metrics is not None:
                metrics.inc("recovery.rounds")
        if metrics is not None and recovered_total:
            metrics.set("recovery.recovered_sites", len(recovered_total))
        participating = core.server.admitted_site_ids

        # Degraded fallback, in deterministic site order: fresh global ids
        # beyond everything the global model handed out.
        fallback_start = time.perf_counter()
        next_id = (
            int(global_model.global_labels.max()) + 1 if len(global_model) else 0
        )
        for site in sites:
            if site.site_id in failed:
                next_id = site.apply_degraded_labels(
                    failed[site.site_id], id_offset=next_id
                )
        self._close_shm_pool()
        run_end = time.perf_counter()

        degraded = bool(failed) or bool(stale) or not core.server.quorum_met
        if metrics is not None:
            metrics.set("runner.participating_sites", len(participating))
            metrics.set("runner.failed_sites", len(failed))
            if degraded:
                metrics.inc("runner.degraded_rounds")
        trace = None
        if tracer is not None:
            self._record_run_spans(
                mode="degraded" if faulty else "fault_free",
                n_sites=len(sites),
                run_window=(run_start, run_end),
                rounds=rounds,
                global_seconds=core.server.global_seconds,
                n_representatives=len(global_model),
                fallback_window=(fallback_start, run_end) if faulty else None,
            )
            trace = trace_document(tracer, metrics)

        base = rounds[0]
        raw_bytes, raw_seconds = self._raw_cost(site_points)
        return DistributedRunReport(
            sites=sites,
            global_model=global_model,
            network=self.network.stats(),
            raw_bytes=raw_bytes,
            raw_sim_seconds=raw_seconds,
            max_local_wall_seconds=max(
                site.times.local_wall_seconds for site in sites
            ),
            global_wall_seconds=core.server.global_seconds,
            assignment=assignment,
            local_wall_seconds=base.compute_end - base.wall_start,
            local_cpu_seconds=local_cpu_seconds,
            relabel_wall_seconds=base.relabel_compute_end - base.relabel_start,
            relabel_cpu_seconds=relabel_cpu_seconds,
            # A clean run's simulated clock is an artifact of the shared
            # path, not a protocol outcome: report it, and the arrival
            # order it induces, only under faults.
            local_sim_seconds=local_sim_seconds if faulty else 0.0,
            round_sim_seconds=round_sim_end if faulty else 0.0,
            participating_sites=participating if faulty else sorted(participating),
            failed_sites=sorted(failed),
            retries=sum(log.retries for log in rounds),
            degraded=degraded,
            transport_stats=transport.stats if faulty else None,
            recovered_sites=sorted(recovered_total),
            quarantined_sites=sorted(quarantined_total),
            stale_sites=sorted(stale),
            recovery_rounds_used=len(recovery_rounds_stats),
            recovery_rounds=recovery_rounds_stats,
            trace=trace,
            effective_parallelism=self._effective_parallelism,
            parallelism_fallback_reason=self._fallback_reason,
            shm_bytes_shared=self._shm_bytes_shared,
            shm_setup_seconds=self._shm_setup_seconds,
            shm_teardown_seconds=self._shm_teardown_seconds,
        )

    def _record_run_spans(
        self,
        *,
        mode: str,
        n_sites: int,
        run_window: tuple[float, float],
        rounds: list[_RoundLog],
        global_seconds: float,
        n_representatives: int,
        fallback_window: tuple[float, float] | None,
    ) -> None:
        """Assemble the run's span tree post-hoc from the *same*
        ``perf_counter`` reads that produced the report's timing fields,
        so trace and report reconcile exactly.

        The base round spreads over the ``local_phase`` / ``global_phase``
        / ``broadcast`` / ``relabel`` spans; every recovery round is one
        ``recovery_round[r]`` span.  ``global_seconds`` is the server's
        own measurement of its last build.
        """
        tracer = self.tracer
        run_span = tracer.record(
            "run",
            wall_start=run_window[0],
            wall_end=run_window[1],
            attrs={"mode": mode, "n_sites": n_sites},
        )
        base = rounds[0]
        local_span = tracer.record(
            "local_phase",
            wall_start=base.wall_start,
            wall_end=base.upload_end,
            parent=run_span,
        )
        compute_span = tracer.record(
            "compute",
            wall_start=base.wall_start,
            wall_end=base.compute_end,
            parent=local_span,
        )
        _graft_worker_spans(compute_span, base.local_spans)
        upload_span = tracer.record(
            "upload",
            wall_start=base.compute_end,
            wall_end=base.upload_end,
            parent=local_span,
        )
        tracer.record(
            "global_phase",
            wall_start=base.global_start,
            wall_end=base.global_start + global_seconds,
            attrs={"n_representatives": n_representatives},
            parent=run_span,
        )
        broadcast_span = tracer.record(
            "broadcast",
            wall_start=base.broadcast_start,
            wall_end=base.broadcast_end,
            parent=run_span,
        )
        relabel_span = tracer.record(
            "relabel",
            wall_start=base.relabel_start,
            wall_end=base.end,
            parent=run_span,
        )
        relabel_compute = tracer.record(
            "compute",
            wall_start=base.relabel_start,
            wall_end=base.relabel_compute_end,
            parent=relabel_span,
        )
        _graft_worker_spans(relabel_compute, base.relabel_spans)
        parents = {"local_model": upload_span, "global_model": broadcast_span}
        for round_index, log in enumerate(rounds):
            if round_index:
                round_span = tracer.record(
                    f"recovery_round[{round_index}]",
                    wall_start=log.wall_start,
                    wall_end=log.end,
                    sim_start=log.sim_start,
                    sim_end=log.sim_end,
                    attrs=log.attrs,
                    parent=run_span,
                )
                _graft_worker_spans(round_span, log.local_spans + log.relabel_spans)
                parents = dict.fromkeys(parents, round_span)
            for w0, w1, s0, s1, attrs in log.sends:
                tracer.record(
                    f"send[{attrs['kind']}]",
                    wall_start=w0,
                    wall_end=w1,
                    sim_start=s0,
                    sim_end=s1,
                    attrs=attrs,
                    parent=parents[attrs["kind"]],
                )
        if fallback_window is not None:
            tracer.record(
                "degraded_fallback",
                wall_start=fallback_window[0],
                wall_end=fallback_window[1],
                parent=run_span,
            )

    def _map_over(self, task: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
        """Run ``task`` over ``items``, in order, possibly concurrently.

        ``_effective_parallelism`` (the post-fallback worker count
        resolved by :meth:`run_on_sites`) bounds the pool size."""
        workers = min(self._effective_parallelism, len(items))
        if workers <= 1:
            return [task(item) for item in items]
        executor_cls: type[Executor] = (
            ThreadPoolExecutor
            if self.config.parallel_backend == "thread"
            else ProcessPoolExecutor
        )
        with executor_cls(max_workers=workers) as executor:
            return list(executor.map(task, items))

    def run(self, points: np.ndarray, n_sites: int) -> DistributedRunReport:
        """Partition ``points`` and run the protocol.

        Args:
            points: the complete data set, shape ``(n, d)``.
            n_sites: number of client sites.

        Returns:
            A :class:`DistributedRunReport` whose labels can be realigned
            with the original object order.
        """
        points = np.asarray(points, dtype=float)
        assignment = partition(
            points, n_sites, self.config.partition_strategy, self.config.seed
        )
        return self.run_on_sites(split(points, assignment), assignment)
