"""DBDC as a live asyncio socket service.

:class:`DBDCService` hosts the protocol's
:class:`~repro.distributed.round_core.RoundCore` behind the wire
protocol of :mod:`repro.service.wire`: sites connect over TCP, upload
local models (admitted through the same integrity/deadline gate the
simulated path uses), await the global model, and issue label queries;
operators probe health frames and scrape a plaintext HTTP endpoint
serving the existing OpenMetrics exporter.

Determinism contract: the round core builds from the admitted models
stably sorted by site id, as it does for the in-process runner, so a
socket run whose uploads race each other still builds the *same* global
model — the bit-identical-labels guarantee the integration tests pin.

Concurrency model: one event loop owns all protocol state, so admission
and build are race-free by construction; only the numpy-heavy label
relabeling runs in the default executor (on a model snapshot) to keep
the loop responsive under query load.  Per-connection deadlines bound
every read (one budget per frame, header and payload together), and
:meth:`DBDCService.stop` drains connections gracefully — in-flight
waiters receive a typed ``shutting_down`` frame before their connection
closes.

Streaming sessions (ROUND_OPEN / ROUND_COMMIT / MODEL_DELTA) put the
incremental protocol behind the same wire: every round commits through
the round core — round 0 as the standard sorted build, every later round
folded into the session model via
:class:`~repro.core.global_model.GlobalModelRepairer` — representatives
strictly append, so MODEL_DELTA replies are exact.  Sites submit each
round's batch under a fresh *effective* site id, which keeps the
``(site_id, local_cluster_id)`` inheritance keys of the relabel step
collision-free across rounds.  See ``docs/service.md``.

Durability (ISSUE 10): with ``journal_dir`` configured, every admitted
model, round open/commit and quarantine decision is written to a
CRC-guarded write-ahead journal (:mod:`repro.service.journal`) *before*
it is acknowledged; :meth:`DBDCService.start` replays snapshot + journal
through the very same admission/commit code path, so a crash-restarted
server is bit-identical to one that never crashed.  Every status reply
carries the server *epoch* (generation counter), duplicate session
resubmissions are acknowledged idempotently, and bounded admission
(``max_inflight_requests`` / ``max_connections``) sheds overload with
typed ``overloaded`` replies carrying a retry hint.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.clustering.labels import NOISE
from repro.core.relabel import RELABEL_KERNELS, check_query_points, relabel_site
from repro.distributed.round_core import RoundCore
from repro.distributed.server import CentralServer
from repro.obs import MetricsRegistry, NULL_TRACER, shift_span_times, trace_document
from repro.obs.openmetrics import OPENMETRICS_CONTENT_TYPE, render_registry
from repro.service import journal, wire

__all__ = ["ServiceConfig", "DBDCService", "ServiceHandle"]


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of one :class:`DBDCService`.

    Attributes:
        host: bind address.
        port: protocol port (0 = ephemeral, the tests' default).
        metrics_port: HTTP metrics port (0 = ephemeral, ``None`` =
            disable the endpoint).
        eps_global: server merge radius (``None`` → the paper default).
        metric: distance metric name.
        index_kind: neighbor index for the global DBSCAN.
        expected_sites: sites of one protocol round; when set, the
            global model is built as soon as that many models are
            admitted.  ``None`` = build lazily on first demand.
        deadline_s: admission deadline in *service uptime* seconds (the
            socket path's arrival clock), ``None`` = never reject.
        quorum: minimum admitted fraction for a healthy round.
        relabel_kernel: kernel used to answer label queries.
        idle_timeout_s: per-connection deadline — a connection that
            sends no complete frame for this long is closed.  The budget
            covers one *whole* frame: header and payload reads share a
            single deadline, so a slow-loris client cannot stretch a
            frame to twice the configured limit.
        await_timeout_cap_s: upper bound an AWAIT_GLOBAL or MODEL_DELTA
            request may block, whatever timeout the client asked for.
        max_frame_bytes: reject frames declaring more payload than this.
        shutdown_grace_s: how long :meth:`DBDCService.stop` waits for
            in-flight requests (e.g. released AWAIT_GLOBAL waiters) to
            flush their response frames before cancelling connections.
        journal_dir: directory of the write-ahead journal; ``None``
            disables durability (the pre-journal behavior).  When set,
            every admitted model, round open/commit and quarantine
            decision is journaled *before* it is acknowledged, and
            :meth:`DBDCService.start` replays snapshot + journal so a
            restarted server is bit-identical to one that never crashed.
        journal_fsync: fsync the journal per record (the durability
            guarantee; disable only to measure the fsync cost).
        journal_snapshot_bytes: compact the journal into its snapshot
            once the log outgrows this (at round-commit safe points).
        max_inflight_requests: cap on concurrently dispatching *work*
            frames (LOCAL_MODEL / LABEL_QUERY / TRACE_UPLOAD); excess
            requests are shed with a typed ``overloaded`` reply carrying
            ``retry_after_s`` instead of queueing unboundedly.  Parked
            AWAIT_GLOBAL / MODEL_DELTA waiters never count — they hold
            no work, and counting them would deadlock small caps.
            ``None`` = unbounded (the pre-overload behavior).
        max_connections: cap on concurrent protocol connections; excess
            connects receive one ``overloaded`` frame and are closed.
            ``None`` = unbounded.
        retry_after_s: the backoff hint stamped on ``overloaded``
            replies.
    """

    host: str = "127.0.0.1"
    port: int = 0
    metrics_port: int | None = 0
    eps_global: float | None = None
    metric: str = "euclidean"
    index_kind: str = "auto"
    expected_sites: int | None = None
    deadline_s: float | None = None
    quorum: float = 0.0
    relabel_kernel: str = "auto"
    idle_timeout_s: float = 30.0
    await_timeout_cap_s: float = 120.0
    max_frame_bytes: int = wire.DEFAULT_MAX_PAYLOAD
    shutdown_grace_s: float = 5.0
    journal_dir: str | None = None
    journal_fsync: bool = True
    journal_snapshot_bytes: int = 4 * 1024 * 1024
    max_inflight_requests: int | None = None
    max_connections: int | None = None
    retry_after_s: float = 0.05

    def __post_init__(self) -> None:
        if self.idle_timeout_s <= 0:
            raise ValueError(
                f"idle_timeout_s must be positive, got {self.idle_timeout_s}"
            )
        if self.await_timeout_cap_s <= 0:
            raise ValueError(
                "await_timeout_cap_s must be positive, got "
                f"{self.await_timeout_cap_s}"
            )
        if self.max_frame_bytes < wire.HEADER_SIZE:
            raise ValueError(
                f"max_frame_bytes must be >= {wire.HEADER_SIZE}, "
                f"got {self.max_frame_bytes}"
            )
        if self.shutdown_grace_s < 0:
            raise ValueError(
                f"shutdown_grace_s must be >= 0, got {self.shutdown_grace_s}"
            )
        if self.journal_snapshot_bytes <= 0:
            raise ValueError(
                "journal_snapshot_bytes must be positive, got "
                f"{self.journal_snapshot_bytes}"
            )
        if (
            self.max_inflight_requests is not None
            and self.max_inflight_requests < 1
        ):
            raise ValueError(
                "max_inflight_requests must be >= 1, got "
                f"{self.max_inflight_requests}"
            )
        if self.max_connections is not None and self.max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {self.max_connections}"
            )
        if self.retry_after_s <= 0:
            raise ValueError(
                f"retry_after_s must be positive, got {self.retry_after_s}"
            )
        if self.relabel_kernel not in RELABEL_KERNELS:
            raise ValueError(
                f"unknown relabel kernel {self.relabel_kernel!r}; "
                f"known: {RELABEL_KERNELS}"
            )


#: Frame kinds that consume the bounded admission budget; everything
#: else (health, metrics, parked waiters) is cheap or must never shed.
_WORK_KINDS = frozenset(
    {
        wire.FrameKind.LOCAL_MODEL,
        wire.FrameKind.LABEL_QUERY,
        wire.FrameKind.TRACE_UPLOAD,
    }
)


@dataclass
class _StreamRound:
    """State of the streaming session's currently open round."""

    index: int
    opened_at_s: float
    models: list = field(default_factory=list)


class DBDCService:
    """The central server as a long-running asyncio socket service.

    Args:
        config: service configuration.
        metrics: optional shared registry (fresh one otherwise); the
            hosted round core records its ``server.*`` metrics
            into the same registry the HTTP endpoint serves.
        tracer: optional :class:`~repro.obs.Tracer` for distributed
            tracing — the service records ``serve[...]`` /
            ``round_commit`` spans, accepts ``TRACE_UPLOAD`` span
            forests from remote processes, and merges everything into
            one document (:meth:`merged_trace_document`).  The default
            :data:`~repro.obs.NULL_TRACER` keeps serving allocation-free.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        tracer=None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: TRACE_UPLOAD documents from remote processes, merge inputs.
        self._remote_traces: list[dict] = []
        self.core = RoundCore(
            self.config.eps_global,
            metric=self.config.metric,
            index_kind=self.config.index_kind,
            deadline_s=self.config.deadline_s,
            quorum=self.config.quorum,
            expected_sites=self.config.expected_sites,
            metrics=self.metrics,
        )
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._busy: set[asyncio.Task] = set()
        self._built = asyncio.Event()
        self._shutdown = asyncio.Event()
        self._model_dirty = False
        self._started_monotonic = 0.0
        self._frames_total = 0
        self._n_shutdown_notices = 0
        # Streaming-session state: activated by the first ROUND_OPEN.
        self._session_active = False
        self._round: _StreamRound | None = None
        self._rounds_committed = 0
        self._commit_events: dict[int, asyncio.Event] = {}
        # Durability + overload state (ISSUE 10): the journal is only
        # attached *after* recovery replay, so replaying never journals.
        self._journal: journal.WriteAheadJournal | None = None
        self._epoch = 0
        self._recovered_models = 0
        self._recovery_wall_s = 0.0
        self._session_site_ids: set[int] = set()
        self._inflight = 0
        self._n_load_shed = 0
        self._n_connections_refused = 0
        self._n_duplicate_uploads = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def server(self) -> CentralServer:
        """The hosted admission gate (the round core's server)."""
        return self.core.server

    @property
    def bound_port(self) -> int:
        """The protocol port actually bound (after :meth:`start`)."""
        assert self._asyncio_server is not None, "service not started"
        return self._asyncio_server.sockets[0].getsockname()[1]

    @property
    def metrics_bound_port(self) -> int | None:
        """The HTTP metrics port actually bound (``None`` if disabled)."""
        if self._http_server is None:
            return None
        return self._http_server.sockets[0].getsockname()[1]

    @property
    def uptime_s(self) -> float:
        """Seconds since :meth:`start` — the socket path's arrival clock."""
        return time.monotonic() - self._started_monotonic

    async def start(self) -> None:
        """Bind the protocol and metrics listeners.

        With a ``journal_dir`` configured, the snapshot + journal are
        replayed *before* the listeners bind: no client can observe a
        half-recovered server.
        """
        self._started_monotonic = time.monotonic()
        if self.config.journal_dir is not None:
            self._recover_from_journal()
        self._asyncio_server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        if self.config.metrics_port is not None:
            self._http_server = await asyncio.start_server(
                self._on_http_connection, self.config.host, self.config.metrics_port
            )
        self.metrics.set("service.up", 1)

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain connections.

        Setting the shutdown event releases every in-flight AWAIT_GLOBAL
        / MODEL_DELTA waiter (their wait races the event), and each
        replies to its client with a typed ``shutting_down`` frame before
        its serve loop exits.  Those in-dispatch connections get a grace
        window to flush that frame; only connections still idle after it
        (parked in a read, no request in flight) are cancelled.
        """
        self._shutdown.set()
        for listener in (self._asyncio_server, self._http_server):
            if listener is not None:
                listener.close()
        for listener in (self._asyncio_server, self._http_server):
            if listener is not None:
                await listener.wait_closed()
        busy = {task for task in self._busy if not task.done()}
        if busy:
            await asyncio.wait(busy, timeout=self.config.shutdown_grace_s)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._journal is not None:
            self._journal.close()
        self.metrics.set("service.up", 0)

    async def serve_until_shutdown(self) -> None:
        """Start, then block until a SHUTDOWN frame or :meth:`request_stop`."""
        if self._asyncio_server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()

    def request_stop(self) -> None:
        """Ask the service to shut down (safe from the loop thread)."""
        self._shutdown.set()

    # ------------------------------------------------------------------
    # durability: journal + crash-restart recovery
    # ------------------------------------------------------------------
    def _status(
        self, status: str, detail: str = "", *, retry_after: bool = False
    ) -> bytes:
        """Encode a status payload stamped with the server epoch.

        Without a journal the epoch stays 0 and the payload is the
        plain pre-durability encoding, byte for byte.
        """
        return wire.encode_status(
            status,
            detail,
            epoch=self._epoch if self._epoch else None,
            retry_after_s=self.config.retry_after_s if retry_after else None,
        )

    def _recover_from_journal(self) -> None:
        """Replay snapshot + journal into live protocol state.

        Every record runs through the same admission/commit code path a
        live request would take, so the recovered global model, round
        state machine and commit events are bit-identical to a server
        that never crashed (pinned per round by the recovery tests).
        The journal is attached only after replay — recovery itself
        never journals — and the new epoch is the first record of the
        generation that just started.
        """
        start = time.perf_counter()
        wal = journal.WriteAheadJournal(
            self.config.journal_dir,
            fsync=self.config.journal_fsync,
            snapshot_every_bytes=self.config.journal_snapshot_bytes,
        )
        recovery = wal.recover()
        for record in recovery.records:
            self._replay_record(record)
        self._epoch += 1
        self._journal = wal
        wal.append(journal.RecordKind.EPOCH, journal.encode_epoch(self._epoch))
        self._recovery_wall_s = time.perf_counter() - start
        self.metrics.set("service.epoch", self._epoch)
        self.metrics.set("service.recovery_wall_seconds", self._recovery_wall_s)
        self.metrics.set("service.recovered_models", self._recovered_models)
        self.metrics.set("service.recovered_rounds", self._rounds_committed)
        self.metrics.set(
            "service.journal_truncated_bytes", recovery.truncated_bytes
        )
        self._journal_metrics()

    def _replay_record(self, record: journal.Record) -> None:
        """Apply one journal record through the live code path."""
        kind = record.kind
        if kind == journal.RecordKind.EPOCH:
            self._epoch = max(self._epoch, journal.decode_epoch(record.payload))
        elif kind == journal.RecordKind.ROUND_OPEN:
            index = journal.decode_round_marker(record.payload)
            self._session_active = True
            self._round = _StreamRound(index=index, opened_at_s=self.uptime_s)
            self.metrics.inc("service.rounds_opened")
        elif kind == journal.RecordKind.ROUND_COMMIT:
            index = journal.decode_round_marker(record.payload)
            if self._round is not None and self._round.index == index:
                self._commit_round()
            # Already-committed indices are no-ops: the auto-commit at
            # the round's last admission ran first.
        elif kind == journal.RecordKind.MODEL_ADMITTED:
            round_index, payload = journal.decode_admitted(record.payload)
            model = wire.decode_local_model(payload)
            # The deadline was enforced (and passed) before the record
            # was written; re-checking it against the *restart* clock
            # would wrongly reject every recovered model.
            verdict = self.core.admit(
                model, arrival_s=0.0, enforce_deadline=False
            )
            if verdict != "admitted":
                return
            self._recovered_models += 1
            if round_index >= 0 and (
                self._round is None or self._round.index != round_index
            ):
                return
            self._book_admission(model)
        elif kind == journal.RecordKind.QUARANTINE:
            __, site_id, reason = journal.decode_quarantine(record.payload)
            self.server.quarantine(
                _placeholder_model(site_id), reason or "replayed quarantine"
            )

    def _journal_quarantine(
        self, round_index: int, site_id: int, reason: str
    ) -> None:
        if self._journal is None:
            return
        self._journal.append(
            journal.RecordKind.QUARANTINE,
            journal.encode_quarantine(round_index, site_id, reason),
        )
        self._journal_metrics()

    def _journal_metrics(self) -> None:
        wal = self._journal
        if wal is None:
            return
        self.metrics.set("service.journal_bytes", wal.bytes_written)
        self.metrics.set("service.journal_fsyncs", wal.fsync_count)
        self.metrics.set("service.journal_records", wal.records_written)
        self.metrics.set("service.journal_compactions", wal.compactions)

    # ------------------------------------------------------------------
    # protocol state
    # ------------------------------------------------------------------
    def _build_global_model(self) -> None:
        """(Re)build the global model from every admitted model."""
        self.core.build()
        self._model_dirty = False
        self._built.set()
        self.metrics.set("service.model_builds", self.core.n_builds)

    def _current_model(self):
        """The up-to-date global model, rebuilding if admissions landed
        since the last build (``None`` when nothing was ever admitted).

        In a streaming session the session model is authoritative — it
        only advances at round commits, never on individual admissions.
        """
        if not self._session_active and (
            self._model_dirty or not self._built.is_set()
        ):
            if not self.server.local_models:
                return None
            self._build_global_model()
        return self.core.model

    def _admit(self, frame: wire.Frame) -> tuple[str, str]:
        """Run one upload through the unchanged admission gate.

        In a streaming session the upload must land inside an open round:
        the arrival clock restarts at ROUND_OPEN (round-scoped deadline),
        admitted models are collected on the round, and the round
        auto-commits once ``expected_sites`` models are in.
        """
        if self._session_active:
            arrival_s = self.uptime_s - self._round.opened_at_s
        else:
            arrival_s = self.uptime_s
        round_index = self._round.index if self._round is not None else -1
        detail = ""
        if frame.crc_ok:
            try:
                model = wire.decode_local_model(frame.payload)
            except wire.WireError as error:
                # The payload passed its CRC but does not parse: admit a
                # placeholder so the quarantine bookkeeping names the site.
                model = _placeholder_model(frame.site_id)
                verdict = self.core.admit(model, checksum_ok=False)
                detail = f"undecodable payload: {error}"
            else:
                verdict = self.core.admit(model, arrival_s=arrival_s)
        else:
            # Bit-flipped in flight: the admission gate quarantines it —
            # same behavior, same code path, as the simulated transport.
            model = _decode_or_placeholder(frame)
            verdict = self.core.admit(
                model, arrival_s=arrival_s, checksum_ok=False
            )
        if verdict == "quarantined":
            self._journal_quarantine(round_index, model.site_id, detail)
        if verdict != "admitted":
            return verdict, detail
        # Durability before acknowledgement: the admission is journaled
        # (and fsynced) before any bookkeeping that could produce an ACK
        # or trigger a commit — a crash after this line replays the
        # model, a crash before it never acknowledged anything.
        if self._journal is not None:
            self._journal.append(
                journal.RecordKind.MODEL_ADMITTED,
                journal.encode_admitted(round_index, frame.payload),
            )
            self._journal_metrics()
        self._book_admission(model)
        return verdict, detail

    def _book_admission(self, model) -> None:
        """Add an admitted model to the open round (or the one-shot pool);
        once ``expected_sites`` models are in, commit the round (or build).
        Live uploads and journal replay both run this."""
        expected = self.config.expected_sites
        if self._session_active:
            self._round.models.append(model)
            self._session_site_ids.add(model.site_id)
            if expected is not None and len(self._round.models) >= expected:
                self._commit_round()
        else:
            self._model_dirty = True
            if expected is not None and len(self.server.local_models) >= expected:
                self._build_global_model()

    # ------------------------------------------------------------------
    # streaming sessions
    # ------------------------------------------------------------------
    def _commit_event(self, round_index: int) -> asyncio.Event:
        if round_index not in self._commit_events:
            self._commit_events[round_index] = asyncio.Event()
        return self._commit_events[round_index]

    def _open_round(self, round_index: int) -> tuple[wire.FrameKind, bytes]:
        """Handle ROUND_OPEN (idempotent for the currently open round)."""
        if self._round is not None:
            if round_index == self._round.index:
                return wire.FrameKind.ACK, self._status(
                    "round_open", f"round {round_index} already open"
                )
            return wire.FrameKind.ERROR, self._status(
                "bad_round",
                f"round {self._round.index} is open; cannot open "
                f"{round_index}",
            )
        if self._session_active and 0 <= round_index < self._rounds_committed:
            # A reconnecting worker may re-open a round that committed
            # while its ACK was lost (crash or restart window): answer
            # idempotently — its submit dedupes, its delta replays.
            return wire.FrameKind.ACK, self._status(
                "round_committed", f"round {round_index} already committed"
            )
        if round_index != self._rounds_committed:
            return wire.FrameKind.ERROR, self._status(
                "bad_round",
                f"next round is {self._rounds_committed}, got {round_index}",
            )
        if not self._session_active and self.server.local_models:
            # One-shot uploads already landed: a session cannot retrofit
            # round semantics onto them.
            return wire.FrameKind.ERROR, self._status(
                "bad_round",
                "models were admitted outside a session; restart the "
                "service to stream",
            )
        if self._journal is not None:
            self._journal.append(
                journal.RecordKind.ROUND_OPEN,
                journal.encode_round_marker(round_index),
            )
            self._journal_metrics()
        self._session_active = True
        self._round = _StreamRound(
            index=round_index, opened_at_s=self.uptime_s
        )
        self.metrics.inc("service.rounds_opened")
        return wire.FrameKind.ACK, self._status(
            "round_open", f"round {round_index} open"
        )

    def _commit_round(self) -> None:
        """Commit the open round into the session model.

        The round core builds round 0 — the sorted build a one-shot
        deployment uses — and folds every later round's models (sorted by
        effective site id) into the session model incrementally;
        ``eps_global`` freezes at the round-0 radius.
        """
        round_ = self._round
        assert round_ is not None
        commit_start = time.perf_counter()
        if self._journal is not None:
            # Journal the commit decision before applying it: a crash
            # mid-apply replays the commit record and re-derives the
            # exact same fold (replay runs this very method).
            self._journal.append(
                journal.RecordKind.ROUND_COMMIT,
                journal.encode_round_marker(round_.index),
            )
        self.core.commit(round_.models)
        self.metrics.set("service.model_builds", self.core.n_builds)
        self.metrics.set("service.model_repairs", self.core.n_repairs)
        self._rounds_committed = round_.index + 1
        self._round = None
        self._built.set()
        self._commit_event(round_.index).set()
        self.metrics.set("service.rounds_committed", self._rounds_committed)
        if self._journal is not None:
            # Commit boundaries are the journal's safe points: no round
            # is open, so the snapshot captures a consistent prefix.
            self._journal.maybe_compact()
            self._journal_metrics()
        if self.tracer.enabled:
            self.tracer.record(
                "round_commit",
                wall_start=commit_start,
                wall_end=time.perf_counter(),
                attrs={
                    "process": "server",
                    "round": round_.index,
                    "n_models": len(round_.models),
                },
            )

    def _handle_round_commit(
        self, round_index: int
    ) -> tuple[wire.FrameKind, bytes]:
        """Handle an explicit ROUND_COMMIT (degraded/partial rounds)."""
        if self._round is not None and round_index == self._round.index:
            self._commit_round()
            return wire.FrameKind.ACK, self._status(
                "round_committed", f"round {round_index} committed"
            )
        if round_index < self._rounds_committed:
            return wire.FrameKind.ACK, self._status(
                "round_committed", f"round {round_index} already committed"
            )
        open_index = self._round.index if self._round is not None else None
        return wire.FrameKind.ERROR, self._status(
            "bad_round",
            f"cannot commit round {round_index} (open: {open_index}, "
            f"committed: {self._rounds_committed})",
        )

    async def _wait_or_shutdown(
        self, event: asyncio.Event, timeout_s: float
    ) -> str:
        """Wait for ``event``, racing graceful shutdown.

        Returns ``"ready"``, ``"shutting_down"`` or ``"timeout"`` — the
        waiter is never torn down by bare cancellation while the service
        stops; it gets the verdict and replies before its connection
        closes (counted in ``service.shutdown_notices``).
        """
        if event.is_set():
            return "ready"
        if self._shutdown.is_set():
            return "shutting_down"
        waiters = [
            asyncio.ensure_future(event.wait()),
            asyncio.ensure_future(self._shutdown.wait()),
        ]
        try:
            await asyncio.wait(
                waiters,
                timeout=max(timeout_s, 0.0),
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            for waiter in waiters:
                waiter.cancel()
            await asyncio.gather(*waiters, return_exceptions=True)
        if event.is_set():
            return "ready"
        if self._shutdown.is_set():
            return "shutting_down"
        return "timeout"

    def _shutdown_notice(self) -> tuple[wire.FrameKind, bytes]:
        """The typed frame an in-flight waiter receives at shutdown."""
        self._n_shutdown_notices += 1
        self.metrics.set("service.shutdown_notices", self._n_shutdown_notices)
        return wire.FrameKind.ERROR, self._status(
            "shutting_down", "service is stopping; no model will be built"
        )

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        cap = self.config.max_connections
        if cap is not None and len(self._connections) >= cap:
            self._n_connections_refused += 1
            self.metrics.set(
                "service.connections_refused", self._n_connections_refused
            )
            task = asyncio.ensure_future(self._refuse_connection(writer))
        else:
            task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _refuse_connection(self, writer: asyncio.StreamWriter) -> None:
        """Turn one connection away with a typed ``overloaded`` frame —
        never a silent drop, so the client backs off instead of hanging."""
        try:
            await self._reply(
                writer,
                wire.FrameKind.ERROR,
                self._status(
                    "overloaded",
                    f"{len(self._connections)} connections active "
                    f"(cap {self.config.max_connections})",
                    retry_after=True,
                ),
            )
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _should_shed(self, kind: wire.FrameKind) -> bool:
        """Whether one more request of ``kind`` exceeds the admission cap.

        Only *work* kinds count toward (and against) the in-flight
        budget: parked AWAIT_GLOBAL / MODEL_DELTA waiters hold no CPU
        and shedding on them would deadlock sessions whose workers park
        while their peers still need to submit.
        """
        cap = self.config.max_inflight_requests
        return (
            cap is not None and kind in _WORK_KINDS and self._inflight >= cap
        )

    async def _read_frame(self, reader: asyncio.StreamReader) -> wire.Frame | None:
        """Read one frame under the per-connection deadline.

        The deadline is a single budget for the *whole* frame: the
        payload read only gets whatever the header read left over, so a
        client dribbling bytes cannot hold the connection longer than
        ``idle_timeout_s`` per frame.

        Returns ``None`` on clean EOF.  Raises :class:`wire.WireError`
        on protocol violations and :class:`asyncio.TimeoutError` when
        the frame deadline passes.
        """
        loop = asyncio.get_event_loop()
        deadline = loop.time() + self.config.idle_timeout_s
        try:
            header = await asyncio.wait_for(
                reader.readexactly(wire.HEADER_SIZE), self.config.idle_timeout_s
            )
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None  # clean EOF between frames
            raise wire.FrameTruncated(
                f"connection closed mid-header ({len(error.partial)} bytes)"
            ) from error
        # Validate the header (magic/version/kind/length) before reading
        # the payload; CRC verdicts are delegated to the handlers so a
        # corrupt upload can be quarantined instead of dropped.
        try:
            frame, __ = wire.decode_frame(
                header,
                max_payload=self.config.max_frame_bytes,
                verify_crc=False,
            )
            return frame  # zero-payload frame: already complete
        except wire.FrameTruncated:
            pass  # header valid, payload still on the wire
        declared = wire.declared_payload_len(header)
        try:
            payload = await asyncio.wait_for(
                reader.readexactly(declared), max(deadline - loop.time(), 0.0)
            )
        except asyncio.IncompleteReadError as error:
            raise wire.FrameTruncated(
                f"connection closed mid-payload "
                f"({len(error.partial)}/{declared} bytes)"
            ) from error
        frame, __ = wire.decode_frame(
            header + payload,
            max_payload=self.config.max_frame_bytes,
            verify_crc=False,
        )
        return frame

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.inc("service.connections")
        try:
            while not self._shutdown.is_set():
                try:
                    frame = await self._read_frame(reader)
                except asyncio.TimeoutError:
                    self.metrics.inc("service.connection_deadline_closes")
                    break
                except wire.WireError as error:
                    self.metrics.inc("service.frame_errors")
                    await self._reply(
                        writer,
                        wire.FrameKind.ERROR,
                        self._status("protocol_error", str(error)),
                    )
                    break
                if frame is None:
                    break
                recv_wall = time.perf_counter()
                self._frames_total += 1
                kind_label = frame.kind.name.lower()
                self.metrics.inc(f"service.frames[{kind_label}]")
                # Payload bytes only — the accounting SimulatedNetwork
                # keeps in bytes_by_kind, so both backends reconcile.
                self.metrics.inc(
                    f"service.frame_bytes_received[{kind_label}]",
                    len(frame.payload),
                )
                self.metrics.observe(
                    f"service.request_payload_bytes[{kind_label}]",
                    float(len(frame.payload)),
                )
                if self._should_shed(frame.kind):
                    # Bounded admission: shed with a typed reply and a
                    # retry hint — the connection stays open, nothing
                    # queues unboundedly, nothing hangs.
                    self._n_load_shed += 1
                    self.metrics.inc(f"service.load_shed[{kind_label}]")
                    self.metrics.set(
                        "service.overloaded_replies", self._n_load_shed
                    )
                    await self._reply(
                        writer,
                        wire.FrameKind.ERROR,
                        self._status(
                            "overloaded",
                            f"{self._inflight} requests in flight "
                            f"(cap {self.config.max_inflight_requests})",
                            retry_after=True,
                        ),
                    )
                    continue
                # Mark this connection busy while a request is in flight:
                # stop() waits for busy connections (grace-bounded) so a
                # released waiter can flush its shutting_down frame
                # instead of being torn down mid-write.
                task = asyncio.current_task()
                assert task is not None
                work = frame.kind in _WORK_KINDS
                if work:
                    self._inflight += 1
                self._busy.add(task)
                try:
                    kind, payload = await self._dispatch(frame, recv_wall)
                    await self._reply(writer, kind, payload)
                finally:
                    self._busy.discard(task)
                    if work:
                        self._inflight -= 1
                if frame.kind == wire.FrameKind.SHUTDOWN:
                    self.request_stop()
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _reply(
        self, writer: asyncio.StreamWriter, kind: wire.FrameKind, payload: bytes
    ) -> None:
        # Count before writing: a client that has read the reply must be
        # able to observe the counter (payload bytes, the accounting
        # SimulatedNetwork keeps in bytes_by_kind).
        self.metrics.inc(
            f"service.frame_bytes_sent[{kind.name.lower()}]", len(payload)
        )
        writer.write(wire.encode_frame(kind, payload, site_id=wire.SERVER_ID))
        await writer.drain()

    async def _dispatch(
        self, frame: wire.Frame, recv_wall: float
    ) -> tuple[wire.FrameKind, bytes]:
        """Answer one request frame; always returns a response frame.

        ``recv_wall`` is the ``perf_counter`` read taken right after the
        frame was read off the wire — it anchors per-kind latency
        histograms and the clock-sync handshake's receive stamp.
        """
        try:
            result = await self._dispatch_inner(frame, recv_wall)
        except wire.WireError as error:
            self.metrics.inc("service.frame_errors")
            result = wire.FrameKind.ERROR, self._status(
                "bad_request", str(error)
            )
        except Exception as error:  # never let one request kill the loop
            self.metrics.inc("service.internal_errors")
            result = wire.FrameKind.ERROR, self._status(
                "internal_error", f"{type(error).__name__}: {error}"
            )
        self.metrics.observe(
            f"service.dispatch_seconds[{frame.kind.name.lower()}]",
            time.perf_counter() - recv_wall,
        )
        return result

    def _context_attrs(self, frame: wire.Frame) -> dict:
        """Trace-context span attributes from a version-2 frame (the
        caller guards on ``self.tracer.enabled``)."""
        attrs: dict = {}
        if frame.context is not None:
            attrs["trace_id"] = f"{frame.context.trace_id:032x}"
            attrs["parent_span_id"] = f"{frame.context.span_id:016x}"
        return attrs

    async def _dispatch_inner(
        self, frame: wire.Frame, recv_wall: float
    ) -> tuple[wire.FrameKind, bytes]:
        kind = frame.kind
        if kind == wire.FrameKind.LOCAL_MODEL:
            if self._session_active and frame.crc_ok:
                peeked = wire.peek_local_model_site(frame.payload)
                if peeked is not None and peeked in self._session_site_ids:
                    # Idempotent resubmission: the model was journaled
                    # and admitted before a crash/disconnect ate the
                    # ACK — re-acknowledge without re-admitting.
                    self._n_duplicate_uploads += 1
                    self.metrics.set(
                        "service.duplicate_uploads", self._n_duplicate_uploads
                    )
                    return wire.FrameKind.ACK, self._status(
                        "admitted",
                        f"duplicate upload from site {peeked} ignored",
                    )
            if self._session_active and self._round is None:
                return wire.FrameKind.ERROR, self._status(
                    "no_round_open",
                    "streaming session active; send ROUND_OPEN first",
                )
            round_index = self._round.index if self._round is not None else None
            verdict, detail = self._admit(frame)
            if self.tracer.enabled:
                attrs = {
                    "process": "server",
                    "site": int(frame.site_id),
                    "verdict": verdict,
                    "payload_bytes": len(frame.payload),
                    **self._context_attrs(frame),
                }
                if round_index is not None:
                    attrs["round"] = round_index
                self.tracer.record(
                    "serve[local_model]",
                    wall_start=recv_wall,
                    wall_end=time.perf_counter(),
                    attrs=attrs,
                )
            status_kind = (
                wire.FrameKind.ACK if verdict == "admitted" else wire.FrameKind.ERROR
            )
            return status_kind, self._status(verdict, detail)
        if kind == wire.FrameKind.AWAIT_GLOBAL:
            timeout = min(
                wire.decode_await_global(frame.payload),
                self.config.await_timeout_cap_s,
            )
            # With expected_sites configured the protocol is round-based:
            # an awaiting site must see the *round's* model, never one
            # eagerly built from whichever uploads happened to be first —
            # that is the determinism the bit-identity tests pin.  Without
            # expected_sites, wait only when nothing was ever admitted.
            round_pending = (
                self.config.expected_sites is not None
                or not self.server.local_models
            )
            if round_pending and not self._built.is_set():
                outcome = await self._wait_or_shutdown(self._built, timeout)
                if outcome == "shutting_down":
                    return self._shutdown_notice()
                if outcome == "timeout":
                    return wire.FrameKind.ERROR, self._status(
                        "no_model", f"no global model after {timeout:.3f}s"
                    )
            model = self._current_model()
            assert model is not None
            return wire.FrameKind.GLOBAL_MODEL, wire.encode_global_model(model)
        if kind == wire.FrameKind.ROUND_OPEN:
            return self._open_round(wire.decode_round_open(frame.payload))
        if kind == wire.FrameKind.ROUND_COMMIT:
            return self._handle_round_commit(
                wire.decode_round_commit(frame.payload)
            )
        if kind == wire.FrameKind.MODEL_DELTA:
            round_index, known_reps, timeout_s = wire.decode_delta_request(
                frame.payload
            )
            timeout = min(timeout_s, self.config.await_timeout_cap_s)
            outcome = await self._wait_or_shutdown(
                self._commit_event(round_index), timeout
            )
            if outcome == "shutting_down":
                return self._shutdown_notice()
            if outcome == "timeout":
                return wire.FrameKind.ERROR, self._status(
                    "no_model",
                    f"round {round_index} not committed after {timeout:.3f}s",
                )
            model = self.core.model
            if model is None:
                return wire.FrameKind.ERROR, self._status(
                    "no_model", "session has no committed model"
                )
            if not 0 <= known_reps <= len(model.representatives):
                return wire.FrameKind.ERROR, self._status(
                    "bad_delta",
                    f"known_reps {known_reps} out of range "
                    f"[0, {len(model.representatives)}]",
                )
            encode_start = time.perf_counter()
            delta = wire.delta_from_model(model, known_reps)
            payload = wire.encode_model_delta(delta)
            if self.tracer.enabled:
                # Covers the delta encode only — the wait before it is
                # the *client's* await_delta time, not server work.
                self.tracer.record(
                    "serve[model_delta]",
                    wall_start=encode_start,
                    wall_end=time.perf_counter(),
                    attrs={
                        "process": "server",
                        "site": int(frame.site_id),
                        "round": round_index,
                        "waited_s": encode_start - recv_wall,
                        "payload_bytes": len(payload),
                        **self._context_attrs(frame),
                    },
                )
            return wire.FrameKind.MODEL_DELTA, payload
        if kind == wire.FrameKind.LABEL_QUERY:
            points = wire.decode_points(frame.payload)
            model = self._current_model()
            if model is None:
                return wire.FrameKind.ERROR, self._status(
                    "no_model", "no local model admitted yet"
                )
            try:
                points = check_query_points(points, model)
            except ValueError as error:
                self.metrics.inc("service.frame_errors")
                return wire.FrameKind.ERROR, self._status("bad_request", str(error))
            start = time.perf_counter()
            # Pure-coverage relabel (no local clustering to inherit from)
            # on a model snapshot, off the loop thread.
            labels, __stats = await asyncio.get_event_loop().run_in_executor(
                None,
                partial(
                    relabel_site,
                    points,
                    np.full(points.shape[0], NOISE, dtype=np.intp),
                    model,
                    site_id=None,
                    metric=self.config.metric,
                    kernel=self.config.relabel_kernel,
                ),
            )
            self.metrics.observe(
                "service.label_query_seconds", time.perf_counter() - start
            )
            self.metrics.inc("service.labels_served", int(labels.size))
            return wire.FrameKind.LABEL_REPLY, wire.encode_labels(labels)
        if kind == wire.FrameKind.TRACE_UPLOAD:
            document = wire.decode_json(frame.payload)
            if document.get("probe"):
                # Clock-sync handshake: echo the server's receive/send
                # perf_counter stamps so the client can estimate the
                # offset NTP-style.
                return wire.FrameKind.TRACE_REPLY, wire.encode_json(
                    {
                        "server_recv_wall": recv_wall,
                        "server_send_wall": time.perf_counter(),
                    }
                )
            required = ("process", "wall_origin", "clock_offset_s", "spans")
            missing = [key for key in required if key not in document]
            if missing:
                return wire.FrameKind.ERROR, self._status(
                    "bad_trace", f"trace upload missing keys {missing}"
                )
            self._remote_traces.append(document)
            self.metrics.inc("service.trace_uploads")
            return wire.FrameKind.ACK, self._status(
                "trace_recorded",
                f"{len(document['spans'])} root spans from "
                f"{document['process']}",
            )
        if kind == wire.FrameKind.HEALTH:
            return wire.FrameKind.HEALTH_REPLY, wire.encode_json(self.health())
        if kind == wire.FrameKind.METRICS:
            text = render_registry(self.metrics.to_dict())
            return wire.FrameKind.METRICS_REPLY, text.encode("utf-8")
        if kind == wire.FrameKind.SHUTDOWN:
            return wire.FrameKind.ACK, self._status("shutting_down")
        return wire.FrameKind.ERROR, self._status(
            "unexpected_frame", f"cannot serve {kind.name} requests"
        )

    def health(self) -> dict:
        """The service's health document (HEALTH frames serve this)."""
        built = self._built.is_set() and not self._model_dirty
        return {
            "status": "serving" if not self._shutdown.is_set() else "stopping",
            "uptime_s": round(self.uptime_s, 6),
            "sites_admitted": len(self.server.local_models),
            "sites_quarantined": len(self.server.quarantined_models),
            "sites_rejected": len(self.server.rejected_models),
            "expected_sites": self.config.expected_sites,
            "quorum_met": self.server.quorum_met,
            "model_built": built,
            "model_builds": self.core.n_builds,
            "n_representatives": len(self.core.model) if built else 0,
            "connections_active": len(self._connections),
            "frames_total": self._frames_total,
            "protocol_version": wire.PROTOCOL_VERSION,
            "session_active": self._session_active,
            "rounds_committed": self._rounds_committed,
            "round_open": (
                self._round.index if self._round is not None else None
            ),
            "shutdown_notices": self._n_shutdown_notices,
            "trace_uploads": len(self._remote_traces),
            "epoch": self._epoch,
            "journal_enabled": self._journal is not None,
            "recovered_models": self._recovered_models,
            "duplicate_uploads": self._n_duplicate_uploads,
            "load_shed": self._n_load_shed,
            "connections_refused": self._n_connections_refused,
        }

    # ------------------------------------------------------------------
    # distributed-trace merge
    # ------------------------------------------------------------------
    def merged_trace_document(self) -> dict:
        """One trace document covering every process of the session.

        The server's own spans form the base document; each
        ``TRACE_UPLOAD`` forest is shifted onto the server's timeline
        (remote origin + estimated clock offset − server origin), its
        roots stamped with ``process``/``site`` attributes so the
        Chrome export gives every remote process its own pid lane, and
        the top-level ``processes`` map records the per-connection
        clock-offset estimates.
        """
        doc = trace_document(self.tracer, self.metrics)
        processes: dict[str, dict] = {
            "server": {
                "site": None,
                "clock_offset_s": 0.0,
                "rtt_s": 0.0,
                "n_spans": len(self.tracer.roots),
            }
        }
        for upload in self._remote_traces:
            delta = (
                float(upload["wall_origin"])
                + float(upload["clock_offset_s"])
                - self.tracer.wall_origin
            )
            process = str(upload["process"])
            site = upload.get("site")
            for root in upload["spans"]:
                shifted = shift_span_times(root, delta)
                attrs = dict(shifted.get("attrs", {}))
                attrs.setdefault("process", process)
                if site is not None:
                    attrs.setdefault("site", int(site))
                shifted["attrs"] = attrs
                doc["spans"].append(shifted)
            entry = processes.setdefault(
                process,
                {
                    "site": int(site) if site is not None else None,
                    "clock_offset_s": float(upload["clock_offset_s"]),
                    "rtt_s": float(upload.get("rtt_s", 0.0)),
                    "n_spans": 0,
                },
            )
            entry["n_spans"] += len(upload["spans"])
        doc["processes"] = processes
        return doc

    # ------------------------------------------------------------------
    # HTTP metrics endpoint
    # ------------------------------------------------------------------
    async def _on_http_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One-shot plaintext HTTP: GET /metrics serves OpenMetrics."""
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), self.config.idle_timeout_s
            )
            # Drain headers until the blank line; ignore their content.
            while True:
                line = await asyncio.wait_for(
                    reader.readline(), self.config.idle_timeout_s
                )
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else ""
            if parts and parts[0] == "GET" and path.split("?")[0] in (
                "/metrics",
                "/metrics/",
            ):
                self.metrics.inc("service.metrics_scrapes")
                body = render_registry(self.metrics.to_dict()).encode("utf-8")
                status = "200 OK"
                content_type = OPENMETRICS_CONTENT_TYPE
            else:
                body = b"only GET /metrics is served\n"
                status = "404 Not Found"
                content_type = "text/plain; charset=utf-8"
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


def _placeholder_model(site_id: int):
    """A minimal stand-in for an upload that would not even decode, so
    the quarantine bookkeeping can still name the offending site."""
    from repro.core.models import LocalModel

    return LocalModel(
        site_id=max(int(site_id), 0),
        representatives=[],
        n_objects=0,
        scheme="unknown",
        eps_local=0.0,
        min_pts_local=0,
    )


def _decode_or_placeholder(frame: wire.Frame):
    try:
        return wire.decode_local_model(frame.payload)
    except wire.WireError:
        return _placeholder_model(frame.site_id)


@dataclass
class ServiceHandle:
    """A :class:`DBDCService` running on a dedicated thread's event loop.

    The synchronous world (tests, the bench, the CLI) starts the service
    with :meth:`start`, talks to ``host:port`` with blocking clients,
    and tears it down with :meth:`stop`.  The handle surfaces any
    exception the service thread died with.
    """

    service: DBDCService
    host: str = ""
    port: int = 0
    metrics_port: int | None = None
    _thread: threading.Thread | None = None
    _loop: asyncio.AbstractEventLoop | None = None
    _ready: threading.Event = field(default_factory=threading.Event)
    _error: BaseException | None = None
    _killed: bool = False

    @classmethod
    def start(
        cls,
        config: ServiceConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        tracer=None,
        timeout_s: float = 10.0,
    ) -> "ServiceHandle":
        """Boot a service thread and block until it is accepting."""
        handle = cls(service=DBDCService(config, metrics=metrics, tracer=tracer))
        handle._thread = threading.Thread(
            target=handle._thread_main, name="dbdc-service", daemon=True
        )
        handle._thread.start()
        if not handle._ready.wait(timeout_s):
            raise RuntimeError("DBDCService did not start in time")
        if handle._error is not None:
            raise RuntimeError("DBDCService failed to start") from handle._error
        return handle

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as error:  # surfaced via .stop()/start()
            # A hard kill() stops the loop dead, which asyncio.run
            # reports as a RuntimeError — that is the crash being
            # simulated, not a service failure to surface.
            if not self._killed:
                self._error = error
            self._ready.set()

    async def _serve(self) -> None:
        service = self.service
        await service.start()
        self._loop = asyncio.get_event_loop()
        self.host = service.config.host
        self.port = service.bound_port
        self.metrics_port = service.metrics_bound_port
        self._ready.set()
        await service._shutdown.wait()
        await service.stop()

    def merged_trace(self, timeout_s: float = 10.0) -> dict:
        """The merged distributed-trace document (thread-safe).

        While the service loop is running the merge executes *on* the
        loop (its state is loop-owned); after :meth:`stop` the thread is
        gone and the direct call is safe.
        """
        loop = self._loop
        if loop is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(
                self._merged_trace_on_loop(), loop
            )
            return future.result(timeout_s)
        return self.service.merged_trace_document()

    async def _merged_trace_on_loop(self) -> dict:
        return self.service.merged_trace_document()

    def kill(self, timeout_s: float = 10.0) -> None:
        """Hard-kill the service thread — a crash, not a shutdown.

        The event loop is stopped dead between callbacks: no drain, no
        shutdown notices, no journal compaction or close.  Connections
        are severed mid-whatever and clients see raw socket errors —
        exactly what a ``kill -9`` of a service process produces, which
        is what the crash-recovery tests simulate in-process.  The
        journal directory is left as the crash left it; a new
        :meth:`start` against the same directory replays it.
        """
        self._killed = True
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(loop.stop)
            except RuntimeError:
                pass  # loop already closed: the thread is on its way out
        if self._thread is not None:
            self._thread.join(timeout_s)
            if self._thread.is_alive():
                raise RuntimeError("DBDCService thread survived kill()")
        # A stopped-dead loop leaks its listening sockets (a real kill -9
        # would have the OS reclaim the fds).  Server.close() is safe on
        # a closed loop and closes the actual socket objects — closing
        # the raw fds instead would leave the dead objects believing
        # they still own those fd numbers and re-close them (possibly
        # recycled by a restarted server) at garbage collection.
        for listener in (
            self.service._asyncio_server,
            self.service._http_server,
        ):
            if listener is not None:
                try:
                    listener.close()
                except (OSError, RuntimeError):
                    pass

    def stop(self, timeout_s: float = 10.0) -> None:
        """Request shutdown and join the service thread."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self.service.request_stop)
            except RuntimeError:
                pass  # loop already closed between the check and the call
        if self._thread is not None:
            self._thread.join(timeout_s)
            if self._thread.is_alive():
                raise RuntimeError("DBDCService thread did not stop in time")
        if self._error is not None:
            raise RuntimeError("DBDCService thread failed") from self._error

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
