"""The central server: collects local models, builds the global model.

Two server flavors are provided:

* :class:`CentralServer` — the paper's mainline: wait for all local models,
  run DBSCAN(``Eps_global``, ``MinPts_global = 2``) over the union of
  representatives once.
* :class:`IncrementalServer` — the extension Section 6 motivates ("the
  incremental version of DBSCAN allows us to start with the construction of
  the global model after the first representatives of any local model come
  in"): representatives are inserted into an incremental DBSCAN as they
  arrive, so a consistent global model is available at any time.
"""

from __future__ import annotations

import time

from repro.clustering.incremental import IncrementalDBSCAN
from repro.core.global_model import (
    MIN_PTS_GLOBAL,
    GlobalClusteringStats,
    build_global_model,
)
from repro.core.models import GlobalModel, LocalModel, Representative
from repro.data.distance import Metric, get_metric

__all__ = ["CentralServer", "IncrementalServer"]


class CentralServer:
    """Batch server: one global clustering after all models arrived.

    The degraded-mode extension adds a *deadline + quorum* admission
    policy: models that arrive (in simulated time) after ``deadline_s``
    are rejected, and :attr:`quorum_met` reports whether enough of the
    ``expected_sites`` made it.  The server always builds the global model
    from whichever models were admitted — the paper's server "clusters
    whatever representatives it receives" — the policy only *classifies*
    the round as degraded or not.  Defaults keep the legacy behavior: no
    deadline, no quorum.

    Args:
        eps_global: merge radius; ``None`` → the paper's default (max ε_r).
        metric: distance metric.
        index_kind: neighbor index for the server-side DBSCAN.
        deadline_s: simulated-time admission deadline (``None`` = never
            reject).
        quorum: minimum fraction of expected sites that must be admitted
            for the round to count as healthy (``0`` = any).
        expected_sites: how many sites should report (``None`` → inferred
            from the models seen, admitted or rejected).
        metrics: optional :class:`~repro.obs.MetricsRegistry`; admission
            decisions and the global build record ``server.*`` metrics.
    """

    def __init__(
        self,
        eps_global: float | None = None,
        *,
        metric: str | Metric = "euclidean",
        index_kind: str = "auto",
        deadline_s: float | None = None,
        quorum: float = 0.0,
        expected_sites: int | None = None,
        metrics=None,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        if not 0.0 <= quorum <= 1.0:
            raise ValueError(f"quorum must be in [0, 1], got {quorum}")
        self.eps_global = eps_global
        self.metric = get_metric(metric)
        self.index_kind = index_kind
        self.deadline_s = deadline_s
        self.quorum = quorum
        self.expected_sites = expected_sites
        self.metrics = metrics
        self.local_models: list[LocalModel] = []
        self.rejected_models: list[LocalModel] = []
        # (model, reason) pairs the integrity gate refused — corrupt
        # payloads and semantically invalid models never reach the global
        # DBSCAN; the runner turns them into recovery candidates.
        self.quarantined_models: list[tuple[LocalModel, str]] = []
        # Wall-clock seconds of the global DBSCAN (perf_counter delta).
        self.global_seconds = 0.0
        self._model: GlobalModel | None = None
        self._stats: GlobalClusteringStats | None = None

    def quarantine(self, model: LocalModel, reason: str) -> None:
        """Park a model the integrity gate refused (never merged)."""
        self.quarantined_models.append((model, reason))
        if self.metrics is not None:
            self.metrics.inc("server.models_quarantined")

    def admit(
        self,
        model: LocalModel,
        *,
        arrival_s: float = 0.0,
        checksum_ok: bool = True,
        enforce_deadline: bool = True,
    ) -> str:
        """Run the full admission gate on one local model.

        Order matters: integrity first (a corrupt payload must not count
        as a deadline miss — it is poison regardless of when it arrived),
        then the round deadline.  Admission *at* the deadline succeeds;
        only strictly later arrivals are rejected (``arrival_s >
        deadline_s``, pinned by the round-policy edge-case tests).

        Args:
            model: the site's local model.
            arrival_s: simulated arrival time.
            checksum_ok: whether the transport's CRC check passed.
            enforce_deadline: apply the round deadline (recovery rounds
                run their own per-round deadline and disable this one).

        Returns:
            ``"admitted"``, ``"quarantined"`` or ``"deadline_missed"``.
        """
        if not checksum_ok:
            self.quarantine(model, "checksum_mismatch")
            return "quarantined"
        problems = model.validate()
        if problems:
            self.quarantine(model, "; ".join(problems))
            return "quarantined"
        if (
            enforce_deadline
            and self.deadline_s is not None
            and arrival_s > self.deadline_s
        ):
            self.rejected_models.append(model)
            if self.metrics is not None:
                self.metrics.inc("server.models_rejected")
            return "deadline_missed"
        self.local_models.append(model)
        self._model = None  # a new admission invalidates any built model
        if self.metrics is not None:
            self.metrics.inc("server.models_admitted")
            self.metrics.observe(
                "server.representatives_per_model", len(model.representatives)
            )
        return "admitted"

    def receive_local_model(
        self, model: LocalModel, *, arrival_s: float = 0.0
    ) -> bool:
        """Store a site's local model (any arrival order).

        Args:
            model: the site's local model.
            arrival_s: simulated arrival time, checked against the
                deadline (irrelevant when no deadline is set).

        Returns:
            Whether the model was admitted into the round.
        """
        return self.admit(model, arrival_s=arrival_s) == "admitted"

    @property
    def admitted_site_ids(self) -> list[int]:
        """Sites whose models made the round, in arrival order."""
        return [model.site_id for model in self.local_models]

    @property
    def rejected_site_ids(self) -> list[int]:
        """Sites whose models missed the deadline, in arrival order."""
        return [model.site_id for model in self.rejected_models]

    @property
    def quarantined_site_ids(self) -> list[int]:
        """Sites whose models the integrity gate refused, in arrival order."""
        return [model.site_id for model, __ in self.quarantined_models]

    @property
    def quorum_met(self) -> bool:
        """Whether enough expected sites were admitted."""
        expected = self.expected_sites
        if expected is None:
            expected = len(self.local_models) + len(self.rejected_models)
        if expected == 0:
            return True
        return len(self.local_models) / expected >= self.quorum

    def build(self, *, allow_empty: bool = False) -> GlobalModel:
        """Step 3: cluster the admitted representatives into the global model.

        The admitted models are clustered in site-id order (a stable sort
        of a copy — :attr:`admitted_site_ids` keeps arrival order), so the
        model does not depend on which upload happened to arrive first.

        Args:
            allow_empty: return an empty global model instead of raising
                when no model was admitted (degraded-mode runs where every
                site failed).

        Returns:
            The :class:`~repro.core.models.GlobalModel` to broadcast.

        Raises:
            RuntimeError: when no local model has arrived and
                ``allow_empty`` is false.
        """
        if not self.local_models:
            if not allow_empty:
                raise RuntimeError("no local models received")
            self._model = GlobalModel(
                representatives=[],
                global_labels=[],
                eps_global=float(self.eps_global or 0.0),
            )
            self._stats = None
            self.global_seconds = 0.0
            return self._model
        start = time.perf_counter()
        self._model, self._stats = build_global_model(
            sorted(self.local_models, key=lambda model: model.site_id),
            eps_global=self.eps_global,
            metric=self.metric,
            index_kind=self.index_kind,
        )
        self.global_seconds = time.perf_counter() - start
        if self.metrics is not None:
            self.metrics.inc("server.builds")
            self.metrics.set("server.representatives", len(self._model))
            self.metrics.set(
                "server.global_build_wall_seconds", self.global_seconds
            )
        return self._model

    @property
    def model(self) -> GlobalModel:
        """The built global model (raises before :meth:`build`)."""
        if self._model is None:
            raise RuntimeError("global model has not been built yet")
        return self._model

    @property
    def stats(self) -> GlobalClusteringStats:
        """Server-side clustering statistics (raises before :meth:`build`)."""
        if self._stats is None:
            raise RuntimeError("global model has not been built yet")
        return self._stats


class IncrementalServer:
    """Streaming server: the global clustering is maintained as
    representatives arrive (incremental DBSCAN under the hood).

    Unlike :class:`CentralServer`, the merge radius must be fixed up front —
    the paper's ε_r-derived default needs all models, a streaming server
    cannot wait for them.  Use ``2·Eps_local`` (the paper's observed
    default) when in doubt.

    Args:
        eps_global: merge radius (required, positive).
        dim: representative dimensionality.
        metric: distance metric.
    """

    def __init__(
        self,
        eps_global: float,
        dim: int,
        *,
        metric: str | Metric = "euclidean",
    ) -> None:
        if eps_global <= 0:
            raise ValueError(f"eps_global must be positive, got {eps_global}")
        self.eps_global = float(eps_global)
        self.metric = get_metric(metric)
        self._incremental = IncrementalDBSCAN(
            eps_global, MIN_PTS_GLOBAL, dim, metric=self.metric
        )
        self._representatives: list[Representative] = []

    def receive_representative(self, rep: Representative) -> None:
        """Insert one representative into the evolving global clustering."""
        self._incremental.insert(rep.point)
        self._representatives.append(rep)

    def receive_local_model(self, model: LocalModel) -> None:
        """Insert all representatives of one local model."""
        for rep in model.representatives:
            self.receive_representative(rep)

    @property
    def n_representatives(self) -> int:
        """Representatives inserted so far."""
        return len(self._representatives)

    def snapshot(self) -> GlobalModel:
        """A consistent global model over everything received so far.

        DBSCAN-noise representatives are promoted to singleton clusters,
        exactly as in the batch server.

        Returns:
            A :class:`~repro.core.models.GlobalModel`.
        """
        labels = self._incremental.labels().copy()
        next_id = int(labels.max()) + 1 if (labels >= 0).any() else 0
        for i, label in enumerate(labels):
            if label < 0:
                labels[i] = next_id
                next_id += 1
        return GlobalModel(
            representatives=list(self._representatives),
            global_labels=labels,
            eps_global=self.eps_global,
            min_pts_global=MIN_PTS_GLOBAL,
        )
