"""The deterministic core of a DBDC round: admit, commit, committed model.

The simulated :class:`~repro.distributed.runner.DistributedRunner` and
the asyncio :class:`~repro.service.server.DBDCService` (live or replaying
its journal) both feed local models through a :class:`RoundCore`.  The
core does no I/O; the driver decides when a model arrives and when a
round commits.  Every round's models pass the
:class:`~repro.distributed.server.CentralServer` admission gate.  The
first commit builds the global model from every admitted model, sorted by
site id; later commits fold their round's models, in site-id order, into
it through :class:`~repro.core.global_model.GlobalModelRepairer` — except
onto a base without representatives, which has no radius worth keeping
and is rebuilt instead.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.global_model import GlobalModelRepairer
from repro.core.models import GlobalModel, LocalModel
from repro.data.distance import Metric
from repro.distributed.server import CentralServer

__all__ = ["RoundCore"]


class RoundCore:
    """Admission gate, build-or-repair commit and committed model.

    Args:
        eps_global: merge radius; ``None`` → the paper's default, frozen
            at the first build for every later fold.
        metric: distance metric.
        index_kind: neighbor index for the global DBSCAN.
        deadline_s: admission deadline of the current round, relative to
            the round start (``None`` = never reject); drivers may move
            it between rounds.
        quorum: minimum admitted fraction for a healthy round.
        expected_sites: sites one round should hear from.
        metrics: optional :class:`~repro.obs.MetricsRegistry` for the
            server's ``server.*`` metrics.
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
        self.server = CentralServer(
            eps_global,
            metric=metric,
            index_kind=index_kind,
            deadline_s=deadline_s,
            quorum=quorum,
            expected_sites=expected_sites,
            metrics=metrics,
        )
        #: The committed global model (``None`` before the first commit).
        self.model: GlobalModel | None = None
        #: Builds and incremental repairs performed so far.
        self.n_builds = 0
        self.n_repairs = 0
        self._repairer: GlobalModelRepairer | None = None

    def admit(
        self,
        model: LocalModel,
        *,
        arrival_s: float = 0.0,
        checksum_ok: bool = True,
        enforce_deadline: bool = True,
    ) -> str:
        """Run one local model through :meth:`CentralServer.admit`."""
        return self.server.admit(
            model,
            arrival_s=arrival_s,
            checksum_ok=checksum_ok,
            enforce_deadline=enforce_deadline,
        )

    def build(self) -> GlobalModel:
        """Build the committed model from every admitted model."""
        self.model = self.server.build(allow_empty=True)
        self._repairer = GlobalModelRepairer(self.model, metric=self.server.metric)
        self.n_builds += 1
        return self.model

    def commit(self, models: Sequence[LocalModel]) -> GlobalModel:
        """Commit one round whose admitted models are ``models``.

        Returns:
            The committed global model.
        """
        if self.model is None or (
            len(self.model) == 0
            and any(len(model.representatives) for model in models)
        ):
            return self.build()
        for model in sorted(models, key=lambda model: model.site_id):
            self.model, __ = self._repairer.add_model(model)
            self.n_repairs += 1
        return self.model
