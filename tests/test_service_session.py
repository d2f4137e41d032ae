"""Streaming sessions over sockets vs the in-process oracle.

The load-bearing guarantee (ISSUE 8): an N-round (N >= 3) streaming
socket session — ROUND_OPEN, per-round uploads, MODEL_DELTA — produces
labels **bit-identical** to N sequential in-process incremental rounds
through :func:`~repro.distributed.streaming.run_streaming_session`.
Around it: the delta chain reconstructs exactly the model a full
AWAIT_GLOBAL fetch returns, and every round protocol violation surfaces
as a typed error (``bad_round`` / ``no_round_open`` / ``bad_delta``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.data.datasets import load_dataset
from repro.distributed.streaming import run_streaming_session
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceHandle,
    wire,
)
from repro.service.worker import run_site_worker_session

N_SITES = 2
N_ROUNDS = 3
SEED = 0


@pytest.fixture(scope="module")
def stream_workload():
    """Per-round batches + the in-process streaming oracle."""
    data = load_dataset("A", cardinality=480, seed=SEED)
    points = data.points
    chunk = points.shape[0] // N_ROUNDS
    batches = []
    for round_index in range(N_ROUNDS):
        block = points[round_index * chunk : (round_index + 1) * chunk]
        batches.append([block[i::N_SITES] for i in range(N_SITES)])
    oracle = run_streaming_session(
        batches, eps_local=data.eps_local, min_pts_local=data.min_pts
    )
    return {"data": data, "batches": batches, "oracle": oracle}


@pytest.fixture(scope="module")
def socket_session(stream_workload):
    """One N-round streaming session over real sockets, both workers
    concurrent, plus the state an operator observes afterwards."""
    data = stream_workload["data"]
    results: dict[int, object] = {}

    def work(site_id: int) -> None:
        results[site_id] = run_site_worker_session(
            handle.host,
            handle.port,
            site_id,
            [stream_workload["batches"][r][site_id] for r in range(N_ROUNDS)],
            n_sites=N_SITES,
            eps_local=data.eps_local,
            min_pts_local=data.min_pts,
        )

    with ServiceHandle.start(
        ServiceConfig(expected_sites=N_SITES, metrics_port=None)
    ) as handle:
        threads = [
            threading.Thread(target=work, args=(site_id,))
            for site_id in range(N_SITES)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with ServiceClient(handle.host, handle.port) as client:
            health = client.health()
            full_model = client.await_global_model(timeout_s=5.0)
        gauges = handle.service.metrics.to_dict()["gauges"]
    return {
        "results": results,
        "health": health,
        "full_model": full_model,
        "gauges": gauges,
    }


class TestStreamingBitIdentity:
    def test_three_round_session_matches_in_process_rounds(
        self, stream_workload, socket_session
    ):
        """The pinned guarantee: every (round, site) label array from the
        socket session is bit-identical to the in-process oracle's."""
        oracle = stream_workload["oracle"]
        results = socket_session["results"]
        assert sorted(results) == list(range(N_SITES))
        for site_id, result in results.items():
            assert result.error == ""
            assert result.verdicts == ["admitted"] * N_ROUNDS
            assert result.n_rounds == N_ROUNDS
            assert len(result.labels) == N_ROUNDS
            for round_index in range(N_ROUNDS):
                assert np.array_equal(
                    result.labels[round_index],
                    oracle.labels[round_index][site_id],
                ), f"round {round_index}, site {site_id} labels diverge"

    def test_final_session_model_matches_oracle(
        self, stream_workload, socket_session
    ):
        oracle = stream_workload["oracle"]
        for result in socket_session["results"].values():
            model = result.model
            assert model is not None
            assert model.eps_global == oracle.model.eps_global
            assert np.array_equal(
                model.global_labels, oracle.model.global_labels
            )
            assert len(model.representatives) == len(
                oracle.model.representatives
            )
            for a, b in zip(
                model.representatives, oracle.model.representatives
            ):
                assert a.site_id == b.site_id
                assert a.local_cluster_id == b.local_cluster_id
                assert np.array_equal(a.point, b.point)

    def test_delta_chain_equals_full_fetch(self, socket_session):
        """A fresh AWAIT_GLOBAL fetch returns exactly the model the
        per-round MODEL_DELTA chain assembled client-side."""
        full = socket_session["full_model"]
        for result in socket_session["results"].values():
            assert np.array_equal(
                full.global_labels, result.model.global_labels
            )
            assert len(full.representatives) == len(
                result.model.representatives
            )

    def test_session_bookkeeping(self, stream_workload, socket_session):
        health = socket_session["health"]
        assert health["session_active"] is True
        assert health["rounds_committed"] == N_ROUNDS
        assert health["round_open"] is None
        gauges = socket_session["gauges"]
        assert gauges["service.rounds_committed"] == N_ROUNDS
        # Rounds beyond the first repair once per admitted model.
        oracle = stream_workload["oracle"]
        assert oracle.n_repairs == (N_ROUNDS - 1) * N_SITES
        assert gauges["service.model_repairs"] == oracle.n_repairs


class TestRoundProtocolErrors:
    def test_opening_the_wrong_round_is_bad_round(self):
        with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.open_round(2)
                assert excinfo.value.status == "bad_round"

    def test_upload_outside_an_open_round_is_typed(self):
        with ServiceHandle.start(
            ServiceConfig(expected_sites=1, metrics_port=None)
        ) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.open_round(0) == "round_open"
                # expected_sites=1: this upload auto-commits round 0.
                assert client.submit(_tiny_model(0)) == "admitted"
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(_tiny_model(1))
                assert excinfo.value.status == "no_round_open"

    def test_session_cannot_retrofit_one_shot_uploads(self):
        with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.submit(_tiny_model(0)) == "admitted"
                with pytest.raises(ServiceError) as excinfo:
                    client.open_round(0)
                assert excinfo.value.status == "bad_round"

    def test_explicit_commit_closes_a_partial_round(self):
        """Without ``expected_sites`` a round only closes on an explicit
        ROUND_COMMIT — the degraded path when some sites are known lost."""
        with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.open_round(0) == "round_open"
                assert client.open_round(0) == "round_open"  # idempotent
                assert client.submit(_tiny_model(0)) == "admitted"
                with pytest.raises(ServiceError) as excinfo:
                    client.commit_round(1)
                assert excinfo.value.status == "bad_round"
                assert client.commit_round(0) == "round_committed"
                assert client.commit_round(0) == "round_committed"  # idem.
                model = client.await_model_delta(0, None, timeout_s=5.0)
                assert len(model.representatives) == 1

    def test_delta_claiming_unknown_reps_is_bad_delta(self):
        with ServiceHandle.start(
            ServiceConfig(expected_sites=1, metrics_port=None)
        ) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.open_round(0) == "round_open"
                assert client.submit(_tiny_model(0)) == "admitted"
                with pytest.raises(ServiceError) as excinfo:
                    client.transport.request(
                        wire.FrameKind.MODEL_DELTA,
                        wire.encode_delta_request(0, 50, 1.0),
                    )
                assert excinfo.value.status == "bad_delta"

    def test_delta_for_uncommitted_round_times_out_typed(self):
        with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.await_model_delta(0, None, timeout_s=0.1)
                assert excinfo.value.status == "no_model"


class TestLabelQueriesFollowTheCommittedModel:
    def test_queries_after_commit_and_after_replay_use_the_new_model(
        self, tmp_path
    ):
        """Label queries answer from a coverage index cached on the model
        object; a round commit and a journal replay both install a new
        model, so neither may answer from the previous model's index."""
        from repro.clustering.labels import NOISE
        from repro.core.relabel import relabel_site_reference

        config = ServiceConfig(metrics_port=None, journal_dir=str(tmp_path))
        queries = np.asarray([[0.0, 0.5], [10.0, 0.5]])

        def expected(model):
            noise = np.full(queries.shape[0], NOISE, dtype=np.intp)
            return relabel_site_reference(queries, noise, model)[0]

        with ServiceHandle.start(config) as handle:
            for round_index, site_id, point in ((0, 0, (0.0, 0.0)), (1, 1, (10.0, 0.0))):
                with ServiceClient(
                    handle.host, handle.port, site_id=site_id
                ) as client:
                    assert client.open_round(round_index) == "round_open"
                    assert client.submit(_tiny_model(site_id, point)) == "admitted"
                    assert client.commit_round(round_index) == "round_committed"
                    served = client.query(queries)
                    model = client.await_model_delta(round_index, None, timeout_s=5.0)
                np.testing.assert_array_equal(served, expected(model))
                # Round 0 covers only the first query, round 1 both.
                assert (served != NOISE).tolist() == [True, round_index == 1]
        with ServiceHandle.start(config) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                replayed = client.query(queries)
        np.testing.assert_array_equal(replayed, served)


def _tiny_model(site_id: int, point=(0.0, 0.0)):
    from repro.core.models import LocalModel, Representative

    return LocalModel(
        site_id=site_id,
        representatives=[
            Representative(
                point=np.asarray(point, dtype=float),
                eps_range=1.0,
                site_id=site_id,
                local_cluster_id=0,
            )
        ],
        n_objects=1,
        scheme="rep_scor",
        eps_local=1.0,
        min_pts_local=1,
    )
