"""Integration tests: the live socket service against the in-process oracle.

The load-bearing guarantee (ISSUE 7): a 4-site workload run over real
sockets — concurrent uploads, await-global, relabel — produces labels
**bit-identical** to the same seed/config run through
``SimulatedNetwork``/``DistributedRunner``.  Around it: the admission
gate quarantines corrupt frames instead of dropping connections, the
fault layer's ``ResilientTransport`` runs unchanged over the socket
transport, every protocol violation surfaces as a typed error, and the
HTTP endpoint serves strict-parseable OpenMetrics.
"""

from __future__ import annotations

import threading
import urllib.request

import numpy as np
import pytest

from repro.data.datasets import load_dataset
from repro.distributed.partition import partition, split
from repro.distributed.runner import DistributedRunConfig, DistributedRunner
from repro.faults import FaultPlan, ResilientTransport
from repro.obs.openmetrics import parse_openmetrics
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceHandle,
    SocketTransport,
    Transport,
    wire,
)
from repro.service.worker import run_site_worker

N_SITES = 4
SEED = 0


@pytest.fixture(scope="module")
def workload():
    """Data set + the in-process reference labels (the oracle)."""
    data = load_dataset("A", cardinality=600, seed=SEED)
    config = DistributedRunConfig(
        eps_local=data.eps_local, min_pts_local=data.min_pts, seed=SEED
    )
    report = DistributedRunner(config).run(data.points, N_SITES)
    assignment = partition(
        data.points, N_SITES, config.partition_strategy, SEED
    )
    return {
        "data": data,
        "assignment": assignment,
        "parts": split(data.points, assignment),
        "reference_labels": report.labels_in_original_order(),
        "reference_model": report.global_model,
    }


@pytest.fixture()
def service():
    handle = ServiceHandle.start(ServiceConfig(expected_sites=N_SITES))
    yield handle
    handle.stop()


def run_workers(handle, workload) -> dict:
    data = workload["data"]
    results: dict[int, object] = {}

    def work(site_id: int) -> None:
        results[site_id] = run_site_worker(
            handle.host,
            handle.port,
            site_id,
            workload["parts"][site_id],
            eps_local=data.eps_local,
            min_pts_local=data.min_pts,
        )

    threads = [
        threading.Thread(target=work, args=(site_id,))
        for site_id in range(N_SITES)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


class TestEndToEnd:
    def test_socket_run_is_bit_identical_to_in_process_run(
        self, service, workload
    ):
        results = run_workers(service, workload)
        assert sorted(results) == list(range(N_SITES))
        assert all(r.verdict == "admitted" for r in results.values())

        labels = np.empty(workload["data"].points.shape[0], dtype=np.intp)
        for site_id, result in results.items():
            labels[workload["assignment"] == site_id] = result.labels
        assert np.array_equal(labels, workload["reference_labels"])

    def test_label_queries_match_model_coverage(self, service, workload):
        run_workers(service, workload)
        points = workload["data"].points
        with ServiceClient(service.host, service.port) as client:
            served = client.query(points[:50])
        from repro.clustering.labels import NOISE
        from repro.core.relabel import relabel_site

        expected, __ = relabel_site(
            points[:50],
            np.full(50, NOISE, dtype=np.intp),
            workload["reference_model"],
            site_id=None,
            metric="euclidean",
        )
        assert np.array_equal(served, expected)

    def test_health_and_metrics_frames(self, service, workload):
        run_workers(service, workload)
        with ServiceClient(service.host, service.port) as client:
            health = client.health()
            assert health["sites_admitted"] == N_SITES
            assert health["model_built"] is True
            assert health["protocol_version"] == wire.PROTOCOL_VERSION
            exposition = client.metrics_text()
        families = parse_openmetrics(exposition)
        assert families  # strict parse succeeded

    def test_http_openmetrics_endpoint_strict_parses(self, service, workload):
        run_workers(service, workload)
        url = f"http://{service.host}:{service.metrics_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            body = response.read().decode("utf-8")
            content_type = response.headers["Content-Type"]
        assert "openmetrics-text" in content_type
        families = parse_openmetrics(body)
        names = set(families)
        assert any("service_connections" in name for name in names)
        assert any("server_models_admitted" in name for name in names)

    def test_http_endpoint_404s_other_paths(self, service):
        url = f"http://{service.host}:{service.metrics_port}/nope"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url, timeout=10)
        assert excinfo.value.code == 404


class TestAdmissionGate:
    def test_corrupt_upload_is_quarantined_not_dropped(self, workload):
        """A bit-flipped payload must take the same quarantine path the
        simulated transport takes — and the connection must survive."""
        with ServiceHandle.start(ServiceConfig()) as handle:
            model_payload = wire.encode_local_model(
                _tiny_local_model(site_id=9)
            )
            frame = bytearray(
                wire.encode_frame(
                    wire.FrameKind.LOCAL_MODEL, model_payload, site_id=9
                )
            )
            frame[-1] ^= 0xFF  # flip one payload byte: CRC now fails
            with SocketTransport(handle.host, handle.port, site_id=9) as sock:
                sock.connect()._sock.sendall(bytes(frame))
                response = sock.read_frame()
                assert response.kind == wire.FrameKind.ERROR
                status, __ = wire.decode_status(response.payload)
                assert status == "quarantined"
                # Same connection still serves requests.
                health = wire.decode_json(
                    sock.request(wire.FrameKind.HEALTH).payload
                )
            assert health["sites_quarantined"] == 1
            assert health["sites_admitted"] == 0

    def test_valid_upload_is_admitted(self):
        with ServiceHandle.start(ServiceConfig()) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.submit(_tiny_local_model(site_id=0)) == "admitted"
                assert client.health()["sites_admitted"] == 1

    def test_query_before_any_model_is_a_typed_error(self):
        with ServiceHandle.start(ServiceConfig()) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.query(np.zeros((3, 2)))
                assert excinfo.value.status == "no_model"

    @pytest.mark.parametrize(
        "points",
        [
            np.zeros((3, 1)),
            np.zeros((3, 3)),
            np.asarray([[np.nan, 0.0], [0.0, 0.0]]),
        ],
        ids=["one-coordinate", "three-coordinates", "nan-row"],
    )
    def test_malformed_label_query_is_bad_request(self, points):
        with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.submit(_tiny_local_model(site_id=0)) == "admitted"
                with pytest.raises(ServiceError) as excinfo:
                    client.query(points)
                assert excinfo.value.status == "bad_request"
                # The connection survives and well-formed queries still work.
                assert client.query(np.zeros((2, 2))).tolist() == [0, 0]
            counters = handle.service.metrics.to_dict()["counters"]
            assert counters.get("service.internal_errors", 0) == 0

    def test_unknown_relabel_kernel_rejected_at_config(self):
        with pytest.raises(ValueError, match="relabel kernel"):
            ServiceConfig(relabel_kernel="warp")

    def test_await_global_times_out_with_typed_error(self):
        with ServiceHandle.start(ServiceConfig(expected_sites=2)) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.await_global_model(timeout_s=0.1)
                assert excinfo.value.status == "no_model"


class TestTransportSeam:
    def test_simulated_and_socket_transports_satisfy_the_protocol(self):
        from repro.distributed.network import SimulatedNetwork

        assert isinstance(SimulatedNetwork(), Transport)
        assert isinstance(SocketTransport("h", 1), Transport)

    def test_resilient_transport_runs_unchanged_over_sockets(self):
        """The retry/backoff/breaker layer from the simulated deployments
        delivers over a real socket with zero changes."""
        with ServiceHandle.start(ServiceConfig()) as handle:
            with SocketTransport(handle.host, handle.port, site_id=4) as sock:
                resilient = ResilientTransport(sock, FaultPlan.none())
                payload = wire.encode_local_model(_tiny_local_model(site_id=4))
                outcome = resilient.deliver(4, wire.SERVER_ID, "local_model", payload)
            assert outcome.delivered
            assert outcome.attempts == 1
            assert outcome.checksum_ok  # the shared CRC stamp verified
            assert handle.service.server.admitted_site_ids == [4]

    def test_garbage_bytes_get_a_typed_protocol_error(self):
        with ServiceHandle.start(ServiceConfig()) as handle:
            with SocketTransport(handle.host, handle.port) as sock:
                sock.connect()._sock.sendall(b"not a DBDC frame at all....")
                response = sock.read_frame()
                assert response.kind == wire.FrameKind.ERROR
                status, detail = wire.decode_status(response.payload)
                assert status == "protocol_error"
                assert "magic" in detail  # magic is checked before length

    def test_oversized_declared_payload_is_rejected(self):
        with ServiceHandle.start(
            ServiceConfig(max_frame_bytes=1024)
        ) as handle:
            huge = wire.encode_frame(wire.FrameKind.LABEL_QUERY, b"x" * 2048)
            with SocketTransport(handle.host, handle.port) as sock:
                sock.connect()._sock.sendall(huge)
                response = sock.read_frame()
            assert response.kind == wire.FrameKind.ERROR


class TestLifecycle:
    def test_graceful_shutdown_via_protocol(self):
        handle = ServiceHandle.start(ServiceConfig())
        with ServiceClient(handle.host, handle.port) as client:
            assert client.shutdown()
        handle._thread.join(10.0)
        assert not handle._thread.is_alive()

    def test_worker_against_single_site_round(self, workload):
        data = workload["data"]
        with ServiceHandle.start(ServiceConfig(expected_sites=1)) as handle:
            result = run_site_worker(
                handle.host,
                handle.port,
                0,
                data.points,
                eps_local=data.eps_local,
                min_pts_local=data.min_pts,
            )
        assert result.verdict == "admitted"
        assert result.labels.size == data.points.shape[0]
        assert result.bytes_sent > 0

    def test_serve_worker_cli_roundtrip(self, capsys):
        """The ``serve-worker`` command body against a live service."""
        from repro.service.cli import worker_main

        with ServiceHandle.start(ServiceConfig(expected_sites=1)) as handle:
            status = worker_main(
                [
                    "--port",
                    str(handle.port),
                    "--site-id",
                    "0",
                    "--sites",
                    "1",
                    "--dataset",
                    "A",
                    "--cardinality",
                    "400",
                ]
            )
        assert status == 0
        out = capsys.readouterr().out
        assert '"verdict": "admitted"' in out


def _tiny_local_model(site_id: int):
    from repro.core.models import LocalModel, Representative

    return LocalModel(
        site_id=site_id,
        representatives=[
            Representative(
                point=np.asarray([0.0, 0.0]),
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
