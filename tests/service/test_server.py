"""HTTP front-end + client against a live in-process daemon."""

import json
import socket
import urllib.request

import pytest

from repro.errors import QuotaExceededError, ServiceError, UnknownJobError
from repro.pipeline import CampaignSpec, spec_to_dict
from repro.service import CampaignService, TenantPolicy
from repro.service.client import ServiceClient
from repro.service.server import CampaignServer

N_TRACES = 40
CHUNK = 20


def small_spec(**overrides):
    fields = dict(target="rftc", m_outputs=1, p_configs=16, plan_seed=7)
    fields.update(overrides)
    return CampaignSpec(**fields)


@pytest.fixture()
def daemon(tmp_path):
    """A started service + server; yields a connected client."""
    policies = {"capped": TenantPolicy(max_queued=1)}
    service = CampaignService(
        tmp_path / "svc", worker_budget=1, policies=policies
    )
    service.start()
    server = CampaignServer(service)
    host, port = server.start()
    try:
        yield ServiceClient(host, port)
    finally:
        server.stop()
        service.shutdown()


class TestEndpoints:
    def test_healthz(self, daemon):
        assert daemon.healthy()

    def test_submit_wait_result_roundtrip(self, daemon):
        job = daemon.submit(small_spec(), N_TRACES, chunk_size=CHUNK, seed=5)
        assert job["state"] in ("queued", "running", "done")
        final = daemon.wait(job["job_id"], timeout=60.0)
        assert final["state"] == "done"
        result = daemon.result(job["job_id"])
        assert result["schema"] == "rftc-service-result/1"
        assert result["n_traces"] == N_TRACES
        assert "cpa" in result

    def test_cache_hit_visible_over_http(self, daemon):
        first = daemon.submit(small_spec(), N_TRACES, chunk_size=CHUNK, seed=5)
        daemon.wait(first["job_id"], timeout=60.0)
        second = daemon.submit(
            small_spec(), N_TRACES, chunk_size=CHUNK, seed=5
        )
        assert second["cached"] and second["state"] == "done"
        assert daemon.result(second["job_id"]) == daemon.result(
            first["job_id"]
        )
        assert daemon.counter_value("service_cache_hits_total") == 1

    def test_cancel_roundtrip(self, daemon):
        job = daemon.submit(small_spec(), 400, chunk_size=CHUNK, seed=9)
        doc = daemon.cancel(job["job_id"])
        assert doc["state"] in ("queued", "running", "cancelled")
        final = daemon.wait(job["job_id"], timeout=60.0)
        assert final["state"] == "cancelled"
        with pytest.raises(ServiceError):
            daemon.result(job["job_id"])

    def test_list_jobs_filters_by_tenant(self, daemon):
        a = daemon.submit(small_spec(), N_TRACES, seed=1, tenant="alice")
        daemon.submit(small_spec(), N_TRACES, seed=1, tenant="bob")
        alice_jobs = daemon.list_jobs(tenant="alice")
        assert [j["job_id"] for j in alice_jobs] == [a["job_id"]]
        assert len(daemon.list_jobs()) == 2
        daemon.wait(a["job_id"], timeout=60.0)

    def test_metrics_page_serves_prometheus_text(self, daemon):
        text = daemon.metrics_text()
        assert "service_job_queue_seconds" in text  # pre-declared at boot
        assert daemon.counter_value("service_http_requests_total") >= 1


class TestErrorMapping:
    def test_unknown_job_is_404(self, daemon):
        with pytest.raises(UnknownJobError):
            daemon.status("job-99999999")

    def test_quota_breach_is_429(self, daemon):
        daemon.submit(small_spec(), 4000, chunk_size=CHUNK, seed=1,
                      tenant="capped")
        with pytest.raises(QuotaExceededError):
            daemon.submit(small_spec(), N_TRACES, seed=2, tenant="capped")

    def test_result_before_done_is_409(self, daemon):
        job = daemon.submit(small_spec(), 4000, chunk_size=CHUNK, seed=3)
        with pytest.raises(ServiceError, match="409"):
            daemon.result(job["job_id"])
        daemon.cancel(job["job_id"])

    def test_bad_submit_body_is_400(self, daemon):
        request = urllib.request.Request(
            f"http://{daemon.host}:{daemon.port}/v1/jobs",
            data=b"not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_impossible_rftc_shape_is_400_and_not_journaled(
        self, daemon, tmp_path
    ):
        fields = spec_to_dict(small_spec())
        fields["m_outputs"] = 1000
        request = urllib.request.Request(
            f"http://{daemon.host}:{daemon.port}/v1/jobs",
            data=json.dumps({"spec": fields, "n_traces": N_TRACES}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "M must be" in excinfo.value.read().decode()
        assert daemon.list_jobs() == []
        journal = tmp_path / "svc" / "jobs.jsonl"
        assert not journal.exists() or journal.read_text() == ""

    def test_missing_route_is_404_and_wrong_method_405(self, daemon):
        for path, method, expected in [
            ("/nope", "GET", 404),
            ("/v1/jobs", "DELETE", 405),
        ]:
            request = urllib.request.Request(
                f"http://{daemon.host}:{daemon.port}{path}", method=method
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == expected

    def test_error_bodies_are_json(self, daemon):
        url = f"http://{daemon.host}:{daemon.port}/v1/jobs/job-99999999"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url)
        doc = json.loads(excinfo.value.read().decode("utf-8"))
        assert doc["status"] == 404 and "unknown job" in doc["error"]

    def test_negative_content_length_is_400(self, daemon):
        """A negative Content-Length is a malformed request, not a 500."""
        with socket.create_connection(
            (daemon.host, daemon.port), timeout=10.0
        ) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: -5\r\n"
                b"\r\n"
            )
            response = sock.recv(65536)
        assert response.startswith(b"HTTP/1.1 400 ")


@pytest.fixture()
def auth_daemon(tmp_path):
    """A daemon with per-tenant bearer tokens; yields (host, port)."""
    service = CampaignService(tmp_path / "svc", worker_budget=1)
    service.start()
    server = CampaignServer(
        service, tokens={"alice": "token-a", "bob": "token-b"}
    )
    host, port = server.start()
    try:
        yield host, port
    finally:
        server.stop()
        service.shutdown()


class TestAuthentication:
    def test_missing_or_bad_token_is_401_but_healthz_open(self, auth_daemon):
        host, port = auth_daemon
        anonymous = ServiceClient(host, port)
        assert anonymous.healthy()
        with pytest.raises(ServiceError, match="401"):
            anonymous.list_jobs()
        wrong = ServiceClient(host, port, token="nope")
        with pytest.raises(ServiceError, match="401"):
            wrong.metrics_text()

    def test_routes_are_scoped_to_the_token_tenant(self, auth_daemon):
        host, port = auth_daemon
        alice = ServiceClient(host, port, token="token-a")
        bob = ServiceClient(host, port, token="token-b")
        # The submit tenant defaults to the token's tenant.
        job = alice.submit(small_spec(), N_TRACES, chunk_size=CHUNK, seed=5)
        assert job["tenant"] == "alice"
        alice.wait(job["job_id"], timeout=60.0)
        # Guessing the sequential job id must not reveal it exists.
        with pytest.raises(UnknownJobError):
            bob.status(job["job_id"])
        with pytest.raises(UnknownJobError):
            bob.result(job["job_id"])
        with pytest.raises(UnknownJobError):
            bob.cancel(job["job_id"])
        # Listings see only the caller's own jobs.
        assert alice.list_jobs() and not bob.list_jobs()
        with pytest.raises(ServiceError, match="403"):
            bob.list_jobs(tenant="alice")

    def test_submitting_as_another_tenant_is_403(self, auth_daemon):
        host, port = auth_daemon
        bob = ServiceClient(host, port, token="token-b")
        with pytest.raises(ServiceError, match="403"):
            bob.submit(small_spec(), N_TRACES, seed=1, tenant="alice")
