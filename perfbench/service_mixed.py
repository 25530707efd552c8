"""The ``service_mixed`` workload: an in-process service on loopback.

A :class:`CampaignService` with a two-worker budget behind a
:class:`CampaignServer`, driven through :class:`ServiceClient` by four
tenants submitting small RFTC(1, 16) campaigns.  The jobs are small
enough that a job's trace work is a minor part of its cost: the engine's
fixed per-job work (a device build per chunk, the analysis results) and
the service path around it (submit, admission, journal, cache) make up
the rest.

Both phases submit from a separate client process (``loadgen.py``).

* Phase A is a closed loop of bursts: submit a burst of distinct jobs,
  wait for the queue to drain, repeat until the phase's time is up.  It
  gives the drain capacity.
* Phase B is an open loop: the client sends one request at a time from
  one thread on a fixed schedule
  (``rate_per_s`` in ``workloads.json``, never adapted at run time).
  The rate is under half the phase-A capacity even when the host runs
  at half speed, so a slow host phase stretches each job instead of
  tipping the queue into saturation.  Every ``resubmit_every``-th
  request repeats a phase-A job and must be a cache hit.  Each job is
  timed from the moment it was due to be sent.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import campaigns
import repro.service.service as service_module
from common import HERE, ROOT, Checks, load_settings
from ledger import Timed, median, percentile
from repro.errors import ServiceError
from repro.experiments.scenarios import cached_plan
from repro.pipeline import CampaignSpec, StreamingCampaign, spec_to_dict
from repro.service import CampaignService, JobStore, ResultCache, tenant_seed
from repro.service.client import ServiceClient
from repro.service.execution import job_consumers, serialize_report
from repro.service.server import CampaignServer

#: Requested seeds of one run are ``seed * SEED_STRIDE + k``.
SEED_STRIDE = 1_000_000

#: The service runs jobs in threads and starts no process; the only child
#: is the load generator, which is not the service's memory.
RSS_CHILDREN = False


def _spec(cfg: dict) -> CampaignSpec:
    return CampaignSpec(target="rftc", m_outputs=cfg["m_outputs"], p_configs=cfg["p_configs"])


def setup(cfg: dict, seed: int, workdir: Path):
    """Plan, service and server start, and one warm-up job per worker (a
    worker's first job runs cold); returns (state, seconds)."""
    spec = _spec(cfg)
    started = time.perf_counter()
    cached_plan(spec.m_outputs, spec.p_configs, spec.plan_seed, True)
    plan_s = time.perf_counter() - started
    service = CampaignService(workdir / "service", worker_budget=cfg["worker_budget"]).start()
    server = CampaignServer(service)
    state = {"spec": spec, "service": service, "server": server, "plan_s": plan_s,
             "next_seed": seed * SEED_STRIDE}
    host, port = server.start()
    state["client"] = ServiceClient(host, port)
    for _ in range(cfg["worker_budget"]):
        _submit(state, cfg, cfg["tenants"][0])
    if not service.join(timeout=60):
        raise RuntimeError("warm-up jobs did not finish")
    return state, time.perf_counter() - started


def teardown(state: dict) -> None:
    state["server"].stop()
    state["service"].shutdown()


def _submit(state: dict, cfg: dict, tenant: str) -> dict:
    """Submit one job with a fresh requested seed from this process."""
    request = _request(state, tenant)
    return state["client"].submit(
        state["spec"], cfg["traces_per_job"], chunk_size=cfg["chunk_size"],
        seed=request["seed"], tenant=tenant,
    )


def _cache_hits(client: ServiceClient) -> float:
    """The service's cache-hit counter (absent until the first hit)."""
    try:
        return client.counter_value("service_cache_hits_total")
    except ServiceError:
        return 0.0


class LoadGenerator:
    """The client process (``loadgen.py``), spoken to in JSON lines."""

    def __init__(self, state: dict, cfg: dict) -> None:
        client = state["client"]
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "loadgen.py")], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self._send({
            "host": client.host, "port": client.port, "spec": spec_to_dict(state["spec"]),
            "traces_per_job": cfg["traces_per_job"], "chunk_size": cfg["chunk_size"],
        })

    def _send(self, value) -> None:
        self.proc.stdin.write(json.dumps(value) + "\n")
        self.proc.stdin.flush()

    def ask(self, command: dict) -> list:
        self._send(command)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=60)
            raise RuntimeError(f"load generator failed: {self.proc.stderr.read().strip()}")
        return json.loads(line)

    def close(self) -> None:
        """End the process and wait for it."""
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def _request(state: dict, tenant: str, seed=None) -> dict:
    """One request; a fresh requested seed unless ``seed`` (a resubmission)."""
    if seed is not None:
        return {"tenant": tenant, "seed": seed, "resubmitted": True}
    state["next_seed"] += 1
    return {"tenant": tenant, "seed": state["next_seed"] - 1, "resubmitted": False}


def measure(state, cfg, seed, seconds, workdir, checks: Checks, sample_check=True) -> dict:
    """Phase A then phase B; ``sample_check`` re-runs one job directly."""
    service, client, tenants = state["service"], state["client"], cfg["tenants"]
    hits_before = _cache_hits(client)
    generator = LoadGenerator(state, cfg)
    try:
        # Phase A: bursts of distinct jobs, each drained before the next.
        phase_a_s = seconds * cfg["phase_a_share"]
        burst: List[dict] = []
        burst_rates: List[float] = []
        started = time.perf_counter()
        while not burst or time.perf_counter() - started < phase_a_s:
            requests = [
                _request(state, tenants[(len(burst) + k) % len(tenants)])
                for k in range(cfg["burst_jobs"])
            ]
            burst_started = time.perf_counter()
            burst += generator.ask({"burst": requests})
            checks.check("phase A burst drains", service.join(timeout=120))
            burst_rates.append(cfg["burst_jobs"] / (time.perf_counter() - burst_started))

        # Phase B: open loop on a fixed schedule.
        every = cfg["resubmit_every"]
        requests = []
        for i in range(int(round(cfg["rate_per_s"] * (seconds - phase_a_s)))):
            if i % every == every - 1:
                again = burst[(i // every) % len(burst)]
                requests.append(_request(state, again["tenant"], again["requested_seed"]))
            else:
                requests.append(_request(state, tenants[i % len(tenants)]))
        sent = generator.ask({"open": {"rate_per_s": cfg["rate_per_s"], "requests": requests}})
    finally:
        generator.close()
    checks.check("phase B drains", service.join(timeout=120))

    fresh = [doc for doc in sent if not doc["resubmitted"]]
    hits = [doc for doc in sent if doc["resubmitted"]]
    latencies, queue_waits = [], []
    for doc in fresh:
        status = client.status(doc["job_id"])
        latencies.append(status["finished_at"] - doc["due_wall"])
        queue_waits.append(status["started_at"] - status["submitted_at"])

    states = [job["state"] for job in client.list_jobs()]
    checks.check("every job finishes done", states and all(s == "done" for s in states))
    checks.check(
        "every resubmission is answered from the cache",
        all(doc["cached"] and doc["state"] == "done" for doc in hits)
        and _cache_hits(client) - hits_before == len(hits),
    )
    if sample_check:
        check_sample(state, cfg, fresh[0], checks)
    return {
        "traces_per_s": median(burst_rates) * cfg["traces_per_job"],
        "latency_s": latencies,
        "jobs_per_s": median(burst_rates),
        "queue_wait_s": queue_waits,
        "submit_s": [doc["answered"] for doc in fresh],
        "cache_hit_s": [doc["answered"] for doc in hits],
        "late_s": [doc["late"] for doc in sent],
        "facts": {"worker_budget": cfg["worker_budget"], "tenants": len(tenants),
                  "rate_per_s": cfg["rate_per_s"], "phase_a_jobs": len(burst),
                  "phase_b_jobs": len(sent), "resubmissions": len(hits)},
    }


def check_sample(state, cfg, doc: dict, checks: Checks) -> None:
    """A service payload must equal a direct run of the same spec and seed."""
    served = state["client"].result(doc["job_id"])
    engine = StreamingCampaign(
        state["spec"], chunk_size=cfg["chunk_size"], workers=1,
        seed=tenant_seed(doc["tenant"], doc["requested_seed"]),
    )
    direct = serialize_report(
        engine.run(cfg["traces_per_job"], consumers=job_consumers(state["spec"]))
    )
    checks.check(
        "sampled job payload is byte-equal to a direct StreamingCampaign run",
        json.dumps(served, sort_keys=True) == json.dumps(direct, sort_keys=True),
    )


def trace(state, cfg, seed, seconds, workdir, checks: Checks):
    """Per-layer numbers from an untraced and a traced measurement;
    returns (layers, facts of the traced passes)."""
    base = measure(state, cfg, seed, seconds, workdir, checks)
    with Timed(CampaignService, "submit") as admit, \
            Timed(JobStore, "add") as add, Timed(JobStore, "update") as update, \
            Timed(service_module, "run_job") as run_job, \
            Timed(StreamingCampaign, "run") as engine, \
            Timed(CampaignSpec, "build_device") as build, \
            Timed(ResultCache, "get", observe=lambda hit, _a, _k: hit is not None) as cache:
        traced = measure(state, cfg, seed, seconds, workdir, checks, sample_check=False)

    # Trace work: a job's traces at the per-trace rate campaign_fold has
    # at one worker (its fold consumers are the heavier stack).
    fold_cfg = load_settings("campaign_fold")
    fold_state, _ = campaigns.setup(fold_cfg, seed, workdir)
    fold = campaigns.fold_pass(fold_state, fold_cfg, seed, 0.0, 1, checks)
    trace_work_ms = cfg["traces_per_job"] * fold["wall"] / fold["traces"] * 1e3

    n_jobs = len(state["client"].list_jobs())
    journal = Path(state["service"].data_dir) / "jobs.jsonl"
    run_job_ms = median(run_job.seconds) * 1e3
    engine_ms = median(engine.seconds) * 1e3
    layers = {
        "service.admit_ms": median(admit.seconds) * 1e3,
        "service.journal_append_ms": median(add.seconds + update.seconds) * 1e3,
        "service.journal_bytes_per_job": journal.stat().st_size / n_jobs,
        "service.run_job_ms": run_job_ms,
        "service.engine_ms": engine_ms,
        "service.job_overhead_ms": run_job_ms - engine_ms,
        "service.device_build_ms_per_job": build.total / run_job.calls * 1e3,
        "service.cache_hit_ratio": sum(cache.values) / len(cache.values),
        "service.queue_wait_s": median(traced["queue_wait_s"]),
        "service.generator_late_ms": percentile(traced["late_s"], 0.9) * 1e3,
        "service.jobs_per_s": traced["jobs_per_s"],
        "service.submit_p50_ms": median(traced["submit_s"]) * 1e3,
        "service.cache_hit_p50_ms": median(traced["cache_hit_s"]) * 1e3,
        "service.trace_work_frac": trace_work_ms / run_job_ms,
        "rftc.plan_s": state["plan_s"],
        "trace.overhead_frac": 1.0 - traced["jobs_per_s"] / base["jobs_per_s"],
    }
    checks.predict(
        "a job's trace work is under half of service.run_job_ms",
        layers["service.trace_work_frac"] < 0.5,
    )
    return layers, {"traced": traced["facts"], "trace_work_reference": campaigns.facts(fold)}
