"""Running one job through the streaming engine, deterministically.

This module is the bridge between a :class:`~repro.service.jobs.CampaignJob`
and :class:`~repro.pipeline.StreamingCampaign`.  Two properties matter:

* **Bit-identity.**  ``run_job`` configures the engine exactly as a direct
  run would — same spec, same effective seed, same chunk size — so the
  service's result payload equals ``serialize_report`` of a caller's own
  ``StreamingCampaign.run`` with the tenant-namespaced seed (asserted by
  ``tests/service/test_server.py``).
* **Determinism of the payload.**  The serialized result carries *no
  timings and no worker/host facts*: it is a pure function of ``(spec,
  seed, n_traces, chunk_size)``, which is what makes it safe to serve
  from the :class:`~repro.service.cache.ResultCache` and to compare
  across runs.  Wall-clock accounting lives on the job record instead.

Cancellation is cooperative: the engine's per-chunk progress callback
checks the job's cancel event and raises :class:`JobCancelledError`,
which the scheduler finalizes as ``cancelled`` rather than ``failed``.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import List, Optional

from repro.errors import JobCancelledError, StorageExhaustedError
from repro.pipeline import (
    CompletionTimeConsumer,
    CpaStreamConsumer,
    PipelineReport,
    StreamingCampaign,
    TraceConsumer,
    TvlaStreamConsumer,
)
from repro.pipeline.spec import CampaignSpec
from repro.service.jobs import CampaignJob

#: Version tag of the result payload layout.
RESULT_SCHEMA = "rftc-service-result/1"


def job_consumers(spec: CampaignSpec) -> List[TraceConsumer]:
    """The analysis stack the service runs for ``spec``.

    Every job gets completion-time statistics (the paper's Fig. 3
    metric); fixed-plaintext specs run TVLA over the interleaved rows,
    the rest run streaming CPA on key byte 0.
    """
    consumers: List[TraceConsumer] = [CompletionTimeConsumer()]
    if spec.fixed_plaintext is not None:
        consumers.append(TvlaStreamConsumer())
    else:
        consumers.append(CpaStreamConsumer(0))
    return consumers


def serialize_report(report: PipelineReport) -> dict:
    """The deterministic result payload for one finished campaign.

    Only seed-derived analysis outcomes are included — never timings,
    worker counts, retry counts, or store paths — so the payload is
    cache-safe and bit-comparable across hosts and runs.
    """
    from repro.attacks.models import expand_last_round_key

    spec = report.spec
    payload = {
        "schema": RESULT_SCHEMA,
        "spec_digest": spec.spec_digest(),
        "target": spec.label(),
        "n_traces": report.n_traces,
        "n_chunks": report.n_chunks,
        "chunk_size": report.chunk_size,
        "seed": report.seed,
        "mode": "tvla" if spec.fixed_plaintext is not None else "cpa",
        "completion": report.results["completion"].summary(),
    }
    if payload["mode"] == "cpa":
        cpa = report.results["cpa[0]"]
        true_byte = int(expand_last_round_key(spec.key)[cpa.byte_index])
        payload["cpa"] = {
            "byte_index": cpa.byte_index,
            "best_guess": int(cpa.best_guess),
            "true_byte_rank": cpa.rank_of(true_byte),
            "peak_corr": [float(c) for c in cpa.peak_corr],
        }
    else:
        tvla = report.results["tvla"]
        payload["tvla"] = {
            "max_abs_t": float(tvla.max_abs_t),
            "n_fixed": int(tvla.n_fixed),
            "n_random": int(tvla.n_random),
        }
    return payload


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def run_job(
    job: CampaignJob,
    checkpoint_dir: Optional[Path] = None,
    store_dir: Optional[Path] = None,
    resume: bool = False,
    faults=None,
) -> dict:
    """Execute ``job`` to completion and return its result payload.

    Runs in a scheduler worker thread.  ``durable`` jobs checkpoint to
    ``checkpoint_dir / <job_id>.ckpt`` after every chunk; with
    ``resume=True`` and an existing checkpoint, the campaign continues
    from it (bit-identically, per the engine's resume contract) instead
    of restarting.  ``store`` jobs persist traces under
    ``store_dir / <tenant> / <job_id>`` and record the byte total on the
    job for quota accounting.

    ``faults`` (an optional :class:`~repro.testing.faults.FaultPlan`) is
    handed to the engine — the chaos harness injects system faults into
    service jobs through it.  A
    :class:`~repro.errors.StorageExhaustedError` (disk full mid-append)
    removes the job's partial store tree before propagating, so a
    ``FAILED`` job neither holds disk nor charges quota.

    Raises :class:`JobCancelledError` as soon as the job's cancel event
    is observed at a chunk boundary.
    """
    spec = job.spec()
    consumers = job_consumers(spec)

    checkpoint_path: Optional[Path] = None
    if job.durable and checkpoint_dir is not None:
        checkpoint_path = Path(checkpoint_dir) / f"{job.job_id}.ckpt"

    store_path: Optional[Path] = None
    if job.store and store_dir is not None:
        store_path = Path(store_dir) / job.tenant / job.job_id
        store_path.parent.mkdir(parents=True, exist_ok=True)

    def progress(update) -> None:
        if job.cancel_event.is_set():
            raise JobCancelledError(f"job {job.job_id} cancelled")

    try:
        if resume and checkpoint_path is not None and checkpoint_path.is_file():
            report = StreamingCampaign.resume(
                store=str(store_path) if store_path is not None else None,
                checkpoint=checkpoint_path,
                consumers=consumers,
                workers=1,
                progress=progress,
                faults=faults,
            )
        else:
            engine = StreamingCampaign(
                spec,
                chunk_size=job.chunk_size,
                workers=1,
                seed=job.seed,
                faults=faults,
            )
            report = engine.run(
                job.n_traces,
                consumers=consumers,
                store=str(store_path) if store_path is not None else None,
                progress=progress,
                checkpoint=checkpoint_path,
            )
    except StorageExhaustedError:
        # The store already cleaned up its half-written chunk; drop the
        # whole partial tree so the FAILED job releases disk and quota.
        if store_path is not None and store_path.exists():
            shutil.rmtree(store_path, ignore_errors=True)
        job.store_bytes = 0
        raise

    if store_path is not None and store_path.exists():
        job.store_bytes = _tree_bytes(store_path)
    if checkpoint_path is not None and checkpoint_path.is_file():
        # The campaign finished; the resume point has served its purpose.
        checkpoint_path.unlink()
    return serialize_report(report)
