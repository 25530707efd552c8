"""Running a scenario matrix: local engine cells, matrix-level resume.

One cell is one :class:`~repro.pipeline.StreamingCampaign` run — the
runner adds two layers on top:

* **Per-cell payloads** (:func:`run_cell`): a deterministic dict of
  seed-derived outcomes (never timings or host facts).  It shares the
  completion block with ``repro.service.execution.serialize_report``
  (:meth:`~repro.pipeline.CompletionTimeStats.summary`), and cpa / mlp /
  lattice cells report the peak block and first disclosure of a
  :class:`~repro.pipeline.DisclosureConsumer` rank curve, so matrix
  reports can rank countermeasures by traces-to-disclosure.
* **Matrix-granularity resume** (:class:`MatrixState`): after every
  finished cell the runner atomically rewrites
  ``<out_dir>/matrix-state.json`` keyed by cell digest.  Re-running with
  ``resume=True`` reuses every completed cell's payload and continues
  with the rest; a half-finished cell additionally resumes from its own
  engine checkpoint under ``<out_dir>/cells/``.  Because cell payloads
  are pure functions of the cell spec, a resumed matrix report is
  byte-identical to an uninterrupted one.

Cells can also be dispatched to a ``repro-rftc serve`` daemon through a
:class:`~repro.service.client.ServiceClient`.  The daemon runs its
standard consumer stack, which tracks no rank curve (a curve costs one
extra correlation per chunk, large against a small job's fixed cost),
so service-run CPA cells report ``first_disclosure: null`` with the same
peak block (:func:`~repro.pipeline.attack_consumers.peak_block`), and
the profiled/aligned adversaries (``mlp`` / ``lattice``) are local-only
(documented in ``docs/scenarios.md``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.attacks.models import expand_last_round_key
from repro.errors import CheckpointError, ConfigurationError
from repro.leakage_assessment import TVLA_THRESHOLD
from repro.obs import NULL_OBS, Observability
from repro.pipeline import (
    CompletionTimeConsumer,
    DisclosureConsumer,
    LatticeCpaConsumer,
    MlpAttackConsumer,
    StreamingCampaign,
    TvlaStreamConsumer,
)
from repro.pipeline.attack_consumers import peak_block
from repro.scenarios.spec import MatrixSpec, ScenarioSpec

#: Version tag of the runner's resume-state file.
STATE_SCHEMA = "rftc-scenario-state/1"


#: Traces the profiled adversaries acquire from their clone device.
#: Sized so the MLP generalizes (it overfits badly under ~2000 traces);
#: template profiling is comfortable well below this.
PROFILE_TRACES = 4000

#: Offset deriving a cell's clone-device seed from its campaign seed.
#: Any fixed value works — it only has to keep the profiling stream
#: disjoint from the victim stream while staying a pure function of the
#: cell (so resumed / re-run cells profile the identical model).
PROFILE_SEED_OFFSET = 1_000_003


def profile_clone(cell: ScenarioSpec):
    """Acquire the profiling campaign for a profiled adversary's cell.

    The attacker's clone is the *same device build* as the victim (same
    target, shape, plan seed, noise) but a different acquisition stream:
    device randomness and plaintexts come from ``cell.seed +
    PROFILE_SEED_OFFSET``.  Pure function of the cell spec, so the model
    trained on it — and therefore the cell payload — is deterministic.
    """
    from repro.power.acquisition import AcquisitionCampaign

    spec = cell.to_campaign()
    profile_seed = cell.seed + PROFILE_SEED_OFFSET
    device = spec.build_device(
        np.random.default_rng(np.random.SeedSequence(profile_seed))
    )
    return AcquisitionCampaign(device, seed=profile_seed).collect(
        PROFILE_TRACES
    )


def lattice_reference_for(cell: ScenarioSpec) -> float:
    """The fixed alignment reference a lattice cell uses, in ns.

    For RFTC targets the frequency plan enumerates the full completion
    lattice, so the reference is its exact maximum.  Other targets have
    no plan; a small clone-device probe (same derivation as
    :func:`profile_clone`) measures their completion-time spread.  Both
    are pure functions of the cell spec and independent of the victim
    stream, which keeps the alignment — and so the payload — identical
    across worker counts and resume.
    """
    from repro.power.acquisition import AcquisitionCampaign

    spec = cell.to_campaign()
    if cell.target == "rftc":
        from repro.experiments.scenarios import cached_plan

        plan = cached_plan(
            cell.m_outputs, cell.p_configs, cell.plan_seed, True
        )
        return float(np.max(plan.all_completion_times_ns()))
    probe_seed = cell.seed + PROFILE_SEED_OFFSET
    device = spec.build_device(
        np.random.default_rng(np.random.SeedSequence(probe_seed))
    )
    probe = AcquisitionCampaign(device, seed=probe_seed).collect(64)
    return float(np.max(probe.completion_times_ns))


def cell_consumers(cell: ScenarioSpec) -> list:
    """The analysis stack a local cell run folds chunks into.

    Profiled adversaries (``mlp``) train their model here, before the
    victim campaign starts — so building the stack for an ``mlp`` cell
    acquires and fits the clone profile (a few seconds), deterministically
    per cell.
    """
    consumers: list = [CompletionTimeConsumer()]
    key = cell.to_campaign().key
    if cell.adversary == "tvla":
        consumers.append(TvlaStreamConsumer())
    elif cell.adversary == "mlp":
        from repro.attacks.mlp import train_mlp_profile

        clone = profile_clone(cell)
        model = train_mlp_profile(
            clone.traces,
            clone.ciphertexts,
            int(expand_last_round_key(key)[0]),
        )
        consumers.append(MlpAttackConsumer(model, key))
    elif cell.adversary == "lattice":
        consumers.append(
            LatticeCpaConsumer(key, lattice_reference_for(cell))
        )
    else:
        consumers.append(DisclosureConsumer(key))
    return consumers


def _tvla_block(max_abs_t: float, n_fixed: int, n_random: int) -> dict:
    return {
        "max_abs_t": float(max_abs_t),
        "leaking": bool(max_abs_t >= TVLA_THRESHOLD),
        "n_fixed": int(n_fixed),
        "n_random": int(n_random),
    }


def _cell_payload(cell: ScenarioSpec, completion: dict, adversary_block: dict) -> dict:
    """The deterministic per-cell result record (no timings, no hosts)."""
    payload = {
        "cell": cell.name,
        "digest": cell.cell_digest(),
        "target": cell.to_campaign().label(),
        "acquisition": cell.acquisition,
        "drift": cell.drift.to_dict() if cell.drift is not None else None,
        "adversary": cell.adversary,
        "n_traces": cell.n_traces,
        "chunk_size": cell.chunk_size,
        "seed": cell.seed,
        "completion": completion,
    }
    payload[cell.adversary] = adversary_block
    return payload


def run_cell(
    cell: ScenarioSpec,
    workers: int = 1,
    checkpoint: Union[str, Path, None] = None,
    resume: bool = False,
    obs: Optional[Observability] = None,
    progress=None,
) -> dict:
    """Run one cell locally through the streaming engine.

    With ``checkpoint`` set, the engine rewrites it after every chunk;
    ``resume=True`` continues from an existing checkpoint file
    (bit-identically, per the engine contract) and the checkpoint is
    removed once the cell completes.  Returns the cell payload.
    """
    spec = cell.to_campaign()
    consumers = cell_consumers(cell)
    checkpoint = Path(checkpoint) if checkpoint is not None else None
    if resume and checkpoint is not None and checkpoint.is_file():
        report = StreamingCampaign.resume(
            store=None,
            checkpoint=checkpoint,
            consumers=consumers,
            workers=workers,
            progress=progress,
            obs=obs,
        )
    else:
        engine = StreamingCampaign(
            spec,
            chunk_size=cell.chunk_size,
            workers=workers,
            seed=cell.seed,
            obs=obs,
        )
        report = engine.run(
            cell.n_traces,
            consumers=consumers,
            progress=progress,
            checkpoint=checkpoint,
        )
    if checkpoint is not None and checkpoint.is_file():
        checkpoint.unlink()

    if cell.adversary == "tvla":
        tvla = report.results["tvla"]
        adversary_block = _tvla_block(tvla.max_abs_t, tvla.n_fixed, tvla.n_random)
    else:
        # cpa / mlp / lattice all report a DisclosureConsumer result: the
        # cell keeps its peak block, settings and first disclosure.
        result_key = "disclosure" if cell.adversary == "cpa" else cell.adversary
        adversary_block = {
            key: value
            for key, value in report.results[result_key].items()
            if key not in ("byte_index", "trace_counts", "ranks")
        }
        adversary_block["disclosed"] = (
            adversary_block["first_disclosure"] is not None
        )
    return _cell_payload(
        cell, report.results["completion"].summary(), adversary_block
    )


def _service_payload(cell: ScenarioSpec, doc: dict) -> dict:
    """Adapt a service result payload onto the cell payload layout."""
    if cell.adversary == "tvla":
        tvla = doc["tvla"]
        adversary_block = _tvla_block(
            tvla["max_abs_t"], tvla["n_fixed"], tvla["n_random"]
        )
    else:
        cpa = doc["cpa"]
        true_byte = int(
            expand_last_round_key(cell.to_campaign().key)[cpa["byte_index"]]
        )
        adversary_block = peak_block(
            np.asarray(cpa["peak_corr"], dtype=np.float64), true_byte
        )
        # The daemon's standard stack tracks no per-chunk curve.
        adversary_block["first_disclosure"] = None
        adversary_block["disclosed"] = adversary_block["true_byte_rank"] == 0
    return _cell_payload(cell, doc["completion"], adversary_block)


@dataclass
class MatrixState:
    """Durable per-cell completion record for matrix-granularity resume.

    ``cells`` maps cell digest to the finished cell payload.  ``save``
    is atomic (write-to-temp then :func:`os.replace`), so a crash
    mid-write leaves the previous state intact and a resumed matrix
    never sees a torn file.
    """

    path: Path
    matrix_digest: str
    cells: Dict[str, dict] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "MatrixState":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            raise CheckpointError(f"cannot read matrix state {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"matrix state {path} is corrupt (not JSON): {exc}"
            ) from exc
        if doc.get("schema") != STATE_SCHEMA:
            raise CheckpointError(
                f"matrix state {path} has schema {doc.get('schema')!r}; "
                f"this build reads {STATE_SCHEMA!r}"
            )
        return cls(
            path=path,
            matrix_digest=str(doc["matrix_digest"]),
            cells=dict(doc.get("cells", {})),
        )

    def save(self) -> None:
        doc = {
            "schema": STATE_SCHEMA,
            "matrix_digest": self.matrix_digest,
            "cells": self.cells,
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        os.replace(tmp, self.path)

    def mark_done(self, digest: str, payload: dict) -> None:
        self.cells[digest] = payload
        self.save()


#: Called after each cell with (cell, status) where status is one of
#: ``"done"`` / ``"cached"`` — lets the CLI print progress lines.
CellCallback = Callable[[ScenarioSpec, str], None]


class MatrixRunner:
    """Expand a matrix and run every cell, resumably.

    Parameters
    ----------
    matrix:
        The sweep (see :class:`MatrixSpec`).
    out_dir:
        Working directory: ``matrix-state.json`` (resume state) and
        ``cells/`` (per-cell engine checkpoints) live here, and the CLI
        writes the reports next to them.
    workers:
        Worker processes per *cell* (cells themselves run sequentially
        in digest order — the deterministic schedule).
    client / tenant:
        When a :class:`~repro.service.client.ServiceClient` is given,
        cells are submitted to the daemon (durable jobs, so a daemon
        restart resumes them) instead of run in-process.
    obs:
        Optional observability bundle; the runner emits
        ``scenario_cells_total`` / ``scenario_cells_cached_total`` /
        ``scenario_cell_seconds`` into it (see
        ``docs/observability.md``).
    """

    def __init__(
        self,
        matrix: MatrixSpec,
        out_dir: Union[str, Path],
        workers: int = 1,
        client=None,
        tenant: Optional[str] = None,
        obs: Optional[Observability] = None,
        service_timeout_s: float = 600.0,
    ):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.matrix = matrix
        self.out_dir = Path(out_dir)
        self.workers = int(workers)
        self.client = client
        self.tenant = tenant
        self.obs = obs if obs is not None else NULL_OBS
        self.service_timeout_s = float(service_timeout_s)

    @property
    def state_path(self) -> Path:
        return self.out_dir / "matrix-state.json"

    def _load_state(self, resume: bool) -> MatrixState:
        digest = self.matrix.matrix_digest()
        if resume and self.state_path.is_file():
            state = MatrixState.load(self.state_path)
            if state.matrix_digest != digest:
                raise ConfigurationError(
                    f"state in {self.out_dir} belongs to a different matrix "
                    f"(state {state.matrix_digest[:12]}, "
                    f"spec {digest[:12]}); run without --resume or use a "
                    "fresh --out directory"
                )
            return state
        return MatrixState(path=self.state_path, matrix_digest=digest)

    def _run_one(self, cell: ScenarioSpec, resume: bool) -> dict:
        if self.client is not None:
            if cell.adversary in ("mlp", "lattice"):
                raise ConfigurationError(
                    f"cell {cell.name!r} uses the {cell.adversary!r} "
                    "adversary, which needs local profiling/alignment "
                    "state the service daemon's standard stack does not "
                    "run — drop --service for this matrix (see "
                    "docs/scenarios.md)"
                )
            doc = self.client.submit(
                cell.to_campaign(),
                n_traces=cell.n_traces,
                chunk_size=cell.chunk_size,
                seed=cell.seed,
                tenant=self.tenant,
                durable=True,
            )
            final = self.client.wait(doc["job_id"], timeout=self.service_timeout_s)
            if final["state"] != "done":
                raise ConfigurationError(
                    f"cell {cell.name!r} ({cell.cell_digest()[:12]}) ended "
                    f"{final['state']} on the service: {final.get('error')}"
                )
            return _service_payload(cell, self.client.result(doc["job_id"]))
        checkpoint = self.out_dir / "cells" / f"{cell.cell_digest()}.ckpt"
        checkpoint.parent.mkdir(parents=True, exist_ok=True)
        return run_cell(
            cell,
            workers=self.workers,
            checkpoint=checkpoint,
            resume=resume,
            obs=self.obs,
        )

    def run(
        self,
        resume: bool = False,
        on_cell: Optional[CellCallback] = None,
    ) -> List[dict]:
        """Run (or finish) every cell; returns payloads in digest order."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        cells = self.matrix.expand()
        state = self._load_state(resume)
        payloads: List[dict] = []
        for cell in cells:
            digest = cell.cell_digest()
            cached = state.cells.get(digest)
            if cached is not None:
                self.obs.metrics.inc("scenario_cells_cached_total")
                payloads.append(cached)
                if on_cell is not None:
                    on_cell(cell, "cached")
                continue
            started = time.perf_counter()
            payload = self._run_one(cell, resume)
            self.obs.metrics.observe_seconds(
                "scenario_cell_seconds", time.perf_counter() - started
            )
            self.obs.metrics.inc("scenario_cells_total")
            state.mark_done(digest, payload)
            payloads.append(payload)
            if on_cell is not None:
                on_cell(cell, "done")
        return payloads
