"""The golden result corpus: fixed cells and jobs, and how payloads compare.

Each entry is a pure function of its spec and seed, so its payload is
locked in ``payloads/<name>.json`` and recomputed by ``test_golden.py``.
A refactor that keeps these payloads keeps the results.

* Integer fields (ranks, curves, ``first_disclosure``, completion
  counts, TVLA sample counts), strings, booleans and ``None`` compare
  exactly, and so do the types: an ``int`` never matches a ``float``.
* Floats compare within ``FLOAT_RTOL`` / ``FLOAT_ATOL``: BLAS builds may
  reorder a GEMM's additions and move the last bits of a correlation.
  This tolerance is never loosened to make a diff go away.

Regenerate with ``PYTHONPATH=src python -m tests.golden.regenerate``,
which prints the diff, and add ``--accept`` to write it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List

from repro.experiments.figures import TVLA_FIXED_PLAINTEXT
from repro.pipeline import CampaignSpec, StreamingCampaign
from repro.power.drift import DriftSpec
from repro.scenarios.runner import run_cell
from repro.scenarios.spec import ScenarioSpec
from repro.service.execution import job_consumers, serialize_report

#: Where the locked payloads live, one ``<name>.json`` each.
PAYLOAD_DIR = Path(__file__).parent / "payloads"

#: Relative and absolute tolerance for float fields.
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12

_UNPROTECTED = dict(target="unprotected", n_traces=1000, chunk_size=100, seed=7)
_RFTC_2_8 = dict(
    target="rftc", m_outputs=2, p_configs=8, n_traces=4000, chunk_size=500, seed=7
)

#: Scenario cells, locked as ``run_cell`` payloads.
CELLS: Dict[str, ScenarioSpec] = {
    cell.name: cell
    for cell in (
        ScenarioSpec(name="cell-unprotected-cpa", adversary="cpa", **_UNPROTECTED),
        ScenarioSpec(name="cell-unprotected-tvla", adversary="tvla", **_UNPROTECTED),
        ScenarioSpec(
            name="cell-unprotected-lattice", adversary="lattice", **_UNPROTECTED
        ),
        ScenarioSpec(name="cell-unprotected-mlp", adversary="mlp", **_UNPROTECTED),
        ScenarioSpec(name="cell-rftc-2-8-lattice", adversary="lattice", **_RFTC_2_8),
        ScenarioSpec(name="cell-rftc-2-8-cpa", adversary="cpa", **_RFTC_2_8),
        ScenarioSpec(
            name="cell-unprotected-cloud-float32",
            adversary="cpa",
            acquisition="cloud",
            dtype="float32",
            **_UNPROTECTED,
        ),
        ScenarioSpec(
            name="cell-unprotected-drift",
            adversary="cpa",
            drift=DriftSpec(temperature=1.0, voltage=0.5, jitter_samples=2),
            **_UNPROTECTED,
        ),
    )
}

#: Service-style jobs, locked as ``serialize_report`` payloads of the
#: ``job_consumers`` stack: (spec, n_traces, chunk_size, seed).
JOBS = {
    "job-unprotected-cpa": (CampaignSpec(target="unprotected"), 1000, 250, 7),
    "job-rftc-2-8-tvla": (
        CampaignSpec(
            target="rftc",
            m_outputs=2,
            p_configs=8,
            fixed_plaintext=TVLA_FIXED_PLAINTEXT,
        ),
        1000,
        250,
        7,
    ),
}

NAMES = tuple(CELLS) + tuple(JOBS)


def _run_job(name: str) -> dict:
    spec, n_traces, chunk_size, seed = JOBS[name]
    engine = StreamingCampaign(spec, chunk_size=chunk_size, seed=seed)
    return serialize_report(engine.run(n_traces, consumers=job_consumers(spec)))


def compute(name: str) -> dict:
    """Run one corpus entry and return its payload."""
    if name in CELLS:
        return run_cell(CELLS[name])
    return _run_job(name)


def canonical(payload: dict) -> str:
    """The byte form payloads are compared and stored in."""
    return json.dumps(payload, sort_keys=True)


def payload_path(name: str) -> Path:
    return PAYLOAD_DIR / f"{name}.json"


def load(name: str) -> dict:
    return json.loads(payload_path(name).read_text())


def write(name: str, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=1)
    payload_path(name).write_text(text + "\n")


def diff(expected, actual, path: str = "$") -> List[str]:
    """Human-readable differences between two payloads (empty = match)."""
    if type(expected) is not type(actual):
        return [
            f"{path}: type {type(expected).__name__} != "
            f"{type(actual).__name__} ({expected!r} vs {actual!r})"
        ]
    if isinstance(expected, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            elif key not in expected:
                out.append(f"{path}.{key}: unexpected ({actual[key]!r})")
            else:
                out.extend(diff(expected[key], actual[key], f"{path}.{key}"))
        return out
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        out = []
        for i, (a, b) in enumerate(zip(expected, actual)):
            out.extend(diff(a, b, f"{path}[{i}]"))
        return out
    if isinstance(expected, float):
        if math.isclose(
            expected, actual, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL
        ):
            return []
        return [f"{path}: {expected!r} != {actual!r} (float tolerance)"]
    if expected != actual:
        return [f"{path}: {expected!r} != {actual!r}"]
    return []

