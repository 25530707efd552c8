"""Shared plumbing: settings, checks, set-up probes, memory and host facts."""

from __future__ import annotations

import ctypes
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Latency percentiles are reported only with at least ten samples beyond
#: the p90, i.e. one hundred samples.
MIN_LATENCY_SAMPLES = 100


def load_settings(workload: str) -> dict:
    with open(HERE / "workloads.json") as handle:
        return json.load(handle)[workload]


class Checks:
    """Output checks of one run; every failed check counts in ``failed``.

    Layer-dominance predictions are recorded apart: a prediction that
    does not hold is a finding about the workload, not a wrong output.
    """

    def __init__(self) -> None:
        self.results: List[Tuple[str, bool]] = []
        self.predictions: List[Tuple[str, bool]] = []

    def check(self, name: str, ok: bool) -> bool:
        ok = bool(ok)
        self.results.append((name, ok))
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)
        return ok

    def predict(self, name: str, held: bool) -> None:
        self.predictions.append((name, bool(held)))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.results if not ok)


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, plus that of its largest waited-for child
    when ``children`` is set."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


def probe_setup_seconds(workload: str, seed: int, count: int) -> List[float]:
    """Set-up time of ``count`` fresh processes, run one after another.

    Each probe pays the cold costs a user pays once per process (the
    memoized frequency plan above all), which repeating set-up inside
    one process would hide.
    """
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    seconds = []
    for _ in range(count):
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds.append(float(json.loads(proc.stdout.splitlines()[-1])["setup_s"]))
    return seconds


def blas_threads() -> str:
    """Thread count of the OpenBLAS that NumPy loaded, or why it is unknown."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return str(getter())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return "unknown"


def host_facts(**extra) -> Dict[str, object]:
    facts: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
    }
    facts.update(extra)
    return facts


def timed_loop(seconds: float, min_samples: int, samples: Callable[[], int]):
    """Yield rep indices until ``seconds`` passed and enough samples exist.

    Sample collection may run on to three times ``seconds``; after that
    the run ends and the sample-count check reports the shortfall.
    """
    started = time.perf_counter()
    rep = 0
    while True:
        elapsed = time.perf_counter() - started
        short = samples() < min_samples and elapsed < 3 * seconds
        if rep > 0 and elapsed >= seconds and not short:
            return
        yield rep
        rep += 1
