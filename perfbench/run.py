"""Run one benchmark workload and print its metrics.

From the root of a checkout of the repository::

    python3 perfbench/run.py --workload campaign_fold --seed 1 --seconds 20 --trace 0

Workloads (shapes and reasons in ``perfbench/workloads.json``):
``campaign_fold``, ``campaign_persist`` and ``service_mixed``.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off.  ``traces_per_s`` is the median over the main pass's
campaigns (``campaign_fold``: 2-worker campaigns; ``campaign_persist``:
write passes) or phase-A bursts (``service_mixed``: jobs x ``traces_per_job``).
``latency_p50_ms`` is over chunk intervals of the 2-worker campaigns,
chunk intervals of the write passes (the time until each chunk is
durable), and the fresh phase-B jobs timed from their due send time,
respectively.  Each run collects at least 100 latency samples, so at
least ten lie beyond the p90; the p90 is printed for people but is not
a gated metric, because on a shared host it moves with the load of
other tenants far more than any bound allows.
``setup_s`` is the median set-up time of this process and
``setup_repeats - 1`` fresh probe processes run one after another.
``peak_rss_mb`` is this process's peak RSS, plus that of its largest
waited-for child where the workload's program has children (the pool
workers of the campaign workloads); the service runs jobs in threads, so
the load generator's process is left out.

``--trace 1`` measures the per-layer metrics instead: an untraced pass,
then a traced pass with an ``Observability`` bundle and timing wrappers
around the public calls that have no span; the difference between the
two is reported as ``trace.overhead_frac``.  A per-layer metric of a
layer the workload does not use reads 0.  Layer-dominance predictions
are printed as held or not held; they are findings, not failed checks.

Every run checks the program's outputs.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``attempted`` counts the checks made and
``failed`` those that failed, so ``failed / attempted`` is the run's
failed fraction.  Lines before it are for people: every metric by name
and unit, the host facts (nproc, BLAS threads, and the worker counts,
transport and degradation flags the measured passes' reports give) and
the failed fraction.

The program is imported from ``src/`` next to this directory; without
it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

import common
import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign_fold", "campaign_persist", "service_mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set the workload up and print the set-up time",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "service_mixed":
        import service_mixed as module
    else:
        import campaigns as module

    cfg = common.load_settings(args.workload)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            state, seconds = module.setup(cfg, args.seed, workdir)
            module.teardown(state)
            print(json.dumps({"setup_s": seconds}))
            return 0
        checks = common.Checks()
        state, first_setup = module.setup(cfg, args.seed, workdir)
        try:
            if args.trace:
                values, run_facts = module.trace(
                    state, cfg, args.seed, args.seconds, workdir, checks
                )
                facts = common.host_facts(**run_facts)
            else:
                out = module.measure(state, cfg, args.seed, args.seconds, workdir, checks)
                values = e2e_values(out, checks, module.RSS_CHILDREN)
                facts = common.host_facts(**out["facts"])
        finally:
            module.teardown(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if not args.trace:
        setups = [first_setup] + common.probe_setup_seconds(
            args.workload, args.seed, cfg["setup_repeats"] - 1
        )
        values["setup_s"] = ledger.median(setups)
        facts["setup_samples_s"] = [round(s, 4) for s in setups]

    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in declared:
        value = float(values.get(entry["name"], 0.0))
        if not checks.check(f"{entry['name']} is finite", math.isfinite(value)):
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        print(f"  {'latency_p90_ms (not gated)':<44} {values['latency_p90_ms']:>14.6g} ms"
              f" over {values['latency_samples']} samples")
    for name, held in checks.predictions:
        print(f"  prediction {'held' if held else 'NOT held'}: {name}")
    print(f"  failed_frac {checks.failed}/{checks.attempted}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


def e2e_values(out: dict, checks: common.Checks, rss_children: bool) -> dict:
    latency = out["latency_s"]
    checks.check(
        f"at least {common.MIN_LATENCY_SAMPLES} latency samples",
        len(latency) >= common.MIN_LATENCY_SAMPLES,
    )
    return {
        "traces_per_s": out["traces_per_s"],
        "latency_p50_ms": ledger.percentile(latency, 0.5) * 1e3,
        "latency_p90_ms": ledger.percentile(latency, 0.9) * 1e3,
        "latency_samples": len(latency),
        "peak_rss_mb": common.peak_rss_mb(rss_children),
    }


def stop_resource_tracker() -> None:
    """Stop and reap the helper process multiprocessing starts for the pool.

    It would otherwise exit on its own just after this process, unwaited.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_resource_tracker()
    sys.exit(status)
