"""braidweave benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload chart-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its src/.
The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``); the line before it is ``{"meta": ...}`` with the run's
metadata.  See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from worker import git_commit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # processes timed for setup_s; the measured run is one of them

# seconds one round takes at the parent commit on a 2-core x86-64 sandbox;
# a run is round(--seconds / this) whole rounds, so that every commit
# measures the same ops for a given seed and --seconds
ROUND_SECONDS = {"chart-sweep": 3.5, "count-sweep": 6.9, "cli-long": 15.6, "mutation-graph": 15.5}


class WorkerFailed(Exception):
    pass


def start_worker(workload: str, seed: int, *extra: str):
    """Start a worker; return (process, seconds from start to ``ready``)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.stdout.close()
        proc.wait()
        raise WorkerFailed(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def finish_worker(proc) -> dict | None:
    """Wait for a started worker; its last stdout line parsed, if any."""
    lines = proc.stdout.read().splitlines()
    proc.stdout.close()
    if proc.wait() != 0:
        raise WorkerFailed(f"worker failed (exit {proc.returncode})")
    return json.loads(lines[-1]) if lines else None


def harrell_davis(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of xs: a Beta(p(n+1),
    (1-p)(n+1))-weighted mean of the order statistics.  At the tail
    percentile the samples are sparse and one order statistic jumps between
    neighbours that differ by 20 %; the weighted mean does not.  The same
    holds for the median of a round whose cases differ widely in cost."""
    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 200001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    grid = np.concatenate(([0.0], t))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf, right=1.0))
    return float(weights @ xs)


def tail(latencies):
    """Latency at the highest percentile with at least 10 samples above it;
    returns (Harrell-Davis estimate, plain order statistic, percentile,
    samples).  With 10 samples or fewer it is the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], xs[-1], 100.0, n
    p = (n - 10) / n
    return harrell_davis(xs, p), xs[n - 11], 100.0 * p, n


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    run_args = ["--rounds", str(rounds)] + (["--trace"] if args.trace else [])

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, setup = start_worker(args.workload, args.seed, "--setup-only")
                finish_worker(proc)
                setups.append(setup)
        proc, setup = start_worker(args.workload, args.seed, *run_args)
        setups.append(setup)
        report = finish_worker(proc)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    lat = report["latencies"]
    failed = [label for label, why in zip(report["labels"], report["reasons"]) if why]
    reasons = {label: why for label, why in zip(report["labels"], report["reasons"]) if why}
    # failures of the parent commit are recorded (in "failed" and ok_frac)
    # without marking the run incorrect; any other failure does
    known = json.loads((HERE / "cases.json").read_text())["known-failures"]
    unexpected = sorted(set(failed) - set(known.get(args.workload, ())))
    tail_value, order_stat, tail_pct, samples = tail(lat)
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in report["layers"].items()}
        metrics["trace.ops_per_s"] = {"value": len(lat) / sum(lat), "unit": "1/s"}
    else:
        metrics = {
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * harrell_davis(lat, 0.5), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * tail_value, "unit": "ms"},
            "ok_frac": {"value": 1 - len(failed) / len(lat), "unit": "ratio"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "git_commit": git_commit(),
        "python": report["python"],
        "numpy": report["numpy"],
        "nproc": os.cpu_count(),
        "op_p50_order_statistic_ms": 1000 * statistics.median(lat),
        "op_tail": {
            "percentile": round(tail_pct, 2),
            "samples": samples,
            "order_statistic_ms": 1000 * order_stat,
        },
        "setup_samples_s": setups,
        "failures": reasons,
        "unexpected_failures": unexpected,
    }
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {"correct": not unexpected, "attempted": len(lat), "failed": len(failed), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
