"""One workload process: set up, say ``ready``, run whole rounds, report.

    python3 perfbench/worker.py --workload chart-sweep --seed 1 --rounds 8 [--trace] [--setup-only]

``run.py`` starts this process and times it from the start of the process
to the ``ready`` line (set-up: imports and round-0 inputs).  The last line
of stdout is a JSON object with every op's latency and check outcome.
Each op is one closed-loop call; the next op starts when the previous one
has finished.  Checks run after each round, outside the timed ops.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import braidweave from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import braidweave.cli  # noqa: F401  (eager numpy import: part of set-up)
    import braidweave

    if Path(braidweave.__file__).resolve().parent.parent != src:
        raise SystemExit(f"braidweave imported from {braidweave.__file__}, not {src}")
    import numpy

    return numpy.__version__


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_rounds(workload, first, rounds: int, tracer=None):
    """Run the rounds; with a tracer, trace the ops and not the checks."""
    latencies, labels, reasons = [], [], []
    for r in range(rounds):
        cases = first if r == 0 else workload.round(r)
        done, raised = [], {}
        for k, case in enumerate(cases):
            t0 = perf_counter()
            try:
                result = workload.op(case)
            except Exception as exc:  # one op must never abort the run
                latencies.append(perf_counter() - t0)
                raised[k] = f"raised-{type(exc).__name__}"
                continue
            latencies.append(perf_counter() - t0)
            done.append((case, result))
        if tracer is not None:
            tracer.uninstall()
        try:
            checked = iter(workload.check_round(done))
        except Exception as exc:
            checked = iter([f"check-raised-{type(exc).__name__}"] * len(done))
        if tracer is not None:
            tracer.install()
        for k, case in enumerate(cases):
            labels.append(case.label)
            reasons.append(raised[k] if k in raised else next(checked))
    return latencies, labels, reasons


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    numpy_version = import_program()
    from workloads import WORKLOADS  # this script's directory is on sys.path

    workload = WORKLOADS[args.workload](args.seed)
    first = workload.round(0)
    print("ready", flush=True)
    if args.setup_only:
        return

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    latencies, labels, reasons = run_rounds(workload, first, args.rounds, tracer)
    report = {
        "latencies": latencies,
        "labels": labels,
        "reasons": reasons,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
