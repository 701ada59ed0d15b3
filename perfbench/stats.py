"""Steadiness checks for the benchmark.

    python3 perfbench/stats.py spread --workload chart-sweep --seeds 1-10 --seconds 25
    python3 perfbench/stats.py repeat --workload chart-sweep --seed 1 --seconds 25

``spread`` runs one workload over a range of seeds and prints each
end-to-end metric's median and spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles).

``repeat`` makes two traced runs and one untraced run of one seed.  It
checks that every per-layer count (``.calls``, ``.nodes``, ``.points``,
``.weaves``, ``ring.max_terms``, ``.peak_mb`` and the ratios) is identical
in the two traced runs, and prints the tracing overhead: untraced over
traced ops_per_s on the same ops.

Runs are sequential.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(args, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def cmd_spread(args):
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        result = run_once(args, seed, 0)
        line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {line}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        print(f"{name:12s} median {statistics.median(vs):.5g}  spread {spread(vs):.4f}")


def is_count(name: str, unit: str) -> bool:
    return unit != "s" and not name.startswith("trace.")


def cmd_repeat(args):
    first, second = (run_once(args, args.seed, 1)["metrics"] for _ in range(2))
    plain = run_once(args, args.seed, 0)["metrics"]
    differ = [
        name for name, m in first.items()
        if is_count(name, m["unit"]) and m["value"] != second[name]["value"]
    ]
    for name, m in first.items():
        if is_count(name, m["unit"]) and m["value"]:
            print(f"{name:45s} {m['value']:.10g}")
    overhead = plain["ops_per_s"]["value"] / first["trace.ops_per_s"]["value"]
    print(f"counts repeat exactly: {not differ}" + (f" (differ: {differ})" if differ else ""))
    print(f"tracing overhead: untraced/traced ops_per_s = {overhead:.3f}")
    return 1 if differ else 0


def main():
    p = argparse.ArgumentParser()
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("spread", "repeat"):
        sp = sub.add_parser(name)
        sp.add_argument("--workload", required=True)
        sp.add_argument("--seconds", type=float, default=25)
    sub.choices["spread"].add_argument("--seeds", default="1-10")
    sub.choices["repeat"].add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    return cmd_spread(args) if args.cmd == "spread" else cmd_repeat(args)


if __name__ == "__main__":
    sys.exit(main())
