"""Write perfbench/cases.json: the fixed case lists, their output digests and
the failures the benchmark finds, all taken at the current commit.

    python3 perfbench/make_cases.py

Run it only to move the baseline on purpose (for example after a change
that alters the golden renderings); a change that claims a speed-up must
leave cases.json alone.
"""
from __future__ import annotations

import json
import random
import sys
from time import perf_counter

import oracle
from worker import ROOT, git_commit, import_program

MAX_OP_SECONDS = 2.5  # sizing rule for cli-long: no op longer than this at the parent

# (command, strands, length, how many) of the cli-long pool
CLI_LONG_STRATA = [
    ("chart", 2, 5, 1), ("chart", 2, 6, 1), ("chart", 2, 7, 1),
    ("cluster", 2, 5, 2), ("cluster", 2, 6, 2), ("cluster", 2, 7, 2),
    ("chart", 3, 6, 2), ("chart", 3, 7, 2), ("chart", 3, 8, 1),
    ("chart", 4, 6, 2), ("chart", 4, 7, 2), ("chart", 4, 8, 2),
]


def cli_long_pool(cli_call, stream: str):
    rng = random.Random(f"cli-long-pool:{stream}")
    pool = []
    for command, n, length, count in CLI_LONG_STRATA:
        picked = 0
        while picked < count:
            letters = [1] * length if n == 2 else [rng.randint(1, n - 1) for _ in range(length)]
            braid = f"B{n}: " + " ".join(map(str, letters))
            if command == "chart":
                argv = ["chart", "--braid", braid, "--mellit"]
            else:
                order = list(range(1, length + 1))
                rng.shuffle(order)
                argv = ["cluster", "--braid", braid, "--order", " ".join(map(str, order))]
            if any(c["argv"] == argv for c in pool):
                continue
            t0 = perf_counter()
            code, text = cli_call(argv)
            took = perf_counter() - t0
            if took > MAX_OP_SECONDS:
                print(f"redraw ({took:.2f} s): {' '.join(argv)}", file=sys.stderr)
                continue
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exits {code}")
            pool.append({"argv": argv, "n": n, "letters": letters, "fingerprint": oracle.fingerprint(text)})
            print(f"{took:6.2f} s  {' '.join(argv)}", file=sys.stderr)
            picked += 1
    return pool


def main():
    import_program()
    from braidweave import cli
    from workloads import HELD_OUT_SEED, MutationGraph, cli_call

    pools, failing = {}, []
    for seed in (1, HELD_OUT_SEED):
        mg = MutationGraph(seed)
        pools[mg.stream] = cli_long_pool(lambda argv: cli_call(cli, argv), mg.stream)
        done = [(case, mg.op(case)) for case in mg.pool]
        failing += [case.label for case, why in zip(mg.pool, mg.check_round(done)) if why]
    streams = ",\n".join(
        f"  {json.dumps(stream)}: [\n" + ",\n".join(f"   {json.dumps(c)}" for c in pool) + "\n  ]"
        for stream, pool in pools.items()
    )
    (ROOT / "perfbench" / "cases.json").write_text(
        "{\n"
        f' "commit": {json.dumps(git_commit())},\n'
        f' "cli-long": {{\n{streams}\n }},\n'
        f' "known-failures": {json.dumps({"mutation-graph": sorted(set(failing))})}\n'
        "}\n"
    )
    print(f"known failures: {sorted(set(failing))}", file=sys.stderr)


if __name__ == "__main__":
    main()
