"""Meaning checks for the frontier outputs, by perfbench's oracle, which
shares no code with braidweave.  A digest in ``tests/golden`` pins bytes, so
a wrong answer pinned together with it would stay; these checks read what
the output says.

    python tests/frontier_check.py chart "B3: 1 2 1 2" < chart-stdout
    python tests/frontier_check.py graph "B2: 1 1 1 1" < mutation-graph-stdout

``chart``: the chart must land in the variety, and its ``invert:`` lines must
give back the parameters, at random points mod a prime (``chart_text_ok``).
``graph``: on a power word of length l the mutation graph is the
associahedron's, with C_l vertices and C_l (l - 1) / 2 edges; other words
have no reference count and are not checked.  The exit code is 0 when the
check passes, 1 when it fails.
"""
import importlib.util
import random
import sys
from math import comb
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def _parse(braid: str):
    head, _, body = braid.partition(":")
    return int(head.strip()[1:]), [int(t) for t in body.split()]


def chart_ok(text: str, braid: str) -> bool:
    n, letters = _parse(braid)
    return oracle.chart_text_ok(text, letters, n, random.Random(braid))


def associahedron_counts(braid: str):
    """(C_l, C_l (l - 1) / 2) for a power word of length l, else None."""
    _, letters = _parse(braid)
    if len(set(letters)) != 1:
        return None
    l = len(letters)
    catalan = comb(2 * l, l) // (l + 1)
    return catalan, catalan * (l - 1) // 2


def main(argv) -> int:
    kind, braid = argv
    text = sys.stdin.read()
    if kind == "chart":
        ok = chart_ok(text, braid)
        print(f"chart oracle {'passes' if ok else 'fails'} on {braid}")
        return 0 if ok else 1
    expected = associahedron_counts(braid)
    if expected is None:
        print(f"no reference count for {braid}")
        return 0
    got = oracle.graph_counts(text)
    print(f"{braid}: {got[0]} vertices and {got[1]} edges, the associahedron has {expected[0]} and {expected[1]}")
    return 0 if got == expected else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
