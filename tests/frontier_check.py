"""Meaning checks for the frontier outputs, by perfbench's oracle, which
shares no code with braidweave.  A digest in ``tests/golden`` pins bytes, so
a wrong answer pinned together with it would stay; these checks read what
the output says.

    python tests/frontier_check.py chart "B3: 1 2 1 2" < chart-stdout
    python tests/frontier_check.py graph "B2: 1 1 1 1" < mutation-graph-stdout
    python tests/frontier_check.py count "B3: 1 2 1 2" < count-strata-q-stdout

``chart``: the chart must land in the variety, and its ``invert:`` lines must
give back the parameters, at random points mod a prime (``chart_text_ok``).
``graph``: on a power word of length l the mutation graph is the
associahedron's, with C_l vertices and C_l (l - 1) / 2 edges; other words
have no reference count and are not checked.  ``count``: the output of
``count --strata --q Q`` must have strata with 2a + b = len(beta) that add
up to the printed value at Q, and at every q of ``flag_qs`` their sum must
be the oracle's ``FlagCounter`` count.  The exit code is 0 when the check
passes, 1 when it fails.
"""
import importlib.util
import random
import re
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


# FlagCounter builds its table of [n]_q! flags in pure Python, about 0.1 ms
# a flag; B5 at q = 2 has 9 765
FLAGS = 10**4


def flag_qs(n: int, length: int, printed: int) -> list[int]:
    """The primes among the printed q, 2 and 3 at which ``FlagCounter`` can
    check a count of X0(beta Delta; w0), len(beta) = length.  It counts in
    int64, whose sums wrap mod 2^64, so its count is exact when q^length,
    the size of F_q^length, which X0 lies in, is below 2^62; and its table
    must hold at most FLAGS flags."""
    out = []
    for q in sorted({printed, 2, 3}):
        flags = 1
        for k in range(1, n + 1):
            flags *= (q**k - 1) // (q - 1)
        if all(q % d for d in range(2, q)) and q**length < 2**62 and flags <= FLAGS:
            out.append(q)
    return out


def count_ok(text: str, braid: str):
    """(passes, what was checked) for the output of ``count --strata --q``."""
    n, letters = _parse(braid)
    head = re.search(r"; q=(\d+): (-?\d+)$", text.partition("\n")[0])
    if head is None:
        return False, "no q= value on the polynomial line"
    q, value = map(int, head.groups())
    strata = [tuple(map(int, m)) for m in re.findall(r"^stratum a=(\d+) b=(\d+) count=(\d+)$", text, re.M)]
    if any(2 * a + b != len(letters) for a, b, _ in strata):
        return False, "a stratum has 2a + b != len(beta)"

    def total(at):
        return sum(c * at**a * (at - 1) ** b for a, b, c in strata)

    if total(q) != value:
        return False, f"the strata add up to {total(q)} at q={q}, not {value}"
    gamma = letters + oracle.half_twist_letters(n)
    checked = flag_qs(n, len(letters), q)
    for at in checked:
        if total(at) != oracle.FlagCounter(n, at).count(gamma):
            return False, f"the strata add up to {total(at)} at q={at}, not to the flag count"
    return True, f"{len(strata)} strata add up to the printed value at q={q}; flag counts agree at q in {checked}"


def main(argv) -> int:
    kind, braid = argv
    text = sys.stdin.read()
    if kind == "count":
        ok, what = count_ok(text, braid)
        print(f"count oracle {'passes' if ok else 'fails'} on {braid[:40]}: {what}")
        return 0 if ok else 1
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
