"""The four workloads: how a round of cases is drawn, the timed op, and the
untimed answer check.

A run is a number of rounds.  Round r holds the same cases for every seed
but the held-out one (for the sweeps, draw r of each stratum's fixed
stream; for the CLI workloads, the whole fixed pool); the seed sets the
order in which the round's ops run.  Seed-drawn cases moved ops_per_s by
18 % between seeds on chart-sweep, more than any bound the benchmark could
keep.  The held-out seed draws its cases from a stream of its own, which
later changes are not tuned against.
"""
from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

CASES_FILE = Path(__file__).with_name("cases.json")
BRUTE_LIMIT = 3**12  # points; above it count-sweep skips brute_count
HELD_OUT_SEED = 9001


@dataclass
class Case:
    label: str  # names the case in failure lists
    n: int
    letters: tuple[int, ...]
    order: tuple[int, ...] = ()
    argv: tuple[str, ...] = ()


def braid_text(n: int, letters) -> str:
    return f"B{n}: " + " ".join(map(str, letters))


def cli_call(cli, argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.stream = "held-out" if seed == HELD_OUT_SEED else "tuning"

    def shuffled(self, cases: list[Case], r: int) -> list[Case]:
        """The round's cases in this seed's order."""
        random.Random(f"{self.name}:{self.seed}:{r}").shuffle(cases)
        return cases

    def round(self, r: int) -> list[Case]:
        raise NotImplementedError

    def op(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, result) -> str | None:
        """None when the answer is right, else a one-word reason."""
        raise NotImplementedError

    def check_round(self, done: list[tuple[Case, object]]) -> list[str | None]:
        return [self.check(case, result) for case, result in done]


class ChartSweep(Workload):
    """Criterion 8's traffic: weave chart against factor-and-slide chart."""

    name = "chart-sweep"
    STRATA = [(2, l) for l in range(1, 7)] + [(3, l) for l in range(1, 7)] + [(4, l) for l in range(1, 6)]

    def __init__(self, seed):
        super().__init__(seed)
        from braidweave import braid, chart, weave

        self.braid, self.chart, self.weave = braid, chart, weave

    def round(self, r):
        cases = []
        for n, l in self.STRATA:
            draw = random.Random(f"{self.name}:{self.stream}:{n}:{l}:{r}")
            letters = tuple(draw.randint(1, n - 1) for _ in range(l))
            order = list(range(1, l + 1))
            draw.shuffle(order)
            label = f"{braid_text(n, letters)} order {' '.join(map(str, order))}"
            cases.append(Case(label, n, letters, tuple(order)))
        return self.shuffled(cases, r)

    def op(self, case):
        beta = self.braid.make_word(case.n, case.letters)
        w = self.weave.weave_from_opening_order(beta, case.order)
        cw = self.chart.chart_parametrize(w)
        cl = self.chart.ldu_chart(beta, case.order)
        same = all(cw.subs[v] == cl.subs[v] for v in cw.top.variables)
        return same, cw

    def check(self, case, result):
        same, cw = result
        if not same:
            return "routes-differ"
        rng = random.Random(case.label)
        if not oracle.chart_text_ok(cw.render(), case.letters, case.n, rng):
            return "not-on-variety"
        return None


class CountSweep(Workload):
    """Stratification and brute counting; never touches ring or chart."""

    name = "count-sweep"
    STRATA = [(2, l) for l in range(1, 23)] + [(3, l) for l in range(1, 15)] + [(4, l) for l in range(1, 13)]

    def __init__(self, seed):
        super().__init__(seed)
        from braidweave import braid, count

        self.braid, self.count = braid, count
        self.counters: dict[tuple[int, int], oracle.FlagCounter] = {}

    def round(self, r):
        cases = []
        for n, l in self.STRATA:
            draw = random.Random(f"{self.name}:{self.stream}:{n}:{l}:{r}")
            letters = tuple(draw.randint(1, n - 1) for _ in range(l))
            cases.append(Case(braid_text(n, letters), n, letters))
        return self.shuffled(cases, r)

    def op(self, case):
        beta = self.braid.make_word(case.n, case.letters)
        poly = self.count.point_count_polynomial(beta)
        values = {q: poly.eval(q) for q in (2, 3)}
        brute = {}
        gamma = self.braid.append_half_twist(beta)
        if 3 ** len(gamma) <= BRUTE_LIMIT:
            w0 = self.braid.longest_perm(case.n)
            brute = {q: self.count.brute_count(gamma, w0, q) for q in (2, 3)}
        return values, brute

    def check(self, case, result):
        values, brute = result
        gamma = list(case.letters) + oracle.half_twist_letters(case.n)
        for q in (2, 3):
            key = (case.n, q)
            if key not in self.counters:
                self.counters[key] = oracle.FlagCounter(case.n, q)
            expected = self.counters[key].count(gamma)
            if values[q] != expected:
                return "polynomial"
            if q in brute and brute[q] != expected:
                return "brute"
        if len(brute) != (3 ** len(gamma) <= BRUTE_LIMIT) * 2:
            return "brute-skipped"
        return None


class CliLong(Workload):
    """Few long CLI ops: Mellit-order charts and cluster coordinates."""

    name = "cli-long"

    def __init__(self, seed):
        super().__init__(seed)
        from braidweave import cli

        self.cli = cli
        cases = json.loads(CASES_FILE.read_text())["cli-long"][self.stream]
        self.pool = [
            Case(" ".join(c["argv"]), c["n"], tuple(c["letters"]), argv=tuple(c["argv"])) for c in cases
        ]
        self.digests = {" ".join(c["argv"]): c["fingerprint"] for c in cases}

    def round(self, r):
        return self.shuffled(list(self.pool), r)

    def op(self, case):
        return cli_call(self.cli, case.argv)

    def check(self, case, result):
        code, text = result
        if code != 0:
            return f"exit-{code}"
        if oracle.fingerprint(text) != self.digests[case.label]:
            return "digest"
        rng = random.Random(case.label)
        if case.argv[0] == "chart":
            ok = oracle.chart_text_ok(text, case.letters, case.n, rng)
        else:
            ok = oracle.cluster_text_ok(text, len(case.letters), rng)
        return None if ok else "oracle"


class MutationGraph(Workload):
    """Criterion 12's traffic: chart classes and mutations of short words.

    Oracle: a power s_i^k in B_n has the graph of ``B2: 1^k``, which takes
    the binary-tree-shape path; any other word has the graph of its flip
    image i -> n - i.  The round is closed under the flip, so most oracles
    come from the same round.
    """

    name = "mutation-graph"
    # closed under the flip.  Every stream holds every 4-strand word of
    # length 2 and the powers s_i^3 that fail at the parent (B4: 2 2 2,
    # B4: 3 3 3, B5: 2 2 2, B5: 3 3 3); the streams differ in their other
    # words of length 3.  Powers that take 5-26 s at the parent (B3: 1 1 1,
    # B3: 2 2 2, B4: 1 1 1, B5: 1 1 1) would each outweigh the rest of the
    # round, and are left out (see README.md)
    WORDS = (
        [(4, (a, b)) for a in (1, 2, 3) for b in (1, 2, 3)]
        + [(4, (2, 2, 2)), (4, (3, 3, 3)), (5, (2, 2, 2)), (5, (3, 3, 3))]
    )
    STREAM_WORDS = {
        "tuning": [(3, (1, 2, 1)), (3, (2, 1, 2))]
        + [(4, w) for w in ((1, 2, 3), (3, 2, 1), (1, 3, 2), (3, 1, 2))],
        "held-out": [(3, (1, 1, 2)), (3, (2, 2, 1))]
        + [(4, w) for w in ((1, 2, 2), (3, 2, 2), (2, 1, 2), (2, 3, 2))],
    }

    def __init__(self, seed):
        super().__init__(seed)
        from braidweave import cli

        self.cli = cli
        words = self.WORDS + self.STREAM_WORDS[self.stream]
        self.pool = [Case(braid_text(n, w), n, w) for n, w in words]
        self.reference: dict[str, tuple[int, int]] = {}

    def round(self, r):
        return self.shuffled(list(self.pool), r)

    def op(self, case):
        return cli_call(self.cli, ("mutation-graph", "--braid", case.label))

    def _graph(self, text_word: str):
        if text_word not in self.reference:
            code, text = cli_call(self.cli, ("mutation-graph", "--braid", text_word))
            self.reference[text_word] = oracle.graph_counts(text) if code == 0 else None
        return self.reference[text_word]

    def check_round(self, done):
        got = {}
        for case, (code, text) in done:
            if code == 0:
                got[case.label] = oracle.graph_counts(text)
        reasons = []
        for case, (code, _text) in done:
            if code != 0:
                reasons.append(f"exit-{code}")
                continue
            if len(set(case.letters)) == 1:
                ref = braid_text(2, (1,) * len(case.letters))
            else:
                ref = braid_text(case.n, tuple(case.n - i for i in case.letters))
            expected = got.get(ref) or self._graph(ref)
            reasons.append(None if got[case.label] == expected else "oracle")
        return reasons


WORKLOADS = {w.name: w for w in (ChartSweep, CliLong, CountSweep, MutationGraph)}
