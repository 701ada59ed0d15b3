"""Downward propagation over the inverted bases against the oracle that
canonicalises every step (``propagation_oracle``), and the gcds it runs."""
import itertools
import json
import random
from pathlib import Path

import pytest

import propagation_oracle as oracle
from braidweave import ring
from braidweave.braid import PatternMismatch, make_word, parse_braid
from braidweave.chart import check_master_identity, mellit_order, propagate_down
from braidweave.weave import Weave, WeaveEvent, weave_from_opening_order

CASES = Path(__file__).resolve().parent.parent / "perfbench" / "cases.json"


def assert_matches_oracle(weave):
    """Both passes give the same records, bottom values and left matrix, so
    ``check_master_identity`` gives the same answer on both."""
    try:
        want = oracle.propagate_down(weave)
    except PatternMismatch:
        with pytest.raises(PatternMismatch):
            propagate_down(weave)
        return None
    got = propagate_down(weave)
    assert got.bottom == want.bottom
    assert got.inverted == want.inverted
    assert got.vanishing == want.vanishing
    assert got.values == want.values
    assert got.left_matrix == want.left_matrix
    return got


def test_matches_oracle_on_criterion_8_cases():
    total = 0
    for n in (2, 3):
        gens = [1] if n == 2 else [1, 2]
        for l in range(1, 5):
            for letters in itertools.product(gens, repeat=l):
                beta = make_word(n, letters)
                for order in itertools.permutations(range(1, l + 1)):
                    weave = weave_from_opening_order(beta, order)
                    assert check_master_identity(weave, assert_matches_oracle(weave))
                    total += 1
    assert total == 475


def cli_long_orders():
    """The words and opening orders behind both cli-long pools: the Mellit
    order for ``chart``, the given order for ``cluster``."""
    pools = json.loads(CASES.read_text())["cli-long"]
    for case in pools["tuning"] + pools["held-out"]:
        argv = case["argv"]
        beta = parse_braid(argv[argv.index("--braid") + 1])
        if "--order" in argv:
            order = [int(k) for k in argv[argv.index("--order") + 1].split()]
        else:
            order = mellit_order(beta)
        yield " ".join(argv), beta, order


def cli_long_weaves():
    for label, beta, order in cli_long_orders():
        yield label, weave_from_opening_order(beta, order)


@pytest.mark.parametrize("label, weave", list(cli_long_weaves()), ids=lambda x: x if isinstance(x, str) else "")
def test_matches_oracle_on_cli_long_words(label, weave):
    assert check_master_identity(weave, assert_matches_oracle(weave))


def random_opening_orders(rng, count):
    """``count`` random words with n <= 5 and length <= 7, each with a random
    opening order."""
    for _ in range(count):
        n = rng.randrange(2, 6)
        letters = [rng.randrange(1, n) for _ in range(rng.randrange(1, 8))]
        order = list(range(1, len(letters) + 1))
        rng.shuffle(order)
        yield make_word(n, letters), order


def test_matches_oracle_on_random_opening_orders():
    for beta, order in random_opening_orders(random.Random(16), 150):
        weave = weave_from_opening_order(beta, order)
        assert check_master_identity(weave, assert_matches_oracle(weave))


def random_simplifying_weave(rng, n, length, steps):
    """A weave from a random word by random applicable events, cups
    included."""
    top = make_word(n, [rng.randrange(1, n) for _ in range(length)])
    cur, events = list(top.letters), []
    for _ in range(steps):
        moves = []
        for p in range(len(cur) - 1):
            a, b = cur[p], cur[p + 1]
            if a == b:
                moves += [("three", p), ("cup", p)]
            elif abs(a - b) > 1:
                moves.append(("four", p))
            elif p + 2 < len(cur) and cur[p + 2] == a:
                moves.append(("six", p))
        if not moves:
            break
        kind, p = rng.choice(moves)
        if kind == "three":
            del cur[p + 1]
        elif kind == "cup":
            del cur[p : p + 2]
        elif kind == "four":
            cur[p], cur[p + 1] = cur[p + 1], cur[p]
        else:
            cur[p : p + 3] = [cur[p + 1], cur[p], cur[p + 1]]
        events.append(WeaveEvent(kind, p))
    return Weave(n, top, tuple(events))


def test_matches_oracle_on_random_weaves_with_cups():
    rng = random.Random(61)
    cups = 0
    for _ in range(80):
        n = rng.randrange(2, 5)
        weave = random_simplifying_weave(rng, n, rng.randrange(2, 9), 8)
        cups += weave.counts()["cup"]
        assert_matches_oracle(weave)
    assert cups > 20


def count_gcds(monkeypatch):
    calls = []
    real = ring.poly_gcd

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(ring, "poly_gcd", counted)
    return calls


def test_two_strand_mellit_pass_runs_no_gcd(monkeypatch):
    beta = make_word(2, [1] * 10)
    weave = weave_from_opening_order(beta, mellit_order(beta))
    calls = count_gcds(monkeypatch)
    prop = propagate_down(weave)
    prop.values
    assert len(prop.inverted) == 10 and not calls


def test_gcds_at_most_one_per_materialised_entry(monkeypatch):
    beta = parse_braid("B3: " + " ".join(["1 2"] * 4))
    weave = weave_from_opening_order(beta, mellit_order(beta))
    calls = count_gcds(monkeypatch)
    prop = propagate_down(weave)
    assert len(calls) <= len(prop.inverted) + len(prop.vanishing)
    before = len(calls)
    prop.values
    assert len(calls) - before <= len(prop.values)
    before = len(calls)
    prop.left_matrix
    assert len(calls) - before <= weave.n**2


def test_division_by_a_non_unit_is_a_ring_error():
    bases = ring.Bases()
    z = ring.Localized(ring.LaurentPoly.variable(ring.var_id("z1")), {}, bases, True)
    with pytest.raises(ring.NonUnitDivisor):
        z.const(1) / (z + z.const(1))
    assert (z.const(1) / bases.unit(z + z.const(1))).rational() == ring.RationalExpr(
        ring.LaurentPoly.const(1), ring.LaurentPoly.variable(ring.var_id("z1")) + ring.LaurentPoly.const(1)
    )
