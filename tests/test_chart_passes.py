"""The chart passes on Laurent polynomials against the oracle that
canonicalises every step (``chart_oracle``): the upward pass of
``chart_parametrize`` and both loops of ``ldu_chart``."""
import itertools
import random

import pytest

import chart_oracle as oracle
from test_propagation import (
    cli_long_orders,
    random_opening_orders,
    random_simplifying_weave,
)
from braidweave.braid import demazure_letters, half_twist_letters, longest_perm, make_word
from braidweave.chart import chart_parametrize, ldu_chart
from braidweave.weave import Weave, demazure_weave_events, weave_from_opening_order


def assert_same_chart(got, want):
    assert got.top == want.top
    assert got.unit_params == want.unit_params
    assert got.affine_params == want.affine_params
    assert list(got.subs.items()) == list(want.subs.items())
    assert got.inverted == want.inverted
    assert got.vanishing == want.vanishing


def assert_both_routes_match(beta, order):
    assert_same_chart(ldu_chart(beta, order), oracle.ldu_chart(beta, order))
    weave = weave_from_opening_order(beta, order)
    assert_same_chart(chart_parametrize(weave), oracle.chart_parametrize(weave))


def test_matches_oracle_on_criterion_8_cases():
    total = 0
    for n in (2, 3):
        gens = [1] if n == 2 else [1, 2]
        for l in range(1, 5):
            for letters in itertools.product(gens, repeat=l):
                beta = make_word(n, letters)
                for order in itertools.permutations(range(1, l + 1)):
                    assert_both_routes_match(beta, order)
                    total += 1
    assert total == 475


@pytest.mark.parametrize(
    "label, beta, order", list(cli_long_orders()), ids=lambda x: x if isinstance(x, str) else ""
)
def test_matches_oracle_on_cli_long_words(label, beta, order):
    assert_both_routes_match(beta, order)


def test_matches_oracle_on_random_opening_orders():
    for beta, order in random_opening_orders(random.Random(18), 150):
        assert_both_routes_match(beta, order)


def random_chart_weave(rng, n):
    """A weave with cups from a random word down to the half twist: random
    events, then a Demazure weave to Delta; None when the random events
    lost w0."""
    m = n * (n - 1) // 2
    weave = random_simplifying_weave(rng, n, rng.randrange(m + 2, m + 7), rng.randrange(1, 6))
    bottom = weave.slices()[-1]
    if demazure_letters(n, bottom) != longest_perm(n):
        return None
    tail = demazure_weave_events(bottom, half_twist_letters(n), n)
    return Weave(n, weave.top, weave.events + tuple(tail))


def test_matches_oracle_on_random_weaves_with_cups():
    rng = random.Random(81)
    weaves = []
    while len(weaves) < 80:
        weave = random_chart_weave(rng, rng.randrange(2, 5))
        if weave is not None and weave.counts()["cup"]:
            weaves.append(weave)
    for weave in weaves:
        assert_same_chart(chart_parametrize(weave), oracle.chart_parametrize(weave))
    # some weaves have more than one cup
    assert sum(w.counts()["cup"] for w in weaves) > len(weaves)
