"""Mutation graphs as exchange graphs: one key per opening order, edges
looked up by key.  On two strands they are checked against the tree
rotations of the orders' weaves; on three or more strands each edge is
certified by exact chart adjacency, and they are checked against the
quadratic search over weave charts."""
import itertools
import os
import subprocess
import sys

import pytest

import braidweave
from braidweave.braid import make_word, parse_braid
from braidweave.chart import _ldu_record, _ldu_records
from braidweave.ring import Bases
from braidweave.weave import BudgetExceeded, all_orders, mutation_graph

import mutation_oracle


def _words(n, length):
    return [make_word(n, w).render() for w in itertools.product(range(1, n), repeat=length)]


# 128 + 16 + 3 words
ORACLE_WORDS = (
    [w for n in (3, 4, 5) for length in (2, 3) for w in _words(n, length)]
    + _words(3, 4)
    + ["B3: 1 1 1 1 1", "B3: 1 2 1 2 1", "B4: 1 2 3 1 2"]
)


@pytest.mark.parametrize("text", ORACLE_WORDS)
def test_mutation_graph_matches_the_quadratic_search(text):
    # the same representative orders and edges as comparing every chart
    # with every class and testing every pair of classes; the key reads the
    # direct route's record, which equals the weave route's
    beta = parse_braid(text)
    orders, edges, charts = mutation_oracle.mutation_graph(beta)
    g = mutation_graph(beta)
    assert g.vertices == orders
    assert g.edges == edges
    for order, chart in charts.items():
        assert _ldu_record(beta, order) == chart.inverted, order


@pytest.mark.parametrize("text", ORACLE_WORDS)
def test_depth_first_records_match_every_order(text, monkeypatch):
    # one pass over the order prefixes gives each order the record that
    # opening it from scratch gives, in itertools.permutations order; a
    # step sees only the bases of its own prefix, at most one per opening
    beta = parse_braid(text)
    unit = Bases.unit

    def spy(bases, value):
        assert len(bases.powers) < len(beta)
        return unit(bases, value)

    monkeypatch.setattr(Bases, "unit", spy)
    records = _ldu_records(beta)
    monkeypatch.undo()
    orders = list(all_orders(len(beta)))
    assert len(records) == len(orders)
    for order, record in zip(orders, records):
        assert record == _ldu_record(beta, order), order


@pytest.mark.parametrize("l", range(1, 8))
def test_two_strand_graph_matches_the_tree_rotations(l):
    # the same representative orders and edges as reading every order's
    # weave as a binary tree and listing the tree rotations
    beta = make_word(2, [1] * l)
    g = mutation_graph(beta)
    assert (g.vertices, g.edges) == mutation_oracle.tree_graph(beta)


def test_two_strand_graph_builds_no_weave_and_no_record(monkeypatch):
    def fail(*args):
        raise AssertionError("called")

    monkeypatch.setattr("braidweave.weave.weave_from_opening_order", fail)
    monkeypatch.setattr("braidweave.chart._ldu_record", fail)
    monkeypatch.setattr("braidweave.chart._ldu_records", fail)
    g = mutation_graph(make_word(2, [1] * 5))
    assert (len(g.vertices), len(g.edges), g.proxy) == (42, 84, "binary-tree shape")


def test_mutation_graph_limit_for_three_strands():
    with pytest.raises(BudgetExceeded, match="l=7 letters, over the limit of 6"):
        mutation_graph(make_word(3, [1] * 7))


# (patch, word, the one error line): a key one element short, and a key edge
# whose charts are not adjacent
GUARDS = {
    "short-key": (
        "from braidweave import weave\n"
        "keys = weave._record_keys\n"
        "weave._record_keys = lambda records: [frozenset(list(k)[1:]) for k in keys(records)]\n",
        "B3: 1 2 1",
        "error: B3: 1 2 1: the key of order 1 2 3 has 2 elements, not 3\n",
    ),
    "not-adjacent": (
        "from braidweave import chart\n"
        "adjacent, calls = chart.keys_adjacent, []\n"
        "def first_fails(v1, v2):\n"
        "    calls.append(1)\n"
        "    return len(calls) > 1 and adjacent(v1, v2)\n"
        "chart.keys_adjacent = first_fails\n",
        "B4: 2 2 2",
        "error: B4: 2 2 2: the keys of orders 1 2 3 and 1 3 2 differ in one element, "
        "but their charts are not adjacent\n",
    ),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_mutation_graph_guards_are_one_error_line(guard, flags):
    # both guards raise a domain error, so python -O keeps them and the CLI
    # exits 1 with one error line and no traceback
    patch, word, err = GUARDS[guard]
    code = patch + (
        "import sys\n"
        "from braidweave import cli\n"
        f"sys.exit(cli.main(['mutation-graph', '--braid', {word!r}]))\n"
    )
    src = os.path.dirname(os.path.dirname(braidweave.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)
