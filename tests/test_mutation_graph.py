"""Mutation graphs as exchange graphs: one key per opening order, edges
looked up by key.  On two strands they are checked against the tree
rotations of the orders' weaves and against the orders' merge-interval
keys, and every edge is a quiver mutation; on three or more strands each
edge is certified by exact chart adjacency, and the certificate that never
pulls back a class's own key is checked against the one that pulls back
every element.  The walk over opening states opens no state twice, the keys
read off its units are checked against the record keys of every order,
keys that fail a soundness check are refused, the graphs are checked
against the quadratic search over weave charts, and a power word has the
same graph on two, three and four strands."""
import itertools
import os
import random
import re
import subprocess
import sys

import pytest

import braidweave
from braidweave.braid import PatternMismatch, make_word, parse_braid
from braidweave.chart import _ldu_keys, _ldu_record, _open_step, _separated, mutation_graph
from braidweave.cluster import i_cycle_basis, quiver, quiver_mutate
from braidweave.ring import LaurentPoly, poly_gcd
from braidweave.weave import BudgetExceeded, merge_intervals

import mutation_oracle
from mutation_oracle import _record_keys, all_orders, coprime_base, first_orders


def _element_classes(beta):
    """``_ldu_keys``'s classes as (key of elements, first order) pairs."""
    classes, elements = _ldu_keys(beta)
    return [(frozenset(elements[x] for x in key), order) for key, order in classes.items()]


def _words(n, length):
    return [make_word(n, w).render() for w in itertools.product(range(1, n), repeat=length)]


# 128 + 16 + 3 words
ORACLE_WORDS = (
    [w for n in (3, 4, 5) for length in (2, 3) for w in _words(n, length)]
    + _words(3, 4)
    + ["B3: 1 1 1 1 1", "B3: 1 2 1 2 1", "B4: 1 2 3 1 2"]
)

# two random words for each n = 3..5 and length 4..6
_rng = random.Random(1)
SEEDED_WORDS = [
    make_word(n, [_rng.randrange(1, n) for _ in range(length)]).render()
    for n in (3, 4, 5)
    for length in (4, 5, 6)
    for _ in range(2)
]


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
    # the oracle's pass over the order prefixes gives each order the record
    # of opening it from scratch; the walk opens no state (letters and the
    # exact representation of their values) twice, and gives each distinct
    # key that _record_keys reads off those records with its first order
    beta = parse_braid(text)
    opened = []

    def spy(n, letters, values, p, bases):
        opened.append((tuple(letters), tuple((v.num, tuple(sorted(v.exps.items()))) for v in values), p))
        return _open_step(n, letters, values, p, bases)

    monkeypatch.setattr("braidweave.chart._open_step", spy)
    classes = _element_classes(beta)
    monkeypatch.undo()
    assert opened and len(set(opened)) == len(opened)
    records = mutation_oracle._ldu_records(beta)
    assert records == [_ldu_record(beta, order) for order in all_orders(len(beta))]
    assert classes == list(first_orders(beta, _record_keys(records)).items())


@pytest.mark.parametrize("text", ORACLE_WORDS)
def test_own_key_elements_pull_back_to_monomials(text):
    # every element of an order's key is a unit on its own chart's torus,
    # so the certificate's memo may start with them: the seeded ids are the
    # key's, and each pulls back to one term
    g, elements, seeded, _ = mutation_oracle.certificate_views(parse_braid(text))
    assert len(seeded) == len(g.vertices)
    assert mutation_oracle.own_key_failures(seeded, elements) == []


@pytest.mark.parametrize("text", ORACLE_WORDS)
def test_seeded_certificate_matches_the_full_one(text):
    # on every pair of classes, edge or not, the certificate whose memos
    # start with the own keys answers as the one that pulls back every
    # element: True on the graph's edges and False elsewhere
    g, elements, seeded, full = mutation_oracle.certificate_views(parse_braid(text))
    for i, j in itertools.combinations(range(len(seeded)), 2):
        answers = [mutation_oracle.certificate_answer(v[i], v[j], elements) for v in (seeded, full)]
        assert answers == [(i, j) in g.edges] * 2, (i, j)


@pytest.mark.parametrize("text", SEEDED_WORDS)
def test_unit_keys_are_the_record_keys(text):
    # both soundness checks pass, and every class's unit key is the record
    # key of its first order, element for element, so the two induce the
    # same classes and edges
    beta = parse_braid(text)
    records = mutation_oracle._ldu_records(beta)
    assert _element_classes(beta) == list(first_orders(beta, _record_keys(records)).items())


@pytest.mark.parametrize("text", ["B3: 1 2 1 2", "B4: 2 2 2", "B3: 1 1 1 1 1", "B4: 1 2 3 1 2"])
def test_unsound_keys_are_refused(text, monkeypatch):
    # when a soundness check fails the unit keys may not be the record keys,
    # so no graph is built from them: the word is refused by name
    from braidweave import chart

    beta = parse_braid(text)
    mutation_graph(beta)
    monkeypatch.setattr(chart, "_separated", lambda rows: False)
    with pytest.raises(PatternMismatch, match=f"^{re.escape(text)}: the bases of the opening units are not"):
        mutation_graph(beta)


def test_separation_check():
    # pairwise coprime bases are not enough: the parts b1*b2 and b1^2*b2^2
    # have the single coprime base element b1*b2, while b1*b2^2 and b1^2*b2
    # separate b1 from b2; on exponent vectors the refinement gives the same
    b1, b2 = LaurentPoly.variable(1) + LaurentPoly.const(1), LaurentPoly.variable(2) + LaurentPoly.const(1)
    assert poly_gcd(b1, b2).is_constant()
    assert coprime_base([b1 * b2, (b1 * b2) ** 2]) == [b1 * b2]
    assert mutation_oracle.refine_exponents([(1, 1), (2, 2)]) == [(1, 1)]
    assert not _separated([(1, 1), (2, 2)])
    assert set(coprime_base([b1 * b2 * b2, b1 * b1 * b2])) == {b1, b2}
    assert set(mutation_oracle.refine_exponents([(1, 2), (2, 1)])) == {(1, 0), (0, 1)}
    assert _separated([(1, 2), (2, 1)])


def test_separation_check_matches_the_refinement():
    # on random exponent vectors in which every base occurs, the column
    # test says whether the refinement ends in single bases to the first
    # power; a signed vector, a unit's, stands for its num and den parts
    rng = random.Random(7)
    seen = set()
    for _ in range(3000):
        m = rng.randint(1, 4)
        rows = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(1, 5))]
        if not all(map(any, zip(*rows))):
            continue
        parts = [tuple(max(0, s * e) for e in row) for row in rows for s in (-1, 1)]
        single = all(sum(b) == 1 for b in mutation_oracle.refine_exponents(parts))
        assert _separated(rows) == _separated(parts) == single, rows
        seen.add(single)
    assert seen == {False, True}


@pytest.mark.parametrize("l", range(8))
def test_two_strand_graph_matches_the_tree_rotations(l):
    # the same representative orders and edges as reading every order's
    # weave as a binary tree and listing the tree rotations
    beta = make_word(2, [1] * l)
    g = mutation_graph(beta)
    assert (g.vertices, g.edges) == mutation_oracle.tree_graph(beta)


@pytest.mark.parametrize("l", range(9))
def test_two_strand_graph_matches_the_interval_keys(l):
    # the unit keys give the vertices and edges of keying every order by its
    # merge intervals on every two-strand word within the limit: B2 has the
    # one letter 1, so these are all of its accepted inputs
    beta = make_word(2, [1] * l)
    g = mutation_graph(beta)
    assert (g.vertices, g.edges) == mutation_oracle.interval_graph(beta)


def test_two_strand_graph_builds_no_weave_and_no_record(monkeypatch):
    def fail(*args):
        raise AssertionError("called")

    monkeypatch.setattr("braidweave.weave.weave_from_opening_order", fail)
    monkeypatch.setattr("braidweave.chart._ldu_record", fail)
    g = mutation_graph(make_word(2, [1] * 5))
    assert (len(g.vertices), len(g.edges), g.proxy) == (42, 84, "binary-tree shape")


@pytest.mark.parametrize("l", range(1, 8))
def test_two_strand_edges_are_quiver_mutations(l):
    # on every edge the second order's intersection quiver is the first's
    # mutated at the exchanged cycle, each cycle named by its merge interval
    beta = make_word(2, [1] * l)
    g = mutation_graph(beta)
    for i, j in g.edges:
        o1, o2 = g.vertices[i], g.vertices[j]
        c1, c2 = (merge_intervals(o)[:-1] for o in (o1, o2))  # the basis omits the root
        (k,) = [a for a, c in enumerate(c1) if c not in c2]
        (new,) = [c for c in c2 if c not in c1]
        where = [c2.index(new if a == k else c) for a, c in enumerate(c1)]
        q2 = quiver(i_cycle_basis(beta, o2))
        assert [[q2[a][b] for b in where] for a in where] == quiver_mutate(quiver(i_cycle_basis(beta, o1)), k)
    assert len(g.edges) == [0, 1, 5, 21, 84, 330, 1287][l - 1]


def test_power_words_on_more_strands_have_the_two_strand_graph():
    # the power word's orders, classes and mutations do not depend on the
    # strand count; three and four strands certify every edge and two
    # strands certify none, so the two paths check each other
    two = mutation_graph(make_word(2, [1] * 7))
    for n, letter in ((3, 1), (4, 2)):
        g = mutation_graph(make_word(n, [letter] * 7))
        assert (g.vertices, g.edges, g.proxy) == (two.vertices, two.edges, "chart-subset equality"), n


def test_mutation_graph_limit_for_three_strands(monkeypatch):
    # the length is checked before the walk starts
    def fail(*args):
        raise AssertionError("called")

    monkeypatch.setattr("braidweave.chart._ldu_keys", fail)
    with pytest.raises(BudgetExceeded, match="l=9 letters, over the limit of 8"):
        mutation_graph(make_word(3, [1] * 9))


# (patch, word, the one error line): a key one element short, a key edge
# whose charts are not adjacent, and unit keys whose bases are not separated
GUARDS = {
    "short-key": (
        "from braidweave import chart\n"
        "walk = chart._ldu_keys\n"
        "def short(beta):\n"
        "    classes, elements = walk(beta)\n"
        "    return {frozenset(list(k)[1:]): order for k, order in classes.items()}, elements\n"
        "chart._ldu_keys = short\n",
        "B3: 1 2 1",
        "error: B3: 1 2 1: the key of order 1 2 3 has 2 elements, not 3\n",
    ),
    "not-adjacent": (
        "from braidweave import chart\n"
        "adjacent, calls = chart.keys_adjacent, []\n"
        "def first_fails(*args):\n"
        "    calls.append(1)\n"
        "    return len(calls) > 1 and adjacent(*args)\n"
        "chart.keys_adjacent = first_fails\n",
        "B4: 2 2 2",
        "error: B4: 2 2 2: the keys of orders 1 2 3 and 1 3 2 differ in one element, "
        "but their charts are not adjacent\n",
    ),
    "unseparated": (
        "from braidweave import chart\n"
        "chart._separated = lambda rows: False\n",
        "B3: 1 2 1",
        "error: B3: 1 2 1: the bases of the opening units are not pairwise coprime and separated, "
        "so the unit keys may not classify the charts\n",
    ),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_mutation_graph_guards_are_one_error_line(guard, flags):
    # every guard raises a domain error, so python -O keeps them and the CLI
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
