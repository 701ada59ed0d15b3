"""Stratification and finite-field point counts."""
import itertools
import math
import random
import tracemalloc

import pytest

from braidweave import count
from braidweave.braid import (
    append_half_twist,
    half_twist_word,
    longest_perm,
    make_word,
    parse_braid,
)
from braidweave.count import (
    PointCountPolynomial,
    brute_count,
    brute_count_presentation,
    point_count_polynomial,
    stratify,
)
from braidweave.ring import LaurentPoly, mono_pack, var_id
from braidweave.variety import VarietyPresentation, variety_equations
from braidweave.weave import BudgetExceeded
from move_search import search_strata


def test_trefoil_polynomial():
    p = point_count_polynomial(parse_braid("B2: 1 1 1"))
    assert p.strata == {(0, 3): 1, (1, 1): 2}
    for q in (2, 3, 5, 7):
        assert p.eval(q) == (q - 1) * (q * q + 1)
    assert p.eval(2) == 5 and p.eval(3) == 20
    assert p.render() == "(q-1)^3 + 2q(q-1)"


def test_hopf_polynomial():
    p = point_count_polynomial(parse_braid("B2: 1 1"))
    for q in (2, 3, 5):
        assert p.eval(q) == (q - 1) ** 2 + q
    assert p.eval(2) == 3 and p.eval(3) == 7


def test_empty_braid_point():
    p = point_count_polynomial(parse_braid("", 2))
    assert p.eval(5) == 1
    p3 = point_count_polynomial(parse_braid("", 3))
    assert p3.eval(5) == 1


def test_half_twist_single_point_stratum():
    tree = stratify(half_twist_word(3))
    assert tree.status == "leaf"
    assert dict(tree.strata()) == {(0, 0): 1}


def test_dead_tree_when_demazure_small():
    tree = stratify(parse_braid("B3: 1"))
    assert tree.status == "dead"
    assert tree.strata() == {}


def test_brute_counts():
    assert brute_count(append_half_twist(parse_braid("B2: 1 1 1")), longest_perm(2), 2) == 5
    assert brute_count(append_half_twist(parse_braid("B2: 1 1")), longest_perm(2), 3) == 7
    assert brute_count(half_twist_word(3), longest_perm(3), 5) == 1
    with pytest.raises(BudgetExceeded, match=r"5\^30 = 931322574615478515625 points, over the budget of 100000000$"):
        brute_count(make_word(2, [1] * 30), longest_perm(2), 5)
    pres = variety_equations(make_word(2, [1] * 12), longest_perm(2))
    with pytest.raises(BudgetExceeded, match=r"3\^12 = 531441 points, over the budget of 1000$"):
        brute_count_presentation(pres, 3, budget=1000)


def slow_brute_count(letters, n, perms, q):
    """Reference for brute_count, in pure Python: at every point of F_q^l
    multiply out the elementary matrices B_i(z) (identity but for the block
    [[0, 1], [1, z]] at rows and columns i, i+1) and test, for each perm,
    whether the product times the permutation matrix is upper triangular.
    Returns the count for each perm.

    The products are generic and sparse: a matrix is a list of columns, and
    column c of x . y sums the columns of x that the nonzero entries of
    column c of y pick out (a lone 1 picks one column as it is)."""

    def sparse(m):
        return [[(k, m[k][c]) for k in range(n) if m[k][c]] for c in range(n)]

    def mul(x, y):
        out = []
        for terms in y:
            if len(terms) == 1 and terms[0][1] == 1:
                out.append(x[terms[0][0]])
                continue
            acc = [0] * n
            for k, v in terms:
                acc = [a + v * b for a, b in zip(acc, x[k])]
            out.append([a % q for a in acc])
        return out

    def elementary(i, z):
        m = [[int(r == c) for c in range(n)] for r in range(n)]
        m[i - 1][i - 1], m[i - 1][i], m[i][i - 1], m[i][i] = 0, 1, 1, z
        return sparse(m)

    perm_mats = [sparse([[int(r == p[c]) for c in range(n)] for r in range(n)]) for p in perms]
    letter_mats = {i: [elementary(i, z) for z in range(q)] for i in set(letters)}
    counts = [0] * len(perms)

    def walk(m, k):
        if k == len(letters):
            for j, pm in enumerate(perm_mats):
                mp = mul(m, pm)
                counts[j] += all(mp[c][r] == 0 for c in range(n) for r in range(c + 1, n))
            return
        for e in letter_mats[letters[k]]:
            walk(mul(m, e), k + 1)

    walk([[int(r == c) for r in range(n)] for c in range(n)], 0)
    return counts


def test_brute_count_matches_slow_oracle(monkeypatch):
    for n, max_len in ((2, 6), (3, 4)):
        perms = list(itertools.permutations(range(n)))
        for l in range(max_len + 1):
            for letters in itertools.product(range(1, n), repeat=l):
                word = make_word(n, letters)
                for q in (2, 3, 5):
                    expected = slow_brute_count(letters, n, perms, q)
                    assert [brute_count(word, p, q) for p in perms] == expected, (n, letters, q)
                    # chunks of 3 products split the digits of every level above
                    # the last, and for q = 5 of the last too
                    with monkeypatch.context() as patch:
                        patch.setattr(count, "_ROWS", 3)
                        w0 = longest_perm(n)
                        assert brute_count(word, w0, q) == expected[perms.index(w0)], (n, letters, q)


def test_brute_count_four_strands_every_perm():
    perms = list(itertools.permutations(range(4)))
    for l in range(4):
        for letters in itertools.product(range(1, 4), repeat=l):
            for q in (2, 3):
                expected = slow_brute_count(letters, 4, perms, q)
                assert [brute_count(make_word(4, letters), p, q) for p in perms] == expected, (letters, q)


def test_brute_count_empty_and_one_letter_words():
    # no letter is walked: the empty word and every one-letter word lie
    # wholly in the mask, from the identity's rows
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))
        for letters in [()] + [(i,) for i in range(1, n)]:
            for q in (2, 3, 5):
                expected = slow_brute_count(letters, n, perms, q)
                assert [brute_count(make_word(n, letters), p, q) for p in perms] == expected, (n, letters, q)


def test_brute_count_both_sides_of_the_mask_width():
    # the last k letters, q^k <= 64, go into the mask: k drops from 2 to 1
    # between q = 8 and 9, and from 1 to 0 between q = 61 and 67
    for n, qs, max_len in ((2, (8, 9), 4), (3, (8, 9), 3), (2, (61, 67), 2)):
        perms = list(itertools.permutations(range(n)))
        for q in qs:
            for l in range(max_len + 1):
                for letters in itertools.product(range(1, n), repeat=l):
                    expected = slow_brute_count(letters, n, perms, q)
                    assert [brute_count(make_word(n, letters), p, q) for p in perms] == expected, (n, letters, q)


def test_brute_count_whole_word_in_the_mask():
    # words no longer than k walk no letter: every point is a bit of the
    # masks of the identity's rows; one letter longer walks one letter
    for n, q, k in ((3, 2, 6), (3, 3, 3), (4, 4, 3), (4, 7, 2)):
        perms = list(itertools.permutations(range(n)))
        draw = random.Random(f"{n}:{q}")
        for l in range(k + 2):
            letters = tuple(draw.randint(1, n - 1) for _ in range(l))
            expected = slow_brute_count(letters, n, perms, q)
            assert [brute_count(make_word(n, letters), p, q) for p in perms] == expected, (n, letters, q)


def test_brute_count_one_product_per_chunk(monkeypatch):
    # with one product per chunk every level tests its digits one at a time
    monkeypatch.setattr(count, "_ROWS", 1)
    for n, q, max_len in ((2, 3, 6), (2, 5, 4), (2, 7, 4), (3, 3, 5)):
        perms = list(itertools.permutations(range(n)))
        draw = random.Random(f"{n}:{q}")
        for l in range(max_len + 1):
            letters = tuple(draw.randint(1, n - 1) for _ in range(l))
            expected = slow_brute_count(letters, n, perms, q)
            assert [brute_count(make_word(n, letters), p, q) for p in perms] == expected, (n, letters, q)


def test_brute_count_table_budget():
    # the letter tables are checked against the budget before they are built:
    # B3: 1 2 at q = 5 has 25 points and (2 + 2) * 5 * 5^3 = 2500 entries
    word = make_word(3, (1, 2))
    expected = slow_brute_count((1, 2), 3, [longest_perm(3)], 5)[0]
    assert brute_count(word, longest_perm(3), 5, budget=2500) == expected
    with pytest.raises(BudgetExceeded, match=r"tables need 2500 entries for n = 3, q = 5, over the budget of 2499$"):
        brute_count(word, longest_perm(3), 5, budget=2499)
    with pytest.raises(BudgetExceeded, match=r"tables need 13935742 entries for n = 2, q = 191, over"):
        brute_count(make_word(2, (1,)), longest_perm(2), 191, budget=10**6)


def test_brute_count_past_the_row_chunk():
    # the last 3 letters go into the mask, and 3^8 walked products pass the chunk
    beta = parse_braid("B3: 1 2 1 2 1 2 1 2")
    gamma = append_half_twist(beta)
    assert 3 ** (len(gamma) - 3) > count._ROWS
    expected = slow_brute_count(gamma.letters, 3, [longest_perm(3)], 3)
    assert [brute_count(gamma, longest_perm(3), 3)] == expected
    assert expected == [point_count_polynomial(beta).eval(3)]


def _brute_peak_bytes(word, q):
    import numpy  # noqa: F401  (brute_count's first call imports it; keep that out of the peak)

    tracemalloc.start()
    try:
        brute_count(word, longest_perm(word.n), q)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_brute_count_memory_does_not_grow_with_points():
    small = append_half_twist(parse_braid("B4: 1 2 3 1"))  # 3^10 points
    large = append_half_twist(parse_braid("B4: 1 2 3 1 2 3"))  # 3^12 points
    peak_small, peak_large = _brute_peak_bytes(small, 3), _brute_peak_bytes(large, 3)
    assert peak_large < 32 * 2**20
    assert peak_large < 1.5 * peak_small, (peak_small, peak_large)


def test_oracle_agreement_sweep():
    for n in (2, 3):
        gens = [1] if n == 2 else [1, 2]
        m = n * (n - 1) // 2
        for l in range(0, 8 - m):
            for letters in itertools.product(gens, repeat=l):
                beta = make_word(n, letters)
                p = point_count_polynomial(beta)
                gamma = append_half_twist(beta)
                for q in (2, 3, 5):
                    assert p.eval(q) == brute_count(gamma, longest_perm(n), q), (
                        n,
                        letters,
                        q,
                    )


def test_two_strand_strata_closed_form():
    # 1200 letters: stratify and strata() walk far past the recursion limit
    for l in [*range(41), 1200]:
        strata = point_count_polynomial(make_word(2, [1] * l)).strata
        assert strata == {(a, l - 2 * a): math.comb(l - a, a) for a in range(l // 2 + 1)}, l


def dict_strata(tree):
    """Oracle for ``StrataTree.strata``: the same bottom-up fold, with a dict
    from (a, b) to its multiplicity at every node."""
    below, todo = {tree}, [tree]
    while todo:
        node = todo.pop()
        if node.status == "branch":
            for child in (node.invert_child, node.vanish_child):
                if child not in below:
                    below.add(child)
                    todo.append(child)
    folded = {}
    for node in sorted(below, key=lambda node: len(node.letters)):
        out = {}
        if node.status == "leaf":
            out[(0, 0)] = 1
        elif node.status == "branch":
            for child, da, db in ((node.invert_child, 0, 1), (node.vanish_child, 1, 0)):
                for (a, b), mult in folded[child].items():
                    out[(a + da, b + db)] = out.get((a + da, b + db), 0) + mult
        folded[node] = out
    return folded[tree]


def test_packed_strata_fold_matches_dict_fold():
    rng = random.Random(7)
    words = [half_twist_word(3), parse_braid("B3: 1"), parse_braid("B3: 1 2 1 2 1 2 1")]
    texts = ["", "B2: 1 1", "B2: 1 1 1", "B3: 1 2 1 2", "B4: 2 1 3 2 1", "B4: 1 3 2 2 1 3"]
    texts += ["B2: " + " ".join(["1"] * k) for k in (1, 5, 13, 40, 120)]
    texts += ["B3: " + " ".join(["1 2"] * k) for k in (1, 3, 8, 20, 45)]
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        texts.append(f"B{n}: " + " ".join(str(rng.randrange(1, n)) for _ in range(rng.randrange(0, 7))))
    words += [append_half_twist(parse_braid(t, 2)) for t in texts]
    for word in words:
        tree = stratify(word)
        assert tree.strata() == dict_strata(tree), word
        if tree.status == "branch":
            for child in (tree.invert_child, tree.vanish_child):
                assert child.strata() == dict_strata(child), word


def test_long_word_stratifies_without_deep_recursion():
    # 1200 letters, more than the default recursion limit of 1000 frames
    assert stratify(make_word(3, [1, 2] * 600)).status == "branch"


def test_undefined_inequation_point_is_not_counted():
    z1 = var_id("z1")
    pres = VarietyPresentation(
        n=1, perm=(0,), variables=(z1,), equations=[], inequations=[LaurentPoly({mono_pack([(z1, -1)]): 1})]
    )
    assert [brute_count_presentation(pres, q) for q in (2, 3, 5)] == [1, 2, 4]


def test_equal_words_share_one_node():
    tree = stratify(make_word(2, [1] * 12))
    nodes, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node not in nodes:
            nodes.add(node)
            if node.status == "branch":
                todo += (node.invert_child, node.vanish_child)
    assert len({node.letters for node in nodes}) == len(nodes)


def test_count_polynomial_properties():
    hypothesis = pytest.importorskip("hypothesis", exc_type=ImportError)
    st = hypothesis.strategies

    @st.composite
    def braids(draw):
        n = draw(st.integers(2, 4))
        letters = draw(st.lists(st.integers(1, n - 1), max_size=10 - n * (n - 1) // 2))
        return make_word(n, letters)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(braids(), st.integers(0, 2**32))
    def check(beta, seed):
        poly = point_count_polynomial(beta)
        gamma = append_half_twist(beta)
        for q in (2, 3):
            assert poly.eval(q) == brute_count(gamma, longest_perm(beta.n), q)
        assert search_strata(beta, random.Random(seed)) == poly.strata

    check()


def test_stratification_order_independence():
    # the closed-form rewrite against breadth-first searches in shuffled orders
    for text in ("B3: 1 2 1 2", "B4: 2 1 3 2 1", "B4: 1 3 2 2 1 3"):
        beta = parse_braid(text)
        base = point_count_polynomial(beta).strata
        for seed in range(6):
            assert search_strata(beta, random.Random(seed)) == base, (text, seed)


def test_dimension_bookkeeping():
    rng = random.Random(0)
    for _ in range(15):
        n = rng.choice([2, 3])
        l = rng.randrange(0, 5)
        beta = make_word(n, [rng.randrange(1, n) for _ in range(l)])
        gamma = append_half_twist(beta)
        tree = stratify(gamma)
        lg = len(gamma) - n * (n - 1) // 2
        for a, b in tree.strata():
            assert 2 * a + b == lg


def test_unique_top_stratum():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.choice([2, 3])
        l = rng.randrange(1, 5)
        beta = make_word(n, [rng.randrange(1, n) for _ in range(l)])
        strata = point_count_polynomial(beta).strata
        top = [(a, b) for (a, b) in strata if a == 0]
        assert len(top) == 1 and strata[top[0]] == 1


def test_coefficients_expansion():
    p = PointCountPolynomial(3, {(0, 3): 1, (1, 1): 2})
    # (q-1)^3 + 2q(q-1) = q^3 - q^2 + q - 1
    assert p.coefficients() == [-1, 1, -1, 1]
