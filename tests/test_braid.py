"""Braid words, permutations, Demazure products, braid matrices, moves."""
import itertools
import random

import pytest

from braidweave.braid import (
    BraidWord,
    IndexOutOfRange,
    LengthIncreases,
    NilHeckeElement,
    NotReduced,
    PatternMismatch,
    append_half_twist,
    apply_braid_move,
    braid_matrix,
    compose,
    coxeter_image,
    cycle_count,
    demazure_letters,
    demazure_product,
    exchange_index,
    exchange_index_brute,
    half_twist_word,
    identity_perm,
    is_reduced,
    longest_perm,
    make_word,
    opening_positions,
    parse_braid,
    parse_perm,
    perm_length,
    perm_matrix,
    reduced_word,
    render_perm,
    transposition,
    word_cycle_count,
)
from braidweave.ring import const


def test_parse_and_render():
    w = parse_braid("B3: 1 2 1")
    assert w.n == 3 and w.letters == (1, 2, 1)
    assert w.render() == "B3: 1 2 1"
    assert parse_braid("", 4).letters == ()
    with pytest.raises(IndexOutOfRange):
        parse_braid("3", 3)
    p = parse_perm("[3 2 1]")
    assert p == longest_perm(3) and render_perm(p) == "[3 2 1]"


def test_half_twist_words():
    assert half_twist_word(2).letters == (1,)
    assert half_twist_word(3).letters == (1, 2, 1)
    assert half_twist_word(4).letters == (1, 2, 3, 1, 2, 1)
    for n in range(2, 6):
        d = half_twist_word(n)
        assert len(d) == n * (n - 1) // 2
        assert coxeter_image(d) == longest_perm(n)
        assert is_reduced(d)


def test_coxeter_image_and_cycles():
    w = parse_braid("B2: 1 1")
    assert coxeter_image(w) == identity_perm(2) and word_cycle_count(w) == 2
    w = parse_braid("B3: 1 2 1")
    assert coxeter_image(w) == longest_perm(3) and word_cycle_count(w) == 2
    w = parse_braid("B2: 1 1 1")
    assert coxeter_image(w) == transposition(2, 1) and word_cycle_count(w) == 1


def test_demazure_product():
    assert demazure_product(parse_braid("B2: 1 1 1")) == transposition(2, 1)
    assert demazure_product(parse_braid("B3: 1 2 1 2")) == longest_perm(3)
    assert demazure_product(parse_braid("", 3)) == identity_perm(3)


def _demazure_mul(p, i):
    """Slow form of p * s_i in the 0-Hecke monoid: multiply by s_i exactly
    when the inversion count goes up."""
    q = compose(p, transposition(len(p), i))
    return q if perm_length(q) > perm_length(p) else p


def _demazure_fold(start, letters):
    p = start
    for i in letters:
        p = _demazure_mul(p, i)
    return p


def test_demazure_letters_matches_slow_fold():
    rng = random.Random(5)

    def check(n, letters):
        assert demazure_letters(n, letters) == _demazure_fold(identity_perm(n), letters)
        start = list(range(n))
        rng.shuffle(start)
        start = tuple(start)
        assert demazure_letters(n, letters, start) == _demazure_fold(start, letters)

    for n in range(1, 5):
        for l in range(7):
            for letters in itertools.product(range(1, n), repeat=l):
                check(n, letters)
    for n in (5, 6):
        for _ in range(300):
            check(n, tuple(rng.randrange(1, n) for _ in range(rng.randrange(13))))
    # the NilHecke product folds a reduced word from its left factor
    for _ in range(50):
        a, b = list(range(5)), list(range(5))
        rng.shuffle(a)
        rng.shuffle(b)
        got = NilHeckeElement(a) * NilHeckeElement(b)
        assert got.perm == _demazure_fold(tuple(a), reduced_word(tuple(b)))


def test_nilhecke_idempotent_and_associative():
    rng = random.Random(0)
    n = 3
    gens = [NilHeckeElement.generator(n, i) for i in (1, 2)]
    for g in gens:
        assert g * g == g
    for _ in range(20):
        a, b, c = (rng.choice(gens) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_demazure_delta_absorbs():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(2, 6)
        l = rng.randrange(0, 7)
        word = make_word(n, [rng.randrange(1, n) for _ in range(l)])
        assert demazure_product(append_half_twist(word)) == longest_perm(n)


def test_demazure_move_and_doubling_invariance():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randrange(2, 5)
        l = rng.randrange(2, 7)
        word = make_word(n, [rng.randrange(1, n) for _ in range(l)])
        d = demazure_product(word)
        # doubling any letter
        k = rng.randrange(l)
        doubled = make_word(n, word.letters[: k + 1] + word.letters[k:])
        assert demazure_product(doubled) == d
        # braid moves
        from braidweave.braid import available_moves

        for pos, kind in available_moves(word.letters, n):
            moved, _ = apply_braid_move(word, pos, kind)
            assert demazure_product(moved) == d


def test_braid_matrix_block():
    m = braid_matrix(parse_braid("B2: 1"))
    assert m.rows[0][0].is_zero() and m.rows[0][1] == const(1)
    assert m.rows[1][0] == const(1)


def test_braid_matrix_at_zero_is_permutation():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randrange(2, 6)
        l = rng.randrange(0, 6)
        word = make_word(n, [rng.randrange(1, n) for _ in range(l)])
        m = braid_matrix(word, [const(0)] * l)
        assert m == perm_matrix(coxeter_image(word))


def test_braid_matrix_matches_elementary_products():
    # oracle: MatrixExpr products of the elementary matrices, symbolic and at
    # random integer values (zeros included, which the column update skips)
    from braidweave.braid import elementary_braid_matrix
    from braidweave.ring import MatrixExpr

    rng = random.Random(14)
    for _ in range(40):
        n = rng.randrange(2, 6)
        word = make_word(n, [rng.randrange(1, n) for _ in range(rng.randrange(0, 8))])
        for values in (word.var_exprs(), [const(rng.randint(-2, 2)) for _ in word.letters]):
            oracle = MatrixExpr.identity(n)
            for i, z in zip(word.letters, values):
                oracle = oracle * elementary_braid_matrix(n, i, z)
            assert braid_matrix(word, values) == oracle, word.render()


def test_half_twist_matrix_shape():
    d = half_twist_word(3)
    m = braid_matrix(d)
    # ones on the antidiagonal, zeros above it
    n = 3
    for i in range(n):
        assert m[i, n - 1 - i] == const(1)
        for j in range(n - 1 - i):
            assert m[i, j].is_zero()


def test_braid_relation_all_n():
    from braidweave.ring import poly, MatrixExpr
    from braidweave.braid import elementary_braid_matrix

    a, b, c = poly("z1"), poly("z2"), poly("z3")
    for n in range(3, 6):
        for i in range(1, n - 1):
            lhs = (
                elementary_braid_matrix(n, i, a)
                * elementary_braid_matrix(n, i + 1, b)
                * elementary_braid_matrix(n, i, c)
            )
            rhs = (
                elementary_braid_matrix(n, i + 1, c)
                * elementary_braid_matrix(n, i, b - a * c)
                * elementary_braid_matrix(n, i + 1, a)
            )
            assert lhs == rhs


def test_apply_braid_move_substitution_identity():
    # a six move in both directions, then a four move
    for text, moved in (("B3: 1 2 1", (2, 1, 2)), ("B4: 3 2 3 1", (2, 3, 2, 1))):
        w = parse_braid(text)
        w2, sub = apply_braid_move(w, 0, "six")
        assert w2.letters == moved
        assert braid_matrix(w) == braid_matrix(w2).substitute(sub)
    w3, sub3 = apply_braid_move(parse_braid("B4: 1 3"), 0, "four")
    assert w3.letters == (3, 1)
    assert braid_matrix(parse_braid("B4: 1 3")) == braid_matrix(w3).substitute(sub3)
    # six past the end, six without the pattern, four on adjacent letters,
    # four past the end, and a kind that is no braid move
    bad = (
        ("B2: 1 1", 0, "six"),
        ("B4: 1 2 1", 1, "six"),
        ("B3: 1 2", 0, "four"),
        ("B4: 1 3", 1, "four"),
        ("B4: 1 3", 0, "cup"),
    )
    for text, pos, kind in bad:
        with pytest.raises(PatternMismatch):
            apply_braid_move(parse_braid(text), pos, kind)


def test_exchange_index():
    w = parse_braid("B3: 1 2 1")
    assert exchange_index(w, 1) == 3 == exchange_index_brute(w, 1)
    assert exchange_index(w, 2) == 1 == exchange_index_brute(w, 2)
    assert exchange_index(parse_braid("B2: 1"), 1) == 1
    with pytest.raises(NotReduced):
        exchange_index(parse_braid("B2: 1 1"), 1)
    with pytest.raises(LengthIncreases):
        exchange_index(parse_braid("B3: 1"), 2)


def test_exchange_index_random_vs_brute():
    rng = random.Random(4)
    found = 0
    while found < 25:
        n = rng.randrange(2, 5)
        l = rng.randrange(1, 6)
        word = make_word(n, [rng.randrange(1, n) for _ in range(l)])
        if not is_reduced(word):
            continue
        u = coxeter_image(word)
        descents = [i for i in range(1, n) if u[i - 1] > u[i]]
        if not descents:
            continue
        i = rng.choice(descents)
        assert exchange_index(word, i) == exchange_index_brute(word, i)
        found += 1


def test_length_vs_demazure_length():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 5)
        l = rng.randrange(0, 7)
        word = make_word(n, [rng.randrange(1, n) for _ in range(l)])
        ld = perm_length(demazure_product(word))
        assert ld <= len(word)
        assert (ld == len(word)) == is_reduced(word)


def test_opening_positions_replay_the_closed_crossings():
    # the position of each opened crossing in the list of those still closed
    for l in range(6):
        for order in itertools.permutations(range(1, l + 1)):
            closed, want = list(range(1, l + 1)), []
            for r in order:
                want.append(closed.index(r))
                closed.remove(r)
            assert opening_positions(order) == want, order
