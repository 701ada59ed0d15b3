"""Braid variety presentations, splitting, augmentations, Borel action."""
import random

import pytest

from braidweave.braid import (
    append_half_twist,
    apply_braid_move,
    available_moves,
    braid_matrix,
    identity_perm,
    longest_perm,
    make_word,
    parse_braid,
)
from braidweave.count import brute_count, brute_count_presentation
from braidweave.ring import MatrixExpr, NonUnitDiagonal, RationalExpr, const, poly, var_name
from braidweave.variety import (
    augmentation_equations,
    borel_act,
    split_full_twist,
    variety_dimension,
    variety_equations,
)


def test_trefoil_equation():
    pres = variety_equations(parse_braid("B2: 1 1 1 1"), longest_perm(2))
    assert len(pres.equations) == 1
    assert pres.equations[0].render() == "1 + z1*z2 + z1*z4 + z3*z4 + z1*z2*z3*z4"


def test_hopf_equation():
    pres = variety_equations(parse_braid("B2: 1 1 1 1"), identity_perm(2))
    assert len(pres.equations) == 1
    assert pres.equations[0].render() == "z1 + z3 + z1*z2*z3"


def test_five_crossing_presentation():
    pres = variety_equations(parse_braid("B2: 1 1 1 1 1"), identity_perm(2))
    assert len(pres.equations) == 1
    # restricting the last variable to the lower-triangular factor recovers the
    # four-variable equation
    full, residual, free = split_full_twist(parse_braid("B2: 1 1 1"))
    assert [var_name(v) for v in free] == ["z5"]
    assert residual.equations[0].render() == "1 + z1*z2 + z1*z4 + z3*z4 + z1*z2*z3*z4"


def test_half_twist_is_coordinate_point():
    for n in (2, 3, 4):
        from braidweave.braid import half_twist_word

        pres = variety_equations(half_twist_word(n), longest_perm(n))
        assert len(pres.equations) == n * (n - 1) // 2
        # every equation is a single coordinate, so the variety is the origin
        for eq in pres.equations:
            assert len(eq.terms) == 1
            (mono, c), = eq.terms.items()
            assert len(mono) == 1 and mono[0][1] == 1 and c in (1, -1)


def test_variety_dimension():
    assert variety_dimension(parse_braid("B2: 1 1 1 1")) == 3
    assert variety_dimension(parse_braid("B3: 1")) is None
    from braidweave.braid import half_twist_word

    assert variety_dimension(half_twist_word(3)) == 0


def test_split_full_twist_small_sweep():
    import itertools

    for n in (2, 3):
        gens = [1] if n == 2 else [1, 2]
        for l in range(0, 5):
            for letters in itertools.product(gens, repeat=l):
                full, residual, free = split_full_twist(make_word(n, letters))
                assert len(free) == n * (n - 1) // 2


def test_equation_count_complete_intersection():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randrange(2, 4)
        l = rng.randrange(0, 5)
        beta = make_word(n, [rng.randrange(1, n) for _ in range(l)])
        pres = variety_equations(append_half_twist(beta), longest_perm(n))
        assert len(pres.equations) == n * (n - 1) // 2


def test_braid_move_invariance_of_equations():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randrange(2, 5)
        l = rng.randrange(2, 6)
        word = make_word(n, [rng.randrange(1, n) for _ in range(l)])
        moves = available_moves(word.letters, n)
        if not moves:
            continue
        pos, kind = rng.choice(moves)
        word2, sub = apply_braid_move(word, pos, kind)
        perm = longest_perm(n) if rng.random() < 0.5 else identity_perm(n)
        p1 = variety_equations(word, perm)
        p2 = variety_equations(word2, perm)
        pulled = [RationalExpr(e).substitute(sub) for e in p2.equations]
        assert {e.render() for e in pulled} == {e.render() for e in p1.equations}


def test_nonemptiness_matches_demazure():
    import itertools

    from braidweave.braid import demazure_product

    for n in (2, 3):
        gens = [1] if n == 2 else [1, 2]
        for l in range(0, 8 if n == 2 else 5):
            for letters in itertools.product(gens, repeat=l):
                word = make_word(n, letters)
                if len(word) > 7:
                    continue
                count = brute_count(word, longest_perm(n), 2)
                nonempty = demazure_product(word) == longest_perm(n)
                assert (count > 0) == nonempty


def test_augmentation_full_marks_matches_braid_variety():
    tre = parse_braid("B2: 1 1 1")
    pres = augmentation_equations(tre, {1, 2})
    for q in (2, 3):
        assert brute_count_presentation(pres, q) == brute_count(
            append_half_twist(tre), longest_perm(2), q
        ) * (q - 1) ** 2


def test_augmentation_one_mark_quotient():
    tre = parse_braid("B2: 1 1 1")
    pres = augmentation_equations(tre, {1})
    for q in (2, 3, 5):
        assert brute_count_presentation(pres, q) == (q * q + 1) * (q - 1)


def test_augmentation_single_strand():
    pres = augmentation_equations(parse_braid("", 1), set())
    assert pres.equations == [] and pres.variables == ()


def test_borel_identity_and_diagonal():
    w = parse_braid("B2: 1")
    a, c = poly("a"), poly("c")
    u0 = MatrixExpr([[a, const(0)], [const(0), c]])
    ul, values = borel_act(u0, w)
    assert values[0] == (c / a) * poly("z1")
    assert braid_matrix(w) * u0 == ul * braid_matrix(w, values)
    # identity acts trivially
    ul2, values2 = borel_act(MatrixExpr.identity(2), w)
    assert ul2 == MatrixExpr.identity(2)
    assert values2[0] == poly("z1")
    # the action needs unit diagonal entries and an upper-triangular matrix
    with pytest.raises(NonUnitDiagonal):
        borel_act(MatrixExpr([[a + c, const(0)], [const(0), c]]), w)
    with pytest.raises(NonUnitDiagonal):
        borel_act(MatrixExpr([[a, const(0)], [const(1), c]]), w)


def test_borel_action_axiom():
    w = parse_braid("B3: 2 1")
    a, b, c = poly("a"), poly("b"), poly("c")
    u = MatrixExpr([[a, b, const(0)], [const(0), c, const(0)], [const(0), const(0), const(1)]])
    v = MatrixExpr(
        [[const(1), const(0), poly("d")], [const(0), poly("e"), const(0)], [const(0), const(0), poly("f")]]
    )
    u1, vals1 = borel_act(u, w)
    v1, vals2 = borel_act(v, w, vals1)
    uv1, vals12 = borel_act(u * v, w)
    assert vals2 == vals12
    assert u1 * v1 == uv1
