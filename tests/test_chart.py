"""Charts: slides, propagation, parametrization, openings, Mellit order."""
import itertools
import os
import random
import subprocess
import sys

import pytest

from braidweave.braid import (
    PatternMismatch,
    append_half_twist,
    braid_matrix,
    elementary_braid_matrix,
    half_twist_letters,
    longest_perm,
    make_word,
    opening_positions,
    parse_braid,
    perm_matrix,
)
from braidweave.chart import (
    ChartMap,
    NotExchangeBinomial,
    _ldu_record,
    _open_step,
    _opening_slides,
    chart_parametrize,
    chart_satisfies_equations,
    charts_equal_as_subsets,
    compare_extended,
    keys_adjacent,
    ldu_chart,
    mellit_order,
    mutation_graph,
    open_crossing,
    propagate_down,
    rational_map,
    slide_left,
    solve_half_twist,
    check_master_identity,
    cup_factor,
    trivalent_factor,
)
from braidweave.ring import (
    Bases,
    LaurentPoly,
    Localized,
    MatrixExpr,
    RationalExpr,
    const,
    poly,
    poly_gcd,
    var_id,
    var_name,
)
from braidweave.variety import variety_equations
from braidweave.weave import Weave, WeaveEvent, weave_from_opening_order
from mutation_oracle import _record_keys, all_orders, charts_adjacent, tree_rotations, tree_shape


def test_slide_left_formula():
    a, b, c, z = poly("a"), poly("b"), poly("c"), poly("z")
    u = MatrixExpr([[a, b], [const(0), c]])
    u2, (zp,) = slide_left(u, [1], [z])
    assert zp == (c * z + b) / a
    assert u2[0, 0] == c and u2[1, 1] == a
    assert u2[0, 1].is_zero()
    # identity slides trivially
    assert slide_left(MatrixExpr.identity(2), [1], [z]) == (MatrixExpr.identity(2), [z])
    # the backward slide undoes it, with the same matrix
    assert slide_left(u, [1], [zp], back=True) == (u2, [z])
    # the input matrix is left as it was
    assert u == MatrixExpr([[a, b], [const(0), c]])


def generic_slide(u, letter, z):
    """Oracle for slide_left: B_i(z) U B_i(z')^{-1} by full matrix products
    and a generic inverse."""
    i = letter
    zp = (u[i, i] * z + u[i - 1, i]) / u[i - 1, i - 1]
    b_left = elementary_braid_matrix(u.n, i, z)
    b_right = elementary_braid_matrix(u.n, i, zp)
    return b_left * u * b_right.inverse(), zp


def generic_chain_slide(u, letters, values):
    """The oracle above letter by letter, rightmost letter first."""
    values = list(values)
    for k in range(len(letters) - 1, -1, -1):
        u, values[k] = generic_slide(u, letters[k], values[k])
    return u, values


def slide_pools(kind):
    """Diagonal units, entries above the diagonal (often zero) and letter
    values of one value type: ``RationalExpr``, or ``Localized`` over one
    shared ``Bases`` in which 1 + y and 1 - x are inverted.  Each pool
    holds the constants 0 and 1 as ring values."""
    if kind == "rational":
        x, y, w, z = (poly(v) for v in "xywz")
        one, inv_1py, inv_1mx = const(1), (const(1) + y).inverse(), (const(1) - x).inverse()
    else:
        bases = Bases()
        x, y, w, z = (Localized(LaurentPoly.variable(var_id(v)), {}, bases, True) for v in "xywz")
        one = x.const(1)
        inv_1py, inv_1mx = bases.unit(one + y).inverse(), bases.unit(one - x).inverse()
    c = one.const
    units = [one, c(-2), x, -y.inverse(), x * y, w * w * x.inverse()]
    entries = [c(0)] * 4 + [one, c(3), x, y + w, x * inv_1py, x * y - one, w.inverse()]
    values = [z, c(0), one, c(5), z + x, z * inv_1mx]
    return units, entries, values


def as_rational(m):
    """A slide's matrix (None for the identity's entries) or value list as
    canonical ``RationalExpr``s."""
    if isinstance(m, list):
        return [e if isinstance(e, RationalExpr) else e.rational() for e in m]
    n = range(m.n)
    fill = [[const(int(r == c)) if m[r, c] is None else m[r, c] for c in n] for r in n]
    return MatrixExpr([as_rational(row) for row in fill])


def random_unit_upper(rng, n, units=None, entries=None):
    """Upper-triangular matrix with unit diagonal entries (nonzero scalars
    times Laurent monomials) and symbolic entries, often zero, above it.
    With pools given, about a third of the identity's entries (1 on the
    diagonal, 0 off it) are None instead, as in a vertex factor."""
    pools = units is not None
    if not pools:
        units, entries, _ = slide_pools("rational")
    rows = [[entries[0]] * n for _ in range(n)]
    for r in range(n):
        rows[r][r] = rng.choice(units)
        for c in range(r + 1, n):
            rows[r][c] = rng.choice(entries)
    if pools:
        for r in range(n):
            for c in range(n):
                if rows[r][c] == (units[0] if r == c else entries[0]) and rng.random() < 0.35:
                    rows[r][c] = None
    return MatrixExpr(rows)


def test_slide_left_matches_generic_product():
    # every value type the passes slide, identity entries held as None or as
    # ring constants, and the exact vertex factor shapes, against the
    # generic product B_i(z) U B_i(z')^-1 over RationalExpr
    rng = random.Random(11)
    for kind in ("rational", "localized"):
        units, entries, values = slide_pools(kind)
        for n in range(2, 6):
            for length in range(4):
                for _ in range(3):
                    letters = [rng.randrange(1, n) for _ in range(length)]
                    vals = [rng.choice(values) for _ in letters]
                    i = rng.randrange(1, n)
                    for u in (
                        random_unit_upper(rng, n, units, entries),
                        trivalent_factor(n, i, rng.choice(units)),
                        cup_factor(n, i, rng.choice(entries + [units[0]])),
                    ):
                        want, slid = generic_chain_slide(as_rational(u), letters, as_rational(vals))
                        assert want.is_upper_triangular()
                        got, got_vals = slide_left(u, letters, vals)
                        assert (as_rational(got), as_rational(got_vals)) == (want, slid)
                        back, back_vals = slide_left(u, letters, got_vals, back=True)
                        assert as_rational(back) == want
                        assert as_rational(back_vals) == as_rational(vals)
                    # a lower-triangular L slides right by the transposed slide on
                    # the reversed word: L B(word) = B(word') L'
                    low = random_unit_upper(rng, n, units, entries).transpose()
                    low_t, rev = slide_left(low.transpose(), letters[::-1], vals[::-1])
                    word = make_word(n, letters)
                    low_slid = as_rational(low_t).transpose()
                    assert low_slid.is_lower_triangular()
                    lhs = as_rational(low) * braid_matrix(word, as_rational(vals))
                    assert lhs == braid_matrix(word, as_rational(rev[::-1])) * low_slid
                    back_t, back = slide_left(low.transpose(), letters[::-1], rev, back=True)
                    assert as_rational(back_t) == as_rational(low_t)
                    assert as_rational(back) == as_rational(vals[::-1])


def test_braid_matrix_is_trivalent_factor_times_lower():
    # B_i(z) = T_i(z) . L_i(z): the U_i D_i part of the LDU factorization is
    # the trivalent factor, and L_i is the transposed cup factor of 1/z
    z = poly("z")
    for n in range(2, 6):
        for i in range(1, n):
            lower = as_rational(cup_factor(n, i, z.inverse())).transpose()
            upper = as_rational(trivalent_factor(n, i, z))
            assert elementary_braid_matrix(n, i, z) == upper * lower


def test_propagate_trivalent_rule():
    w = Weave(2, make_word(2, [1, 1]), (WeaveEvent("three", 0),))
    prop = propagate_down(w)
    z1, z2 = poly("z1"), poly("z2")
    assert prop.values == [z2 + z1.inverse()]
    assert prop.inverted == [z1]
    assert prop.left_matrix == MatrixExpr([[-z1.inverse(), const(1)], [const(0), z1]])
    assert check_master_identity(w, prop)


def test_propagate_six_rule():
    w = Weave(3, make_word(3, [1, 2, 1]), (WeaveEvent("six", 0),))
    prop = propagate_down(w)
    z1, z2, z3 = poly("z1"), poly("z2"), poly("z3")
    assert prop.values == [z3, z2 - z1 * z3, z1]
    assert check_master_identity(w, prop)


def test_propagate_cup_rule():
    w = Weave(2, make_word(2, [1, 1]), (WeaveEvent("cup", 0),))
    prop = propagate_down(w)
    z1, z2 = poly("z1"), poly("z2")
    assert prop.values == [] and prop.vanishing == [z1]
    assert prop.left_matrix == MatrixExpr([[const(1), z2], [const(0), const(1)]])


def test_braid_relation_paths_agree():
    top = parse_braid("B3: 1 2 1 2")
    wa = Weave(3, top, (WeaveEvent("six", 0), WeaveEvent("three", 2), WeaveEvent("six", 0)))
    wb = Weave(3, top, (WeaveEvent("six", 1), WeaveEvent("three", 0)))
    ma, mb = rational_map(wa), rational_map(wb)
    z1, z2, z3, z4 = (poly(f"z{k}") for k in range(1, 5))
    assert list(ma) == [z4 + z1.inverse(), z3 + z2 * z4, z2]
    assert compare_extended(ma, mb)
    # charts also agree
    ca, cb = chart_parametrize(wa), chart_parametrize(wb)
    assert {v: e.render() for v, e in ca.subs.items()} == {
        v: e.render() for v, e in cb.subs.items()
    }


def test_other_braid_relation_paths():
    # the 1121 -> 212 and 1211 -> 212 pairs
    top = parse_braid("B3: 1 1 2 1")
    p1 = Weave(3, top, (WeaveEvent("three", 0), WeaveEvent("six", 0)))
    p2 = Weave(
        3,
        top,
        (WeaveEvent("six", 1), WeaveEvent("six", 0), WeaveEvent("three", 2)),
    )
    assert compare_extended(rational_map(p1), rational_map(p2))
    top2 = parse_braid("B3: 1 2 1 1")
    q1 = Weave(3, top2, (WeaveEvent("three", 2), WeaveEvent("six", 0)))
    q2 = Weave(
        3,
        top2,
        (WeaveEvent("six", 0), WeaveEvent("six", 1), WeaveEvent("three", 0)),
    )
    z1, z2, z3, z4 = (poly(f"z{k}") for k in range(1, 5))
    assert list(rational_map(q2)) == [
        z4 + z3.inverse(),
        z1 - z4 * (z2 - z1 * z3),
        z2 - z1 * z3,
    ]
    assert compare_extended(rational_map(q1), rational_map(q2))


def test_zamolodchikov_tuple():
    top = parse_braid("B4: 1 2 3 1 2 1")
    left = Weave(
        4,
        top,
        tuple(
            WeaveEvent(k, p)
            for k, p in [("four", 2), ("six", 0), ("six", 2), ("four", 1), ("four", 4), ("six", 2), ("six", 0)]
        ),
    )
    z = {k: poly(f"z{k}") for k in range(1, 7)}
    expected = [
        z[6],
        z[5] - z[4] * z[6],
        z[4],
        z[3] - z[1] * z[5] - z[2] * z[6] + z[1] * z[4] * z[6],
        z[2] - z[1] * z[4],
        z[1],
    ]
    assert list(rational_map(left)) == expected


def test_mutation_extensions_agree():
    t3 = parse_braid("B2: 1 1 1")
    w1 = Weave(2, t3, (WeaveEvent("three", 0), WeaveEvent("three", 0)))
    w2 = Weave(2, t3, (WeaveEvent("three", 1), WeaveEvent("three", 0)))
    m1, m2 = rational_map(w1), rational_map(w2)
    z1, z2, z3 = poly("z1"), poly("z2"), poly("z3")
    assert m1[0] == z3 + z1 / (const(1) + z1 * z2)
    assert compare_extended(m1, m2)
    # the two raw maps differ before extension on their branches
    p1, p2 = propagate_down(w1), propagate_down(w2)
    assert [e.render() for e in p1.inverted] != [e.render() for e in p2.inverted]


def test_chart_simplest():
    beta = parse_braid("B2: 1")
    chart = chart_parametrize(weave_from_opening_order(beta, (1,)))
    s1 = poly("s1")
    assert chart.subs[var_id("z1")] == s1
    assert chart.subs[var_id("z2")] == -s1.inverse()
    pres = variety_equations(append_half_twist(beta), longest_perm(2))
    assert chart_satisfies_equations(chart, pres)


def test_charts_satisfy_equations_sweep():
    rng = random.Random(0)
    for _ in range(12):
        n = rng.choice([2, 3])
        l = rng.randrange(1, 5)
        beta = make_word(n, [rng.randrange(1, n) for _ in range(l)])
        order = list(range(1, l + 1))
        rng.shuffle(order)
        w = weave_from_opening_order(beta, order)
        chart = chart_parametrize(w)
        assert len(chart.unit_params) == l
        pres = variety_equations(append_half_twist(beta), longest_perm(n))
        assert chart_satisfies_equations(chart, pres)
        prop = propagate_down(w)
        assert check_master_identity(w, prop)
        # round trip: substituting the chart into the inverted expressions
        # recovers the parameters
        for r, expr in zip(order, chart.inverted):
            assert expr.substitute(chart.subs) == poly(f"s{r}")
    # longer Mellit weaves, whose left matrices are the largest products
    for text in ("B2: 1 1 1 1 1 1 1", "B3: 1 2 1 1 1 1 2", "B4: 1 2 3 3 3 1 1 2"):
        beta = parse_braid(text)
        w = weave_from_opening_order(beta, mellit_order(beta))
        assert check_master_identity(w, propagate_down(w))


def test_simplifying_chart_with_cup():
    # a cup contributes an affine parameter: the stratum chart C x C* of the
    # four-crossing variety with the first variable pinned to zero
    top = make_word(2, [1, 1, 1, 1])
    w = Weave(2, top, (WeaveEvent("cup", 0), WeaveEvent("three", 0)))
    chart = chart_parametrize(w)
    assert chart.subs[top.variables[0]].is_zero()
    assert chart.subs[top.variables[1]] == poly("a1")
    assert chart.subs[top.variables[2]] == poly("t1")
    assert chart.subs[top.variables[3]] == -poly("t1").inverse()
    pres = variety_equations(top, longest_perm(2))
    assert chart_satisfies_equations(chart, pres)
    prop = propagate_down(w)
    assert prop.vanishing == [poly("z1")] and prop.inverted == [poly("z3")]
    assert check_master_identity(w, prop)
    counts = w.counts()
    assert 2 * counts["cup"] + counts["three"] == len(w.slices()[0]) - len(w.slices()[-1])
    # a bottom that does not lift the longest element is rejected
    bad = Weave(2, make_word(2, [1, 1]), (WeaveEvent("cup", 0),))
    with pytest.raises(Exception):
        chart_parametrize(bad)


def test_empty_word_chart_is_the_point():
    beta = parse_braid("", 3)
    chart = chart_parametrize(weave_from_opening_order(beta, ()))
    assert chart.unit_params == [] and chart.affine_params == []
    assert all(e.is_zero() for e in chart.subs.values())


def test_four_strand_openings_with_commutations():
    beta = parse_braid("B4: 1 3")
    pres = variety_equations(append_half_twist(beta), longest_perm(4))
    for order in ((1, 2), (2, 1)):
        w = weave_from_opening_order(beta, order)
        assert w.counts()["four"] > 0  # distant letters force 4-valent events
        prop = propagate_down(w)
        assert check_master_identity(w, prop)
        assert chart_satisfies_equations(chart_parametrize(w), pres)


def test_master_identity_with_composite_cup_constraint():
    # the cup's vanishing expression here is z3 + 1/z2, not a bare variable,
    # so the identity is checked on prime-field points of its locus
    w = Weave(2, make_word(2, [1, 1, 1, 1]), (WeaveEvent("three", 1), WeaveEvent("cup", 1)))
    prop = propagate_down(w)
    assert [e.render() for e in prop.vanishing] == ["z2^-1 + z3"]
    assert check_master_identity(w, prop)


def test_mellit_orders():
    assert mellit_order(parse_braid("B3: 1 2 1")) == [3, 1, 2]
    assert mellit_order(parse_braid("B2: 1")) == [1]
    assert mellit_order(parse_braid("B2: 1 1")) == [1, 2]
    beta = parse_braid("B3: 1 2 1")
    chart = chart_parametrize(weave_from_opening_order(beta, mellit_order(beta)))
    pres = variety_equations(append_half_twist(beta), longest_perm(3))
    assert chart_satisfies_equations(chart, pres)


def test_mellit_order_interns_no_names():
    # the exchange index reads beta Delta's own variable ids, so the walk
    # registers no names (each would widen every later packed monomial)
    from braidweave import ring

    delta7 = " ".join(map(str, half_twist_letters(7)))
    for text in ("B4: 3 2 1 3 3 3 1 2", "B7: " + delta7):
        beta = parse_braid(text)
        append_half_twist(beta)  # interns the z names of beta Delta
        before = len(ring._id_to_name)
        mellit_order(beta)
        assert len(ring._id_to_name) == before, text


def test_solve_half_twist_matches_matrix_products():
    # oracle: lower . B_Delta(u) . w0 multiplied out with MatrixExpr products
    rng = random.Random(14)
    one, zero = const(1), const(0)
    for n in range(2, 7):
        delta = half_twist_letters(n)
        w0 = perm_matrix(longest_perm(n))
        for symbolic in (True, False, False):
            rows = [[one if r == c else zero for c in range(n)] for r in range(n)]
            for r in range(n):
                for c in range(r):
                    rows[r][c] = poly(f"c{r + 1}{c + 1}") if symbolic else const(rng.randint(-4, 4))
            lower = MatrixExpr(rows)
            u = solve_half_twist(lower)
            assert len(u) == len(delta)
            m = lower
            for i, x in zip(delta, u):
                m = m * elementary_braid_matrix(n, i, x)
            assert m * w0 == MatrixExpr.identity(n), (n, symbolic)
    for bad in (
        MatrixExpr([[const(2), zero], [poly("c21"), one]]),
        MatrixExpr([[one, poly("c12")], [poly("c21"), one]]),
    ):
        with pytest.raises(PatternMismatch):
            solve_half_twist(bad)


def test_solve_half_twist_on_laurent_matrices():
    # the direct route passes LaurentPoly matrices: the values equal those
    # over RationalExpr, and a matrix that is not lower uni-triangular is
    # refused the same way
    rng = random.Random(18)
    for n in range(2, 6):
        one, zero = LaurentPoly.const(1), LaurentPoly.zero()
        rows = [[one if r == c else zero for c in range(n)] for r in range(n)]
        for r in range(n):
            for c in range(r):
                x = LaurentPoly.variable(var_id(f"c{r + 1}{c + 1}"))
                rows[r][c] = x.scale(rng.choice([1, -2, 3])) + LaurentPoly.const(rng.randint(-4, 4))
        lower = MatrixExpr(rows)
        want = solve_half_twist(MatrixExpr([[RationalExpr(e) for e in row] for row in rows]))
        got = solve_half_twist(lower)
        assert all(type(x) is LaurentPoly for x in got)
        assert [RationalExpr(x) for x in got] == want
    c12, c21 = (LaurentPoly.variable(var_id(v)) for v in ("c12", "c21"))
    one, zero = LaurentPoly.const(1), LaurentPoly.zero()
    for bad in (
        MatrixExpr([[LaurentPoly.const(2), zero], [c21, one]]),
        MatrixExpr([[one, c12], [c21, one]]),
        MatrixExpr([[one, zero, zero], [c21, LaurentPoly.const(-1), zero], [zero, c12, one]]),
    ):
        with pytest.raises(PatternMismatch):
            solve_half_twist(bad)


def test_mellit_chart_conditions_for_two_strands():
    # walk-based chart of s1 s1 s1 is z1 != 0, 1 + z1 z2 != 0
    beta = parse_braid("B2: 1 1")
    order = mellit_order(beta)
    chart = chart_parametrize(weave_from_opening_order(beta, order))
    records = [line for line in chart.render().splitlines() if line.startswith("invert: ")]
    assert records == ["invert: z1", "invert: z1^-1 + z2"]


def test_two_strand_mellit_chart_of_length_ten():
    # a long chart stays cheap because the left matrix is only multiplied
    # out when Propagation.left_matrix is read
    beta = make_word(2, [1] * 10)
    chart = chart_parametrize(weave_from_opening_order(beta, mellit_order(beta)))
    pres = variety_equations(append_half_twist(beta), longest_perm(2))
    assert chart_satisfies_equations(chart, pres)


def test_ldu_order_check_survives_optimize():
    # the order check raises a domain exception, so python -O keeps it
    import braidweave

    src = os.path.dirname(os.path.dirname(braidweave.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "from braidweave.braid import PatternMismatch, parse_braid\n"
        "from braidweave.chart import ldu_chart\n"
        "try:\n"
        "    ldu_chart(parse_braid('B2: 1 1'), [1, 1])\n"
        "except PatternMismatch:\n"
        "    print('PatternMismatch')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "PatternMismatch\n"


def test_ldu_matches_weave_charts_small():
    for text in ("B2: 1 1", "B3: 1 2", "B3: 2 1 2"):
        beta = parse_braid(text)
        for order in itertools.permutations(range(1, len(beta) + 1)):
            w = weave_from_opening_order(beta, order)
            cw = chart_parametrize(w)
            cl = ldu_chart(beta, order)
            assert all(cw.subs[v] == cl.subs[v] for v in cw.top.variables)
            assert cl.inverted == cw.inverted


def test_last_opening_slides_nothing():
    # the last opening leaves no letter and no value, and its unit is the
    # one the slid route gives: Bases.unit of the last value, whose factors
    # then slide out of the empty word; on every order of three words, with
    # last values that are units over the bases and values that are not
    fresh = 0
    for text in ("B3: 1 2 1 2", "B4: 2 2 2", "B3: 1 1 2"):
        beta = parse_braid(text)
        for order in itertools.permutations(range(1, len(beta) + 1)):
            bases = Bases()
            letters = list(beta.letters)
            values = [Localized(LaurentPoly.variable(v), {}, bases, True) for v in beta.variables]
            *head, last = opening_positions(order)
            for p in head:
                _, letters, values = _open_step(beta.n, letters, values, p, bases)
            (i,), (value,) = letters, values
            k = len(bases.powers)
            unit, rest, after = _open_step(beta.n, letters, values, last, bases)
            assert (last, rest, after) == (0, [], [])
            fresh += len(bases.powers) > k
            del bases.powers[k:]
            slid = bases.unit(value)
            assert _opening_slides(beta.n, i, slid, [], [], 0)[0] == []
            assert (unit.num, unit.exps, unit.coprime) == (slid.num, slid.exps, slid.coprime)
            assert unit.rational() == _ldu_record(beta, order)[-1]
    assert fresh


def test_ldu_matches_weave_charts_six_and_seven_strands():
    # criterion 8 at more strands: every word of length <= 2 for n = 6 and of
    # length 1 for n = 7, in every opening order
    total = 0
    for n, max_len in ((6, 2), (7, 1)):
        for l in range(1, max_len + 1):
            for letters in itertools.product(range(1, n), repeat=l):
                beta = make_word(n, letters)
                for order in itertools.permutations(range(1, l + 1)):
                    cw = chart_parametrize(weave_from_opening_order(beta, order))
                    cl = ldu_chart(beta, order)
                    same = all(cw.subs[v] == cl.subs[v] for v in cw.top.variables)
                    assert same, (n, letters, order)
                    assert cl.inverted == cw.inverted, (n, letters, order)
                    total += 1
    assert total == 5 + 2 * 25 + 6


def test_chart_properties_on_random_words():
    hypothesis = pytest.importorskip("hypothesis", exc_type=ImportError)
    st = hypothesis.strategies

    @st.composite
    def opened_words(draw):
        n = draw(st.integers(2, 4))
        letters = draw(st.lists(st.integers(1, n - 1), max_size=5))
        order = draw(st.permutations(range(1, len(letters) + 1)))
        return make_word(n, letters), order

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(opened_words())
    def check(case):
        beta, order = case
        cw = chart_parametrize(weave_from_opening_order(beta, order))
        pres = variety_equations(cw.top, longest_perm(beta.n))
        assert chart_satisfies_equations(cw, pres)
        for expr, param in zip(cw.inverted, cw.unit_params, strict=True):
            assert expr.substitute(cw.subs) == RationalExpr.variable(param)
        assert ldu_chart(beta, order).inverted == cw.inverted

    check()


def test_open_crossing_round_trip_f7():
    # opening z2 in B3: 1 2 1 at F_7 points: B_word(z) L(c) equals
    # U B_word'(z') L(c') with U upper triangular, and the opened value comes
    # back from U's diagonal: the factor D = diag(-1/z, z) at strands 2, 3,
    # slid left through the letter 1, puts -1/z on strand 1
    rng = random.Random(5)
    beta = parse_braid("B3: 1 2 1")
    word2, subs, unit = open_crossing(beta, 1)
    assert var_name(unit) == "z2"
    cvars = {(a, b): var_id(f"c{a}{b}") for a in range(2, 4) for b in range(1, a)}
    lower = MatrixExpr(
        [[RationalExpr.variable(cvars[a, b]) if a > b else const(int(a == b)) for b in (1, 2, 3)] for a in (1, 2, 3)]
    )
    before = braid_matrix(beta) * lower
    after_inverse = (braid_matrix(word2) * lower).inverse()
    tested = 0
    while tested < 10:
        pt = {v: rng.randrange(7) for v in list(beta.variables) + list(cvars.values())}
        z = pt[unit]
        img = {nv: e.eval_int(pt, 7) for nv, e in subs.items()}
        if z == 0 or None in img.values():
            continue
        tested += 1
        m = [[before[i, j].eval_int(pt, 7) for j in range(3)] for i in range(3)]
        m2 = [[after_inverse[i, j].eval_int(img, 7) for j in range(3)] for i in range(3)]
        u = [[sum(m[i][k] * m2[k][j] for k in range(3)) % 7 for j in range(3)] for i in range(3)]
        assert all(u[i][j] == 0 for i in range(3) for j in range(i)), u
        assert [u[i][i] for i in range(3)] == [-pow(z, -1, 7) % 7, 1, z]


def test_chart_overlap_consistency_f7():
    # charts from orders differing in the first opened crossing overlap where
    # both inverted coordinates are nonzero; sampled points from one chart lie
    # on the variety and satisfy the other chart's conditions when admissible
    rng = random.Random(7)
    beta = parse_braid("B2: 1 1 1")
    c1 = chart_parametrize(weave_from_opening_order(beta, (1, 2, 3)))
    c2 = chart_parametrize(weave_from_opening_order(beta, (2, 1, 3)))
    pres = variety_equations(append_half_twist(beta), longest_perm(2))
    hits = 0
    overlaps = 0
    for _ in range(200):
        if hits >= 25:
            break
        params = {var_id(f"s{r}"): rng.randrange(1, 7) for r in (1, 2, 3)}
        point = {}
        ok = True
        for v in c1.top.variables:
            val = c1.subs[v].eval_int(params, 7)
            if val is None:
                ok = False
                break
            point[v] = val
        if not ok:
            continue
        hits += 1
        assert all(eq.eval_int(point, 7) == 0 for eq in pres.equations)
        vals2 = [e.eval_int(point, 7) for e in c2.inverted]
        if all(v not in (None, 0) for v in vals2):
            overlaps += 1
    assert hits == 25 and overlaps > 0


def test_larger_charts_stay_exact():
    beta = make_word(3, [1, 2, 1, 2, 1])
    pres = variety_equations(append_half_twist(beta), longest_perm(3))
    for order in ((5, 2, 4, 1, 3), (3, 1, 5, 2, 4)):
        w = weave_from_opening_order(beta, order)
        prop = propagate_down(w)
        assert check_master_identity(w, prop)
        assert chart_satisfies_equations(chart_parametrize(w), pres)
    beta2 = make_word(2, [1] * 8)
    chart = chart_parametrize(weave_from_opening_order(beta2, (8, 1, 5, 3, 2, 7, 4, 6)))
    pres2 = variety_equations(append_half_twist(beta2), longest_perm(2))
    assert chart_satisfies_equations(chart, pres2)


def test_charts_equal_as_subsets():
    beta = parse_braid("B2: 1 1 1")
    c1 = chart_parametrize(weave_from_opening_order(beta, (1, 3, 2)))
    c2 = chart_parametrize(weave_from_opening_order(beta, (3, 1, 2)))
    c3 = chart_parametrize(weave_from_opening_order(beta, (1, 2, 3)))
    assert charts_equal_as_subsets(c1, c2)
    assert not charts_equal_as_subsets(c1, c3)


def test_record_key_merges_equal_charts():
    # equal charts whose records differ as sets of cores (z2 against z1*z2):
    # the key, over the coprime base of all records, puts them in one class
    beta = parse_braid("B3: 1 2 1")
    c1 = chart_parametrize(weave_from_opening_order(beta, (1, 2, 3)))
    c2 = chart_parametrize(weave_from_opening_order(beta, (1, 3, 2)))
    assert charts_equal_as_subsets(c1, c2)
    orders = list(all_orders(3))
    keys = dict(zip(orders, _record_keys([_ldu_record(beta, o) for o in orders])))
    assert keys[(1, 2, 3)] == keys[(1, 3, 2)]
    assert sorted(p.render() for p in keys[(1, 2, 3)]) == ["-z2 + z1*z3", "z1", "z2"]


@pytest.mark.parametrize("l, n_edges", [(2, 1), (3, 5), (4, 21), (5, 84)])
def test_charts_adjacent_matches_tree_rotations(l, n_edges):
    # n = 2 oracle: one chart per binary-tree shape of B2: 1^l (no subset
    # classification needed); adjacency must give exactly the single
    # (ss)s <-> s(ss) rotations of the shapes
    beta = make_word(2, [1] * l)
    charts = {}
    for order in itertools.permutations(range(1, l + 1)):
        w = weave_from_opening_order(beta, order)
        shape = tree_shape(w)
        if shape not in charts:
            charts[shape] = chart_parametrize(w)
    shapes = list(charts)
    index = {s: i for i, s in enumerate(shapes)}
    rotations = {
        tuple(sorted((index[s], index[t]))) for s in shapes for t in tree_rotations(s)
    }
    adjacent = {
        (i, j)
        for i, j in itertools.combinations(range(len(shapes)), 2)
        if charts_adjacent(charts[shapes[i]], charts[shapes[j]])
    }
    assert adjacent == rotations
    assert len(adjacent) == n_edges


def _identity_chart(top, inverted, subs=None):
    if subs is None:
        subs = {v: RationalExpr.variable(v) for v in top.variables}
    return ChartMap(top=top, unit_params=[], affine_params=[], subs=subs, inverted=inverted)


def test_charts_adjacent_core_basis():
    top = parse_braid("B2: 1 1")
    z1, z2, t = poly("z1"), poly("z2"), poly("t1")
    f = 1 + z1 * z2
    c1 = _identity_chart(top, [z1, f])
    # associates (scalar and monomial multiples) and powers of one core merge
    c2 = _identity_chart(top, [z2, (2 + 2 * z1 * z2) ** 2 / z1, f**3 * z2])
    assert charts_adjacent(c1, c2) and charts_adjacent(c2, c1)
    # a single core that is not a primitive binomial is an error, never an
    # edge: a product of two coprime polynomials, and a binomial whose
    # exponent difference is not primitive (1 + (z1*z2)^2 splits over C)
    for bad in ((1 + z1) * (1 + z2), 1 + z1**2 * z2**2):
        with pytest.raises(NotExchangeBinomial, match=r"inverted \[z1, 1 \+ z1\*z2\]"):
            charts_adjacent(c1, _identity_chart(top, [z1, bad]))
    # two coprime parts
    c3 = _identity_chart(top, [z1, 1 + z1, 1 + z2])
    assert not charts_adjacent(c1, c3)
    # no core at all: the pull-backs are units both ways
    c4 = _identity_chart(top, [z1, z2])
    assert not charts_adjacent(c4, _identity_chart(top, [z2]))
    # a pull-back that vanishes identically (each side alone has one core)
    flat = _identity_chart(top, [1 + t], subs={v: t for v in top.variables})
    assert not charts_adjacent(flat, _identity_chart(top, [z1 - z2, 1 + z1]))
    assert charts_adjacent(flat, _identity_chart(top, [1 + z1]))
    # charts of different varieties
    assert not charts_adjacent(c1, _identity_chart(parse_braid("B2: 1 1 1"), [z1, f]))


def test_keys_adjacent_matches_charts_adjacent():
    # the certificate over key elements, on the charts of the test above
    # with each key the record's factors and each vertex the powers of its
    # chart's values: it agrees with the test on whole record parts, raises
    # the same error, naming both orders, and says no edge when there is no
    # core or when a pullback vanishes
    top = parse_braid("B2: 1 1")
    z1, z2, t = poly("z1"), poly("z2"), poly("t1")
    f = 1 + z1 * z2
    elements = []

    def vertex(chart, label, *factors):
        elements.extend(e.num for e in factors if e.num not in elements)
        powers = {v: [LaurentPoly.const(1), x.num] for v, x in chart.subs.items()}
        return powers, frozenset(elements.index(e.num) for e in factors), {}, label

    c1 = _identity_chart(top, [z1, f])
    c2 = _identity_chart(top, [z2, (2 + 2 * z1 * z2) ** 2 / z1, f**3 * z2])
    assert keys_adjacent(vertex(c1, "order 1 2", z1, f), vertex(c2, "order 2 1", z1, z2, f), elements)
    # a single core that is not a primitive binomial: four terms, a
    # binomial whose exponent difference is not primitive, and the same
    # binomial times a unit, which the raw pullback keeps and the error
    # drops
    for bad, core in (
        ((1 + z1) * (1 + z2), r"1 \+ z1 \+ z2 \+ z1\*z2"),
        (1 + z1**2 * z2**2, r"1 \+ z1\^2\*z2\^2"),
        (2 * z1 * (1 + z1**2 * z2**2), r"1 \+ z1\^2\*z2\^2"),
    ):
        with pytest.raises(NotExchangeBinomial, match=rf"\(order 1 2\) and \(order 2 1\) differ in {core}, which"):
            keys_adjacent(
                vertex(c1, "order 1 2", z1, f), vertex(_identity_chart(top, [z1, bad]), "order 2 1", z1, bad), elements
            )
    flat = _identity_chart(top, [1 + z1], subs={v: t for v in top.variables})
    cases = [
        ((c1, z1, f), (_identity_chart(top, [z1, 1 + z1, 1 + z2]), z1, 1 + z1, 1 + z2)),
        ((_identity_chart(top, [z1, z2]), z1, z2), (_identity_chart(top, [z2]), z2)),
        ((flat, 1 + z1), (_identity_chart(top, [z1 - z2, 1 + z1]), z1 - z2, 1 + z1)),
        ((flat, 1 + z1), (_identity_chart(top, [1 + z1]), 1 + z1)),
    ]
    found = []
    for (a, *ka), (b, *kb) in cases:
        found.append(keys_adjacent(vertex(a, "a", *ka), vertex(b, "b", *kb), elements))
        assert found[-1] == charts_adjacent(a, b)
    assert found == [False, False, False, True]


def test_charts_adjacent_stops_at_a_second_core(monkeypatch):
    # non-adjacent class charts of the pentagon B4: 2 2 2 pull back to two
    # coprime cores: the core merge must report it and the test say no edge
    from braidweave import chart

    beta = parse_braid("B4: 2 2 2")
    g = mutation_graph(beta)
    charts = [chart_parametrize(weave_from_opening_order(beta, o)) for o in g.vertices]
    merges = []
    merge = chart._common_core

    def spy(a, b):
        out = merge(a, b)
        merges.append(out)
        return out

    monkeypatch.setattr(chart, "_common_core", spy)
    non_edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(charts)), 2)
        if (i, j) not in g.edges
    ]
    assert len(non_edges) == 5
    for i, j in non_edges:
        merges.clear()
        assert not charts_adjacent(charts[i], charts[j])
        assert merges and merges[-1] is None


def test_certified_exchange_binomials_are_irreducible(monkeypatch):
    # every core that the certificate accepts on the mutation graphs of
    # three words is irreducible over Q, by sympy's factorisation.  The core
    # is a raw pullback, a Laurent polynomial: it is normalised first, which
    # drops only a unit and so keeps (ir)reducibility
    sympy = pytest.importorskip("sympy", exc_type=ImportError)
    from braidweave import chart, cli

    assert issubclass(NotExchangeBinomial, cli.DOMAIN_ERRORS)
    cores = []
    certify = chart._certify

    def spy(core, inner, outer):
        certify(core, inner, outer)
        cores.append(poly_gcd(core, LaurentPoly.zero()))

    monkeypatch.setattr(chart, "_certify", spy)
    edges = sum(
        len(mutation_graph(parse_braid(text)).edges)
        for text in ("B4: 2 2 2", "B3: 1 2 1 2", "B3: 1 1 1 1")
    )
    assert edges == 5 + 5 + 21
    assert len(cores) >= 2 * edges  # both directions of every edge
    for core in {c.render() for c in cores}:
        _, factors = sympy.factor_list(sympy.sympify(core.replace("^", "**")))
        assert [m for _, m in factors] == [1], core
