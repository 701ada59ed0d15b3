"""Exact arithmetic kernel tests."""
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import ring_oracle
from braidweave import ring
from braidweave.ring import (
    DlogOfZero,
    LaurentPoly,
    MatrixExpr,
    NonUnitDeterminant,
    RationalExpr,
    RingError,
    ZeroDenominator,
    const,
    dlog,
    differentiate,
    mono_decode,
    poly,
    poly_exact_div,
    poly_gcd,
    substitute,
    var_id,
    wedge_trace,
)
from mutation_oracle import coprime_base

z1, z2, z3 = poly("z1"), poly("z2"), poly("z3")


def test_additive_inverse():
    assert (z1 + (-z1)).is_zero()


def test_multiplicative_identity():
    e = const(1) + z1 * z2
    assert e * const(1) == e


def test_laurent_clearing():
    assert (z2 + z1.inverse()) * z1 == const(1) + z1 * z2


def test_substitution_examples():
    t, w = poly("t"), poly("w")
    assert substitute(z2 + z1.inverse(), {"z1": t, "z2": w - t.inverse()}) == w
    assert substitute(z1, {}) == z1
    assert substitute(const(1) + z1 * z2, {"z2": -z1.inverse()}).is_zero()


def test_substitution_zero_denominator():
    with pytest.raises(ZeroDenominator):
        substitute(z1.inverse(), {"z1": const(0)})


def test_differentiate():
    assert differentiate(z1 * z2, "z1") == z2
    assert differentiate(const(1) + z1 * z2, "z3").is_zero()
    # quotient rule
    f = z1 / (const(1) + z1 * z2)
    expected = (const(1)) / ((const(1) + z1 * z2) * (const(1) + z1 * z2))
    assert differentiate(f, "z1") == expected


def test_dlog():
    f = dlog(-z1.inverse())
    assert set(f.coeffs) == {var_id("z1")}
    assert f.coeffs[var_id("z1")] == -z1.inverse()
    with pytest.raises(DlogOfZero):
        dlog(const(0))


def test_canonical_rendering_shape():
    e = const(1) + z1 * z2 - z1.inverse() * z3 * z3
    assert e.render() == "1 + z1*z2 - z1^-1*z3^2"


def test_rational_canonical_gcd():
    num = z1 * z1 - z2 * z2
    assert num / (z1 + z2) == z1 - z2
    # denominators are primitive with positive leading coefficient
    e = z1 / (const(-2) * z2 + const(-2))
    assert e.den.render() == "1 + z2"
    assert e == z1 * const(Fraction(-1, 2)) / (const(1) + z2)


def test_exact_division_and_gcd():
    a = (z1 + z2) * (const(1) + z1 * z2)
    b = (z1 + z2) * z3
    g = poly_gcd(a.num, b.num)
    assert g == (z1 + z2).num
    assert poly_exact_div(a.num, g) == (const(1) + z1 * z2).num
    assert poly_exact_div((z1 * z2).num, (z1 + z2).num) is None


def _random_expr(rng, vars_, depth=2):
    if depth == 0:
        picks = [const(rng.randrange(-3, 4))] + [poly(v) for v in vars_]
        return rng.choice(picks)
    a = _random_expr(rng, vars_, depth - 1)
    b = _random_expr(rng, vars_, depth - 1)
    op = rng.choice(["+", "-", "*", "*", "/"])
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b.is_zero():
        return a
    return a / b


def test_ring_axioms_random():
    rng = random.Random(0)
    vars_ = ["z1", "z2", "z3"]
    for _ in range(25):
        a = _random_expr(rng, vars_)
        b = _random_expr(rng, vars_)
        c = _random_expr(rng, vars_)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_canonical_equality_matches_evaluation():
    rng = random.Random(1)
    vars_ = ["z1", "z2"]
    q = 101
    for _ in range(20):
        a = _random_expr(rng, vars_)
        b = _random_expr(rng, vars_)
        # rewritten copy of a must equal a structurally
        a2 = (a * (const(1) + z1)) / (const(1) + z1)
        assert a2 == a
        agree = True
        tested = 0
        for _ in range(60):
            if tested >= 20:
                break
            pt = {var_id(v): rng.randrange(q) for v in vars_}
            va, vb = a.eval_int(pt, q), b.eval_int(pt, q)
            if va is None or vb is None:
                continue
            tested += 1
            if va != vb:
                agree = False
                break
        if a == b:
            assert agree
        elif tested >= 20 and agree:
            # distinct canonical forms that agree everywhere would be a bug
            diff = a - b
            assert not diff.is_zero()


def test_gcd_common_factor_property():
    rng = random.Random(4)
    vars_ = ["z1", "z2", "z3"]
    for _ in range(15):
        a = _random_expr(rng, vars_, 1)
        b = _random_expr(rng, vars_, 1)
        c = _random_expr(rng, vars_, 1)
        if any(e.is_zero() for e in (a, b, c)):
            continue
        # common factors cancel: (a c)/(b c) == a/b
        assert (a * c) / (b * c) == a / b
        g = poly_gcd((a * c).num, (b * c).num)
        assert poly_exact_div(g, poly_gcd(g, c.num)) is not None


def test_coprime_base_refines_shared_factors():
    # inputs sharing factors in every pattern: a power, a product of two
    # base elements, an input equal to a base element, a repeated input
    f, g, h, k = (e.num for e in (1 + z1 * z2, 2 + z1 - z3, 1 + z2 * z3, 3 * z1 + z2))
    inputs = [f * g, f**2, g * h, h, f * g, k]
    base = coprime_base(poly_gcd(p, LaurentPoly.zero()) for p in inputs)
    expected = {poly_gcd(p, LaurentPoly.zero()) for p in (f, g, h, k)}
    assert len(base) == 4 and set(base) == expected
    for p in inputs:
        for b in base:
            while poly_exact_div(p, b) is not None:
                p = poly_exact_div(p, b)
        assert p.is_constant()


def test_coefficients_are_rationals():
    # exact rationals: integral values are stored as int, others as Fraction
    for value in (3, Fraction(6, 3), Fraction(-4, 2)):
        assert type(const(value).num.constant_value()) is int
    assert const(Fraction(6, 3)) == const(2)
    assert type(const(Fraction(1, 2)).num.constant_value()) is Fraction
    assert const(Fraction(1, 2)) * const(2) == const(1)
    assert type((const(Fraction(1, 2)) * const(2)).num.constant_value()) is int
    for bad in (0.5, "1", None):
        with pytest.raises(TypeError):
            const(bad)


def test_eval_int_mod_q_is_none_where_undefined():
    z = var_id("z1")
    # canonical form: numerator 1/2 over 1 + 2*z1, so 2 divides a coefficient's
    # denominator
    e = const(1) / (const(2) + const(4) * z1)
    assert e.num.constant_value() == Fraction(1, 2)
    assert e.eval_int({z: 3}, 2) is None
    assert e.eval_int({z: 3}) == Fraction(1, 14)
    assert e.eval_int({z: 3}, 5) == pow(14, -1, 5)
    # negative power of 0, and a vanishing denominator
    assert z1.inverse().eval_int({z: 7}, 7) is None
    assert (const(1) / (const(1) + z1)).eval_int({z: 6}, 7) is None


def test_checks_survive_optimize():
    # shape checks raise domain exceptions, so python -O keeps them
    import braidweave

    src = os.path.dirname(os.path.dirname(braidweave.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "from braidweave.braid import PatternMismatch, make_word\n"
        "from braidweave.ring import RingError, TwoForm, const\n"
        "from braidweave.chart import chart_parametrize\n"
        "from braidweave.weave import Weave, WeaveEvent\n"
        "try:\n"
        "    TwoForm({(2, 1): const(1)})\n"
        "except RingError:\n"
        "    print('RingError')\n"
        "try:\n"
        "    chart_parametrize(Weave(2, make_word(2, [1, 1, 1]), (WeaveEvent('three', 0),)))\n"
        "except PatternMismatch:\n"
        "    print('PatternMismatch')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "RingError\nPatternMismatch\n"


def _braid2(z):
    return MatrixExpr([[const(0), const(1)], [const(1), z]])


def test_matrix_product_and_inverse():
    b1, b2 = _braid2(z1), _braid2(z2)
    prod = b1 * b2
    assert prod.rows[0][0] == const(1)
    assert prod.rows[1][1] == const(1) + z1 * z2
    assert b1.det() == const(-1)
    assert b1 * b1.inverse() == MatrixExpr.identity(2)
    assert b1.inverse() * b1 == MatrixExpr.identity(2)


def test_non_unit_determinant():
    m = MatrixExpr([[z1, const(1)], [const(1), z1.inverse()]])
    assert m.det().is_zero() or not m.det().is_unit()
    with pytest.raises(NonUnitDeterminant):
        m.inverse()
    m2 = MatrixExpr([[const(1) + z1, const(0)], [const(0), const(1)]])
    with pytest.raises(NonUnitDeterminant):
        m2.inverse()


def test_random_triangular_inverse():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.choice([2, 3])
        rows = [[const(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = poly(f"d{i}") if rng.random() < 0.5 else const(rng.choice([1, -1, 2]))
            for j in range(i + 1, n):
                rows[i][j] = _random_expr(rng, ["z1", "z2"], 1)
        m = MatrixExpr(rows)
        assert m * m.inverse() == MatrixExpr.identity(n)


def test_wedge_trace_values():
    # single braid letters pair to dz1 ^ dz2
    w = wedge_trace(_braid2(z1), _braid2(z2))
    assert list(w.coeffs.values()) == [const(1)]
    assert wedge_trace(MatrixExpr.identity(2), _braid2(z2)).is_zero()


def _random_monomial_matrix(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[const(0)] * n for _ in range(n)]
    for j, i in enumerate(perm):
        e = rng.choice([1, -1, 2])
        v = rng.choice(["z1", "z2", "z3", "z4"])
        rows[i][j] = poly(v) ** e * const(rng.choice([1, -1]))
    return MatrixExpr(rows)


def test_wedge_trace_cocycle():
    rng = random.Random(3)
    for n in (2, 3):
        for _ in range(4):
            f = _random_monomial_matrix(rng, n)
            g = _random_monomial_matrix(rng, n)
            h = _random_monomial_matrix(rng, n)
            lhs = wedge_trace(g, h) + wedge_trace(f, g * h)
            rhs = wedge_trace(f * g, h) + wedge_trace(f, g)
            assert lhs == rhs


# -- gcd-aware arithmetic against the general constructor -------------------


def _henrici_operands():
    """Canonical operands, built through the general constructor, whose
    pairs force every branch of the gcd-aware arithmetic: denominator 1,
    equal denominators, denominators sharing a factor (also p^2), Laurent
    monomial numerators, sums that cancel to 0, and a shared factor that
    divides the sum of the cross terms (r + q = 2p)."""
    x, y, z = (LaurentPoly.variable(var_id(v)) for v in ("z1", "z2", "z3"))
    one = LaurentPoly.const(1)
    p, q, s = one + x * y, one + x, z + LaurentPoly.const(3)
    r = one + x * y.scale(2) - x
    laurent = x.mul_monomial(((var_id("z1"), -2), (var_id("z2"), 1)), 3)
    pairs = [
        (one, one),
        (laurent, one),
        (y - x * z, one),
        (one, p),
        (x, p),
        (-one, p),
        (y - x * z, p * p),
        (one, p * q),
        (one, p * r),
        (q.mul_monomial(((var_id("z3"), -1),)), p * p * r),
        (laurent + z, s),
    ]
    return [RationalExpr(n, d) for n, d in pairs]


def _oracle(op, a, b):
    n1, d1, n2, d2 = a.num, a.den, b.num, b.den
    if op == "+":
        return RationalExpr(n1 * d2 + n2 * d1, d1 * d2)
    if op == "-":
        return RationalExpr(n1 * d2 - n2 * d1, d1 * d2)
    if op == "*":
        return RationalExpr(n1 * n2, d1 * d2)
    return RationalExpr(n1 * d2, d1 * n2)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def test_gcd_aware_arithmetic_matches_general_constructor():
    ops = _henrici_operands()
    for a in ops:
        assert a.inverse() == RationalExpr(a.den, a.num)
        assert (a - a).is_zero() and (a + (-a)).is_zero()
        for b in ops:
            for op, fn in _OPS.items():
                if op == "/" and b.is_zero():
                    continue
                got, want = fn(a, b), _oracle(op, a, b)
                assert (got.num, got.den) == (want.num, want.den), (op, a, b)
                assert got.render() == want.render()
    # the shared factor p divides the cross-term sum and must cancel
    x, y = poly("z1"), poly("z2")
    one = const(1)
    p, q, r = one + x * y, one + x, one + const(2) * x * y - x
    assert one / (p * q) + one / (p * r) == const(2) / (q * r)
    assert one / (p * p * q) + one / (p * p * r) == const(2) / (p * q * r)


def test_gcd_aware_arithmetic_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy", exc_type=ImportError)
    syms = sympy.symbols("z1 z2 z3")
    table = {str(s): s for s in syms}

    def to_sympy(e):
        return sympy.sympify(e.render().replace("^", "**"), locals=table)

    ops = [_henrici_operands()[k] for k in (1, 3, 6, 7, 8, 9)]
    for a in ops:
        for b in ops:
            for op, fn in _OPS.items():
                if op == "/" and b.is_zero():
                    continue
                got = fn(a, b)
                want = sympy.cancel(fn(to_sympy(a), to_sympy(b)))
                assert sympy.cancel(to_sympy(got) - want) == 0, (op, a, b)
                # the denominator is sympy's reduced one up to a unit
                unit = sympy.cancel(sympy.denom(want) / to_sympy(RationalExpr(got.den)))
                assert len(sympy.Poly(sympy.numer(unit), *syms).terms()) == 1, (op, a, b)
                assert len(sympy.Poly(sympy.denom(unit), *syms).terms()) == 1, (op, a, b)


# -- the packed-monomial kernel against the tuple-monomial oracles ----------


def _random_laurent(rng, vids, terms=4):
    """A random Laurent polynomial with negative exponents and rational
    coefficients, built from (var_id, exponent) listings."""
    out = LaurentPoly.zero()
    for _ in range(terms):
        mono = [(v, rng.choice([-2, -1, 1, 2, 3])) for v in sorted(rng.sample(vids, rng.randrange(len(vids) + 1)))]
        coeff = rng.choice([1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 4)])
        out = out + LaurentPoly.const(coeff).mul_monomial(mono)
    return out


def test_packed_product_matches_tuple_oracle():
    rng = random.Random(5)
    vids = [var_id(v) for v in ("z1", "z2", "z3", "z4")]
    for _ in range(200):
        p, q = _random_laurent(rng, vids), _random_laurent(rng, vids, 6)
        assert dict((p * q).terms.items()) == ring_oracle.mul(dict(p.terms), dict(q.terms))


def test_monomial_factor_matches_decoded_minimum():
    # the biased field-wise minimum against per-variable minima of the
    # decoded listings, with exponents past its range taking the slow path
    rng = random.Random(8)
    vids = [var_id(v) for v in ("z1", "z2", "z3", "z4")]
    big = [LaurentPoly.variable(vids[0]) ** (2**30), LaurentPoly.const(1).mul_monomial([(vids[1], -(2**30) - 1)])]
    for k in range(120):
        p = _random_laurent(rng, vids, rng.randrange(1, 6))
        if k % 10 == 0:
            p = p * (LaurentPoly.const(1) + rng.choice(big))
        core, mono = p.monomial_normalized()
        shift = [(v, e) for v, e in p.min_exponents().items() if e]
        assert dict(mono_decode(mono)) == dict(shift)
        assert core == p.mul_monomial([(v, -e) for v, e in shift])


def test_one_pass_substitution_matches_term_oracle():
    rng = random.Random(6)
    vids = [var_id(v) for v in ("z1", "z2", "z3", "z4")]
    for _ in range(60):
        p = _random_laurent(rng, vids, 5)
        bindings = {}
        for v in rng.sample(vids, rng.randrange(1, 4)):
            num = _random_laurent(rng, vids, 3)
            if num.is_zero():
                num = LaurentPoly.const(Fraction(2, 3))
            kind = rng.choice(["laurent", "rational", "scalar"])
            if kind == "laurent":
                bindings[v] = RationalExpr(num)
            elif kind == "rational":
                den = LaurentPoly.const(rng.choice([1, 2])) + _random_laurent(rng, vids, 2)
                bindings[v] = RationalExpr(num) / (RationalExpr(den) if not den.is_zero() else const(3))
            else:
                bindings[v] = const(rng.choice([Fraction(1, 3), -2, 5]))
        got = p.substitute(bindings)
        want = ring_oracle.substitute(dict(p.terms), bindings)
        assert (got.num, got.den) == (want.num, want.den), (p, bindings)


def test_gcd_fallback_matches_heuristic(monkeypatch):
    # with no evaluation points the heuristic gives up at once and the
    # primitive remainder sequence computes the same normalised gcd; the
    # factors are binomials, since the remainder sequence's coefficients can
    # swell for seconds on products of trinomials
    rng = random.Random(7)
    vids = [var_id(v) for v in ("z1", "z2", "z3")]
    cases = []
    for _ in range(25):
        f, g, h = (_random_laurent(rng, vids, 2) for _ in range(3))
        if not (f.is_zero() or g.is_zero() or h.is_zero()):
            cases.append((f * g, f * h, poly_gcd(f * g, f * h)))
    calls = []
    prs = ring._prs_gcd

    def spy(a, b):
        calls.append((a, b))
        return prs(a, b)

    monkeypatch.setattr(ring, "HEU_GCD_POINTS", 0)
    monkeypatch.setattr(ring, "_prs_gcd", spy)
    for a, b, heuristic in cases:
        assert poly_gcd(a, b) == heuristic
    assert len(cases) > 15 and calls


def _gcd_shortcut_cases():
    """Seeded pairs (f*g, f*h) of true polynomials with int and Fraction
    coefficients: f is 1 in about a third of them, g and h run over disjoint
    or shared variable sets, and every tenth pair has equal operands."""
    rng = random.Random(35)
    vids = [var_id(f"z{k}") for k in range(1, 6)]

    def rand(vs, terms):
        out = LaurentPoly.const(rng.choice([0, 1, -2, Fraction(1, 3)]))
        for _ in range(terms):
            mono = [(v, rng.randrange(1, 3)) for v in sorted(rng.sample(vs, rng.randrange(1, len(vs) + 1)))]
            out = out + LaurentPoly.const(rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])).mul_monomial(mono)
        return out

    cases = []
    for k in range(150):
        shuffled = rng.sample(vids, len(vids))
        if k % 2:  # g and h over disjoint variable sets
            gv, hv = shuffled[:2], shuffled[2:4]
        else:
            gv = hv = shuffled[:3]
        f = LaurentPoly.const(1) if k % 3 == 0 else rand(rng.sample(vids, 2), 2)
        g, h = rand(gv, rng.randrange(1, 4)), rand(hv, rng.randrange(1, 4))
        if not (f.is_zero() or g.is_zero() or h.is_zero()):
            cases.append((f * g, f * g if k % 10 == 0 else f * h))
    return cases


def test_gcd_shortcut_matches_gcdheu(monkeypatch):
    # equal operands and the coprime test on one operand's own variables
    # answer without GCDHEU, and give the gcd that GCDHEU gives
    cases = _gcd_shortcut_cases()
    shortcut, answers = ring._gcd_shortcut, []

    def spy(a, b):
        out = shortcut(a, b)
        answers.append(out)
        return out

    monkeypatch.setattr(ring, "_gcd_shortcut", spy)
    fast = [poly_gcd(a, b) for a, b in cases]
    # without the shortcut GCDHEU sees the coprime pairs too; a lifted image
    # 1 divides everything, so it is never tried as a divisor
    divide, divisors = ring._divide, []

    def divide_spy(f, h):
        divisors.append(h)
        return divide(f, h)

    monkeypatch.setattr(ring, "_gcd_shortcut", lambda a, b: None)
    monkeypatch.setattr(ring, "_divide", divide_spy)
    assert fast == [poly_gcd(a, b) for a, b in cases]
    assert divisors and {0: 1} not in divisors
    one = LaurentPoly.const(1)
    assert sum(g == one for g in answers if g is not None) > 20
    assert sum(g is not None and g != one for g in answers) > 10
    assert sum(g is None for g in answers) > 20


def test_gcd_shortcut_matches_sympy():
    sympy = pytest.importorskip("sympy", exc_type=ImportError)
    table = {f"z{k}": sympy.Symbol(f"z{k}") for k in range(1, 6)}

    def to_sympy(p):
        return sympy.sympify(p.render().replace("^", "**"), locals=table)

    for a, b in _gcd_shortcut_cases():
        # poly_gcd strips monomial factors, which are units
        want = sympy.gcd(*(to_sympy(p.monomial_normalized()[0]) for p in (a, b)))
        assert sympy.cancel(to_sympy(poly_gcd(a, b)) / want).is_number, (a, b)


def test_exponents_that_overflow_a_field_are_refused():
    # a packed field holds exponents of absolute value below 2^31
    x = LaurentPoly.variable(var_id("z1"))
    assert (x**3).terms == {((var_id("z1"), 3),): 1}
    with pytest.raises(RingError):
        x ** (1 << 31)
    with pytest.raises(RingError):
        (x * x) ** (1 << 30)
    with pytest.raises(RingError):
        LaurentPoly.const(1).mul_monomial([(var_id("z2"), -(1 << 31))])


def test_general_constructor_on_a_twelve_term_denominator():
    # the cross product of these two canonical operands has a 12-term
    # denominator in three variables; the general constructor must reduce
    # it to the gcd-aware sum
    a = (z2 - z1 * z3) / (const(1) + z1 * z2) ** 2
    b = (const(1) + const(3) * z1.inverse() * z2) / ((const(1) + z1) * (const(3) + z3))
    assert len((a.den * b.den).terms) == 12
    cross = RationalExpr(a.num * b.den + b.num * a.den, a.den * b.den)
    assert (cross.num, cross.den) == ((a + b).num, (a + b).den)


# -- division by units on bare Laurent polynomials ---------------------------


def test_laurent_unit_division_matches_rational():
    rng = random.Random(18)
    vids = [var_id(v) for v in ("z1", "z2", "z3")]
    for _ in range(200):
        coeff = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 7)])
        unit = _random_laurent(rng, vids, 1).scale(coeff)
        p = _random_laurent(rng, vids)
        inv = unit.inverse()
        assert RationalExpr(inv) == RationalExpr(unit).inverse()
        assert RationalExpr(p / unit) == RationalExpr(p) / RationalExpr(unit)
        assert (unit * inv).terms == {(): 1}
        ((_, c),) = inv._terms.items()
        if c in (1, -1):
            assert type(c) is int


def test_laurent_division_by_a_non_unit_is_refused():
    x, y = LaurentPoly.variable(var_id("z1")), LaurentPoly.variable(var_id("z2"))
    for bad in (x + y, x + LaurentPoly.const(1), LaurentPoly.zero()):
        with pytest.raises(ring.NonUnitDivisor):
            bad.inverse()
        with pytest.raises(ring.NonUnitDivisor):
            x / bad
    assert issubclass(ring.NonUnitDivisor, RingError)


def test_localized_units_keep_integer_coefficients():
    # an inverse with coefficient 1 or -1 takes no Fraction round trip, in
    # Localized.inverse as in Bases.unit
    bases = ring.Bases()
    z = ring.Localized(LaurentPoly.variable(var_id("z1")), {}, bases, True)
    for value in (z, -z, z + z.const(1), -(z + z.const(1)), z * z - z.const(1)):
        unit = bases.unit(value)
        for u in (unit, unit.inverse()):
            ((_, c),) = u.num._terms.items()
            assert c in (1, -1) and type(c) is int
        assert (unit.inverse() * unit).rational() == RationalExpr.const(1)
        assert unit.rational() == value.rational()
    half = bases.unit(z.const(2) * z + z.const(4)).inverse()
    assert half.num.terms == {(): Fraction(1, 2)}


def test_unit_passes_a_one_term_value_through():
    # a value whose numerator is one term is a unit already: Bases.unit
    # returns it as it is and registers no base; a two-term one gains one
    bases = ring.Bases()
    z = ring.Localized(LaurentPoly.variable(var_id("z1")), {}, bases, True)
    over = bases.unit(z + z.const(1)).inverse()
    assert len(bases.powers) == 1
    for value in (z, -z, z.const(3) * z * z, over, over * z):
        assert len(value.num._terms) == 1
        assert bases.unit(value) is value
        assert len(bases.powers) == 1
    assert bases.unit(z * z + z.const(1)).exps == {1: -1}
    assert len(bases.powers) == 2


def test_leading_matches_the_decoded_lex_key():
    # the lex leading term read off the packed fields, against the decoded
    # listing's key (ring_oracle.lex_key), on 24 000 random true polynomials
    # with up to eight terms over six variables
    rng = random.Random(11)
    ids = [var_id(f"lead{k}") for k in range(6)]
    for _ in range(24000):
        terms = {}
        for _ in range(rng.randint(1, 8)):
            listing = [(v, rng.randint(0, 4)) for v in rng.sample(ids, rng.randint(0, 4))]
            terms[ring.mono_pack(listing)] = rng.choice([1, -1, 2, Fraction(-1, 3)])
        p = LaurentPoly(terms)
        m = min(p._terms, key=ring_oracle.lex_key)
        assert p.leading() == (m, p._terms[m]), p


def _plain_terms(d):
    """A term dict cleaned the slow way: zeros dropped, integral Fractions
    made ints."""
    return {m: int(c) if Fraction(c).denominator == 1 else c for m, c in d.items() if c}


def _assert_clean(p):
    for c in p._terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_laurent_fast_paths_match_term_loops():
    # sums with 0, products with 0, 1, -1 and one-term operands, negation,
    # scaling and monomial shifts against the plain term-dict loops; the
    # half coefficients make products whose Fractions turn integral
    rng = random.Random(34)
    x_id, y_id = var_id("x"), var_id("y")
    coeffs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]

    def draw():
        kind = rng.randrange(6)
        if kind == 0:
            return rng.choice([LaurentPoly.zero(), LaurentPoly.const(1), LaurentPoly.const(-1)])
        d = {}
        for _ in range(1 if kind < 3 else rng.randrange(2, 5)):
            mono = ring.mono_pack([(x_id, rng.randrange(-2, 3)), (y_id, rng.randrange(-2, 3))])
            d[mono] = rng.choice(coeffs[:4] if kind == 1 else coeffs)
        return LaurentPoly(d)

    for _ in range(400):
        a, b = draw(), draw()
        ta, tb = a._terms, b._terms
        prod, total, diff = {}, dict(ta), dict(ta)
        for m1, c1 in ta.items():
            for m2, c2 in tb.items():
                prod[m1 + m2] = prod.get(m1 + m2, 0) + c1 * c2
        for m, c in tb.items():
            total[m] = total.get(m, 0) + c
            diff[m] = diff.get(m, 0) - c
        s = rng.choice([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
        shift = ring.mono_pack([(x_id, rng.randrange(-2, 3))])
        cases = [
            (a * b, prod),
            (b * a, prod),
            (a + b, total),
            (a - b, diff),
            (-a, {m: -c for m, c in ta.items()}),
            (a.scale(s), {m: c * s for m, c in ta.items()}),
            (a.mul_monomial(shift, s), {m + shift: c * s for m, c in ta.items()}),
        ]
        for got, want in cases:
            assert got._terms == _plain_terms(want), (a, b)
            _assert_clean(got)
    x, one = LaurentPoly.variable(x_id), LaurentPoly.const(1)
    assert (x * one) is x and (one * x) is x and (x + LaurentPoly.zero()) is x
    assert LaurentPoly.const(Fraction(2, 2)) is one and LaurentPoly.const(0) is LaurentPoly.zero()


def test_shared_constants_survive_commands():
    # the constants are shared, so an operation that wrote a term dict in
    # place would show here after a few commands
    import io

    from braidweave import cli

    for argv in (
        ["chart", "--braid", "B3: 1 2 1 2 1 2", "--mellit"],
        ["cluster", "--braid", "B2: 1 1 1 1 1", "--order", "4 5 1 3 2"],
        ["mutation-graph", "--braid", "B2: 1 1 1 1"],
    ):
        assert cli.run(argv, out=io.StringIO()) == 0, argv
    assert LaurentPoly.zero()._terms == {} and LaurentPoly.const(1)._terms == {0: 1}
    assert LaurentPoly.const(0) is LaurentPoly.zero()
