"""Exact arithmetic kernel tests."""
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from braidweave.ring import (
    DlogOfZero,
    LaurentPoly,
    MatrixExpr,
    NonUnitDeterminant,
    RationalExpr,
    ZeroDenominator,
    const,
    dlog,
    differentiate,
    poly,
    poly_exact_div,
    poly_gcd,
    substitute,
    var_id,
    wedge_trace,
)

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


def test_coefficients_are_rationals():
    assert type(const(3).num.constant_value()) is Fraction
    assert const(Fraction(1, 2)) * const(2) == const(1)
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
        "from braidweave.weave import Weave, WeaveEvent, _tree_shape\n"
        "try:\n"
        "    TwoForm({(2, 1): const(1)})\n"
        "except RingError:\n"
        "    print('RingError')\n"
        "try:\n"
        "    _tree_shape(Weave(2, make_word(2, [1, 1, 1]), (WeaveEvent('three', 0),)))\n"
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
    sympy = pytest.importorskip("sympy")
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
