"""Tuple-monomial Laurent arithmetic: oracles for the packed-monomial kernel
in ``braidweave.ring``.

A polynomial here is a dict from monomials to nonzero coefficients, and a
monomial is a sorted tuple of ``(var_id, exponent)`` pairs with nonzero
exponents, which is the shape ``LaurentPoly.terms`` shows.  The product is
the term-by-term one on such dicts; the substitution builds one
``RationalExpr`` per term and adds them up.  ``lex_key`` orders decoded
monomials as ``LaurentPoly.leading`` does on packed ones.
"""
from braidweave.ring import RationalExpr, mono_decode


def lex_key(m: int):
    """Lex order key of a packed monomial, smaller for the leading one: its
    decoded listing with exponents negated, then a sentinel above every
    variable id.  On nonnegative exponents this is the lex order with the
    smallest variable id first."""
    return tuple((v, -e) for v, e in mono_decode(m)) + ((1 << 60, 0),)


def mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        e2 = d.get(v, 0) + e
        if e2:
            d[v] = e2
        else:
            del d[v]
    return tuple(sorted(d.items()))


def mul(terms1, terms2):
    """The product of two tuple-monomial term dicts."""
    d = {}
    for m1, c1 in terms1.items():
        for m2, c2 in terms2.items():
            m = mono_mul(m1, m2)
            s = d.get(m, 0) + c1 * c2
            if s != 0:
                d[m] = s
            elif m in d:
                del d[m]
    return d


def substitute(terms, bindings):
    """The RationalExpr of a tuple-monomial term dict with the variables in
    ``bindings`` (var id -> RationalExpr) replaced, one term at a time."""
    num = RationalExpr.const(0)
    cache = {}

    def power(v, e):
        key = (v, e)
        if key not in cache:
            base = bindings[v]
            if e < 0:
                base = base.inverse()
                e = -e
            out = RationalExpr.const(1)
            for _ in range(e):
                out = out * base
            cache[key] = out
        return cache[key]

    for m, c in terms.items():
        term = RationalExpr.const(c)
        for v, e in m:
            term = term * (power(v, e) if v in bindings else RationalExpr.variable(v) ** e)
        num = num + term
    return num
