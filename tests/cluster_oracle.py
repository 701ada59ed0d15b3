"""Oracle for ``cluster.a_coordinates``, which multiplies the forward pass's
units and canonicalises once per cycle.

The oracle takes the chart route instead: ``normalized_chart`` gives the
record of inverted values as canonical ``RationalExpr``s, each normalized
parameter S_r = sign_r * prod_j s_j^expo[r][j] is a product of their powers,
and each cycle monomial a product of the S_r's powers, with a gcd in every
product.  Minor labels are matched on the rendered text of every minor.
"""
from braidweave.cluster import (
    NotPolynomial,
    gamma_in_s,
    i_cycle_basis,
    minor_pass,
    normalized_chart,
)
from braidweave.ring import RationalExpr


def a_coordinates(beta, order):
    """(exponent dict, polynomial RationalExpr, label or None) per basis
    cycle, as ``cluster.a_coordinates`` returns them."""
    basis = i_cycle_basis(beta, order)
    nc = normalized_chart(beta, order)
    # inverse chart: the normalized parameters as functions of z.  From
    # S = sign * s^expo and s_r = inverted expression of the r-th opening.
    s_in_z = nc.chart.inverted  # in opening order, like the columns of expo
    normalized = {}
    for r, exponents in zip(nc.order, nc.expo):
        sval = RationalExpr.const(nc.signs[r])
        for s, k in zip(s_in_z, exponents):
            if k:
                sval = sval * s**k
        normalized[r] = sval
    bd = nc.chart.top
    minors = {}
    for a in range(1, len(bd) + 2):
        for b, minor in enumerate(minor_pass(bd, a), start=a + 2):
            minors.setdefault(minor.render(), f"P{a}{b}")
    out = []
    for monomial in gamma_in_s(basis):
        val = RationalExpr.const(1)
        for r, e in monomial.items():
            val = val * normalized[r] ** e
        if not val.is_polynomial():
            raise NotPolynomial(f"cycle monomial is not polynomial: {val.render()}")
        out.append((monomial, val, minors.get(val.render())))
    return out
