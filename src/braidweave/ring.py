"""Exact arithmetic kernel: Laurent polynomials, rational functions, matrices, forms.

Coefficients live either in Q (exact ``Fraction`` values) or in a prime field
F_q.  Everything downstream of this module is built from four value types:

- ``LaurentPoly``: multivariate Laurent polynomial, stored as a map from
  monomials (sorted tuples of ``(var_id, exponent)`` with nonzero exponents)
  to nonzero coefficients.
- ``RationalExpr``: quotient of two Laurent polynomials in canonical form.
  Canonical means: the denominator is an honest polynomial, not divisible by
  any variable, primitive with positive leading coefficient over Q (monic
  over F_q), and coprime to the polynomial part of the numerator.  Any Laurent
  monomial factor is carried by the numerator.  Equality of rational functions
  is therefore structural equality of the canonical form.  Arithmetic on
  canonical operands cancels only through gcds of the operands' parts
  (Henrici's method); the full gcd runs in the general constructor alone.
- ``MatrixExpr``: square matrix of ``RationalExpr``; inversion is only allowed
  when the determinant is a unit (scalar times a Laurent monomial).
- ``OneForm`` / ``TwoForm``: differential forms with ``RationalExpr``
  coefficients, keyed by variable ids resp. ordered pairs of them.

Variables are interned integers; the registry maps ids to display names.
Rendering is deterministic: monomials are ordered by total absolute degree,
then lexicographically by exponent vector.  This rendering is the golden-file
format used by the tests and the CLI.

All values are immutable after construction and all operations are pure.
"""
from __future__ import annotations

import threading
from fractions import Fraction


class RingError(Exception):
    pass


class MixedRings(RingError):
    pass


class ZeroDenominator(RingError):
    pass


class DlogOfZero(RingError):
    pass


class NonUnitDeterminant(RingError):
    pass


class NonUnitDiagonal(RingError):
    pass


# ---------------------------------------------------------------------------
# coefficient rings


class RationalField:
    """The field Q; coefficients are Fractions."""

    characteristic = 0

    def coerce(self, c):
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int):
            return Fraction(c)
        raise TypeError(f"cannot coerce {c!r} into Q")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / a

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_q for a prime q; coefficients are ints in [0, q)."""

    def __init__(self, q: int):
        if q < 2 or any(q % p == 0 for p in range(2, int(q**0.5) + 1)):
            raise ValueError(f"{q} is not prime")
        self.q = q
        self.characteristic = q

    def coerce(self, c):
        if isinstance(c, int):
            return c % self.q
        if isinstance(c, Fraction):
            den = c.denominator % self.q
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.q}")
            return c.numerator * pow(den, -1, self.q) % self.q
        raise TypeError(f"cannot coerce {c!r} into F_{self.q}")

    def add(self, a, b):
        return (a + b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def neg(self, a):
        return -a % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.q}")
        return pow(a, -1, self.q)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"GF({self.q})"


QQ = RationalField()


def _same_ring(a, b):
    if a.ring is not b.ring and a.ring != b.ring:
        raise MixedRings(f"{a.ring!r} vs {b.ring!r}")
    return a.ring


# ---------------------------------------------------------------------------
# variable registry

_registry_lock = threading.Lock()
_name_to_id: dict[str, int] = {}
_id_to_name: list[str] = []


def var_id(name: str) -> int:
    """Intern a variable name, returning its integer id (ids order printing)."""
    with _registry_lock:
        vid = _name_to_id.get(name)
        if vid is None:
            vid = len(_id_to_name)
            _name_to_id[name] = vid
            _id_to_name.append(name)
        return vid


def var_name(vid: int) -> str:
    return _id_to_name[vid]


# ---------------------------------------------------------------------------
# monomials: sorted tuples of (var_id, exp), exp != 0


def mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        e2 = d.get(v, 0) + e
        if e2:
            d[v] = e2
        else:
            del d[v]
    return tuple(sorted(d.items()))


def mono_inv(m):
    return tuple((v, -e) for v, e in m)


def mono_key(m):
    """Display sort key: total absolute degree, then the exponent listing."""
    return (sum(abs(e) for _, e in m), m)


_LEX_SENTINEL = (1 << 60, 0)


def mono_lex_key(m):
    """Key for a true lexicographic monomial order (valid for division):
    smaller key = larger monomial.  Only meaningful for nonnegative exponents."""
    return tuple((v, -e) for v, e in m) + (_LEX_SENTINEL,)


def _mono_str(m):
    parts = []
    for v, e in m:
        if e == 1:
            parts.append(var_name(v))
        else:
            parts.append(f"{var_name(v)}^{e}")
    return "*".join(parts)


class LaurentPoly:
    """Multivariate Laurent polynomial with exact coefficients.

    ``terms`` maps monomials to nonzero coefficients.  Instances are treated
    as immutable.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, terms, ring=QQ):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c != 0}

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls, ring=QQ):
        return cls({}, ring)

    @classmethod
    def const(cls, c, ring=QQ):
        c = ring.coerce(c)
        return cls({(): c} if c != 0 else {}, ring)

    @classmethod
    def variable(cls, vid, ring=QQ, power=1):
        if power == 0:
            return cls.const(1, ring)
        return cls({((vid, power),): ring.coerce(1)}, ring)

    # predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or self.terms.keys() == {()}

    def is_monomial(self):
        return len(self.terms) == 1

    def constant_value(self):
        return self.terms.get((), self.ring.coerce(0))

    def variables(self):
        out = set()
        for m in self.terms:
            out.update(v for v, _ in m)
        return out

    # arithmetic ---------------------------------------------------------

    def __add__(self, other):
        ring = _same_ring(self, other)
        d = dict(self.terms)
        for m, c in other.terms.items():
            s = ring.add(d.get(m, 0), c)
            if s != 0:
                d[m] = s
            elif m in d:
                del d[m]
        return LaurentPoly(d, ring)

    def __neg__(self):
        ring = self.ring
        return LaurentPoly({m: ring.neg(c) for m, c in self.terms.items()}, ring)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ring = _same_ring(self, other)
        d = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = ring.add(d.get(m, 0), ring.mul(c1, c2))
                if s != 0:
                    d[m] = s
                elif m in d:
                    del d[m]
        return LaurentPoly(d, ring)

    def scale(self, c):
        c = self.ring.coerce(c)
        if c == 0:
            return LaurentPoly.zero(self.ring)
        return LaurentPoly({m: self.ring.mul(cc, c) for m, cc in self.terms.items()}, self.ring)

    def mul_monomial(self, mono, coeff=1):
        coeff = self.ring.coerce(coeff)
        return LaurentPoly(
            {mono_mul(m, mono): self.ring.mul(c, coeff) for m, c in self.terms.items()},
            self.ring,
        )

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial; use RationalExpr")
        out = LaurentPoly.const(1, self.ring)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(type(self)), frozenset(self.terms.items())))

    # calculus -----------------------------------------------------------

    def derivative(self, vid):
        ring = self.ring
        d = {}
        for m, c in self.terms.items():
            e = dict(m).get(vid, 0)
            if e == 0:
                continue
            m2 = mono_mul(m, ((vid, -1),))
            s = ring.add(d.get(m2, 0), ring.mul(c, ring.coerce(e)))
            if s != 0:
                d[m2] = s
            elif m2 in d:
                del d[m2]
        return LaurentPoly(d, ring)

    # structure ----------------------------------------------------------

    def min_exponents(self):
        """Per-variable minimum exponent (0 when a term omits the variable)."""
        mins: dict[int, int] = {}
        for v in self.variables():
            lo = min(dict(m).get(v, 0) for m in self.terms)
            mins[v] = lo
        return mins

    def monomial_normalized(self):
        """Return (poly, mono) with poly = self * mono^-1 a true polynomial
        not divisible by any variable."""
        shift = tuple(sorted((v, e) for v, e in self.min_exponents().items() if e != 0))
        if not shift:
            return self, ()
        return self.mul_monomial(mono_inv(shift)), shift

    def leading(self):
        """Leading (monomial, coeff) in the lex monomial order."""
        m = min(self.terms, key=mono_lex_key)
        return m, self.terms[m]

    def substitute(self, bindings):
        """Substitute RationalExpr values for variables; returns RationalExpr."""
        num = RationalExpr.const(0, self.ring)
        cache: dict[tuple[int, int], RationalExpr] = {}

        def power(v, e):
            key = (v, e)
            if key not in cache:
                base = bindings[v]
                if e < 0:
                    base = base.inverse()
                    e = -e
                out = RationalExpr.const(1, self.ring)
                for _ in range(e):
                    out = out * base
                cache[key] = out
            return cache[key]

        for m, c in self.terms.items():
            term = RationalExpr.const(c, self.ring)
            rest = []
            for v, e in m:
                if v in bindings:
                    term = term * power(v, e)
                else:
                    rest.append((v, e))
            term = term * RationalExpr(
                LaurentPoly({tuple(rest): self.ring.coerce(1)}, self.ring)
            )
            num = num + term
        return num

    def eval_int(self, point, q=None):
        """Evaluate at values ``point`` (dict vid -> int), mod q if given.

        Returns None when a negative power of 0 is hit.  Without q the result
        is a Fraction.
        """
        total = 0
        for m, c in self.terms.items():
            if q is None:
                t = Fraction(c)
            else:
                t = c if isinstance(c, int) else c.numerator * pow(c.denominator, -1, q)
            for v, e in m:
                x = point[v] if q is None else point[v] % q
                if e < 0:
                    if x == 0:
                        return None
                    x = Fraction(1, x) if q is None else pow(x, -1, q)
                    e = -e
                t *= pow(x, e, q) if q is not None else x**e
            total += t
        return total % q if q is not None else total

    # rendering ----------------------------------------------------------

    def render(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda mc: mono_key(mc[0]))
        out = []
        for m, c in items:
            neg = (isinstance(c, Fraction) and c < 0) or (
                isinstance(c, int) and self.ring.characteristic == 0 and c < 0
            )
            mag = -c if neg else c
            if m == ():
                body = str(mag)
            elif mag == 1:
                body = _mono_str(m)
            else:
                body = f"{mag}*{_mono_str(m)}"
            if not out:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(out)

    def __repr__(self):
        return f"LaurentPoly({self.render()})"


# ---------------------------------------------------------------------------
# polynomial gcd (true polynomials only; Laurent parts are stripped upstream)


def _as_univar(p: LaurentPoly, v):
    """View p as a univariate polynomial in v: dict exp -> LaurentPoly coeff."""
    coeffs: dict[int, dict] = {}
    for m, c in p.terms.items():
        d = dict(m)
        e = d.pop(v, 0)
        coeffs.setdefault(e, {})[tuple(sorted(d.items()))] = c
    return {e: LaurentPoly(t, p.ring) for e, t in coeffs.items()}


def _from_univar(coeffs, v, ring):
    d = {}
    for e, p in coeffs.items():
        for m, c in p.terms.items():
            mm = mono_mul(m, ((v, e),)) if e else m
            d[mm] = ring.add(d.get(mm, 0), c)
    return LaurentPoly(d, ring)


def poly_exact_div(a: LaurentPoly, b: LaurentPoly):
    """Exact division a / b in the Laurent ring (monomials are units), or
    None if the polynomial core of b does not divide that of a."""
    ring = _same_ring(a, b)
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return LaurentPoly.zero(ring)
    if b.is_monomial():
        (mb, cb), = b.terms.items()
        return a.mul_monomial(mono_inv(mb), ring.inv(cb))
    a_shift = {v: e for v, e in a.min_exponents().items() if e < 0}
    b_shift = {v: e for v, e in b.min_exponents().items() if e < 0}
    if a_shift or b_shift:
        ma = tuple(sorted((v, -e) for v, e in a_shift.items()))
        mb2 = tuple(sorted((v, -e) for v, e in b_shift.items()))
        q = poly_exact_div(a.mul_monomial(ma), b.mul_monomial(mb2))
        if q is None:
            return None
        return q.mul_monomial(mono_mul(mono_inv(ma), mb2))
    q = LaurentPoly.zero(ring)
    r = a
    mb, cb = b.leading()
    cb_inv = ring.inv(cb)
    while not r.is_zero():
        mr, cr = r.leading()
        dq = dict(mr)
        for v, e in dict(mb).items():
            dq[v] = dq.get(v, 0) - e
        if any(e < 0 for e in dq.values()):
            # with a proper monomial order, exact divisibility forces the
            # leading term of r to stay divisible by the leading term of b
            return None
        mono = tuple(sorted((v, e) for v, e in dq.items() if e))
        t = LaurentPoly({mono: ring.mul(cr, cb_inv)}, ring)
        q = q + t
        r = r - t * b
    return q


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd over a field up to units, normalized: positive leading coefficient
    and primitive over Q, monic over F_q.  Laurent monomial factors are units
    and are stripped.  Primitive Euclid; inputs are small."""
    ring = _same_ring(a, b)
    a, _ = a.monomial_normalized()
    b, _ = b.monomial_normalized()
    if a.is_zero():
        return _normalize_gcd(b)
    if b.is_zero():
        return _normalize_gcd(a)
    if a.is_constant() or b.is_constant():
        return LaurentPoly.const(1, ring)
    vs = a.variables() & b.variables()
    if not vs:
        return LaurentPoly.const(1, ring)
    v = min(vs)

    def content_and_primitive(p):
        coeffs = _as_univar(p, v)
        g = None
        for c in coeffs.values():
            g = c if g is None else poly_gcd(g, c)
            if g.is_constant():
                g = LaurentPoly.const(1, ring)
                break
        prim = poly_exact_div(p, g)
        return g, prim

    ca, pa = content_and_primitive(a)
    cb, pb = content_and_primitive(b)
    cont = poly_gcd(ca, cb)

    # primitive Euclid in the main variable with pseudo-remainders
    f, g = pa, pb
    while True:
        fu, gu = _as_univar(f, v), _as_univar(g, v)
        if max(fu) < max(gu):
            f, g = g, f
            fu, gu = gu, fu
        r = _pseudo_rem(fu, gu, v, ring)
        if r.is_zero():
            _, gprim = content_and_primitive(g)
            return _normalize_gcd(cont * gprim)
        if not r.variables() or v not in r.variables():
            return _normalize_gcd(cont)
        _, r = content_and_primitive(r)
        f, g = g, r


def _pseudo_rem(fu, gu, v, ring):
    """Pseudo-remainder of univariate views fu, gu in variable v."""
    df, dg = max(fu), max(gu)
    lg = gu[dg]
    f = _from_univar(fu, v, ring)
    g = _from_univar(gu, v, ring)
    r = f
    dr = df
    while not r.is_zero():
        ru = _as_univar(r, v)
        dr = max(ru)
        if dr < dg:
            break
        lead = ru[dr]
        r = r * lg - g * lead.mul_monomial(((v, dr - dg),) if dr > dg else ())
    return r


def _normalize_gcd(p: LaurentPoly) -> LaurentPoly:
    if p.is_zero():
        return p
    p, _ = p.monomial_normalized()  # monomial factors are units
    _, c = p.leading()
    ring = p.ring
    if ring.characteristic == 0:
        den_lcm = 1
        num_gcd = 0
        for coeff in p.terms.values():
            den_lcm = den_lcm * coeff.denominator // _int_gcd(den_lcm, coeff.denominator)
            num_gcd = _int_gcd(num_gcd, abs(coeff.numerator))
        scale = Fraction(den_lcm, num_gcd or 1)
        if c < 0:
            scale = -scale
        return p.scale(scale)
    return p.scale(ring.inv(c))


def _int_gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# ---------------------------------------------------------------------------
# rational expressions


class RationalExpr:
    """A ratio of Laurent polynomials in canonical form (see module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.const(1, num.ring)
        _same_ring(num, den)
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        self.num, self.den = _normal_form(*_cancel(num, den))

    @property
    def ring(self):
        return self.num.ring

    # construction -------------------------------------------------------

    @classmethod
    def const(cls, c, ring=QQ):
        return cls(LaurentPoly.const(c, ring))

    @classmethod
    def variable(cls, name_or_id, ring=QQ, power=1):
        vid = var_id(name_or_id) if isinstance(name_or_id, str) else name_or_id
        return cls(LaurentPoly.variable(vid, ring, power))

    # predicates ---------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.is_constant()

    def is_unit(self):
        """True when the value is a nonzero scalar times a Laurent monomial."""
        return self.num.is_monomial() and self.den.is_constant()

    def variables(self):
        return self.num.variables() | self.den.variables()

    # arithmetic ---------------------------------------------------------

    def __add__(self, other):
        # Henrici: both operands are canonical, so only the gcd of the sum
        # with the common part of the denominators can be nontrivial
        other = self._coerce(other)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d2.is_constant():
            return _reduced(n1 + n2 * d1, d1)
        if d1.is_constant():
            return _reduced(n1 * d2 + n2, d2)
        if d1 == d2:
            return _reduced(*_cancel(n1 + n2, d1))
        g = poly_gcd(d1, d2)
        if g.is_constant():
            return _reduced(n1 * d2 + n2 * d1, d1 * d2)
        d1, d2 = poly_exact_div(d1, g), poly_exact_div(d2, g)
        num, g = _cancel(n1 * d2 + n2 * d1, g)
        return _reduced(num, g * d1 * d2)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        out = object.__new__(RationalExpr)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        # cancel across first; the two products are then coprime
        other = self._coerce(other)
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return _reduced(n1 * n2, d1 * d2)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDenominator("division by zero")
        return self * other.inverse()

    def inverse(self):
        if self.is_zero():
            raise ZeroDenominator("inverse of zero")
        return _reduced(self.den, self.num)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = RationalExpr.const(1, self.ring)
        for _ in range(k):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, RationalExpr):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalExpr.const(other, self.ring)
        if isinstance(other, LaurentPoly):
            return RationalExpr(other)
        raise TypeError(f"cannot combine RationalExpr with {other!r}")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = self._coerce(other)
        return (
            isinstance(other, RationalExpr)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    # calculus -----------------------------------------------------------

    def derivative(self, vid):
        n = self.num.derivative(vid) * self.den - self.num * self.den.derivative(vid)
        return RationalExpr(n, self.den * self.den)

    def substitute(self, bindings):
        """Simultaneous substitution of variables by RationalExpr values."""
        if not bindings:
            return self
        bindings = {
            (var_id(k) if isinstance(k, str) else k): (
                v if isinstance(v, RationalExpr) else RationalExpr.const(v, self.ring)
            )
            for k, v in bindings.items()
        }
        num = self.num.substitute(bindings)
        den = self.den.substitute(bindings)
        if den.is_zero():
            raise ZeroDenominator("substitution makes the denominator vanish")
        return num / den

    def eval_int(self, point, q=None):
        nv = self.num.eval_int(point, q)
        dv = self.den.eval_int(point, q)
        if nv is None or dv is None:
            return None
        if q is not None:
            if dv % q == 0:
                return None
            return nv * pow(dv, -1, q) % q
        if dv == 0:
            return None
        return Fraction(nv) / Fraction(dv)

    # rendering ----------------------------------------------------------

    def render(self):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    def __repr__(self):
        return f"RationalExpr({self.render()})"


def _cancel(num: LaurentPoly, den: LaurentPoly):
    """num and den divided by the gcd of their polynomial cores."""
    if num.is_zero() or den.is_monomial():
        return num, den
    g = poly_gcd(num, den)
    if g.is_constant():
        return num, den
    return poly_exact_div(num, g), poly_exact_div(den, g)


def _reduced(num: LaurentPoly, den: LaurentPoly) -> RationalExpr:
    """The RationalExpr num/den when the polynomial cores of num and den are
    already coprime: only the monomial and scalar normalisation run."""
    out = object.__new__(RationalExpr)
    out.num, out.den = _normal_form(num, den)
    return out


def _normal_form(num: LaurentPoly, den: LaurentPoly):
    """Move the Laurent monomial factor of den into num and scale den to a
    primitive polynomial with positive leading coefficient (monic over F_q).
    The polynomial cores of num and den must be coprime."""
    ring = num.ring
    if num.is_zero():
        return num, LaurentPoly.const(1, ring)
    den, den_mono = den.monomial_normalized()
    if ring.characteristic == 0:
        den_lcm, num_gcd = 1, 0
        for c in den.terms.values():
            den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
            num_gcd = _int_gcd(num_gcd, abs(c.numerator))
        scale = Fraction(den_lcm, num_gcd or 1)
        _, lead = den.leading()
        if lead < 0:
            scale = -scale
    else:
        _, lead = den.leading()
        scale = ring.inv(lead)
    if den_mono:
        num = num.mul_monomial(mono_inv(den_mono), scale)
    elif scale != 1:
        num = num.scale(scale)
    if scale != 1:
        den = den.scale(scale)
    return num, den


# convenience constructors used throughout the package

def poly(name: str, ring=QQ) -> RationalExpr:
    return RationalExpr.variable(name, ring)


def const(c, ring=QQ) -> RationalExpr:
    return RationalExpr.const(c, ring)


def poly_arith(op: str, a: RationalExpr, b: RationalExpr) -> RationalExpr:
    _same_ring(a.num, b.num)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def substitute(expr: RationalExpr, bindings) -> RationalExpr:
    return expr.substitute(bindings)


def differentiate(expr: RationalExpr, v) -> RationalExpr:
    vid = var_id(v) if isinstance(v, str) else v
    return expr.derivative(vid)


def dlog(expr: RationalExpr) -> "OneForm":
    if expr.is_zero():
        raise DlogOfZero("dlog of the zero function")
    coeffs = {}
    for vid in sorted(expr.variables()):
        c = expr.derivative(vid) / expr
        if not c.is_zero():
            coeffs[vid] = c
    return OneForm(coeffs)


# ---------------------------------------------------------------------------
# matrices


class MatrixExpr:
    """Square matrix of RationalExpr values."""

    __slots__ = ("n", "rows", "ring")

    def __init__(self, rows, ring=None):
        self.rows = [list(r) for r in rows]
        self.n = len(self.rows)
        for r in self.rows:
            if len(r) != self.n:
                raise ValueError("matrix must be square")
        self.ring = ring if ring is not None else (self.rows[0][0].ring if self.n else QQ)

    @classmethod
    def identity(cls, n, ring=QQ):
        one, zero = RationalExpr.const(1, ring), RationalExpr.const(0, ring)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], ring)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, MatrixExpr)
            and self.n == other.n
            and all(self.rows[i][j] == other.rows[i][j] for i in range(self.n) for j in range(self.n))
        )

    def __mul__(self, other):
        if isinstance(other, RationalExpr):
            return MatrixExpr(
                [[e * other for e in row] for row in self.rows], self.ring
            )
        n = self.n
        zero = RationalExpr.const(0, self.ring)
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    a, b = self.rows[i][k], other.rows[k][j]
                    if not (a.is_zero() or b.is_zero()):
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return MatrixExpr(out, self.ring)

    def det(self) -> RationalExpr:
        n = self.n
        if n == 0:
            return RationalExpr.const(1, self.ring)
        if n == 1:
            return self.rows[0][0]
        if n == 2:
            a, b = self.rows[0]
            c, d = self.rows[1]
            return a * d - b * c
        # Laplace expansion along the first row; matrices here are small (n <= 5)
        total = RationalExpr.const(0, self.ring)
        for j in range(n):
            e = self.rows[0][j]
            if e.is_zero():
                continue
            minor = MatrixExpr(
                [[self.rows[i][k] for k in range(n) if k != j] for i in range(1, n)],
                self.ring,
            )
            term = e * minor.det()
            total = total + term if j % 2 == 0 else total - term
        return total

    def inverse(self) -> "MatrixExpr":
        d = self.det()
        if d.is_zero() or not d.is_unit():
            raise NonUnitDeterminant(f"determinant {d.render()} is not a unit")
        n = self.n
        # Gauss-Jordan with exact arithmetic
        aug = [
            [self.rows[i][j] for j in range(n)]
            + [
                RationalExpr.const(1 if i == j else 0, self.ring)
                for j in range(n)
            ]
            for i in range(n)
        ]
        for col in range(n):
            piv = next(r for r in range(col, n) if not aug[r][col].is_zero())
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = aug[col][col].inverse()
            aug[col] = [e * inv for e in aug[col]]
            for r in range(n):
                if r != col and not aug[r][col].is_zero():
                    f = aug[r][col]
                    aug[r] = [er - f * ec for er, ec in zip(aug[r], aug[col])]
        return MatrixExpr([row[n:] for row in aug], self.ring)

    def transpose(self):
        return MatrixExpr(
            [[self.rows[j][i] for j in range(self.n)] for i in range(self.n)], self.ring
        )

    def substitute(self, bindings):
        return MatrixExpr(
            [[e.substitute(bindings) for e in row] for row in self.rows], self.ring
        )

    def is_upper_triangular(self):
        return all(
            self.rows[i][j].is_zero() for i in range(self.n) for j in range(i)
        )

    def is_lower_triangular(self):
        return all(
            self.rows[i][j].is_zero() for i in range(self.n) for j in range(i + 1, self.n)
        )

    def variables(self):
        out = set()
        for row in self.rows:
            for e in row:
                out |= e.variables()
        return out

    def trace(self):
        t = RationalExpr.const(0, self.ring)
        for i in range(self.n):
            t = t + self.rows[i][i]
        return t

    def render(self):
        return "\n".join(
            "[" + ", ".join(e.render() for e in row) + "]" for row in self.rows
        )

    def __repr__(self):
        return f"MatrixExpr(\n{self.render()}\n)"


# ---------------------------------------------------------------------------
# differential forms


class OneForm:
    """A 1-form sum_v c_v dv; coeffs maps var id -> RationalExpr."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {v: c for v, c in coeffs.items() if not c.is_zero()}

    def __add__(self, other):
        d = dict(self.coeffs)
        for v, c in other.coeffs.items():
            d[v] = d[v] + c if v in d else c
        return OneForm(d)

    def __eq__(self, other):
        return isinstance(other, OneForm) and self.coeffs == other.coeffs

    def is_zero(self):
        return not self.coeffs

    def render(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"({c.render()}) d{var_name(v)}" for v, c in sorted(self.coeffs.items())
        )

    def __repr__(self):
        return f"OneForm({self.render()})"


class TwoForm:
    """A 2-form sum_{v<w} c_{vw} dv ^ dw; coeffs maps (v, w) with v < w."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}
        if any(v >= w for v, w in self.coeffs):
            raise RingError("2-form coefficients are keyed by pairs (v, w) with v < w")

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def term(cls, v, w, coeff: RationalExpr):
        if v == w or coeff.is_zero():
            return cls({})
        if v < w:
            return cls({(v, w): coeff})
        return cls({(w, v): -coeff})

    def __add__(self, other):
        d = dict(self.coeffs)
        for k, c in other.coeffs.items():
            d[k] = d[k] + c if k in d else c
        return TwoForm(d)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return TwoForm({k: v * c for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, TwoForm) and self.coeffs == other.coeffs

    def is_zero(self):
        return not self.coeffs

    def render(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"({c.render()}) d{var_name(v)}^d{var_name(w)}"
            for (v, w), c in sorted(self.coeffs.items())
        )

    def __repr__(self):
        return f"TwoForm({self.render()})"


def mat_dlog_left(f: MatrixExpr):
    """The matrix-valued 1-form f^-1 df, as a dict var -> MatrixExpr."""
    finv = f.inverse()
    out = {}
    for v in sorted(f.variables()):
        df = MatrixExpr(
            [[e.derivative(v) for e in row] for row in f.rows], f.ring
        )
        out[v] = finv * df
    return out


def mat_dlog_right(g: MatrixExpr):
    """The matrix-valued 1-form dg g^-1, as a dict var -> MatrixExpr."""
    ginv = g.inverse()
    out = {}
    for v in sorted(g.variables()):
        dg = MatrixExpr(
            [[e.derivative(v) for e in row] for row in g.rows], g.ring
        )
        out[v] = dg * ginv
    return out


def wedge_trace(f: MatrixExpr, g: MatrixExpr) -> TwoForm:
    """Tr(f^-1 df ∧ dg g^-1), the pairing whose telescoping sums build the
    tautological 2-form on a braid matrix product."""
    theta = mat_dlog_left(f)
    theta_r = mat_dlog_right(g)
    out = TwoForm.zero()
    for v, mv in theta.items():
        for w, mw in theta_r.items():
            if v == w:
                continue
            out = out + TwoForm.term(v, w, (mv * mw).trace())
    return out
