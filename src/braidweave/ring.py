"""Exact arithmetic kernel: Laurent polynomials, rational functions, matrices, forms.

Coefficients live in Q only, as an ``int`` when integral and a ``Fraction``
otherwise; values are reduced mod a prime q only when they are evaluated at a
point (``eval_int(point, q)``).  Everything downstream of this module is built
from four value types, and one more serves the downward weave pass:

- ``LaurentPoly``: multivariate Laurent polynomial, a map from monomials to
  nonzero coefficients.  A monomial is one int packing the signed exponent of
  variable id v into the ``EXP_BITS``-wide field at bit ``EXP_BITS * v``, so a
  product of monomials is ``+`` and an inverse is unary ``-``.  It is decoded
  into a ``(var_id, exponent)`` listing only to render and to view a
  polynomial in one variable.  A one-term value is a unit: ``inverse()`` and
  ``/`` by it stay Laurent (coefficients 1 and -1 stay ``int``); any other
  divisor raises ``NonUnitDivisor``.
- ``RationalExpr``: quotient of two Laurent polynomials in canonical form.
  Canonical means: the denominator is an honest polynomial, not divisible by
  any variable, primitive with positive leading coefficient, and coprime to
  the polynomial part of the numerator.  Any Laurent monomial factor is
  carried by the numerator.  Equality of rational functions is therefore
  structural equality of the canonical form.  Arithmetic on canonical
  operands cancels only through gcds of the operands' parts (Henrici's
  method); the gcd of a whole numerator and denominator runs in the general
  constructor alone.
- ``MatrixExpr``: square matrix of ``RationalExpr``; inversion is only allowed
  when the determinant is a unit (scalar times a Laurent monomial).
- ``OneForm`` / ``TwoForm``: differential forms with ``RationalExpr``
  coefficients, keyed by variable ids resp. ordered pairs of them.
- ``Localized``: a numerator over signed powers of a shared list of
  ``Bases``, for values whose only divisions are by registered units.  Its
  arithmetic runs no gcd, only trial divisions by the bases; ``rational()``
  makes the canonical ``RationalExpr`` with at most one gcd.

Gcds clear denominators and run GCDHEU (Char, Geddes and Gonnet 1989): the
main variable is set to an integer, the image gcd is found recursively, lifted
back x-adically and checked by exact division.  After ``HEU_GCD_POINTS``
failed points the primitive polynomial remainder sequence decides.

Variables are interned integers; the registry maps ids to display names.
Rendering is deterministic: monomials are ordered by total absolute degree,
then lexicographically by exponent vector.  This rendering is the golden-file
format used by the tests and the CLI.

All values are immutable after construction and all operations are pure.
No code writes a ``LaurentPoly``'s term dict in place, so ``zero()``,
``const(0)`` and ``const(1)`` are shared, ``+ 0`` and ``* 1`` return the other
operand, and a product with a one-term integer operand is one monomial shift.
"""
from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, repeat
from math import gcd, isqrt, lcm
from operator import mul, or_


class DomainError(Exception):
    """Bad input: the base of every braidweave exception (CLI exit code 1)."""


class RingError(DomainError):
    pass


class ZeroDenominator(RingError):
    pass


class DlogOfZero(RingError):
    pass


class NonUnitDeterminant(RingError):
    pass


class NonUnitDiagonal(RingError):
    pass


class NonUnitDivisor(RingError):
    pass


# ---------------------------------------------------------------------------
# coefficients (int or Fraction) and monomials (packed ints)


def _coerce(c):
    """A coefficient: an int when integral, else a Fraction; anything else is
    refused."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"cannot coerce {c!r} into Q")


EXP_BITS = 32
_FIELD = 1 << EXP_BITS
_HALF = _FIELD >> 1

_registry_lock = threading.Lock()
_name_to_id: dict[str, int] = {}
_id_to_name: list[str] = []
_SIGNS = 0  # the top bit of every registered variable's field


def var_id(name: str) -> int:
    """Intern a variable name, returning its integer id (ids order printing)."""
    global _SIGNS
    with _registry_lock:
        vid = _name_to_id.get(name)
        if vid is None:
            vid = len(_id_to_name)
            _name_to_id[name] = vid
            _id_to_name.append(name)
            _SIGNS |= _HALF << (EXP_BITS * vid)
        return vid


def var_name(vid: int) -> str:
    return _id_to_name[vid]


def mono_pack(listing) -> int:
    """The packed monomial of ``(var_id, exponent)`` pairs."""
    m = 0
    for v, e in listing:
        if not -_HALF < e < _HALF:
            raise RingError(f"exponent {e} does not fit in {EXP_BITS} bits")
        m += e << (EXP_BITS * v)
    return m


def mono_decode(m: int):
    """The sorted ``(var_id, exponent)`` listing of a packed monomial."""
    out = []
    while m:
        shift = ((m & -m).bit_length() - 1) // EXP_BITS * EXP_BITS
        e = (m >> shift) & (_FIELD - 1)
        if e >= _HALF:
            e -= _FIELD
        out.append((shift // EXP_BITS, e))
        m -= e << shift
    return tuple(out)


def _mono_exp(m: int, v: int) -> int:
    """The exponent of variable v in the packed monomial m."""
    shift = EXP_BITS * v
    e = ((m + (1 << shift >> 1)) >> shift) & (_FIELD - 1)
    return e - _FIELD if e >= _HALF else e


def _is_polynomial_mono(m: int) -> bool:
    """True when no exponent of m is negative."""
    return m >= 0 and not m & _SIGNS


def _mono_min(monos):
    """The componentwise minimum of packed monomials, or None when an
    exponent lies outside [-2^30, 2^30).  Each field is biased by 2^30, so
    the top bit of every field is free: subtracting from a copy with those
    bits set leaves, in each field, the top bit set where the running
    minimum is not below the next monomial, with no borrow between fields."""
    signs = _SIGNS
    bias = signs >> 1
    lo = None
    for m in monos:
        u = m + bias
        if u < 0 or u & signs:
            return None
        if lo is None:
            lo = u
        else:
            ge = ((lo | signs) - u) & signs
            lo ^= (lo ^ u) & ((ge >> (EXP_BITS - 1)) * (_FIELD - 1))
    return 0 if lo is None else lo - bias


def _mono_str(listing):
    return "*".join(var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in listing)


class _Terms(Mapping):
    """Read-only view of a term dict keyed by ``(var_id, exponent)`` listings."""

    __slots__ = ("_d",)

    def __init__(self, d):
        self._d = d

    def __len__(self):
        return len(self._d)

    def __iter__(self):
        return map(mono_decode, self._d)

    def __getitem__(self, listing):
        return self._d[mono_pack(listing)]


class LaurentPoly:
    """Multivariate Laurent polynomial with exact coefficients.

    ``_terms`` maps packed monomials to nonzero coefficients; ``terms`` is
    the same map keyed by ``(var_id, exponent)`` listings.  Instances are
    immutable (see the module docstring).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms):
        """``terms`` maps packed monomials to coefficients; zero coefficients
        are dropped and integral Fractions become ints."""
        self._terms = {
            m: c if type(c) is int else _coerce(c) for m, c in terms.items() if c
        }

    @property
    def terms(self):
        return _Terms(self._terms)

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def const(cls, c):
        c = _coerce(c)
        return _ONE if c == 1 else _clean({0: c}) if c else _ZERO

    @classmethod
    def variable(cls, vid):
        return _clean({1 << (EXP_BITS * vid): 1})

    # predicates ---------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def is_constant(self):
        t = self._terms
        return not t or (len(t) == 1 and 0 in t)

    def is_monomial(self):
        return len(self._terms) == 1

    def constant_value(self):
        return self._terms.get(0, 0)

    def variables(self):
        return {v for m in self._terms for v, _ in mono_decode(m)}

    # arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not self._terms or not other._terms:
            return other if other._terms else self
        d = dict(self._terms)
        get = d.get
        for m, c in other._terms.items():
            d[m] = get(m, 0) + c
        return LaurentPoly(d)

    def __neg__(self):
        return _clean({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other) if other._terms else self

    def __mul__(self, other):
        t, u = self._terms, other._terms
        if len(u) == 1 and (len(t) != 1 or 0 in u):
            t, u, other = u, t, self
        if len(t) == 1 and type(next(iter(t.values()))) is int:
            # one monomial shift; times +-1 no term needs filtering
            ((mono, c),) = t.items()
            if c == 1 and not mono:
                return other
            d = {mono + m: c * cc for m, cc in u.items()}
            return _clean(d) if c == 1 or c == -1 else LaurentPoly(d)
        d = {}
        get = d.get
        right = u.items()
        for m1, c1 in t.items():
            for m2, c2 in right:
                m = m1 + m2
                d[m] = get(m, 0) + c1 * c2
        return LaurentPoly(d)

    def scale(self, c):
        return self * LaurentPoly.const(c)

    def mul_monomial(self, mono, coeff=1):
        """Multiply by ``coeff`` times a monomial, packed or given as a
        ``(var_id, exponent)`` listing."""
        if not isinstance(mono, int):
            mono = mono_pack(mono)
        return self * LaurentPoly({mono: coeff})

    def inverse(self):
        """1/self for a one-term value; ``NonUnitDivisor`` otherwise."""
        if len(self._terms) != 1:
            raise NonUnitDivisor(f"{self.render()} is not a unit")
        ((m, c),) = self._terms.items()
        return LaurentPoly({-m: c if c == 1 or c == -1 else 1 / Fraction(c)})

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial; use RationalExpr")
        top = max((abs(e) for m in self._terms for _, e in mono_decode(m)), default=0)
        if top * k >= _HALF:
            raise RingError(f"exponents of a {k}-th power do not fit in {EXP_BITS} bits")
        out = LaurentPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self):
        return hash((id(type(self)), frozenset(self._terms.items())))

    # calculus -----------------------------------------------------------

    def derivative(self, vid):
        unit = 1 << (EXP_BITS * vid)
        return LaurentPoly({m - unit: c * _mono_exp(m, vid) for m, c in self._terms.items()})

    # structure ----------------------------------------------------------

    def min_exponents(self):
        """Per-variable minimum exponent (0 when a term omits the variable)."""
        listings = [dict(mono_decode(m)) for m in self._terms]
        return {v: min(d.get(v, 0) for d in listings) for v in set().union(*listings)}

    def monomial_normalized(self):
        """Return (poly, mono) with poly = self * mono^-1 a true polynomial
        not divisible by any variable; mono is packed."""
        t = self._terms
        if len(t) == 1:
            (m, c), = t.items()
            return (LaurentPoly({0: c}), m) if m else (self, 0)
        if 0 in t and all(_is_polynomial_mono(m) for m in t):
            return self, 0
        shift = _mono_min(t)
        if shift is None:
            shift = mono_pack((v, e) for v, e in self.min_exponents().items() if e)
        return (self.mul_monomial(-shift), shift) if shift else (self, 0)

    def leading(self):
        """Leading (packed monomial, coeff) of a true polynomial, one with no
        negative exponent, in the lex monomial order: at the first variable,
        by id, where two monomials differ, the one with the larger exponent
        leads.  The candidates are narrowed one variable at a time, reading
        the packed fields."""
        t = self._terms
        ms = list(t)
        occur = reduce(or_, ms)  # nonzero in the fields of the variables that occur
        while len(ms) > 1:
            shift = ((occur & -occur).bit_length() - 1) // EXP_BITS * EXP_BITS
            occur &= ~((_FIELD - 1) << shift)
            es = [m >> shift & (_FIELD - 1) for m in ms]
            top = max(es)
            ms = [m for m, e in zip(ms, es) if e == top]
        return ms[0], t[ms[0]]

    def substitute(self, bindings):
        """Substitute RationalExpr values for variables; returns RationalExpr.

        With A_v and B_v the largest positive and negative exponents of a bound
        variable v, a term with exponent e of v takes num_v^(B_v + e) *
        den_v^(A_v - e): the terms are summed as polynomials over the common
        denominator prod_v num_v^B_v * den_v^A_v, then cancelled base by base."""
        split, hi, lo = [], {}, {}
        for m, c in self._terms.items():
            bound = {v: e for v, e in mono_decode(m) if v in bindings}
            for v, e in bound.items():
                m -= e << (EXP_BITS * v)
                hi[v], lo[v] = max(hi.get(v, 0), e), max(lo.get(v, 0), -e)
            split.append((LaurentPoly({m: c}), bound))
        factors = []  # (v, offset, [base^0, base^1, ...]) for num_v and den_v != 1
        for v in hi:
            b = bindings[v]
            if b.is_zero() and lo[v]:
                raise ZeroDenominator("negative power of a variable bound to 0")
            for base, offset in ((b.num, lo[v]), (b.den, -hi[v])):
                if base != _ONE:
                    pw = accumulate(repeat(base, hi[v] + lo[v]), mul, initial=_ONE)
                    factors.append((v, offset, list(pw)))
        acc: dict = {}
        for p, bound in split:
            for v, offset, pw in factors:
                if k := offset + bound.get(v, 0):
                    p = p * pw[abs(k)]
            for m, c in p._terms.items():
                acc[m] = acc.get(m, 0) + c
        num, den = LaurentPoly(acc), _ONE
        # one gcd per base power: num keeps no factor that a base leaves in den
        for _, offset, pw in factors:
            for _ in range(abs(offset)):
                g = _ONE if pw[1].is_monomial() else poly_gcd(num, pw[1])
                num, den = poly_exact_div(num, g), den * poly_exact_div(pw[1], g)
        return _reduced(num, den)

    def eval_int(self, point, q=None):
        """Evaluate at values ``point`` (dict vid -> int), mod the prime q if given.

        Returns None where the value is undefined: when a negative power of 0
        is hit, or, mod q, when q divides a coefficient's denominator.  Without
        q the result is a Fraction.
        """
        total = 0
        for m, c in self._terms.items():
            if q is not None and c.denominator % q == 0:
                return None
            t = Fraction(c) if q is None else c.numerator * pow(c.denominator, -1, q)
            for v, e in mono_decode(m):
                x = point[v] if q is None else point[v] % q
                if e < 0 and x == 0:
                    return None
                t *= Fraction(x) ** e if q is None else pow(x, e, q)
            total += t
        return total % q if q is not None else total

    # rendering ----------------------------------------------------------

    def render(self):
        if not self._terms:
            return "0"
        items = sorted(
            ((mono_decode(m), c) for m, c in self._terms.items()),
            key=lambda mc: (sum(abs(e) for _, e in mc[0]), mc[0]),
        )
        out = []
        for m, c in items:
            mag = abs(c)
            body = _mono_str(m) if m and mag == 1 else f"{mag}*{_mono_str(m)}" if m else str(mag)
            sign = ("- " if c < 0 else "+ ") if out else ("-" if c < 0 else "")
            out.append(sign + body)
        return " ".join(out)

    def __repr__(self):
        return f"LaurentPoly({self.render()})"


def _clean(terms: dict) -> LaurentPoly:
    """The LaurentPoly of a term dict with no zero and no integral Fraction."""
    p = object.__new__(LaurentPoly)
    p._terms = terms
    return p


_ZERO, _ONE = _clean({}), _clean({0: 1})


# ---------------------------------------------------------------------------
# polynomial gcd (true polynomials only; Laurent parts are stripped upstream)


def _as_univar(p: LaurentPoly, v):
    """View p as a univariate polynomial in v: dict exp -> LaurentPoly coeff."""
    coeffs: dict[int, dict] = {}
    for m, c in p._terms.items():
        e = _mono_exp(m, v)
        coeffs.setdefault(e, {})[m - (e << (EXP_BITS * v))] = c
    return {e: LaurentPoly(t) for e, t in coeffs.items()}


def _divide(a: dict, b: dict):
    """The quotient a / b of term dicts with nonnegative exponents, or None
    when b does not divide a.  Packed monomials with nonnegative exponents are
    ordered by their int value, which is lex with the largest variable id
    first, a monomial order.  The remainder's monomials wait in a max-heap;
    an entry whose term has cancelled is skipped when it comes up."""
    mb = max(b)
    lead = b[mb]
    inv = lead if lead == 1 or lead == -1 else _coerce(Fraction(1) / lead)
    r, q = dict(a), {}
    heap = [-m for m in r]
    heapify(heap)
    while r:
        mr = -heappop(heap)
        if mr not in r:
            continue
        d = mr - mb
        if not _is_polynomial_mono(d):
            return None
        c = q[d] = r[mr] * inv
        for m, cc in b.items():
            k, t = m + d, c * cc
            s = r.get(k)
            if s is None:
                r[k] = -t
                heappush(heap, -k)
            elif s != t:
                r[k] = s - t
            else:
                del r[k]
    return q


def poly_exact_div(a: LaurentPoly, b: LaurentPoly):
    """Exact division a / b in the Laurent ring (monomials are units), or
    None if the polynomial core of b does not divide that of a."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return LaurentPoly.zero()
    if b.is_monomial():
        (mb, cb), = b._terms.items()
        return a.mul_monomial(-mb, Fraction(1) / cb)
    a, ma = a.monomial_normalized()
    b, mb = b.monomial_normalized()
    q = _divide(a._terms, b._terms)
    return None if q is None else LaurentPoly(q).mul_monomial(ma - mb)


HEU_GCD_POINTS = 6


def _heu_gcd(f: dict, g: dict):
    """GCDHEU on nonzero integer polynomials with nonnegative exponents, as
    term dicts: a gcd of f and g over Z, or None when ``HEU_GCD_POINTS``
    evaluation points fail.  The main variable is the largest variable id.
    Every point x is at least 2*min(|f|, |g|) + 2, so a lifted image that
    divides f and g is the gcd (Geddes, Czapor and Labahn, Theorem 7.7)."""
    top = max(max(f), max(g))
    if not top:
        return {0: gcd(f[0], g[0])}
    shift = (top.bit_length() - 1) // EXP_BITS * EXP_BITS
    cont = gcd(*f.values(), *g.values())
    f, g = ({m: c // cont for m, c in p.items()} for p in (f, g))
    fn, gn = max(map(abs, f.values())), max(map(abs, g.values()))
    x = max(2 * min(fn, gn) + 29, 2 * min(fn // abs(f[max(f)]), gn // abs(g[max(g)])) + 4)
    for _ in range(HEU_GCD_POINTS):
        ff, gg = _evaluate(f, shift, x), _evaluate(g, shift, x)
        if ff and gg:
            image = _heu_gcd(ff, gg)
            if image is None:
                return None
            h = _lift(image, x, shift)
            content = gcd(*h.values())
            h = {m: c // content for m, c in h.items()}
            if h == {0: 1}:  # 1 divides f and g: they are coprime
                return {0: cont}
            if _divide(f, h) is not None and _divide(g, h) is not None:
                return {m: c * cont for m, c in h.items()}
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _evaluate(f: dict, shift: int, x: int) -> dict:
    """f with the variable of the top field at ``shift`` set to x."""
    out: dict[int, int] = {}
    for m, c in f.items():
        e = m >> shift
        rest = m - (e << shift)
        out[rest] = out.get(rest, 0) + c * x**e
    return {m: c for m, c in out.items() if c}


def _lift(image: dict, x: int, shift: int) -> dict:
    """The polynomial whose value at x is ``image``, read off the symmetric
    base-x digits of each coefficient."""
    out, half = {}, (x - 1) // 2
    for m, c in image.items():
        i = 0
        while c:
            r = (c + half) % x - half  # in (-x/2, x/2]
            if r:
                out[m + (i << shift)] = r
            c = (c - r) // x
            i += 1
    return out


def _gcd_shortcut(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """The gcd of two non-constant polynomials that no variable divides, when
    their monomials alone show it, else None.  Equal operands are their own
    gcd.  The gcd is 1 when a variable v of one operand is absent from the
    other and one coefficient of the first, as a polynomial in v, is a single
    term: a common factor is free of v, so by Gauss's lemma it divides that
    monomial.  Exponents are nonnegative, so the fields of an OR of
    monomials are nonzero at the variables that occur."""
    if a == b:
        return _normalize_gcd(a)
    va, vb = ({v for v, _ in mono_decode(reduce(or_, p._terms))} for p in (a, b))
    for p, own in ((a, va - vb), (b, vb - va)):
        for v in own:
            if 1 in Counter(m >> EXP_BITS * v & (_FIELD - 1) for m in p._terms).values():
                return _ONE
    return None


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd over Q up to units, normalized: primitive with positive leading
    coefficient.  Laurent monomial factors are units and are stripped.
    ``_gcd_shortcut`` answers equal operands and some coprime pairs from
    their monomials alone; otherwise GCDHEU, and primitive Euclid when it
    fails."""
    a, _ = a.monomial_normalized()
    b, _ = b.monomial_normalized()
    if a.is_zero() or b.is_zero():
        return _normalize_gcd(a + b)
    if a.is_constant() or b.is_constant():
        return LaurentPoly.const(1)
    if (g := _gcd_shortcut(a, b)) is not None:
        return g
    a, b = (p.scale(lcm(*(c.denominator for c in p._terms.values()))) for p in (a, b))
    h = _heu_gcd(a._terms, b._terms)
    return _normalize_gcd(LaurentPoly(h) if h else _prs_gcd(a, b))


def _prs_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd of true polynomials by the primitive polynomial remainder sequence
    in their smallest common variable v; contents in v recurse to poly_gcd."""
    vs = a.variables() & b.variables()
    if not vs:
        return _ONE
    v = min(vs)

    def split(p):  # (content, primitive part) of p as a polynomial in v
        g = None
        for c in _as_univar(p, v).values():
            g = c if g is None else poly_gcd(g, c)
            if g.is_constant():
                return _ONE, p
        return g, poly_exact_div(p, g)

    def degree(p):
        return max(_mono_exp(m, v) for m in p._terms)

    (ca, f), (cb, g) = split(a), split(b)
    while True:
        if degree(f) < degree(g):
            f, g = g, f
        # pseudo-remainder of f by g
        gu = _as_univar(g, v)
        dg = max(gu)
        while not f.is_zero() and degree(f) >= dg:
            fu = _as_univar(f, v)
            df = max(fu)
            f = f * gu[dg] - g * fu[df].mul_monomial((df - dg) << (EXP_BITS * v))
        if f.is_zero():
            return poly_gcd(ca, cb) * split(g)[1]
        if degree(f) == 0:
            return poly_gcd(ca, cb)
        f, g = g, split(f)[1]


def _primitive_scale(p: LaurentPoly):
    """The scalar s with s*p an integer polynomial whose coefficients are
    coprime and whose lex leading coefficient is positive; p is a true
    polynomial, as ``monomial_normalized`` returns."""
    cs = p._terms.values()
    den, num = lcm(*(c.denominator for c in cs)), gcd(*(c.numerator for c in cs))
    s = den if num == 1 else Fraction(den, num)
    return -s if p.leading()[1] < 0 else s


def _normalize_gcd(p: LaurentPoly) -> LaurentPoly:
    if p.is_zero():
        return p
    p, _ = p.monomial_normalized()  # monomial factors are units
    return p.scale(_primitive_scale(p))


# ---------------------------------------------------------------------------
# rational expressions


class RationalExpr:
    """A ratio of Laurent polynomials in canonical form (see module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        den = _ONE if den is None else den
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        self.num, self.den = _normal_form(*_cancel(num, den))

    # construction -------------------------------------------------------

    @classmethod
    def const(cls, c):
        return _make(LaurentPoly.const(c), _ONE)

    @classmethod
    def variable(cls, name_or_id):
        vid = var_id(name_or_id) if isinstance(name_or_id, str) else name_or_id
        return _make(LaurentPoly.variable(vid), _ONE)

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

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        # cancel across first; the two products are then coprime
        other = self._coerce(other)
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return _reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

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
        # the cores of num and den stay coprime, and den**k stays normalised
        return _make(self.num**k, self.den**k)

    def _coerce(self, other):
        if isinstance(other, RationalExpr):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalExpr.const(other)
        if isinstance(other, LaurentPoly):
            return RationalExpr(other)
        raise TypeError(f"cannot combine RationalExpr with {other!r}")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = self._coerce(other)
        return isinstance(other, RationalExpr) and (self.num, self.den) == (other.num, other.den)

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
            (var_id(k) if isinstance(k, str) else k): self._coerce(v) for k, v in bindings.items()
        }
        num = self.num.substitute(bindings)
        den = self.den.substitute(bindings)
        if den.is_zero():
            raise ZeroDenominator("substitution makes the denominator vanish")
        return num / den

    def eval_int(self, point, q=None):
        """As ``LaurentPoly.eval_int``; None also where the denominator vanishes."""
        nv, dv = self.num.eval_int(point, q), self.den.eval_int(point, q)
        if nv is None or dv is None or (dv if q is None else dv % q) == 0:
            return None
        return Fraction(nv) / Fraction(dv) if q is None else nv * pow(dv, -1, q) % q

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


def _make(num: LaurentPoly, den: LaurentPoly) -> RationalExpr:
    """The RationalExpr with the given parts, which must already be canonical."""
    out = object.__new__(RationalExpr)
    out.num, out.den = num, den
    return out


def _reduced(num: LaurentPoly, den: LaurentPoly) -> RationalExpr:
    """The RationalExpr num/den when the polynomial cores of num and den are
    already coprime: only the monomial and scalar normalisation run."""
    return _make(*_normal_form(num, den))


def _normal_form(num: LaurentPoly, den: LaurentPoly):
    """Move the Laurent monomial factor of den into num and scale den to a
    primitive polynomial with positive leading coefficient.  The polynomial
    cores of num and den must be coprime."""
    if num.is_zero():
        return num, _ONE
    den, den_mono = den.monomial_normalized()
    scale = _primitive_scale(den)
    if den_mono:
        num = num.mul_monomial(-den_mono, scale)
    elif scale != 1:
        num = num.scale(scale)
    if scale != 1:
        den = den.scale(scale)
    return num, den


# ---------------------------------------------------------------------------
# values over inverted bases


class Bases:
    """The cores b_0, b_1, ... of the values inverted so far: monomial-free,
    primitive integer polynomials with positive leading coefficient, each
    as its cached powers ``powers[j] = [1, b_j, b_j^2, ...]``."""

    __slots__ = ("powers",)

    def __init__(self):
        self.powers: list[list[LaurentPoly]] = []

    def power(self, j: int, k: int) -> LaurentPoly:
        pw = self.powers[j]
        while len(pw) <= k:
            pw.append(pw[-1] * pw[1])
        return pw[k]

    def cancel(self, num: LaurentPoly, exps: dict, js, bounded=True):
        """(num, exps) with num trial-divided by each base j in js as often
        as it divides, while the exponent of j stays positive if
        ``bounded``, and the exponents lowered to match."""
        if bounded:
            js = [j for j in js if exps.get(j, 0) > 0]
        if not js or len(num._terms) == 1:
            return num, exps
        p, mono = num.monomial_normalized()
        t, exps = p._terms, dict(exps)
        for j in js:
            while len(t) > 1 and not (bounded and exps[j] <= 0):
                q = _divide(t, self.powers[j][1]._terms)
                if q is None:
                    break
                t, exps[j] = q, exps.get(j, 0) - 1
        exps = {j: e for j, e in exps.items() if e}
        if t is p._terms:
            return num, exps
        return LaurentPoly({m + mono: c for m, c in t.items()}), exps

    def unit(self, value: "Localized") -> "Localized":
        """``value`` as a scalar times a Laurent monomial times powers of
        bases, so that it can be inverted: the core its numerator leaves
        over the earlier bases becomes a new base.  A value whose numerator
        is one term is a unit already and is returned as it is."""
        if value.is_zero():
            raise ZeroDenominator("inverse of zero")
        if len(value.num._terms) == 1:
            return value
        num, exps = self.cancel(value.num, value.exps, range(len(self.powers)), False)
        core, mono = num.monomial_normalized()
        if not core.is_constant():
            s = _primitive_scale(core)
            self.powers.append([_ONE, core.scale(s)])
            exps, core = {**exps, len(self.powers) - 1: -1}, LaurentPoly.const(s).inverse()
        return Localized(core.mul_monomial(mono), exps, self, value.coprime)


def _plain(exps: dict) -> bool:
    """True when no base is in the denominator."""
    return all(e < 0 for e in exps.values())


class Localized:
    """num / prod_j b_j^exps[j] over shared ``Bases``, with signed exponents:
    a value of Q[z^±][1/b_0, 1/b_1, ...] whose arithmetic runs no gcd.

    A sum takes the larger exponent of each base and trial-divides by the
    bases whose exponents tie (Henrici); a product adds exponents and
    trial-divides each numerator by the other's denominator bases.  Only
    units, with a monomial ``num``, are divided by.  ``coprime`` says that
    ``rational`` needs no gcd: it holds without a denominator and survives
    negation, inversion and sums with a value without a denominator."""

    __slots__ = ("num", "exps", "bases", "coprime")

    def __init__(self, num: LaurentPoly, exps: dict, bases: Bases, coprime: bool):
        self.num, self.exps, self.bases, self.coprime = num, exps, bases, coprime

    def const(self, c) -> "Localized":
        return Localized(LaurentPoly.const(c), {}, self.bases, True)

    def is_zero(self):
        return not self.num._terms

    def __add__(self, other):
        if not other.num._terms:
            return self
        if not self.num._terms:
            return other
        (n1, d1), (n2, d2) = (self.num, self.exps), (other.num, other.exps)
        exps, ties = {}, []
        for j in d1.keys() | d2.keys():
            e1, e2 = d1.get(j, 0), d2.get(j, 0)
            if e1 < e2:
                n1 = n1 * self.bases.power(j, e2 - e1)
            elif e2 < e1:
                n2 = n2 * self.bases.power(j, e1 - e2)
            elif e1 > 0:
                ties.append(j)
            if max(e1, e2):
                exps[j] = max(e1, e2)
        num = n1 + n2
        if not num._terms:
            return self.const(0)
        num, exps = self.bases.cancel(num, exps, ties)
        if _plain(d1) or _plain(d2):
            coprime = other.coprime if _plain(d1) else self.coprime
        else:
            coprime = _plain(exps)
        return Localized(num, exps, self.bases, coprime)

    def __neg__(self):
        return Localized(-self.num, self.exps, self.bases, self.coprime)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        (n1, d1), (n2, d2) = (self.num, self.exps), (other.num, other.exps)
        if not n1._terms or not n2._terms:
            return self.const(0)
        if not d2 and len(n2._terms) == 1:
            return Localized(n1 * n2, d1, self.bases, self.coprime)
        if not d1 and len(n1._terms) == 1:
            return Localized(n1 * n2, d2, self.bases, other.coprime)
        exps = {j: d1.get(j, 0) + d2.get(j, 0) for j in d1.keys() | d2.keys()}
        n1, exps = self.bases.cancel(n1, exps, [j for j, e in d2.items() if e > 0])
        n2, exps = self.bases.cancel(n2, exps, [j for j, e in d1.items() if e > 0])
        exps = {j: e for j, e in exps.items() if e}
        return Localized(n1 * n2, exps, self.bases, _plain(exps))

    def inverse(self):
        if len(self.num._terms) != 1:
            raise NonUnitDivisor(f"{self.rational().render()} is not a unit over its bases")
        exps = {j: -e for j, e in self.exps.items()}
        return Localized(self.num.inverse(), exps, self.bases, self.coprime)

    def __truediv__(self, other):
        return self * other.inverse()

    def rational(self) -> RationalExpr:
        """The canonical RationalExpr: one gcd, none when ``coprime``."""
        num, den = self.num, _ONE
        for j, e in self.exps.items():
            if e > 0:
                den = den * self.bases.power(j, e)
            else:
                num = num * self.bases.power(j, -e)
        return _reduced(num, den) if self.coprime else RationalExpr(num, den)


# convenience constructors used throughout the package

def poly(name: str) -> RationalExpr:
    return RationalExpr.variable(name)


def const(c) -> RationalExpr:
    return RationalExpr.const(c)


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
    """Square matrix of RationalExpr values; products also take
    ``LaurentPoly`` and ``Localized`` entries, as in the chart passes."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.n = len(self.rows)
        for r in self.rows:
            if len(r) != self.n:
                raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, n):
        one, zero = RationalExpr.const(1), RationalExpr.const(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

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
            return MatrixExpr([[e * other for e in row] for row in self.rows])

        def dot(row, col):
            # the first product also gives the zero of the entries' type
            acc = row[0] * col[0]
            for a, b in zip(row[1:], col[1:]):
                if not (a.is_zero() or b.is_zero()):
                    acc = acc + a * b
            return acc

        cols = list(zip(*other.rows))
        return MatrixExpr([[dot(row, col) for col in cols] for row in self.rows])

    def det(self) -> RationalExpr:
        n = self.n
        if n == 0:
            return RationalExpr.const(1)
        if n == 1:
            return self.rows[0][0]
        if n == 2:
            a, b = self.rows[0]
            c, d = self.rows[1]
            return a * d - b * c
        # Laplace expansion along the first row; matrices here are small (n <= 5)
        total = RationalExpr.const(0)
        for j in range(n):
            e = self.rows[0][j]
            if e.is_zero():
                continue
            minor = MatrixExpr(
                [[self.rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
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
            + [RationalExpr.const(1 if i == j else 0) for j in range(n)]
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
        return MatrixExpr([row[n:] for row in aug])

    def transpose(self):
        return MatrixExpr([[self.rows[j][i] for j in range(self.n)] for i in range(self.n)])

    def substitute(self, bindings):
        return MatrixExpr([[e.substitute(bindings) for e in row] for row in self.rows])

    def is_upper_triangular(self):
        return all(
            self.rows[i][j].is_zero() for i in range(self.n) for j in range(i)
        )

    def is_lower_triangular(self):
        return all(
            self.rows[i][j].is_zero() for i in range(self.n) for j in range(i + 1, self.n)
        )

    def variables(self):
        return set().union(*(e.variables() for row in self.rows for e in row))

    def trace(self):
        return sum((self.rows[i][i] for i in range(self.n)), RationalExpr.const(0))

    def render(self):
        return "\n".join(
            "[" + ", ".join(e.render() for e in row) + "]" for row in self.rows
        )

    def __repr__(self):
        return f"MatrixExpr(\n{self.render()}\n)"


def gauss_jordan(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Exact Gauss-Jordan elimination of a rational matrix: its reduced row
    echelon form over ``Fraction``s and the pivot column of each nonzero
    row, so the rank is the number of pivots."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
    return m, pivots


# ---------------------------------------------------------------------------
# differential forms


class OneForm:
    """A 1-form sum_v c_v dv; coeffs maps var id -> RationalExpr."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {v: c for v, c in coeffs.items() if not c.is_zero()}

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


def wedge_trace(f: MatrixExpr, g: MatrixExpr) -> TwoForm:
    """Tr(f^-1 df ∧ dg g^-1), the pairing whose telescoping sums build the
    tautological 2-form on a braid matrix product."""

    def d(m, v):
        return MatrixExpr([[e.derivative(v) for e in row] for row in m.rows])

    finv, ginv = f.inverse(), g.inverse()
    right = {w: d(g, w) * ginv for w in sorted(g.variables())}
    out = TwoForm.zero()
    for v in sorted(f.variables()):
        left = finv * d(f, v)
        for w, mw in right.items():
            if v != w:
                out = out + TwoForm.term(v, w, (left * mw).trace())
    return out
