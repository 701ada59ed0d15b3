"""Correspondence semantics for weaves: downward variable propagation with
triangular-matrix sliding, upward toric-chart parametrization, the direct
(factor-and-slide) route for opening crossings, the Mellit opening order,
and comparison of the induced rational maps.

The elementary identities, with ``B_i(z)`` the braid matrix:

- trivalent vertex:  B_i(a) B_i(b) = [[-1/a, 1], [0, a]] . B_i(b + 1/a)
- hexavalent and 4-valent vertices: the braid moves ``six`` and ``four``,
                     whose value change is ``braid.braid_move_in_place``;
                     both passes call it, the upward one on the slice below
- cup:               B_i(0) B_i(b) = Id + b E_{i,i+1}
- sliding:           B_i(z) U = U' B_i(z'), z' = (U_{i+1,i+1} z + U_{i,i+1}) / U_{i,i}
- opening:           B_i(z) = T_i(z) . L_i(z), T_i(z) = [[-1/z, 1], [0, z]] the
                     trivalent factor (U_i D_i of the LDU factorization) and
                     L_i(z) = Id + (1/z) E_{i+1,i}

Every upper-triangular factor produced at a vertex is slid to the left edge
of the diagram, transforming the letters it passes; the product of the
factors that reach the left edge is the accumulated matrix ``U`` with
``B(top) = U . B(bottom)`` after substituting the propagated values.

The inversion at a trivalent vertex is the only division in the downward
pass, so every value it meets lies in Q[z^±][1/a_1, ..., 1/a_k] for the
values a_j inverted so far.  ``propagate_down`` keeps each value as a
``ring.Localized``: a numerator over signed powers of the bases, the cores
the inverted numerators leave over the earlier bases, with no gcd in its
arithmetic.  Canonical ``RationalExpr`` forms are made only where the result
is read: the ``inverted`` and ``vanishing`` records as they are written, the
bottom ``values`` and ``left_matrix`` on their first read.

The upward pass of ``chart_parametrize`` and ``ldu_chart``'s restoring loop
(``_ldu_restore``, c matrix and ``solve_half_twist`` included) divide only by
unit parameters, so they run on bare ``LaurentPoly``; ``subs`` wraps each value
as a ``RationalExpr`` over 1, already canonical.  The forward loop
(``_ldu_units``) divides by the opened values and keeps them ``Localized``, as
``propagate_down``; its units, canonicalised, are the record
(``_ldu_record``).  ``weave.mutation_graph`` keys every opening order by this
record alone, so neither a weave nor the half twist is built for it, and
``cluster.a_coordinates`` multiplies the units themselves.

``ldu_chart`` is the one route for the chart of an opening order: the CLI's
``chart``, ``cluster.normalized_chart`` and the form oracle all take it, and
none of them builds a weave for it.  ``chart_parametrize`` charts any
simplifying weave, cups included; on an opening weave it gives the same chart
by an independent computation, and criterion 8 compares the two routes.

``slide_left`` is the one slide, for every value type: it moves an
upper-triangular factor left through a whole word, and with ``back=True``
recovers the original values from the slid ones.  A lower-triangular factor
slides right by the same code: every B_j is symmetric, so L . B(word) =
B(word') . L' is the slide of L^T through the reversed word, transposed.
The same transposed slide, run back onto all-zero values through the
reversed half twist, solves L . B_Delta(u) . w0 = Id for the half-twist
values u (``solve_half_twist``), which is how the direct route fills in the
half-twist block.  A None entry of a slid factor is the identity's (1 on the
diagonal, 0 off it): the vertex factors set only their block, the slide spends
no ring operation on None and keeps it, and ``_dense`` fills in a kept factor.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

from .ring import (
    _ONE,
    _make,
    Bases,
    DomainError,
    LaurentPoly,
    Localized,
    MatrixExpr,
    RationalExpr,
    poly_exact_div,
    poly_gcd,
    var_id,
    var_name,
)
from .braid import (
    BraidWord,
    PatternMismatch,
    append_half_twist,
    braid_matrix,
    braid_move_in_place,
    check_opening_order,
    coxeter_letters,
    exchange_index,
    half_twist_letters,
    longest_perm,
    opening_positions,
    perm_length,
    stall_index,
)
from .weave import Weave


def slide_left(u: MatrixExpr, letters, values, back: bool = False):
    """Slide the upper-triangular u left through a word, rightmost letter
    first: solve B(letters, values) . u = u' . B(letters, values') and
    return (u', values').  With ``back`` the values given are the slid ones
    and the original values are returned, with the same u'.

    Each letter i is handled in closed form, u' = B_i(z) u B_i(z')^{-1}:
    only rows and columns i, i+1 change, the diagonal entries i, i+1 swap
    and the (i, i+1) entry vanishes (z' is chosen for that), so a letter
    costs O(n) entry edits.  The diagonal of u must not vanish.  A None
    entry is the identity's (see the module docstring) and stays None.
    """
    out = MatrixExpr(u.rows)
    rows = out.rows
    values = list(values)
    for k in range(len(letters) - 1, -1, -1):
        b = letters[k]
        a = b - 1
        ra, rb = rows[a], rows[b]
        # z' = (u_bb z + u_ab) / u_aa, or back z = (u_aa z' - u_ab) / u_bb
        m, e, d = (ra[a], ra[b], rb[b]) if back else (rb[b], ra[b], ra[a])
        old = values[k]
        new = old if m is None else m * old
        if e is not None:
            new = new - e if back else new + e
        values[k] = new = new if d is None else new / d
        z, zp = (new, old) if back else (old, new)
        for c in range(b + 1, u.n):
            x, y = ra[c], rb[c]
            zero = y is None or y.is_zero()
            ra[c], rb[c] = y, (x if zero else z * y if x is None else x + z * y)
        for r in range(a):
            row = rows[r]
            x, y = row[a], row[b]
            zero = x is None or x.is_zero()
            row[a], row[b] = (y if zero else -(zp * x) if y is None else y - zp * x), x
        # rb[a] is the zero below the diagonal; the (a, b) entry vanishes
        ra[a], ra[b], rb[b] = rb[b], rb[a], ra[a]
    return out, values


def trivalent_factor(n: int, letter: int, a) -> MatrixExpr:
    """The upper factor [[-1/a, 1],[0, a]] (block at letter) of a trivalent
    vertex whose left input carries the value a; None elsewhere (the
    identity's entries)."""
    m = MatrixExpr([[None] * n] * n)
    ra, rb = m.rows[letter - 1], m.rows[letter]
    ra[letter - 1], ra[letter], rb[letter] = -a.inverse(), a.const(1), a
    return m


def cup_factor(n: int, letter: int, b) -> MatrixExpr:
    """Id + b E_{i,i+1}: the factor of a cup whose surviving value is b;
    None off that entry (the identity's entries)."""
    m = MatrixExpr([[None] * n] * n)
    m.rows[letter - 1][letter] = b
    return m


def _dense(m: MatrixExpr, one, zero) -> MatrixExpr:
    """m with its None entries filled in: ``one`` on the diagonal, ``zero`` off it."""
    return MatrixExpr(
        [[(one if r == c else zero) if e is None else e for c, e in enumerate(row)]
         for r, row in enumerate(m.rows)]
    )


@dataclass
class Propagation:
    """Result of pushing the top variables of a weave down to its bottom.

    The records are canonical.  The bottom values and the slid factors stay
    over the pass's bases until ``values`` or ``left_matrix`` is read."""

    bottom: BraidWord
    inverted: list[RationalExpr]  # one per trivalent vertex, must not vanish
    vanishing: list[RationalExpr]  # one per cup, must vanish
    local_values: list[Localized]  # value of each bottom letter
    factors: list[MatrixExpr]  # vertex factors slid to the left edge, top-down

    @cached_property
    def values(self) -> list[RationalExpr]:
        """The value of each bottom letter, in the top variables."""
        return [v.rational() for v in self.local_values]

    @cached_property
    def left_matrix(self) -> MatrixExpr:
        """The accumulated factor U with B(top) = U . B(bottom), multiplied
        out from ``factors`` over the bases on the first read."""
        if not self.factors:
            return MatrixExpr.identity(self.bottom.n)
        u = self.factors[0]
        for factor in self.factors[1:]:
            u = u * factor
        return MatrixExpr([[e.rational() for e in row] for row in u.rows])


def propagate_down(weave: Weave) -> Propagation:
    """Compute the bottom letter values of a simplifying weave as rational
    functions of its top variables, the constraint record, and the vertex
    factors slid to the left edge.  Values are kept over the cores of the
    inverted values (``ring.Localized``), so the pass runs no gcd; the
    records are made canonical as they are written."""
    if any(ev.kind == "cap" for ev in weave.events):
        raise PatternMismatch("propagation requires a simplifying weave (no caps)")
    n = weave.n
    letters = list(weave.top.letters)
    bases = Bases()
    values = [Localized(LaurentPoly.variable(v), {}, bases, True) for v in weave.top.variables]
    one, zero = (Localized(LaurentPoly.const(c), {}, bases, True) for c in (1, 0))
    inverted, vanishing, factors = [], [], []
    for ev in weave.events:
        p = ev.pos
        if ev.kind == "three":
            a, b = values[p], values[p + 1]
            if a.is_zero():
                raise PatternMismatch("trivalent vertex with identically zero input")
            a = bases.unit(a)
            inverted.append(a.rational())
            factor = trivalent_factor(n, letters[p], a)
            values[p : p + 2] = [b + a.inverse()]
            del letters[p + 1]
        elif ev.kind == "cup":
            a, b = values[p], values[p + 1]
            vanishing.append(a.rational())
            factor = cup_factor(n, letters[p], b)
            del values[p : p + 2]
            del letters[p : p + 2]
        else:
            braid_move_in_place(letters, values, p, ev.kind)
            continue
        if p:
            factor, values[:p] = slide_left(factor, letters[:p], values[:p])
        factors.append(_dense(factor, one, zero))
    bottom_ids = tuple(var_id(f"_b{k + 1}") for k in range(len(letters)))
    bottom = BraidWord(n, tuple(letters), bottom_ids)
    return Propagation(bottom, inverted, vanishing, values, factors)


def check_master_identity(weave: Weave, prop: Propagation) -> bool:
    """Verify B(top) = U . B(bottom values) symbolically.  Cup constraints
    that are bare variables are substituted to zero first; the identity only
    holds on the locus they cut out, so weaves whose cup constraints are not
    bare variables are checked on exact prime-field points of that locus."""
    subs = {}
    pointwise = False
    for expr in prop.vanishing:
        vs = sorted(expr.variables())
        if len(vs) == 1 and expr == RationalExpr.variable(vs[0]):
            subs[vs[0]] = RationalExpr.const(0)
        elif not expr.is_zero():
            pointwise = True
    top = braid_matrix(weave.top)
    rhs = prop.left_matrix * braid_matrix(prop.bottom, prop.values)
    if subs:
        top = top.substitute(subs)
        rhs = rhs.substitute(subs)
    if not pointwise:
        return top == rhs
    # sample points of the vanishing locus over a prime field
    q = 101
    rng = random.Random(0)
    variables = sorted(weave.top.variables)
    checked = 0
    for _ in range(400):
        if checked >= 12:
            break
        point = {v: rng.randrange(q) for v in variables}
        vals = [e.eval_int(point, q) for e in prop.vanishing]
        if any(v != 0 for v in vals if v is not None) or any(v is None for v in vals):
            continue
        lhs_vals = [[e.eval_int(point, q) for e in row] for row in top.rows]
        rhs_vals = [[e.eval_int(point, q) for e in row] for row in rhs.rows]
        if any(v is None for row in rhs_vals for v in row):
            continue
        if lhs_vals != rhs_vals:
            return False
        checked += 1
    return checked > 0


@dataclass
class ChartMap:
    """A toric/affine chart of X0(top; w0) built from a weave or an opening
    order: a substitution of the top variables by Laurent-type expressions in
    unit parameters (one per trivalent vertex) and affine parameters (one per
    cup), plus the record of the expressions that were inverted."""

    top: BraidWord
    unit_params: list[int]  # var ids, one per trivalent vertex (top-down)
    affine_params: list[int]  # var ids, one per cup
    subs: dict[int, RationalExpr]  # top variable id -> expression in params
    inverted: list[RationalExpr]  # constraint record, in top variables
    vanishing: list[RationalExpr] = field(default_factory=list)
    opened_crossings: list[int] | None = None  # 1-based indices into beta

    def render(self) -> str:
        lines = [f"{var_name(v)} = {self.subs[v].render()}" for v in self.top.variables]
        lines += [f"invert: {e.render()}" for e in self.inverted]
        lines += [f"vanish: {e.render()}" for e in self.vanishing]
        return "\n".join(lines)


def charts_equal_as_subsets(c1: ChartMap, c2: ChartMap) -> bool:
    """Exact equality of two toric charts of the same variety as subsets:
    each chart's defining non-vanishing conditions must pull back through the
    other's parametrization to units (nonzero scalars times Laurent
    monomials), giving mutual inclusion."""
    if c1.top.letters != c2.top.letters:
        return False

    def included(inner: ChartMap, outer: ChartMap) -> bool:
        for e in outer.inverted:
            for part in (e.num, e.den):
                r = part.substitute(inner.subs)
                if r.is_zero() or not r.is_unit():
                    return False
        return True

    return included(c1, c2) and included(c2, c1)


class NotExchangeBinomial(DomainError):
    """Two charts differ in one polynomial that is not a primitive binomial."""


def _common_core(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """A polynomial f with a and b both units times powers of f, or None
    when the gcd-free basis of {a, b} has two coprime elements."""
    if a.is_monomial():
        return b
    if b.is_monomial():
        return a
    g = poly_gcd(a, b)
    if g.is_constant():
        return None
    f = _common_core(g, poly_exact_div(a, g))
    return None if f is None else _common_core(f, poly_exact_div(b, g))


def _certify(core: LaurentPoly, inner: ChartMap, outer: ChartMap) -> None:
    """Check that the single core of a chart pair is an exchange binomial
    c1*m1 + c2*m2 whose exponent difference m1/m2 is primitive (its entries
    have gcd 1).  A unimodular change of torus coordinates turns it into
    1 + y, up to a unit, so it is irreducible and the two tori differ in
    exactly one hypersurface."""
    if len(core.terms) == 2:
        a, b = (dict(m) for m in core.terms)
        if gcd(*(a.get(v, 0) - b.get(v, 0) for v in a.keys() | b.keys())) == 1:
            return

    def label(c):
        if c.opened_crossings is not None:
            return "order " + " ".join(map(str, c.opened_crossings))
        return "inverted [" + ", ".join(e.render() for e in c.inverted) + "]"

    raise NotExchangeBinomial(
        f"charts ({label(inner)}) and ({label(outer)}) differ in {core.render()}, "
        "which is not a primitive binomial"
    )


def charts_adjacent(c1: ChartMap, c2: ChartMap) -> bool:
    """Exact test that two toric charts of the same variety are one mutation
    apart: each chart's defining non-vanishing conditions, pulled back
    through the other's parametrization, must be units times powers of one
    and the same non-monomial polynomial, so the two tori differ in a single
    cluster variable.  That polynomial must be the exchange binomial
    (``_certify``); any other single core raises ``NotExchangeBinomial``."""
    if c1.top.letters != c2.top.letters:
        return False

    def one_core(inner: ChartMap, outer: ChartMap) -> bool:
        core, seen = None, set()
        for e in outer.inverted:
            for p in (e.num, e.den):
                r = p.substitute(inner.subs)
                if r.is_zero():
                    return False
                for part in (r.num, r.den):
                    if part.is_monomial():
                        continue
                    # normalised core: monomial factor and scalar stripped,
                    # so associates compare equal
                    part = poly_gcd(part, LaurentPoly.zero())
                    if part in seen:
                        continue
                    seen.add(part)
                    core = part if core is None else _common_core(core, part)
                    if core is None:  # a second coprime core
                        return False
        if core is None:
            return False
        _certify(core, inner, outer)
        return True

    return one_core(c1, c2) and one_core(c2, c1)


def chart_parametrize(weave: Weave) -> ChartMap:
    """Invert the downward propagation of a weave whose bottom is a reduced
    word for w0 (all bottom values are then forced to vanish), producing the
    toric chart parametrization of the top variables.

    Trivalent vertices contribute unit parameters, cups affine parameters;
    for a weave with m cups and r trivalent vertices the chart is
    C^m x (C*)^r.
    """
    if any(ev.kind == "cap" for ev in weave.events):
        raise PatternMismatch("charts require a simplifying weave (no caps)")
    slices = weave.slices()
    bottom = slices[-1]
    n = weave.n
    # bottom must be a reduced word lifting w0, so that X0(bottom; w0) is a point
    bp = coxeter_letters(n, bottom)
    if bp != longest_perm(n) or perm_length(bp) != len(bottom):
        raise PatternMismatch("chart parametrization needs a reduced w0 word at the bottom")

    three_idx = [k for k, ev in enumerate(weave.events) if ev.kind == "three"]
    cup_idx = [k for k, ev in enumerate(weave.events) if ev.kind == "cup"]
    if weave.opened_crossings is not None:
        unit_names = {k: f"s{c}" for k, c in zip(three_idx, weave.opened_crossings)}
    else:
        unit_names = {k: f"t{j + 1}" for j, k in enumerate(three_idx)}
    affine_names = {k: f"a{j + 1}" for j, k in enumerate(cup_idx)}

    zero = LaurentPoly.zero()
    letters = list(bottom)
    values = [zero] * len(letters)
    unit_params, affine_params = [], []
    for k in range(len(weave.events) - 1, -1, -1):
        ev = weave.events[k]
        p = ev.pos
        if ev.kind == "three":
            t = LaurentPoly.variable(var_id(unit_names[k]))
            unit_params.append(var_id(unit_names[k]))
            factor = trivalent_factor(n, letters[p], t)
            values[p : p + 1] = [t, values[p] - t.inverse()]
            letters[p : p + 1] = [letters[p], letters[p]]
        elif ev.kind == "cup":
            letter = slices[k][p]
            a = LaurentPoly.variable(var_id(affine_names[k]))
            affine_params.append(var_id(affine_names[k]))
            factor = cup_factor(n, letter, a)
            values[p:p] = [zero, a]
            letters[p:p] = [letter, letter]
        else:
            # the event maps slice k to slice k+1; the same move undoes it
            braid_move_in_place(letters, values, p, ev.kind)
            continue
        if p:
            _, values[:p] = slide_left(factor, letters[:p], values[:p], back=True)
    if tuple(letters) != weave.top.letters:
        raise PatternMismatch("upward pass did not restore the top word")
    unit_params.reverse()
    affine_params.reverse()
    subs = {v: _make(x, _ONE) for v, x in zip(weave.top.variables, values)}
    prop = propagate_down(weave)
    return ChartMap(
        top=weave.top,
        unit_params=unit_params,
        affine_params=affine_params,
        subs=subs,
        inverted=prop.inverted,
        vanishing=prop.vanishing,
        opened_crossings=list(weave.opened_crossings)
        if weave.opened_crossings is not None
        else None,
    )


def chart_satisfies_equations(chart: ChartMap, presentation) -> bool:
    """Substituted top values must satisfy every variety equation identically."""
    return all(eq.substitute(chart.subs).is_zero() for eq in presentation.equations)


# ---------------------------------------------------------------------------
# rational maps of Demazure weaves


def rational_map(weave: Weave):
    """The tuple of bottom values as rational functions of the top variables."""
    prop = propagate_down(weave)
    return tuple(prop.values)


def compare_extended(map1, map2) -> bool:
    """Equality of the maximal extensions: componentwise equality of the
    canonical rational-function forms."""
    return len(map1) == len(map2) and all(a == b for a, b in zip(map1, map2))


# ---------------------------------------------------------------------------
# opening crossings directly (factor into U D L and slide outwards)


def _opening_slides(n: int, i: int, t, letters, values, p: int, back: bool = False):
    """Slide the factors of an opened letter B_i(t) = T_i(t) . L_i(t) out of
    the word it sat in at 0-based position p (``letters`` and ``values``
    without it): the trivalent factor T_i = U_i D_i left through letters[:p],
    and L_i right through letters[p:], as the transposed slide on the
    reversed suffix.  Returns the new values and the transpose of the
    lower-triangular factor that leaves the right end, sparse as the slide
    leaves it; with ``back`` the values given are the new ones and the old
    ones are returned, with the same factor."""
    head, tail, low = values[:p], values[p:][::-1], cup_factor(n, i, t.inverse())
    if p:
        _, head = slide_left(trivalent_factor(n, i, t), letters[:p], head, back)
    if tail:
        low, tail = slide_left(low, letters[p:][::-1], tail, back)
    return head + tail[::-1], low


def open_crossing(word: BraidWord, pos: int):
    """One opening step on the coordinates (z of ``word``, lower-triangular c).

    The word is the beta-part; the presentation in the background is
    ``B_word(z) . L(c)`` upper triangular (the half-twist part of
    beta Delta absorbed into the c coordinates).  Opening the letter at
    0-based ``pos`` factors it as U D L, slides U D to the far left and
    L into the c matrix, and returns

        (word', subs, unit)

    where word' is the word with the letter deleted (variables reused), subs
    maps every primed coordinate (z and c variable ids) to its polynomial
    expression in the old coordinates and the inverse of the opened variable,
    and unit is the opened variable id.  Restricted to {z != 0} the map is
    invertible.
    """
    n = word.n
    zvals = word.var_exprs()

    # c coordinates as a symbolic lower uni-triangular matrix
    one, zero = RationalExpr.const(1), RationalExpr.const(0)
    rows = [[one if r == c else zero for c in range(n)] for r in range(n)]
    cvars = {}
    for a in range(2, n + 1):
        for b in range(1, a):
            vid = var_id(f"c{a}{b}")
            cvars[(a, b)] = vid
            rows[a - 1][b - 1] = RationalExpr.variable(vid)
    lower = MatrixExpr(rows)

    new_letters = word.letters[:pos] + word.letters[pos + 1 :]
    new_vars = word.variables[:pos] + word.variables[pos + 1 :]
    new_values, low = _opening_slides(
        n, word.letters[pos], zvals[pos], new_letters, zvals[:pos] + zvals[pos + 1 :], pos
    )
    new_lower = _dense(low, one, zero).transpose() * lower
    if not new_lower.is_lower_triangular():
        raise PatternMismatch("opening left the c matrix not lower triangular")

    subs = dict(zip(new_vars, new_values))
    for (a, b), vid in cvars.items():
        subs[vid] = new_lower[a - 1, b - 1]
    word2 = BraidWord(n, new_letters, new_vars)
    return word2, subs, word.variables[pos]


def _ldu_restore(beta: BraidWord, order):
    """beta's values in the unit parameters s_r, and the lower factor each
    undone opening moves into the c matrix, in the order undone and as
    ``_opening_slides`` leaves it (transposed): the openings run backwards
    from the base point."""
    n = beta.n
    # state after all openings: empty word, c matrix = Id
    letters: list[int] = []
    values: list[LaurentPoly] = []
    lows = []
    for r, p in zip(reversed(order), reversed(opening_positions(order))):
        t = LaurentPoly.variable(var_id(f"s{r}"))
        i = beta.letters[r - 1]
        values, low = _opening_slides(n, i, t, letters, values, p, back=True)
        lows.append(low)
        letters.insert(p, i)
        values.insert(p, t)
    if letters != list(beta.letters):
        raise PatternMismatch("restored letters differ from beta")
    return values, lows


def _ldu_units(beta: BraidWord, order) -> list[Localized]:
    """The value of each opened letter, in the variables of beta, as the
    ``Localized`` unit the forward openings invert: a scalar times a Laurent
    monomial times signed powers of the pass's bases (no c matrix is needed
    for it)."""
    n, letters = beta.n, list(beta.letters)
    bases = Bases()
    values = [Localized(LaurentPoly.variable(v), {}, bases, True) for v in beta.variables]
    units = []
    for r, p in zip(order, opening_positions(order)):
        del letters[p]
        units.append(bases.unit(values.pop(p)))
        values, _ = _opening_slides(n, beta.letters[r - 1], units[-1], letters, values, p)
    return units


def _ldu_record(beta: BraidWord, order) -> list[RationalExpr]:
    """The constraint record: ``_ldu_units`` in canonical form."""
    return [u.rational() for u in _ldu_units(beta, order)]


def ldu_chart(beta: BraidWord, order) -> ChartMap:
    """The toric chart of X0(beta Delta; w0) from opening the crossings of
    beta in the given order (1-based indices into beta), built by running the
    factor-and-slide openings backwards from the base point.

    Produces the same kind of substitution as the weave route: values for all
    variables of beta Delta.  Undoing an opening multiplies the inverse of
    the c matrix by the lower factor that the opening moved into it, and the
    half-twist values are read off that inverse by one back slide
    (``solve_half_twist``).  The constraint record comes from the same
    openings run forwards (``_ldu_record``).
    """
    order = check_opening_order(beta, order)
    values, lows = _ldu_restore(beta, order)
    # the c matrix's inverse is the product of the lows' transposes: fold its transpose
    n, zero = beta.n, LaurentPoly.zero()
    upper = [[_ONE if r == c else zero for c in range(n)] for r in range(n)]
    for low in lows:
        for r, row in enumerate(low.rows):
            for c in range(r + 1, n):
                products = (row[k] * upper[k][c] for k in range(r + 1, c + 1) if row[k] is not None)
                upper[r][c] = sum(products, upper[r][c])
    lower = MatrixExpr(upper).transpose()
    bd = append_half_twist(beta)
    values += solve_half_twist(lower)
    return ChartMap(
        top=bd,
        unit_params=[var_id(f"s{r}") for r in order],
        affine_params=[],
        subs={v: _make(x, _ONE) for v, x in zip(bd.variables, values)},
        inverted=_ldu_record(beta, order),
        opened_crossings=list(order),
    )


def solve_half_twist(lower: MatrixExpr) -> list:
    """The half-twist values u with lower . B_Delta(u) . w0 = Id, for a lower
    uni-triangular ``lower``, from one back slide of its transpose through
    the reversed half twist onto all-zero values.

    The slide gives B(rev Delta, v) . lower^T = rest . B(rev Delta, 0).
    Transposed, with every B_i symmetric, B(rev Delta, 0)^T = w0 and u = v
    reversed: lower . B_Delta(u) . w0 = w0 . rest^T . w0.  The left side is
    lower and the right side upper uni-triangular, so both are Id; anything
    else means ``lower`` was not lower uni-triangular.
    """
    n = lower.n
    letters = half_twist_letters(n)[::-1]
    one, zero = lower[0, 0].const(1), lower[0, 0].const(0)
    rest, v = slide_left(lower.transpose(), letters, [zero] * len(letters), back=True)
    if not lower.is_lower_triangular() or rest != _dense(MatrixExpr([[None] * n] * n), one, zero):
        raise PatternMismatch("the c matrix is not lower uni-triangular")
    return v[::-1]


# ---------------------------------------------------------------------------
# the Mellit opening order


def mellit_order(beta: BraidWord):
    """The opening order of beta's crossings cut out by prefix Bruhat-cell
    conditions: walk the prefixes of beta Delta, never going down; at the
    first stall, the exchange index names the crossing to open (it always
    lies in beta); repeat on the shortened word.
    """
    n = beta.n
    word = append_half_twist(beta)
    letters = list(word.letters)
    original = list(range(1, len(word) + 1))  # index in beta Delta per letter
    m = n * (n - 1) // 2
    order = []
    while len(letters) > m:
        stall = stall_index(n, letters)
        if stall is None:
            raise PatternMismatch("walk never stalls on a non-reduced word")
        prefix = BraidWord(
            n,
            tuple(letters[:stall]),
            tuple(word.variables[j - 1] for j in original[:stall]),
        )
        k = exchange_index(prefix, letters[stall])
        opened = original[k - 1]
        if opened > len(beta):
            raise PatternMismatch("Mellit order opened a crossing inside the half twist")
        order.append(opened)
        del letters[k - 1]
        del original[k - 1]
    return order
