"""Correspondence semantics for weaves: downward variable propagation with
triangular-matrix sliding, upward toric-chart parametrization, the direct
(factor-and-slide) route for opening crossings, the Mellit opening order,
and comparison of the induced rational maps.

The elementary identities, with ``B_i(z)`` the braid matrix:

- trivalent vertex:  B_i(a) B_i(b) = [[-1/a, 1], [0, a]] . B_i(b + 1/a)
- hexavalent vertex: (i, i+1, i) -> (i+1, i, i+1): (a,b,c) -> (c, b - ac, a)
                     (i+1, i, i+1) -> (i, i+1, i): (a,b,c) -> (c, b + ac, a)
- 4-valent vertex:   distant letters swap, values swap
- cup:               B_i(0) B_i(b) = Id + b E_{i,i+1}
- sliding:           B_i(z) U = U' B_i(z'), z' = (U_{i+1,i+1} z + U_{i,i+1}) / U_{i,i}
- opening:           B_i(z) = T_i(z) . L_i(z), T_i(z) = [[-1/z, 1], [0, z]] the
                     trivalent factor (U_i D_i of the LDU factorization) and
                     L_i(z) = Id + (1/z) E_{i+1,i}

Every upper-triangular factor produced at a vertex is slid to the left edge
of the diagram, transforming the letters it passes; the product of the
factors that reach the left edge is the accumulated matrix ``U`` with
``B(top) = U . B(bottom)`` after substituting the propagated values.

``slide_left`` is the one slide: it moves an upper-triangular factor left
through a whole word, and with ``back=True`` recovers the original values
from the slid ones.  A lower-triangular factor slides right by the same
code: every B_j is symmetric, so L . B(word) = B(word') . L' is the slide of
L^T through the reversed word, transposed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ring import (
    LaurentPoly,
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
    check_opening_order,
    coxeter_letters,
    exchange_index,
    longest_perm,
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
    costs O(n) entry edits.  The diagonal of u must not vanish.
    """
    out = MatrixExpr(u.rows)
    rows = out.rows
    values = list(values)
    zero = RationalExpr.const(0)
    for k in range(len(letters) - 1, -1, -1):
        b = letters[k]
        a = b - 1
        ra, rb = rows[a], rows[b]
        if back:
            zp = values[k]
            z = values[k] = (ra[a] * zp - ra[b]) / rb[b]
        else:
            z = values[k]
            zp = values[k] = (rb[b] * z + ra[b]) / ra[a]
        for c in range(b + 1, u.n):
            x, y = ra[c], rb[c]
            ra[c], rb[c] = y, (x if y.is_zero() else x + z * y)
        for r in range(a):
            row = rows[r]
            x, y = row[a], row[b]
            row[a], row[b] = (y if x.is_zero() else y - zp * x), x
        ra[a], ra[b], rb[a], rb[b] = rb[b], zero, zero, ra[a]
    return out, values


def trivalent_factor(n: int, letter: int, a: RationalExpr) -> MatrixExpr:
    """The upper factor [[-1/a, 1],[0, a]] (block at letter) of a trivalent
    vertex whose left input carries the value a."""
    m = MatrixExpr.identity(n)
    i = letter
    rows = m.rows
    rows[i - 1][i - 1] = -a.inverse()
    rows[i - 1][i] = RationalExpr.const(1)
    rows[i][i] = a
    return m


def cup_factor(n: int, letter: int, b: RationalExpr) -> MatrixExpr:
    """Id + b E_{i,i+1}: the factor of a cup whose surviving value is b."""
    m = MatrixExpr.identity(n)
    m.rows[letter - 1][letter] = b
    return m


@dataclass
class Propagation:
    """Result of pushing the top variables of a weave down to its bottom."""

    bottom: BraidWord
    values: list[RationalExpr]  # value of each bottom letter, in top variables
    inverted: list[RationalExpr]  # one per trivalent vertex, must not vanish
    vanishing: list[RationalExpr]  # one per cup, must vanish
    factors: list[MatrixExpr]  # vertex factors slid to the left edge, top-down

    @property
    def left_matrix(self) -> MatrixExpr:
        """The accumulated factor U with B(top) = U . B(bottom), multiplied
        out from ``factors`` on each read."""
        u = MatrixExpr.identity(self.bottom.n)
        for factor in self.factors:
            u = u * factor
        return u


def _braid_step(kind: str, letters, values, p: int):
    """Apply a hexavalent or 4-valent vertex at p to the letters and values,
    in place.  The direction is read from the letters met, so the downward
    and the upward pass share this step: the change for (i, i+1, i) undoes
    the one for (i+1, i, i+1)."""
    if kind == "six":
        a, b, c = values[p : p + 3]
        up = letters[p + 1] == letters[p] + 1
        values[p : p + 3] = [c, b - a * c if up else b + a * c, a]
        letters[p : p + 3] = [letters[p + 1], letters[p], letters[p + 1]]
    elif kind == "four":
        values[p], values[p + 1] = values[p + 1], values[p]
        letters[p], letters[p + 1] = letters[p + 1], letters[p]
    else:
        raise PatternMismatch(f"unsupported event {kind}")


def propagate_down(weave: Weave) -> Propagation:
    """Compute the bottom letter values of a simplifying weave as rational
    functions of its top variables, the constraint record, and the vertex
    factors slid to the left edge."""
    if any(ev.kind == "cap" for ev in weave.events):
        raise PatternMismatch("propagation requires a simplifying weave (no caps)")
    n = weave.n
    letters = list(weave.top.letters)
    values = weave.top.var_exprs()
    inverted, vanishing, factors = [], [], []
    for ev in weave.events:
        p = ev.pos
        if ev.kind == "three":
            a, b = values[p], values[p + 1]
            if a.is_zero():
                raise PatternMismatch("trivalent vertex with identically zero input")
            inverted.append(a)
            factor = trivalent_factor(n, letters[p], a)
            factor, values[:p] = slide_left(factor, letters[:p], values[:p])
            values[p : p + 2] = [b + a.inverse()]
            del letters[p + 1]
            factors.append(factor)
        elif ev.kind == "cup":
            a, b = values[p], values[p + 1]
            vanishing.append(a)
            factor = cup_factor(n, letters[p], b)
            factor, values[:p] = slide_left(factor, letters[:p], values[:p])
            del values[p : p + 2]
            del letters[p : p + 2]
            factors.append(factor)
        else:
            _braid_step(ev.kind, letters, values, p)
    bottom = BraidWord(n, tuple(letters), weave.bottom_variables())
    return Propagation(bottom, values, inverted, vanishing, factors)


def check_master_identity(weave: Weave, prop: Propagation) -> bool:
    """Verify B(top) = U . B(bottom values) symbolically.  Cup constraints
    that are bare variables are substituted to zero first; the identity only
    holds on the locus they cut out, so weaves whose cup constraints are not
    bare variables are checked on exact prime-field points of that locus."""
    import random

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

    def substitution_items(self):
        return [(v, self.subs[v]) for v in self.top.variables]

    def render(self) -> str:
        lines = [
            f"{var_name(v)} = {e.render()}" for v, e in self.substitution_items()
        ]
        lines += [f"invert: {e.render()}" for e in self.inverted]
        lines += [f"vanish: {e.render()}" for e in self.vanishing]
        return "\n".join(lines)

    def invert_key(self) -> frozenset:
        """Coarse fingerprint of the chart: the set of polynomial cores
        (numerators with negative exponents cleared, up to sign) of the
        inverted expressions.  It is not a pre-key: it records the cores,
        not the group of units they generate, so equal charts can have
        different keys (on ``B3: 1 2 1`` the orders (1,2,3) and (1,3,2) give
        ``z2`` against ``z1*z2``).  ``charts_equal_as_subsets`` decides
        equality."""
        cores = set()
        for e in self.inverted:
            p = e.num
            shift = tuple(
                (v, -lo) for v, lo in p.min_exponents().items() if lo < 0
            )
            if shift:
                p = p.mul_monomial(shift)
            _, lead = p.leading()
            if lead < 0:
                p = -p
            cores.add(p.render())
        return frozenset(cores)


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


def charts_adjacent(c1: ChartMap, c2: ChartMap) -> bool:
    """Exact test that two toric charts of the same variety are one mutation
    apart: each chart's defining non-vanishing conditions, pulled back
    through the other's parametrization, must be units times powers of one
    and the same non-monomial polynomial (the exchange binomial), so the two
    tori differ in a single cluster variable."""
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
        return core is not None

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

    zero = RationalExpr.const(0)
    letters = list(bottom)
    values = [zero] * len(letters)
    unit_params, affine_params = [], []
    for k in range(len(weave.events) - 1, -1, -1):
        ev = weave.events[k]
        p = ev.pos
        if ev.kind == "three":
            t = RationalExpr.variable(var_id(unit_names[k]))
            unit_params.append(var_id(unit_names[k]))
            factor = trivalent_factor(n, letters[p], t)
            _, values[:p] = slide_left(factor, letters[:p], values[:p], back=True)
            values[p : p + 1] = [t, values[p] - t.inverse()]
            letters[p : p + 1] = [letters[p], letters[p]]
        elif ev.kind == "cup":
            letter = slices[k][p]
            a = RationalExpr.variable(var_id(affine_names[k]))
            affine_params.append(var_id(affine_names[k]))
            factor = cup_factor(n, letter, a)
            _, values[:p] = slide_left(factor, letters[:p], values[:p], back=True)
            values[p:p] = [zero, a]
            letters[p:p] = [letter, letter]
        else:
            # the event maps slice k to slice k+1; undo it
            _braid_step(ev.kind, letters, values, p)
    if tuple(letters) != weave.top.letters:
        raise PatternMismatch("upward pass did not restore the top word")
    unit_params.reverse()
    affine_params.reverse()
    subs = dict(zip(weave.top.variables, values))
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


def _opening_slides(n: int, i: int, t: RationalExpr, letters, values, p: int, back: bool = False):
    """Slide the factors of an opened letter B_i(t) = T_i(t) . L_i(t) out of
    the word it sat in at 0-based position p (``letters`` and ``values``
    without it): the trivalent factor T_i = U_i D_i left through letters[:p],
    and L_i right through letters[p:], as the transposed slide on the
    reversed suffix.  Returns the new values and the lower-triangular factor
    that leaves the right end; with ``back`` the values given are the new
    ones and the old ones are returned, with the same factor."""
    _, head = slide_left(trivalent_factor(n, i, t), letters[:p], values[:p], back)
    low, tail = slide_left(
        cup_factor(n, i, t.inverse()), letters[p:][::-1], values[p:][::-1], back
    )
    return head + tail[::-1], low.transpose()


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
    new_lower = low * lower
    if not new_lower.is_lower_triangular():
        raise PatternMismatch("opening left the c matrix not lower triangular")

    subs = dict(zip(new_vars, new_values))
    for (a, b), vid in cvars.items():
        subs[vid] = new_lower[a - 1, b - 1]
    word2 = BraidWord(n, new_letters, new_vars)
    return word2, subs, word.variables[pos]


def ldu_chart(beta: BraidWord, order) -> ChartMap:
    """The toric chart of X0(beta Delta; w0) from opening the crossings of
    beta in the given order (1-based indices into beta), built by running the
    factor-and-slide openings backwards from the base point.

    Produces the same kind of substitution as the weave route: values for all
    variables of beta Delta (the half-twist block is reconstituted from the
    final c matrix by a triangular solve).  The constraint record is the
    value of each opened letter, in the variables of beta, from the same
    openings run forwards (no c matrix is needed for it).
    """
    n = beta.n
    order = check_opening_order(beta, order)

    # state after all openings: empty word, L = Id
    letters: list[int] = []
    crossings: list[int] = []  # original crossing index per remaining letter
    values: list[RationalExpr] = []
    lower = MatrixExpr.identity(n)

    for r in reversed(order):
        t = RationalExpr.variable(var_id(f"s{r}"))
        # position where crossing r sits once restored: the letters of beta
        # that are currently present keep their original relative order
        p = sum(1 for c in crossings if c < r)
        i = beta.letters[r - 1]
        values, low = _opening_slides(n, i, t, letters, values, p, back=True)
        lower = low.inverse() * lower
        if not lower.is_lower_triangular():
            raise PatternMismatch("undoing an opening left L not lower triangular")
        letters.insert(p, i)
        crossings.insert(p, r)
        values.insert(p, t)

    if letters != list(beta.letters):
        raise PatternMismatch("restored letters differ from beta")
    bd = append_half_twist(beta)
    delta_vars = bd.variables[len(beta) :]
    usubs = solve_delta_lower(n, delta_vars, lower)

    subs = dict(zip(beta.variables, values))
    subs.update(usubs)

    values = beta.var_exprs()
    inverted = []
    for r in order:
        p = crossings.index(r)
        del crossings[p], letters[p]
        t = values.pop(p)
        inverted.append(t)
        values, _ = _opening_slides(n, beta.letters[r - 1], t, letters, values, p)
    return ChartMap(
        top=bd,
        unit_params=[var_id(f"s{r}") for r in order],
        affine_params=[],
        subs=subs,
        inverted=inverted,
        vanishing=[],
        opened_crossings=list(order),
    )


def solve_delta_lower(n: int, delta_vars, target: MatrixExpr):
    """Solve B_Delta(u) . w0 = target (lower uni-triangular) for the u values
    by greedy triangular elimination; returns dict var id -> RationalExpr."""
    from .variety import delta_lower_factor

    sym = delta_lower_factor(n, delta_vars)
    remaining = dict.fromkeys(delta_vars)
    solved: dict[int, RationalExpr] = {}
    entries = [
        (a, b) for a in range(2, n + 1) for b in range(1, a)
    ]
    guard = len(delta_vars) + 1
    while len(solved) < len(delta_vars) and guard:
        guard -= 1
        for a, b in entries:
            e = sym[a - 1, b - 1].substitute(solved) if solved else sym[a - 1, b - 1]
            vs = [v for v in e.variables() if v in remaining and v not in solved]
            if len(vs) != 1:
                continue
            v = vs[0]
            # linear in v with unit coefficient?
            coeff = e.derivative(v)
            if not coeff.variables() and coeff == RationalExpr.const(1):
                rest = e - RationalExpr.variable(v)
                if v in rest.variables():
                    continue
                solved[v] = target[a - 1, b - 1] - rest.substitute(solved)
    if len(solved) != len(delta_vars):
        raise PatternMismatch("could not solve the half-twist coordinates")
    return solved


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
    original = list(range(1, len(word) + 1))
    m = n * (n - 1) // 2
    order = []
    while len(letters) > m:
        stall = stall_index(n, letters)
        if stall is None:
            raise PatternMismatch("walk never stalls on a non-reduced word")
        prefix = BraidWord(
            n,
            tuple(letters[:stall]),
            tuple(var_id(f"_m{k}") for k in range(stall)),
        )
        k = exchange_index(prefix, letters[stall])
        opened = original[k - 1]
        if opened > len(beta):
            raise PatternMismatch("Mellit order opened a crossing inside the half twist")
        order.append(opened)
        del letters[k - 1]
        del original[k - 1]
    return order
