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

Every upper-triangular factor produced at a vertex is slid to the left edge
of the diagram, transforming the letters it passes; the product of the
factors that reach the left edge is the accumulated matrix ``U`` with
``B(top) = U . B(bottom)`` after substituting the propagated values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ring import (
    QQ,
    LaurentPoly,
    MatrixExpr,
    NonUnitDiagonal,
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
from .weave import Weave, weave_from_opening_order


@dataclass
class SlideResult:
    """Outcome of sliding an upper-triangular matrix left past one letter."""

    matrix: MatrixExpr  # the transformed upper-triangular factor
    new_value: RationalExpr


def _check_unit_upper(u: MatrixExpr):
    if not u.is_upper_triangular():
        raise NonUnitDiagonal("matrix is not upper triangular")
    for i in range(u.n):
        d = u[i, i]
        if d.is_zero() or not d.is_unit():
            raise NonUnitDiagonal(f"diagonal entry {d.render()} is not a unit")


def slide_left(u: MatrixExpr, letter: int, z: RationalExpr, check: bool = True) -> SlideResult:
    """Solve B_i(z) U = U' B_i(z') for U' and z' (i = letter, 1-based).

    U' = B_i(z) U B_i(z')^{-1} in closed form: only rows and columns i, i+1
    change, the diagonal entries i, i+1 swap and the (i, i+1) entry vanishes
    (z' is chosen for that), so the update is O(n) entry edits.
    """
    if check:
        _check_unit_upper(u)
    b = letter
    a = b - 1
    zp = (u[b, b] * z + u[a, b]) / u[a, a]
    out = MatrixExpr(u.rows, u.ring)
    rows = out.rows
    ra, rb = rows[a], rows[b]
    for c in range(b + 1, u.n):
        x, y = ra[c], rb[c]
        ra[c], rb[c] = y, (x if y.is_zero() else x + z * y)
    for r in range(a):
        row = rows[r]
        x, y = row[a], row[b]
        row[a], row[b] = (y if x.is_zero() else y - zp * x), x
    zero = RationalExpr.const(0, u.ring)
    ra[a], ra[b], rb[a], rb[b] = rb[b], zero, zero, ra[a]
    return SlideResult(out, zp)


def unslide_left(u: MatrixExpr, letter: int, zp: RationalExpr) -> SlideResult:
    """Inverse of slide_left: recover z from z' (same accumulated matrix)."""
    i = letter
    z = (u[i - 1, i - 1] * zp - u[i - 1, i]) / u[i, i]
    res = slide_left(u, letter, z, check=False)
    return SlideResult(res.matrix, z)


def slide_chain_left(u: MatrixExpr, letters, values, check: bool = False):
    """Slide u left through a whole prefix (processed right to left).

    Returns (u_out, new_values) with
    B(letters, values) . u == u_out . B(letters, new_values).
    """
    new_values = list(values)
    for k in range(len(letters) - 1, -1, -1):
        res = slide_left(u, letters[k], new_values[k], check=check)
        new_values[k] = res.new_value
        u = res.matrix
    return u, new_values


def unslide_chain_left(u: MatrixExpr, letters, values):
    """Inverse of slide_chain_left (also processed right to left)."""
    new_values = list(values)
    for k in range(len(letters) - 1, -1, -1):
        res = unslide_left(u, letters[k], new_values[k])
        new_values[k] = res.new_value
        u = res.matrix
    return u, new_values


def trivalent_factor(n: int, letter: int, a: RationalExpr) -> MatrixExpr:
    """The upper factor [[-1/a, 1],[0, a]] (block at letter) of a trivalent
    vertex whose left input carries the value a."""
    m = MatrixExpr.identity(n, a.ring)
    i = letter
    rows = m.rows
    rows[i - 1][i - 1] = -a.inverse()
    rows[i - 1][i] = RationalExpr.const(1, a.ring)
    rows[i][i] = a
    return MatrixExpr(rows, a.ring)


def cup_factor(n: int, letter: int, b: RationalExpr) -> MatrixExpr:
    """Id + b E_{i,i+1}: the factor of a cup whose surviving value is b."""
    m = MatrixExpr.identity(n, b.ring)
    m.rows[letter - 1][letter] = b
    return MatrixExpr(m.rows, b.ring)


@dataclass
class Propagation:
    """Result of pushing the top variables of a weave down to its bottom."""

    bottom: BraidWord
    values: list[RationalExpr]  # value of each bottom letter, in top variables
    inverted: list[RationalExpr]  # one per trivalent vertex, must not vanish
    vanishing: list[RationalExpr]  # one per cup, must vanish
    factors: list[MatrixExpr]  # vertex factors slid to the left edge, top-down
    ring: object = QQ

    @property
    def left_matrix(self) -> MatrixExpr:
        """The accumulated factor U with B(top) = U . B(bottom), multiplied
        out from ``factors`` on each read."""
        u = MatrixExpr.identity(self.bottom.n, self.ring)
        for factor in self.factors:
            u = u * factor
        return u


def six_values(a, b, c, up: bool):
    """Variable change at a hexavalent vertex; ``up`` means the pattern is
    (i, i+1, i) -> (i+1, i, i+1)."""
    return (c, b - a * c, a) if up else (c, b + a * c, a)


def six_values_inverse(x, y, z, up: bool):
    a, c = z, x
    b = y + a * c if up else y - a * c
    return (a, b, c)


def propagate_down(weave: Weave, ring=QQ) -> Propagation:
    """Compute the bottom letter values of a simplifying weave as rational
    functions of its top variables, the constraint record, and the vertex
    factors slid to the left edge."""
    if any(ev.kind == "cap" for ev in weave.events):
        raise PatternMismatch("propagation requires a simplifying weave (no caps)")
    n = weave.n
    letters = list(weave.top.letters)
    values = [RationalExpr.variable(v, ring) for v in weave.top.variables]
    inverted, vanishing, factors = [], [], []
    for ev in weave.events:
        p = ev.pos
        if ev.kind == "three":
            a, b = values[p], values[p + 1]
            if a.is_zero():
                raise PatternMismatch("trivalent vertex with identically zero input")
            inverted.append(a)
            factor = trivalent_factor(n, letters[p], a)
            newval = b + a.inverse()
            factor, head = slide_chain_left(factor, letters[:p], values[:p])
            values[:p] = head
            values[p : p + 2] = [newval]
            del letters[p + 1]
            factors.append(factor)
        elif ev.kind == "cup":
            a, b = values[p], values[p + 1]
            vanishing.append(a)
            factor = cup_factor(n, letters[p], b)
            factor, head = slide_chain_left(factor, letters[:p], values[:p])
            values[:p] = head
            del values[p : p + 2]
            del letters[p : p + 2]
            factors.append(factor)
        elif ev.kind == "six":
            up = letters[p + 1] == letters[p] + 1
            values[p : p + 3] = list(six_values(*values[p : p + 3], up))
            letters[p : p + 3] = [letters[p + 1], letters[p], letters[p + 1]]
        elif ev.kind == "four":
            values[p], values[p + 1] = values[p + 1], values[p]
            letters[p], letters[p + 1] = letters[p + 1], letters[p]
        else:
            raise PatternMismatch(f"unsupported event {ev.kind}")
    bottom = BraidWord(n, tuple(letters), weave.bottom_variables())
    return Propagation(bottom, values, inverted, vanishing, factors, ring)


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
        if len(vs) == 1 and expr == RationalExpr.variable(vs[0], expr.num.ring):
            subs[vs[0]] = RationalExpr.const(0, expr.num.ring)
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

    def key(self) -> tuple:
        """Canonical comparison key: the substitution map with parameters
        renamed in order of first appearance (equality of maps, not images)."""
        params = set(self.unit_params) | set(self.affine_params)
        renames: dict[int, RationalExpr] = {}
        for v in self.top.variables:
            for pv in sorted(self.subs[v].variables()):
                if pv in params and pv not in renames:
                    renames[pv] = RationalExpr.variable(var_id(f"p{len(renames) + 1}"))
        return tuple(
            (var_name(v), self.subs[v].substitute(renames).render())
            for v in self.top.variables
        )

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
            num = RationalExpr(e.num).substitute(inner.subs)
            if num.is_zero() or not num.is_unit():
                return False
            den = RationalExpr(e.den).substitute(inner.subs)
            if den.is_zero() or not den.is_unit():
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
                    part = poly_gcd(part, LaurentPoly.zero(part.ring))
                    if part in seen:
                        continue
                    seen.add(part)
                    core = part if core is None else _common_core(core, part)
                    if core is None:  # a second coprime core
                        return False
        return core is not None

    return one_core(c1, c2) and one_core(c2, c1)


def chart_parametrize(weave: Weave, param_names=None, ring=QQ) -> ChartMap:
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
    if param_names is None:
        if weave.opened_crossings is not None:
            param_names = {
                k: f"s{c}" for k, c in zip(three_idx, weave.opened_crossings)
            }
        else:
            param_names = {k: f"t{j + 1}" for j, k in enumerate(three_idx)}
    affine_names = {k: f"a{j + 1}" for j, k in enumerate(cup_idx)}

    zero = RationalExpr.const(0, ring)
    letters = list(bottom)
    values = [zero] * len(letters)
    unit_params, affine_params = [], []
    for k in range(len(weave.events) - 1, -1, -1):
        ev = weave.events[k]
        p = ev.pos
        if ev.kind == "three":
            t = RationalExpr.variable(var_id(param_names[k]), ring)
            unit_params.append(var_id(param_names[k]))
            factor = trivalent_factor(n, letters[p], t)
            _, head = unslide_chain_left(factor, letters[:p], values[:p])
            newval = values[p]
            values[:p] = head
            values[p : p + 1] = [t, newval - t.inverse()]
            letters[p : p + 1] = [letters[p], letters[p]]
        elif ev.kind == "cup":
            letter = slices[k][p]
            a = RationalExpr.variable(var_id(affine_names[k]), ring)
            affine_params.append(var_id(affine_names[k]))
            factor = cup_factor(n, letter, a)
            _, head = unslide_chain_left(factor, letters[:p], values[:p])
            values[:p] = head
            values[p:p] = [zero, a]
            letters[p:p] = [letter, letter]
        elif ev.kind == "six":
            # the event maps slice k to slice k+1; undo it
            upper = slices[k][p : p + 3]
            up = upper[1] == upper[0] + 1
            values[p : p + 3] = list(six_values_inverse(*values[p : p + 3], up))
            letters[p : p + 3] = list(upper)
        elif ev.kind == "four":
            values[p], values[p + 1] = values[p + 1], values[p]
            letters[p], letters[p + 1] = letters[p + 1], letters[p]
        else:
            raise PatternMismatch(f"unsupported event {ev.kind}")
    if tuple(letters) != weave.top.letters:
        raise PatternMismatch("upward pass did not restore the top word")
    unit_params.reverse()
    affine_params.reverse()
    subs = dict(zip(weave.top.variables, values))
    prop = propagate_down(weave, ring)
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
    subs = {v: e for v, e in chart.subs.items()}
    for eq in presentation.equations:
        val = RationalExpr(eq).substitute(subs)
        if not val.is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# rational maps of Demazure weaves


def rational_map(weave: Weave, ring=QQ):
    """The tuple of bottom values as rational functions of the top variables."""
    prop = propagate_down(weave, ring)
    return tuple(prop.values)


def compare_extended(map1, map2) -> bool:
    """Equality of the maximal extensions: componentwise equality of the
    canonical rational-function forms."""
    return len(map1) == len(map2) and all(a == b for a, b in zip(map1, map2))


# ---------------------------------------------------------------------------
# opening crossings directly (factor into U D L and slide outwards)


def slide_diag_left(d_entries, letter: int, z: RationalExpr):
    """B_j(z) . D = D' . B_j(z') with D' = D with entries j, j+1 swapped and
    z' = (d_{j+1} / d_j) z."""
    j = letter
    zp = d_entries[j] / d_entries[j - 1] * z
    dp = list(d_entries)
    dp[j - 1], dp[j] = dp[j], dp[j - 1]
    return dp, zp


def unslide_diag_left(d_entries, letter: int, zp: RationalExpr):
    j = letter
    z = d_entries[j - 1] / d_entries[j] * zp
    dp = list(d_entries)
    dp[j - 1], dp[j] = dp[j], dp[j - 1]
    return dp, z


def slide_lower_right(low: MatrixExpr, letter: int, z: RationalExpr):
    """L . B_j(z) = B_j(z') . L' by transposing the upper-triangular slide."""
    res = slide_left(low.transpose(), letter, z, check=False)
    return res.matrix.transpose(), res.new_value


def unslide_lower_right(low: MatrixExpr, letter: int, zp: RationalExpr):
    res = unslide_left(low.transpose(), letter, zp)
    return res.matrix.transpose(), res.new_value


def open_crossing(word: BraidWord, pos: int, ring=QQ):
    """One opening step on the coordinates (z of ``word``, lower-triangular c).

    The word is the beta-part; the presentation in the background is
    ``B_word(z) . L(c)`` upper triangular (the half-twist part of
    beta Delta absorbed into the c coordinates).  Opening the letter at
    0-based ``pos`` factors it as U D L, slides U and D to the far left and
    L into the c matrix, and returns

        (word', subs, unit)

    where word' is the word with the letter deleted (variables reused), subs
    maps every primed coordinate (z and c variable ids) to its polynomial
    expression in the old coordinates and the inverse of the opened variable,
    and unit is the opened variable id.  Restricted to {z != 0} the map is
    invertible.
    """
    n = word.n
    letters = word.letters
    i = letters[pos]
    zvals = [RationalExpr.variable(v, ring) for v in word.variables]
    z = zvals[pos]

    # c coordinates as a symbolic lower uni-triangular matrix
    one, zero = RationalExpr.const(1, ring), RationalExpr.const(0, ring)
    rows = [[one if r == c else zero for c in range(n)] for r in range(n)]
    cvars = {}
    for a in range(2, n + 1):
        for b in range(1, a):
            vid = var_id(f"c{a}{b}")
            cvars[(a, b)] = vid
            rows[a - 1][b - 1] = RationalExpr.variable(vid, ring)
    lower = MatrixExpr(rows, ring)

    # B_i(z) = U_i(z) D_i(z) L_i(z)
    u_i = cup_factor(n, i, z.inverse())
    d_entries = [one] * n
    d_entries[i - 1], d_entries[i] = -z.inverse(), z
    l_i = u_i.transpose()

    # slide L_i right through the suffix, then absorb into the c matrix
    low = l_i
    suffix_vals = list(zvals[pos + 1 :])
    for k, j in enumerate(letters[pos + 1 :]):
        low, suffix_vals[k] = slide_lower_right(low, j, suffix_vals[k])
    new_lower = low * lower
    if not new_lower.is_lower_triangular():
        raise PatternMismatch("opening left the c matrix not lower triangular")

    # slide U_i then D_i left through the prefix
    prefix_letters = letters[:pos]
    u_out, prefix_vals = slide_chain_left(u_i, prefix_letters, zvals[:pos])
    d_out = list(d_entries)
    for k in range(len(prefix_letters) - 1, -1, -1):
        d_out, prefix_vals[k] = slide_diag_left(d_out, prefix_letters[k], prefix_vals[k])

    new_letters = letters[:pos] + letters[pos + 1 :]
    new_vars = word.variables[:pos] + word.variables[pos + 1 :]
    subs = {}
    for v, e in zip(new_vars, prefix_vals + suffix_vals):
        subs[v] = e
    for (a, b), vid in cvars.items():
        subs[vid] = new_lower[a - 1, b - 1]
    word2 = BraidWord(n, new_letters, new_vars)
    return word2, subs, word.variables[pos]


def ldu_chart(beta: BraidWord, order, ring=QQ) -> ChartMap:
    """The toric chart of X0(beta Delta; w0) from opening the crossings of
    beta in the given order (1-based indices into beta), built by running the
    factor-and-slide openings backwards from the base point.

    Produces the same kind of substitution as the weave route: values for all
    variables of beta Delta (the half-twist block is reconstituted from the
    final c matrix by a triangular solve).
    """
    n = beta.n
    order = check_opening_order(beta, order)
    one, zero = RationalExpr.const(1, ring), RationalExpr.const(0, ring)

    # state after all openings: empty word, L = Id
    letters: list[int] = []
    crossings: list[int] = []  # original crossing index per remaining letter
    values: list[RationalExpr] = []
    lower = MatrixExpr.identity(n, ring)

    for r in reversed(order):
        t = RationalExpr.variable(var_id(f"s{r}"), ring)
        # position where crossing r sits once restored: the letters of beta
        # that are currently present keep their original relative order
        p = sum(1 for c in crossings if c < r)
        i = beta.letters[r - 1]

        # undo the D slide (right to left through the prefix), then the U slide
        d_entries = [one] * n
        d_entries[i - 1], d_entries[i] = -t.inverse(), t
        head = values[:p]
        d_cur = list(d_entries)
        for k in range(p - 1, -1, -1):
            d_cur, head[k] = unslide_diag_left(d_cur, letters[k], head[k])
        u_i = cup_factor(n, i, t.inverse())
        _, head = unslide_chain_left(u_i, letters[:p], head)

        # undo the L slide (left to right through the suffix)
        low = u_i.transpose()
        tail = values[p:]
        for k, j in enumerate(letters[p:]):
            low, tail[k] = unslide_lower_right(low, j, tail[k])
        lower = low.inverse() * lower
        if not lower.is_lower_triangular():
            raise PatternMismatch("undoing an opening left L not lower triangular")

        letters[p:p] = [i]
        crossings[p:p] = [r]
        values = head + [t] + tail

    if letters != list(beta.letters):
        raise PatternMismatch("restored letters differ from beta")
    bd = append_half_twist(beta)
    delta_vars = bd.variables[len(beta) :]
    usubs = solve_delta_lower(n, delta_vars, lower, ring)

    subs = dict(zip(beta.variables, values))
    subs.update(usubs)
    # the constraint record comes from the matching weave route
    weave = weave_from_opening_order(beta, order)
    prop = propagate_down(weave, ring)
    return ChartMap(
        top=bd,
        unit_params=[var_id(f"s{r}") for r in order],
        affine_params=[],
        subs=subs,
        inverted=prop.inverted,
        vanishing=[],
        opened_crossings=list(order),
    )


def solve_delta_lower(n: int, delta_vars, target: MatrixExpr, ring=QQ):
    """Solve B_Delta(u) . w0 = target (lower uni-triangular) for the u values
    by greedy triangular elimination; returns dict var id -> RationalExpr."""
    from .variety import delta_lower_factor

    sym = delta_lower_factor(n, delta_vars, ring)
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
            if not coeff.variables() and coeff == RationalExpr.const(1, ring):
                rest = e - RationalExpr.variable(v, ring)
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
