"""Cluster coordinates from weaves: cycle bases and intersection quivers for
2-strand weaves, path tracing for general Demazure weaves, monomial
A-coordinates, and comparisons with the (2,2)-entry minors of partial braid
matrix products.

Coordinates are written in the normalized unit parameters S_r: for the chart
of an opening order, S_r is the unique monomial of the chart expression
z_r(s) that carries the raw parameter s_r to the first power.  In these
coordinates the substitutions take the shape z_r = S_r + (Laurent
corrections), and the cycle monomials become polynomials in the z's.

Sign and pairing conventions below are module constants, fixed once by the
2-strand and 3-strand fixtures and validated by the generic identities
(path pairings, exchange relation, rank checks).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ring import RationalExpr, var_id
from .braid import BraidWord, PatternMismatch, elementary_braid_matrix
from .chart import ChartMap, chart_parametrize
from .weave import Weave


class NotTwoStrand(Exception):
    pass


class NotPolynomial(Exception):
    pass


# ---------------------------------------------------------------------------
# the weave edge graph


@dataclass
class EdgeGraph:
    """Edges of a weave with their endpoints.

    Endpoints are ("top", position), ("bottom", position) for boundary ends,
    or (event_index, slot) with slots "in0"/"in1"/"in2"/"out0"/"out1"/"out2".
    Four-valent crossings are transverse: edges continue through them.
    """

    weave: Weave
    top_end: dict[int, tuple]
    bottom_end: dict[int, tuple]
    colors: dict[int, int]
    at_slot: dict[tuple, int]  # (event, slot) -> edge id
    trivalent: list[int]  # event indices of trivalent vertices, top-down
    hexavalent: list[int]


def edge_graph(weave: Weave) -> EdgeGraph:
    slices = weave.slices()
    next_id = 0
    top_end: dict[int, tuple] = {}
    bottom_end: dict[int, tuple] = {}
    colors: dict[int, int] = {}
    at_slot: dict[tuple, int] = {}
    current: list[int] = []
    for p, letter in enumerate(slices[0]):
        top_end[next_id] = ("top", p)
        colors[next_id] = letter
        current.append(next_id)
        next_id += 1

    def new_edge(end, color):
        nonlocal next_id
        eid = next_id
        next_id += 1
        top_end[eid] = end
        colors[eid] = color
        return eid

    trivalent, hexavalent = [], []
    for k, ev in enumerate(weave.events):
        p = ev.pos
        s = slices[k]
        if ev.kind == "three":
            trivalent.append(k)
            for slot, q in (("in0", p), ("in1", p + 1)):
                bottom_end[current[q]] = (k, slot)
                at_slot[(k, slot)] = current[q]
            out = new_edge((k, "out0"), s[p])
            at_slot[(k, "out0")] = out
            current[p : p + 2] = [out]
        elif ev.kind == "cup":
            for slot, q in (("in0", p), ("in1", p + 1)):
                bottom_end[current[q]] = (k, slot)
                at_slot[(k, slot)] = current[q]
            current[p : p + 2] = []
        elif ev.kind == "six":
            hexavalent.append(k)
            a, b = s[p], s[p + 1]
            for j in range(3):
                bottom_end[current[p + j]] = (k, f"in{j}")
                at_slot[(k, f"in{j}")] = current[p + j]
            outs = [new_edge((k, f"out{j}"), c) for j, c in enumerate((b, a, b))]
            for j, eid in enumerate(outs):
                at_slot[(k, f"out{j}")] = eid
            current[p : p + 3] = outs
        elif ev.kind == "four":
            current[p], current[p + 1] = current[p + 1], current[p]
        elif ev.kind == "cap":
            e1 = new_edge((k, "out0"), ev.letter)
            e2 = new_edge((k, "out1"), ev.letter)
            at_slot[(k, "out0")], at_slot[(k, "out1")] = e1, e2
            current[p:p] = [e1, e2]
        else:
            raise PatternMismatch(ev.kind)
    for p, eid in enumerate(current):
        bottom_end[eid] = ("bottom", p)
    return EdgeGraph(weave, top_end, bottom_end, colors, at_slot, trivalent, hexavalent)


@dataclass
class SPath:
    """The upward path attached to a trivalent vertex: starts at its upper
    left segment; turns right at trivalent vertices; goes straight through
    hexavalent vertices; ends at a top chord."""

    vertex: int  # event index of the trivalent vertex
    edges: list[int]
    chord: int | None  # top position reached (0-based), None if it exits elsewhere


def s_paths(weave: Weave, graph: EdgeGraph | None = None) -> list[SPath]:
    if graph is None:
        graph = edge_graph(weave)
    out = []
    for k in graph.trivalent:
        edges = []
        eid = graph.at_slot[(k, "in0")]
        chord = None
        while True:
            edges.append(eid)
            end = graph.top_end[eid]
            if end[0] == "top":
                chord = end[1]
                break
            ev_idx, slot = end
            kind = weave.events[ev_idx].kind
            if kind == "three":
                eid = graph.at_slot[(ev_idx, "in1")]
            elif kind == "six":
                j = int(slot[-1])
                eid = graph.at_slot[(ev_idx, f"in{2 - j}")]
            else:  # cap: no rule; stop
                break
        out.append(SPath(k, edges, chord))
    return out


@dataclass
class WeaveCycle:
    """An absolute cycle presented by its edge set ("I" for a single edge
    between trivalent vertices, "Y" for the three same-colored legs of a
    hexavalent vertex, or a user-supplied edge list)."""

    kind: str
    edges: tuple[int, ...]


def i_cycle_candidates(graph: EdgeGraph) -> list[WeaveCycle]:
    out = []
    for eid in graph.colors:
        te, be = graph.top_end[eid], graph.bottom_end[eid]
        if te[0] in ("top", "bottom") or be[0] in ("top", "bottom"):
            continue
        if (
            graph.weave.events[te[0]].kind == "three"
            and graph.weave.events[be[0]].kind == "three"
        ):
            out.append(WeaveCycle("I", (eid,)))
    return out


def y_cycle_candidates(graph: EdgeGraph) -> list[WeaveCycle]:
    out = []
    for h in graph.hexavalent:
        for color_slots in (("in0", "in2", "out1"), ("in1", "out0", "out2")):
            legs = []
            ok = True
            for slot in color_slots:
                eid = graph.at_slot[(h, slot)]
                other = (
                    graph.top_end[eid]
                    if graph.bottom_end[eid] == (h, slot)
                    else graph.bottom_end[eid]
                )
                if other[0] in ("top", "bottom") or graph.weave.events[other[0]].kind != "three":
                    ok = False
                    break
                legs.append(eid)
            if ok:
                out.append(WeaveCycle("Y", tuple(legs)))
    return out


# Pairing convention (module constants, fixed by the 2- and 3-strand
# fixtures): the path of a trivalent vertex v pairs +1 with each
# cycle edge leaving v downwards and -1 with each cycle edge arriving at v
# from above; crossing a hexavalent vertex h it additionally pairs with a
# Y-cycle centered at h according to the entry slot and the Y's color class
# ("outer" = the color of the two upper outer legs, "center" = the other).
PATH_HEX_PAIRING = {
    (0, "outer"): -1,
    (0, "center"): 0,
    (1, "outer"): 0,
    (1, "center"): 1,
    (2, "outer"): 0,
    (2, "center"): 1,
}


def _y_center_and_class(graph: EdgeGraph, cycle: WeaveCycle):
    centers = set()
    for eid in cycle.edges:
        for end in (graph.top_end[eid], graph.bottom_end[eid]):
            if end[0] not in ("top", "bottom") and graph.weave.events[end[0]].kind == "six":
                centers.add(end[0])
    if len(centers) != 1:
        raise PatternMismatch("Y-cycle must have a single hexavalent center")
    h = centers.pop()
    outer = {graph.at_slot[(h, s)] for s in ("in0", "in2", "out1")}
    return h, ("outer" if set(cycle.edges) <= outer else "center")


def path_cycle_pairing(graph: EdgeGraph, vertex: int, cycle: WeaveCycle) -> int:
    total = 0
    for eid in cycle.edges:
        if graph.top_end[eid] == (vertex, "out0"):
            total += 1
        for slot in ("in0", "in1"):
            if graph.bottom_end[eid] == (vertex, slot):
                total -= 1
    if cycle.kind == "Y":
        h, ycls = _y_center_and_class(graph, cycle)
        weave = graph.weave
        eid = graph.at_slot[(vertex, "in0")]
        while True:
            end = graph.top_end[eid]
            if end[0] == "top":
                break
            ev_idx, slot = end
            kind = weave.events[ev_idx].kind
            if kind == "three":
                eid = graph.at_slot[(ev_idx, "in1")]
            elif kind == "six":
                j = int(slot[-1])
                if ev_idx == h:
                    total += PATH_HEX_PAIRING[(j, ycls)]
                eid = graph.at_slot[(ev_idx, f"in{2 - j}")]
            else:
                break
    return total


# intersection convention (module constant): cycles pair at shared trivalent
# vertices by the skew rule <in1, in0> = <out, in1> = 1, <out, in0> = -1 on
# the slots they occupy there.
_SLOT_PAIR = {
    ("in1", "in0"): 1,
    ("in0", "in1"): -1,
    ("out0", "in1"): 1,
    ("in1", "out0"): -1,
    ("out0", "in0"): -1,
    ("in0", "out0"): 1,
}


def _cycle_slots_at(graph: EdgeGraph, cycle: WeaveCycle, vertex: int):
    slots = []
    for eid in cycle.edges:
        for end in (graph.top_end[eid], graph.bottom_end[eid]):
            if end[0] == vertex:
                slots.append(end[1])
    return slots


def cycle_intersection(graph: EdgeGraph, c1: WeaveCycle, c2: WeaveCycle) -> int:
    total = 0
    for v in graph.trivalent:
        for a in _cycle_slots_at(graph, c1, v):
            for b in _cycle_slots_at(graph, c2, v):
                total += _SLOT_PAIR.get((a, b), 0)
    return total


def quiver_from_cycles(weave: Weave, cycles, graph: EdgeGraph | None = None):
    if graph is None:
        graph = edge_graph(weave)
    size = len(cycles)
    return [
        [cycle_intersection(graph, cycles[i], cycles[j]) for j in range(size)]
        for i in range(size)
    ]


def pairing_matrix(weave: Weave, cycles) -> list[list[int]]:
    """Rows: trivalent vertices top-down; columns: the given cycles."""
    graph = edge_graph(weave)
    return [
        [path_cycle_pairing(graph, k, c) for c in cycles] for k in graph.trivalent
    ]


# ---------------------------------------------------------------------------
# 2-strand cycle bases


@dataclass
class CycleBasis:
    """Short I-cycle basis of a 2-strand Demazure weave (all trivalent
    vertices except the bottom one), with ending vertices and the
    intersection form."""

    vertices: list[int]  # event indices, top-down; basis omits the last one
    ending: dict[int, int]  # basis vertex -> vertex its cycle ends at
    is_right_child: dict[int, bool]
    above: dict[int, list[int]]  # basis vertex -> opened crossings above it
    intersections: list[list[int]]
    svectors: list[list[int]]  # each cycle as an exponent vector over s_1..s_l


def tree_structure(weave: Weave):
    """Nested-merge structure of a 2-strand Demazure weave ending in one edge.

    Returns (parent, side, leaves) keyed by event index: parent[v] is the
    event whose merge consumes v's output edge, side[v] is "L"/"R", and
    leaves[v] the top positions below v (1-based)."""
    if weave.n != 2 or not weave.is_demazure():
        raise NotTwoStrand("2-strand Demazure weave required")
    items = [("leaf", p + 1) for p in range(len(weave.top))]
    parent: dict[int, int] = {}
    side: dict[int, str] = {}
    leaves: dict[int, list[int]] = {}
    for k, ev in enumerate(weave.events):
        p = ev.pos
        left, right = items[p], items[p + 1]
        for child, s in ((left, "L"), (right, "R")):
            if child[0] == "node":
                parent[child[1]] = k
                side[child[1]] = s
        leaves[k] = [
            x
            for item in (left, right)
            for x in (leaves[item[1]] if item[0] == "node" else [item[1]])
        ]
        items[p : p + 2] = [("node", k)]
    if len(items) != 1:
        raise NotTwoStrand("weave does not end in a single edge")
    return parent, side, leaves


def i_cycle_basis(weave: Weave) -> CycleBasis:
    parent, side, leaves = tree_structure(weave)
    order = sorted(leaves)  # event order = top-down
    basis = [v for v in order if v in parent]  # all but the final merge
    l = len(weave.top) - 1  # number of opened crossings
    if weave.opened_crossings is None:
        raise NotTwoStrand("cycle basis needs an opening-order weave")
    ending = {v: parent[v] for v in basis}
    is_right = {v: side[v] == "R" for v in basis}
    above = {
        v: [c for c in leaves[v][:-1]] for v in basis
    }
    # intersection form: +-1 when one cycle ends at the other's vertex or the
    # two cycles end at the same vertex, signs by the left/right edge rule
    size = len(basis)
    inter = [[0] * size for _ in range(size)]
    index = {v: i for i, v in enumerate(basis)}
    for j, vj in enumerate(basis):
        e = ending[vj]
        if e in index:
            i = index[e]
            val = 1 if is_right[vj] else -1
            inter[i][j] = val
            inter[j][i] = -val
    for i, vi in enumerate(basis):
        for j, vj in enumerate(basis):
            if i < j and ending[vi] == ending[vj]:
                # top-down order and planarity: the left child's cycle comes
                # from the earlier vertex exactly when it was merged earlier
                val = 1 if is_right[vi] and not is_right[vj] else -1
                inter[i][j] = val
                inter[j][i] = -val
    svec = []
    for v in basis:
        vec = [0] * l
        for c in above[v]:
            vec[c - 1] = 1
        svec.append(vec)
    return CycleBasis(basis, ending, is_right, above, inter, svec)


# ---------------------------------------------------------------------------
# normalized parameters


@dataclass
class NormalizedChart:
    """A chart rewritten in normalized parameters S_r (see module docstring):
    subs maps top variables to expressions in the S's; expo is the integer
    matrix with S_r = sign_r * prod_j s_j^(expo[r][j]) over the raw
    parameters, rows/columns indexed by the opening order."""

    chart: ChartMap
    order: list[int]
    subs: dict[int, RationalExpr]
    expo: list[list[int]]
    signs: dict[int, int]
    param_ids: list[int]  # var ids S{r} in opening-order listing


def normalized_chart(beta: BraidWord, order, weave: Weave | None = None) -> NormalizedChart:
    """Rewrite the opening-order chart in the parameters S_r defined by the
    unique monomial of z_r(s) with s_r-exponent one (coefficient +-1)."""
    from .weave import weave_from_opening_order

    order = list(order)
    if weave is None:
        weave = weave_from_opening_order(beta, order)
    chart = chart_parametrize(weave)
    rows = order
    size = len(rows)
    col = {var_id(f"s{r}"): j for j, r in enumerate(rows)}
    expo = [[0] * size for _ in range(size)]
    signs: dict[int, int] = {}
    for i, r in enumerate(rows):
        zr = chart.subs[beta.variables[r - 1]]
        if not zr.is_polynomial():
            raise NotPolynomial(f"z_{r}(s) is not Laurent-polynomial")
        picks = [
            (m, c) for m, c in zr.num.terms.items() if dict(m).get(var_id(f"s{r}"), 0) == 1
        ]
        if len(picks) != 1:
            raise NotPolynomial(f"no unique normalizing monomial for crossing {r}")
        m, c = picks[0]
        if c not in (1, -1):
            raise NotPolynomial(f"normalizing coefficient {c} is not a unit")
        for v, e in m:
            expo[i][col[v]] = e
        signs[r] = int(c)
    inv = _integer_inverse(expo)
    # s_j = tau_j * prod_r S_r^(inv[j][r])
    mapping: dict[int, RationalExpr] = {}
    param_ids = [var_id(f"S{r}") for r in rows]
    for j, rj in enumerate(rows):
        e = RationalExpr.const(1)
        tau = 1
        for i, ri in enumerate(rows):
            k = inv[j][i]
            if k:
                e = e * RationalExpr.variable(param_ids[i]) ** k
            if signs[ri] == -1 and k % 2 != 0:
                tau = -tau
        mapping[var_id(f"s{rj}")] = e * RationalExpr.const(tau)
    # verify the round trip: S_r = sign_r prod s^expo[r] maps to S_r
    for i, r in enumerate(rows):
        val = RationalExpr.const(signs[r])
        for j, rj in enumerate(rows):
            if expo[i][j]:
                val = val * mapping[var_id(f"s{rj}")] ** expo[i][j]
        if val != RationalExpr.variable(param_ids[i]):
            raise NotPolynomial("sign bookkeeping failed in normalization")
    subs = {v: e.substitute(mapping) for v, e in chart.subs.items()}
    return NormalizedChart(chart, rows, subs, expo, signs, param_ids)


def _integer_inverse(mat):
    size = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(size)] for i in range(size)]
    for i in range(size):
        a[i] += [Fraction(1 if j == i else 0) for j in range(size)]
    for col in range(size):
        piv = next(r for r in range(col, size) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(size):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    inv = [[a[i][size + j] for j in range(size)] for i in range(size)]
    if any(x.denominator != 1 for row in inv for x in row):
        raise NotPolynomial("normalizing exponent matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


# ---------------------------------------------------------------------------
# A-coordinates and the 2x2 minors


def plucker(word: BraidWord, a: int, b: int) -> RationalExpr:
    """(2,2)-entry of B_1(z_a) ... B_1(z_{b-2}) for a 2-strand word."""
    if word.n != 2:
        raise NotTwoStrand("minor coordinates are for 2-strand words")
    from .ring import MatrixExpr

    m = MatrixExpr.identity(2)
    for k in range(a, b - 1):
        m = m * elementary_braid_matrix(2, 1, RationalExpr.variable(word.variables[k - 1]))
    return m[1, 1]


def gamma_in_s(basis: CycleBasis, order) -> list[dict[int, int]]:
    """Each basis cycle as an exponent dict over the normalized parameter
    indices (the opened crossings)."""
    out = []
    for vec in basis.svectors:
        out.append({r + 1: e for r, e in enumerate(vec) if e})
    return out


def a_coordinates(weave: Weave, beta: BraidWord, order):
    """For a 2-strand opening weave: each basis cycle's monomial in the
    normalized parameters, rewritten through the inverse chart map as a
    polynomial in the z variables, with its minor label when one matches.

    Returns a list of (exponent dict, polynomial RationalExpr, label or None).
    """
    if weave.opened_crossings is None or list(weave.opened_crossings) != list(order):
        raise NotPolynomial("chart order does not match the weave's opening order")
    basis = i_cycle_basis(weave)
    nc = normalized_chart(beta, order, weave=weave)
    # inverse chart: the normalized parameters as functions of z.  From
    # S = sign * s^expo and s_r = inverted expression of the r-th opening.
    s_in_z = {var_id(f"s{r}"): expr for r, expr in zip(order, nc.chart.inverted)}
    out = []
    bd = nc.chart.top
    minors = {}
    lmax = len(bd) + 1
    for a in range(1, lmax + 1):
        for b in range(a + 2, lmax + 2):
            minors.setdefault(plucker(bd, a, b).render(), f"P{a}{b}")
    for monomial in gamma_in_s(basis, order):
        val = RationalExpr.const(1)
        for r, e in monomial.items():
            sval = RationalExpr.const(nc.signs[r])
            for j, rj in enumerate(nc.order):
                if nc.expo[nc.order.index(r)][j]:
                    sval = sval * s_in_z[var_id(f"s{rj}")] ** nc.expo[nc.order.index(r)][j]
            val = val * sval**e
        if not val.is_polynomial():
            raise NotPolynomial(f"cycle monomial is not polynomial: {val.render()}")
        out.append((monomial, val, minors.get(val.render())))
    return out


# ---------------------------------------------------------------------------
# quivers and quiver mutation


def quiver(basis: CycleBasis) -> list[list[int]]:
    """The intersection quiver of a cycle basis, as the antisymmetric matrix
    of signed intersection numbers (arrows j -> i where entry (i, j) > 0)."""
    return [list(row) for row in basis.intersections]


def quiver_mutate(b, k: int):
    size = len(b)
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i == k or j == k:
                out[i][j] = -b[i][j]
            else:
                out[i][j] = b[i][j] + (
                    abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])
                ) // 2
    return out


def _quiver_key(b):
    import itertools

    size = len(b)
    best = None
    for perm in itertools.permutations(range(size)):
        key = tuple(b[perm[i]][perm[j]] for i in range(size) for j in range(size))
        if best is None or key < best:
            best = key
    return best


def mutation_equivalent(b1, b2, depth: int = 6) -> bool:
    """Finite search: are the two quivers related by at most ``depth``
    mutations (up to relabeling)?"""
    size = len(b1)
    target = _quiver_key(b2)
    seen = {_quiver_key(b1)}
    frontier = [b1]
    if _quiver_key(b1) == target:
        return True
    for _ in range(depth):
        new = []
        for b in frontier:
            for k in range(size):
                m = quiver_mutate(b, k)
                key = _quiver_key(m)
                if key == target:
                    return True
                if key not in seen:
                    seen.add(key)
                    new.append(m)
        frontier = new
    return False


def d4_quiver():
    """An orientation of the D4 star."""
    b = [[0] * 4 for _ in range(4)]
    for leaf in (1, 2, 3):
        b[0][leaf] = 1
        b[leaf][0] = -1
    return b


def quiver_dot(b, names=None) -> str:
    size = len(b)
    if names is None:
        names = [f"gamma{i + 1}" for i in range(size)]
    lines = ["digraph quiver {"]
    for name in names:
        lines.append(f'  "{name}";')
    for i in range(size):
        for j in range(size):
            for _ in range(max(0, b[j][i])):
                lines.append(f'  "{names[i]}" -> "{names[j]}";')
    lines.append("}")
    return "\n".join(lines)
