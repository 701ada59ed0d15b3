"""Cluster coordinates from weaves: cycle bases and intersection quivers for
2-strand opening orders, path tracing for general Demazure weaves, monomial
A-coordinates, and comparisons with the (2,2)-entry minors of partial braid
matrix products.

Coordinates are written in the normalized unit parameters S_r: for the chart
of an opening order, S_r is the unique monomial of the chart expression
z_r(s) that carries the raw parameter s_r to the first power.  In these
coordinates the substitutions take the shape z_r = S_r + (Laurent
corrections), and the cycle monomials become polynomials in the z's.
``a_coordinates`` writes them without the chart: S_r is a product of integer
powers of the units that the forward openings invert (``chart._ldu_units``),
so a cycle monomial is one exponent sum, canonicalised once.

Sign and pairing conventions below are module constants, fixed once by the
2-strand and 3-strand fixtures and validated by the generic identities
(path pairings, exchange relation, rank checks).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .ring import DomainError, RationalExpr, gauss_jordan, var_id
from .braid import BraidWord, PatternMismatch, append_half_twist, check_opening_order, times_letter
from .chart import ChartMap, _ldu_restore, _ldu_units, ldu_chart
from .weave import EVENT_SHAPES, Weave, merge_intervals


class NotTwoStrand(DomainError):
    pass


class NotPolynomial(DomainError):
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
    """The edges of the weave, numbered top edges first, then each event's
    new edges in event order.  An event other than ``four`` ends the edges
    it consumes (slots in0..) and starts the edges it produces (slots
    out0..), coloured by the slice below, as ``EVENT_SHAPES`` gives."""
    slices = weave.slices()
    top_end = {p: ("top", p) for p in range(len(slices[0]))}
    colors = dict(enumerate(slices[0]))
    bottom_end: dict[int, tuple] = {}
    at_slot: dict[tuple, int] = {}
    current = list(colors)
    for k, ev in enumerate(weave.events):
        p = ev.pos
        if ev.kind == "four":  # transverse: both edges run on through it
            current[p], current[p + 1] = current[p + 1], current[p]
            continue
        consumed, produced = EVENT_SHAPES[ev.kind]
        for j, eid in enumerate(current[p : p + consumed]):
            bottom_end[eid] = (k, f"in{j}")
            at_slot[(k, f"in{j}")] = eid
        outs = list(range(len(colors), len(colors) + produced))
        for j, eid in enumerate(outs):
            top_end[eid] = (k, f"out{j}")
            colors[eid] = slices[k + 1][p + j]
            at_slot[(k, f"out{j}")] = eid
        current[p : p + consumed] = outs
    for p, eid in enumerate(current):
        bottom_end[eid] = ("bottom", p)
    kinds = [ev.kind for ev in weave.events]
    trivalent = [k for k, kind in enumerate(kinds) if kind == "three"]
    hexavalent = [k for k, kind in enumerate(kinds) if kind == "six"]
    return EdgeGraph(weave, top_end, bottom_end, colors, at_slot, trivalent, hexavalent)


@dataclass
class SPath:
    """The upward path attached to a trivalent vertex: starts at its upper
    left segment; turns right at trivalent vertices; goes straight through
    hexavalent vertices; ends at a top chord."""

    vertex: int  # event index of the trivalent vertex
    edges: list[int]
    chord: int | None  # top position reached (0-based), None if it exits elsewhere


def _upward_walk(graph: EdgeGraph, vertex: int):
    """The edges of the upward path of a trivalent vertex (see ``SPath``),
    each with its upper end; the walk stops at a top chord or a cap."""
    eid = graph.at_slot[(vertex, "in0")]
    while True:
        end = graph.top_end[eid]
        yield eid, end
        if end[0] == "top":
            return
        ev_idx, slot = end
        kind = graph.weave.events[ev_idx].kind
        if kind == "three":
            eid = graph.at_slot[(ev_idx, "in1")]
        elif kind == "six":
            eid = graph.at_slot[(ev_idx, f"in{2 - int(slot[-1])}")]
        else:  # cap: no rule; stop
            return


def s_paths(weave: Weave, graph: EdgeGraph | None = None) -> list[SPath]:
    if graph is None:
        graph = edge_graph(weave)
    out = []
    for k in graph.trivalent:
        walk = list(_upward_walk(graph, k))
        end = walk[-1][1]
        out.append(SPath(k, [eid for eid, _ in walk], end[1] if end[0] == "top" else None))
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
        for _, (ev_idx, slot) in _upward_walk(graph, vertex):
            if ev_idx == h:
                total += PATH_HEX_PAIRING[(int(slot[-1]), ycls)]
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
    """Short I-cycle basis of a 2-strand Demazure weave from an opening
    order (all trivalent vertices except the bottom one), with ending
    vertices and the intersection form, read from ``merge_intervals``.
    Vertex v is opening step v, which is event v of the opening weave: on
    two strands that weave has one trivalent event per opened crossing and
    no other event."""

    vertices: list[int]  # step indices, top-down; basis omits the last one
    ending: dict[int, int]  # basis vertex -> vertex its cycle ends at
    intersections: list[list[int]]
    svectors: list[list[int]]  # each cycle as an exponent vector over s_1..s_l


def i_cycle_basis(beta: BraidWord, order) -> CycleBasis:
    """The cycle basis of the opening order's Demazure weave, built without
    the weave.  The merge that consumes step v is the first later step whose
    leaf interval contains v's; v is its right child when the two intervals
    share their right end.  The cycle of v runs over the opened crossings
    above v: crossings a+1 .. b (1-based) for v's interval (a, b)."""
    order = check_opening_order(beta, order)
    if beta.n != 2:
        raise NotTwoStrand("2-strand Demazure weave required")
    intervals = merge_intervals(order)
    size = len(intervals) - 1  # the basis: every step but the final merge
    ending, is_right = {}, {}
    for v, (a, b) in enumerate(intervals[:size]):
        ending[v] = next(
            u for u in range(v + 1, len(intervals)) if intervals[u][0] <= a and b <= intervals[u][1]
        )
        is_right[v] = intervals[ending[v]][1] == b
    # intersection form: +-1 when one cycle ends at the other's vertex or the
    # two cycles end at the same vertex, signs by the left/right edge rule
    inter = [[0] * size for _ in range(size)]
    for j in range(size):
        i = ending[j]
        if i < size:
            inter[i][j] = 1 if is_right[j] else -1
            inter[j][i] = -inter[i][j]
    for i in range(size):
        for j in range(i + 1, size):
            if ending[i] == ending[j]:
                # top-down order and planarity: the left child's cycle comes
                # from the earlier vertex exactly when it was merged earlier
                inter[i][j] = 1 if is_right[i] and not is_right[j] else -1
                inter[j][i] = -inter[i][j]
    svec = [[int(a <= c < b) for c in range(len(order))] for a, b in intervals[:size]]
    return CycleBasis(list(range(size)), ending, inter, svec)


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


def normalized_chart(beta: BraidWord, order) -> NormalizedChart:
    """Rewrite the chart of the opening order (``ldu_chart``, no weave) in
    the parameters S_r defined by the unique monomial of z_r(s) with
    s_r-exponent one (coefficient +-1)."""
    chart = ldu_chart(beta, order)
    rows = chart.opened_crossings
    expo, signs, inv, tau = _normalizing_exponents([chart.subs[v].num for v in beta.variables], rows)
    # s_j = tau_j * prod_r S_r^(inv[j][r])
    mapping: dict[int, RationalExpr] = {}
    for j, rj in enumerate(rows):
        e = RationalExpr.const(tau[j])
        for i, ri in enumerate(rows):
            if inv[j][i]:
                e = e * RationalExpr.variable(var_id(f"S{ri}")) ** inv[j][i]
        mapping[var_id(f"s{rj}")] = e
    subs = {v: e.substitute(mapping) for v, e in chart.subs.items()}
    return NormalizedChart(chart, rows, subs, expo, signs)


def _normalizing_exponents(values, rows):
    """expo and signs (see ``NormalizedChart``) from beta's values z_r(s) by
    crossing, with inv = expo^-1 and the tau of s_j = tau_j * prod_r
    S_r^(inv[j][r]).  ``NotPolynomial`` unless each opened z_r has one monomial
    with s_r-exponent one, its coefficient is +-1, expo is unimodular and the
    signs survive the round trip."""
    size = len(rows)
    col = {var_id(f"s{r}"): j for j, r in enumerate(rows)}
    expo = [[0] * size for _ in range(size)]
    signs: dict[int, int] = {}
    for i, r in enumerate(rows):
        picks = [
            (m, c) for m, c in values[r - 1].terms.items() if dict(m).get(var_id(f"s{r}"), 0) == 1
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
    tau = [prod(signs[r] ** (k % 2) for r, k in zip(rows, row)) for row in inv]
    # the round trip: S_r = sign_r * prod_j s_j^expo[r][j] is S_r again
    for i, r in enumerate(rows):
        sign = signs[r] * prod(t ** (e % 2) for t, e in zip(tau, expo[i]))
        unit = [sum(e * row[k] for e, row in zip(expo[i], inv)) for k in range(size)]
        if sign != 1 or unit != [int(k == i) for k in range(size)]:
            raise NotPolynomial("sign bookkeeping failed in normalization")
    return expo, signs, inv, tau


def _integer_inverse(mat):
    """The inverse of a unimodular integer matrix, from the reduction of
    [mat | Id]: mat is invertible exactly when the pivots are its own
    columns."""
    size = len(mat)
    augmented = [row + [int(i == j) for j in range(size)] for i, row in enumerate(mat)]
    a, pivots = gauss_jordan(augmented)
    inv = [row[size:] for row in a]
    if pivots != list(range(size)) or any(x.denominator != 1 for row in inv for x in row):
        raise NotPolynomial("normalizing exponent matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


# ---------------------------------------------------------------------------
# A-coordinates and the 2x2 minors


def minor_pass(word: BraidWord, a: int) -> list[RationalExpr]:
    """The minors P_ab = (2,2)-entry of B_1(z_a) ... B_1(z_{b-2}) of a
    2-strand word for b = a+2, a+3, ... up to the end of the word, from one
    pass of the second row through the letters."""
    if word.n != 2:
        raise NotTwoStrand("minor coordinates are for 2-strand words")
    if not 1 <= a <= len(word) + 1:
        raise PatternMismatch(f"minor start {a} outside 1 <= a < b <= {len(word) + 2}")
    row = [[RationalExpr.const(0), RationalExpr.const(1)]]
    out = []
    for v in word.variables[a - 1 :]:
        times_letter(row, 1, RationalExpr.variable(v))
        out.append(row[0][1])
    return out


def plucker(word: BraidWord, a: int, b: int) -> RationalExpr:
    """(2,2)-entry of B_1(z_a) ... B_1(z_{b-2}) for a 2-strand word, read
    from ``minor_pass``; 1 for the empty product (b = a+1)."""
    if not 1 <= a < b <= len(word) + 2:
        raise PatternMismatch(f"minor P({a},{b}) outside 1 <= a < b <= {len(word) + 2}")
    return minor_pass(word, a)[b - a - 2] if b > a + 1 else RationalExpr.const(1)


def gamma_in_s(basis: CycleBasis) -> list[dict[int, int]]:
    """Each basis cycle as an exponent dict over the normalized parameter
    indices (the opened crossings)."""
    out = []
    for vec in basis.svectors:
        out.append({r + 1: e for r, e in enumerate(vec) if e})
    return out


def a_coordinates(beta: BraidWord, order):
    """For a 2-strand opening order: each basis cycle's monomial in the
    normalized parameters, rewritten through the inverse chart map as a
    polynomial in the z variables, with its minor label when one matches.
    The cycles are ``i_cycle_basis``'s.  With t_j the unit inverted at the
    j-th opening (``chart._ldu_units``) and expo, signs read from beta's values
    (``chart._ldu_restore``), S_r = sign_r * prod_j t_j^expo[r][j]: a cycle is
    one product of unit powers, whose exponents add, canonicalised once with
    no gcd unless a base is left in its denominator.  No chart is built.

    Returns a list of (exponent dict, polynomial RationalExpr, label or None).
    """
    basis = i_cycle_basis(beta, order)  # checks the order
    expo, signs, _, _ = _normalizing_exponents(_ldu_restore(beta, order)[0], order)
    units = _ldu_units(beta, order)
    row = {r: i for i, r in enumerate(order)}
    bd = append_half_twist(beta)
    minors = {}
    for a in range(1, len(bd) + 2):
        for b, minor in enumerate(minor_pass(bd, a), start=a + 2):
            minors.setdefault(minor, f"P{a}{b}")
    out = []
    for monomial in gamma_in_s(basis):
        val = units[0].const(prod(signs[r] ** (e % 2) for r, e in monomial.items()))
        for j, t in enumerate(units):
            k = sum(e * expo[row[r]][j] for r, e in monomial.items())
            for _ in range(abs(k)):
                val = val * (t if k > 0 else t.inverse())
        val = val.rational()
        if not val.is_polynomial():
            raise NotPolynomial(f"cycle monomial is not polynomial: {val.render()}")
        out.append((monomial, val, minors.get(val)))
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


def quiver_dot(b) -> str:
    size = len(b)
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
