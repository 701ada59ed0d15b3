"""Oracles for ``chart.mutation_graph``, which keys every opening order
without building a weave and looks the edges up in a dict.

- Two strands: every opening order's weave is built and read as a binary
  tree (``tree_shape``); the edges are the single (ss)s <-> s(ss)
  rotations of the shapes (``tree_rotations``).  ``interval_graph`` keys
  every order by its ``weave.merge_intervals`` instead, with no weave, as
  the graph did before its unit keys covered two strands.
- Three or more strands: every opening order's weave is built and
  parametrised (``chart_parametrize``); its chart is compared with the chart
  of every class found so far (``charts_equal_as_subsets``), and every pair
  of classes is tested with the exact ``charts_adjacent``, which pulls back
  whole record parts where the graph's certificate
  (``chart.keys_adjacent``) pulls back key elements.
- The certificate's seeded memos: ``chart._vertex`` starts each class's
  memo with its own key's elements as units.  ``certificate_views`` gives
  every class with that memo and with an empty one, which pulls back every
  element; ``own_key_failures`` lists the seeded entries that do not pull
  back to one term, and ``certificate_answer`` is the answer of
  ``chart.keys_adjacent`` on a pair, its error text included.
- The keys: the graph reads each distinct key, with its first order, off
  the units of one walk over opening states (``chart._ldu_keys``), which
  raises ``PatternMismatch`` when its two soundness checks fail.
  ``_ldu_records`` is a depth-first pass over the order prefixes that
  canonicalises every unit, the record of each order, and ``_record_keys``
  of those records, over their gcd-free basis (``coprime_base``), is the
  key the units must give; ``first_orders`` keeps each key's first order.
  ``refine_exponents`` is ``coprime_base``'s refinement run on exponent
  vectors, which ``chart._separated`` decides without running it.
"""
import itertools

from braidweave import chart
from braidweave.braid import PatternMismatch
from braidweave.chart import ChartMap, _open_step, chart_parametrize, charts_equal_as_subsets
from braidweave.ring import Bases, LaurentPoly, Localized, mono_decode, poly_exact_div, poly_gcd
from braidweave.weave import merge_intervals, weave_from_opening_order


def all_orders(l: int):
    """Every opening order of l crossings, in the order the graph numbers
    them."""
    return itertools.permutations(range(1, l + 1))


def first_orders(beta, keys) -> dict:
    """Each distinct key of beta's opening orders, given in ``all_orders``
    order, mapped to the first order that has it."""
    firsts = {}
    for order, key in zip(all_orders(len(beta)), keys):
        firsts.setdefault(key, order)
    return firsts


def coprime_base(polys) -> list[LaurentPoly]:
    """A gcd-free basis of polynomials normalised as ``poly_gcd(p, 0)``:
    pairwise coprime, each input a scalar times a product of their powers.
    A polynomial p sharing a factor g with a base element b replaces b by g,
    b/g and p/g; the total degree falls at every split."""
    base, todo = [], list(dict.fromkeys(polys))
    while todo:
        p = todo.pop()
        if p.is_constant():
            continue
        for k, b in enumerate(base):
            g = poly_gcd(p, b)
            if not g.is_constant():
                todo += [g] + [poly_gcd(poly_exact_div(x, g), LaurentPoly.zero()) for x in (p, base.pop(k))]
                break
        else:
            base.append(p)
    return base


def _record_keys(records) -> list[frozenset]:
    """The key of each constraint record: the variables of its parts'
    monomial factors, and the elements of the coprime base of all records'
    non-monomial parts that divide one of its parts."""
    parts = dict.fromkeys(p for rec in records for e in rec for p in (e.num, e.den))
    base = coprime_base(poly_gcd(p, LaurentPoly.zero()) for p in parts if not p.is_monomial())
    for p in parts:
        core, mono = p.monomial_normalized()
        divisors = [] if core.is_constant() else [b for b in base if poly_exact_div(core, b) is not None]
        parts[p] = frozenset([LaurentPoly.variable(v) for v, _ in mono_decode(mono)] + divisors)
    return [frozenset().union(*(parts[p] for e in rec for p in (e.num, e.den))) for rec in records]


def charts_adjacent(c1: ChartMap, c2: ChartMap) -> bool:
    """Exact test that two toric charts of the same variety are one mutation
    apart: each chart's defining non-vanishing conditions, pulled back
    through the other's parametrization, must be units times powers of one
    and the same non-monomial polynomial, so the two tori differ in a single
    cluster variable.  That polynomial must be the exchange binomial
    (``chart._certify``); any other single core raises
    ``NotExchangeBinomial``."""
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
                    core = part if core is None else chart._common_core(core, part)
                    if core is None:  # a second coprime core
                        return False
        if core is None:
            return False
        chart._certify(core, label(inner), label(outer))
        return True

    return one_core(c1, c2) and one_core(c2, c1)


def label(c: ChartMap) -> str:
    """The chart's name in a ``NotExchangeBinomial`` error: its opening
    order, or its record when it has none."""
    if c.opened_crossings is not None:
        return "order " + " ".join(map(str, c.opened_crossings))
    return "inverted [" + ", ".join(e.render() for e in c.inverted) + "]"


def certificate_views(beta):
    """(graph, elements, seeded, full) for beta on three or more strands:
    every class of its mutation graph, in the graph's order, as
    ``chart.keys_adjacent`` sees it with the memo ``chart._vertex`` seeds,
    and the same with an empty memo."""
    classes, elements = chart._ldu_keys(beta)
    keys = {order: key for key, order in classes.items()}
    g = chart.mutation_graph(beta)
    seeded = [chart._vertex(beta, order, keys[order]) for order in g.vertices]
    full = [(powers, key, {}, name) for powers, key, _, name in seeded]
    return g, elements, seeded, full


def own_key_failures(seeded, elements) -> list:
    """(label, element id) of each seeded memo entry that does not pull back
    through its class's chart to one term, with id None for a memo whose
    ids are not its key's."""
    bad = []
    for powers, key, memo, name in seeded:
        if memo.keys() != key:
            bad.append((name, None))
        bad += [(name, x) for x in memo if not chart._pull_back(powers, elements[x]).is_monomial()]
    return bad


def certificate_answer(v1, v2, elements):
    """``chart.keys_adjacent`` on two classes, or the text of the
    ``NotExchangeBinomial`` it raises."""
    try:
        return chart.keys_adjacent(v1, v2, elements)
    except chart.NotExchangeBinomial as e:
        return str(e)


def tree_shape(weave):
    """Binary-tree shape of a 2-strand Demazure weave (nested merges)."""
    items = [("leaf", k) for k in range(len(weave.top))]
    for ev in weave.events:
        if ev.kind != "three":
            raise PatternMismatch("2-strand Demazure weave expected")
        p = ev.pos
        items[p : p + 2] = [("node", items[p], items[p + 1])]
    if len(items) != 1:
        raise PatternMismatch(f"weave ends in {len(items)} letters, not one")
    return items[0]


def tree_rotations(shape):
    """All single (ss)s <-> s(ss) rotations of a binary tree shape."""
    out = []

    def rec(t, rebuild):
        if t[0] == "leaf":
            return
        _, left, right = t
        if left[0] == "node":  # (xy)z -> x(yz)
            _, a, b = left
            out.append(rebuild(("node", a, ("node", b, right))))
        if right[0] == "node":  # x(yz) -> (xy)z
            _, b, c = right
            out.append(rebuild(("node", ("node", left, b), c)))
        rec(left, lambda s: rebuild(("node", s, right)))
        rec(right, lambda s: rebuild(("node", left, s)))

    rec(shape, lambda s: s)
    return out


def tree_graph(beta):
    """(class representatives as opening orders, edges) of beta on two
    strands: one class per tree shape, edges by tree rotation."""
    shapes = {}
    for order in all_orders(len(beta)):
        shapes.setdefault(tree_shape(weave_from_opening_order(beta, order)), order)
    index = {s: i for i, s in enumerate(shapes)}
    edges = {tuple(sorted((index[s], index[t]))) for s in shapes for t in tree_rotations(s) if t in index}
    return list(shapes.values()), edges


def interval_graph(beta):
    """(class representatives as opening orders, edges) of beta on two
    strands, keyed by merge intervals: one class per distinct set of an
    order's ``merge_intervals``, given by its first order, and an edge for
    every two sets that share all but one interval."""
    classes = first_orders(beta, [frozenset(merge_intervals(order)) for order in all_orders(len(beta))])
    keys = list(classes)
    edges = {(i, j) for i, j in itertools.combinations(range(len(keys)), 2) if len(keys[i] ^ keys[j]) == 2}
    return list(classes.values()), edges


def mutation_graph(beta):
    """(class representatives as opening orders, edges, chart of every
    order) of beta, for beta on three or more strands."""
    charts = {}
    class_charts: list = []
    class_orders: list = []
    for order in all_orders(len(beta)):
        w = weave_from_opening_order(beta, order)
        c = charts[order] = chart_parametrize(w)
        if not any(charts_equal_as_subsets(c, rep) for rep in class_charts):
            class_charts.append(c)
            class_orders.append(order)
    edges = {
        (i, j)
        for i, j in itertools.combinations(range(len(class_charts)), 2)
        if charts_adjacent(class_charts[i], class_charts[j])
    }
    return class_orders, edges, charts


def _ldu_records(beta):
    """``chart._ldu_record`` of every opening order, in
    ``itertools.permutations`` order, from one depth-first pass over the
    order prefixes: each prefix is opened once, and the bases its last step
    appended are dropped on backtrack, so every step sees the bases of its
    own prefix alone."""
    bases, records = Bases(), []

    def walk(letters, values, record):
        if not letters:
            records.append(record)
        k = len(bases.powers)
        for p in range(len(letters)):
            unit, rest, after = _open_step(beta.n, letters, values, p, bases)
            walk(rest, after, record + [unit.rational()])
            del bases.powers[k:]

    walk(list(beta.letters), [Localized(LaurentPoly.variable(v), {}, bases, True) for v in beta.variables], [])
    return records


def refine_exponents(parts):
    """``coprime_base`` on exponent vectors over pairwise coprime bases:
    the gcd of two vectors is their componentwise minimum and a quotient
    their difference; the same steps in the same order."""
    base, todo = [], list(dict.fromkeys(parts))
    while todo:
        p = todo.pop()
        if not any(p):
            continue
        for k, b in enumerate(base):
            g = tuple(map(min, p, b))
            if any(g):
                todo += [g] + [tuple(x - y for x, y in zip(q, g)) for q in (p, base.pop(k))]
                break
        else:
            base.append(p)
    return base
