"""Oracles for ``weave.mutation_graph``, which keys every opening order
without building a weave and looks the edges up in a dict.

- Two strands: every opening order's weave is built and read as a binary
  tree (``tree_shape``); the edges are the single (ss)s <-> s(ss)
  rotations of the shapes (``tree_rotations``).
- Three or more strands: every opening order's weave is built and
  parametrised (``chart_parametrize``); its chart is compared with the chart
  of every class found so far (``charts_equal_as_subsets``), and every pair
  of classes is tested with the exact ``charts_adjacent``.
"""
import itertools

from braidweave.braid import PatternMismatch
from braidweave.chart import chart_parametrize, charts_adjacent, charts_equal_as_subsets
from braidweave.weave import all_orders, weave_from_opening_order


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
