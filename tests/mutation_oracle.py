"""The quadratic mutation-graph search over weave charts: the oracle for
``weave.mutation_graph`` on three or more strands.

Every opening order's weave is built and parametrised (``chart_parametrize``);
its chart is compared with the chart of every class found so far
(``charts_equal_as_subsets``), and every pair of classes is tested with the
exact ``charts_adjacent``.  ``mutation_graph`` instead keys each order by its
direct-route constraint record and looks the edges up in a dict.
"""
import itertools

from braidweave.chart import chart_parametrize, charts_adjacent, charts_equal_as_subsets
from braidweave.weave import all_orders, weave_from_opening_order


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
