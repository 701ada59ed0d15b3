"""Per-layer spans installed from outside braidweave.

``Tracer.install`` replaces each traced public function with a wrapper in
every braidweave module that bound it (``from .weave import
find_doubled_letter`` in ``count``, ``weave_from_opening_order`` in
``chart``, ...); lazy imports inside functions read the module attribute at
call time, so they get the wrapper too.  Methods are wrapped on their class.

A span's self time is its duration minus the time covered by the spans it
encloses.  Spans are folded into per-name totals as they close rather than
kept one by one: the ring layer opens millions of them per run.
"""
from __future__ import annotations

import importlib
import tracemalloc
from time import perf_counter

MODULES = ("ring", "braid", "variety", "torus", "weave", "chart", "form", "count", "cluster", "cli")

# (module, attribute path) of every traced callable; metric names are
# "<module>.<path>" with ring.RationalExpr standing for its canonicalising
# constructor
TARGETS = (
    ("ring", "RationalExpr.__init__"),
    ("ring", "poly_gcd"),
    ("ring", "MatrixExpr.inverse"),
    ("braid", "exchange_index"),
    ("weave", "validate"),
    ("weave", "weave_from_opening_order"),
    ("weave", "find_doubled_letter"),
    ("weave", "equivalence_orbit"),
    ("weave", "mutate"),
    ("chart", "slide_left"),
    ("chart", "propagate_down"),
    ("chart", "chart_parametrize"),
    ("chart", "ldu_chart"),
    ("chart", "mellit_order"),
    ("chart", "charts_equal_as_subsets"),
    ("count", "stratify"),
    ("count", "brute_count"),
    ("cluster", "normalized_chart"),
    ("cluster", "a_coordinates"),
    ("cli", "main"),
)


def _metric_name(module: str, path: str) -> str:
    return f"{module}.{path.removesuffix('.__init__')}"


class Span:
    """Running totals for one traced callable."""

    __slots__ = ("calls", "self_s", "raised")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0


class Tracer:
    def __init__(self):
        self.spans = {_metric_name(m, p): Span() for m, p in TARGETS}
        self._stack: list[float] = []  # child time covered, per open span
        self.max_terms = 0
        self.true_results = 0  # charts_equal_as_subsets
        self.orbit_weaves = 0  # equivalence_orbit
        self.strata_nodes = 0
        self.strata_leaves = 0
        self.strata_live = 0
        self.brute_points = 0
        self.brute_peak = 0  # bytes
        self._patches: list[tuple] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, around=None):
        span = self.spans[name]
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                if around is not None:
                    result = around(fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            except BaseException:
                span.raised += 1
                raise
            finally:
                dur = perf_counter() - t0
                span.calls += 1
                span.self_s += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if after is not None:
                after(result, args)
            return result

        return traced

    def _after_rational(self, _result, args):
        expr = args[0]
        terms = max(len(expr.num.terms), len(expr.den.terms))
        if terms > self.max_terms:
            self.max_terms = terms

    def _after_equal(self, result, _args):
        self.true_results += bool(result)

    def _after_orbit(self, result, _args):
        self.orbit_weaves += len(result)

    def _after_stratify(self, tree, _args):
        todo = [tree]
        while todo:
            node = todo.pop()
            self.strata_nodes += 1
            if node.status == "branch":
                todo += (node.invert_child, node.vanish_child)
            else:
                self.strata_leaves += 1
                self.strata_live += node.status == "leaf"

    def _around_brute(self, fn, args, kwargs):
        word, _perm, q = args[:3]
        self.brute_points += q ** len(word)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.brute_peak = max(self.brute_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def install(self) -> None:
        """Wrap every target in place, until ``uninstall``."""
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapped in self._patches:
            setattr(owner, attr, original)

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding of every
        target in the braidweave modules."""
        patches = []
        mods = {m: importlib.import_module(f"braidweave.{m}") for m in MODULES}
        hooks = {
            "ring.RationalExpr": dict(after=self._after_rational),
            "chart.charts_equal_as_subsets": dict(after=self._after_equal),
            "weave.equivalence_orbit": dict(after=self._after_orbit),
            "count.stratify": dict(after=self._after_stratify),
            "count.brute_count": dict(around=self._around_brute),
        }
        for module, path in TARGETS:
            name = _metric_name(module, path)
            owner = mods[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, **hooks.get(name, {}))
            patches.append((owner, attr, original, wrapped))
            if outer:
                continue
            for mod in mods.values():
                for key, value in vars(mod).items():
                    if value is original and mod is not owner:
                        patches.append((mod, key, original, wrapped))
        return patches

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = (span.calls, "count")
            out[f"{name}.self_s"] = (span.self_s, "s")

        def ratio(part, whole):
            return part / whole if whole else 0.0

        eq = self.spans["chart.charts_equal_as_subsets"]
        mut = self.spans["weave.mutate"]
        out["ring.max_terms"] = (self.max_terms, "count")
        out["chart.charts_equal_as_subsets.true_ratio"] = (ratio(self.true_results, eq.calls), "ratio")
        out["weave.equivalence_orbit.weaves"] = (self.orbit_weaves, "count")
        out["weave.mutate.ok_ratio"] = (ratio(mut.calls - mut.raised, mut.calls), "ratio")
        out["count.stratify.nodes"] = (self.strata_nodes, "count")
        out["count.stratify.live_ratio"] = (ratio(self.strata_live, self.strata_leaves), "ratio")
        out["count.brute_count.points"] = (self.brute_points, "count")
        out["count.brute_count.peak_mb"] = (self.brute_peak / 2**20, "MB")
        return out
