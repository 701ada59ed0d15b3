"""Weave validation, builders, triangulations, moves, mutation graphs."""
import itertools
import os
import random
import subprocess
import sys

import pytest

from braidweave.braid import PatternMismatch, half_twist_letters, make_word, parse_braid
from braidweave.chart import mutation_graph
from braidweave.weave import (
    InvalidLabels,
    Weave,
    WeaveEvent,
    apply_move,
    canonicalize,
    equivalence_orbit,
    export_dot,
    fan_triangulation,
    find_doubled_letter,
    mutate,
    parse_weave,
    random_triangulation,
    swap_adjacent_events,
    triangulation_for,
    validate,
    weave_from_opening_order,
    weave_from_triangulation,
)
from braidweave.weave import _mirror, _reduced_path, _through_half_twist, _to_suffix
from move_search import apply_path, is_reduced, shortest_path
from mutation_oracle import tree_shape


def test_validate_examples():
    w = Weave(2, make_word(2, [1, 1]), (WeaveEvent("three", 0),))
    assert validate(w) == [(1, 1), (1,)]
    assert w.is_demazure()
    w2 = Weave(3, make_word(3, [1, 2, 1]), (WeaveEvent("six", 0),))
    assert validate(w2) == [(1, 2, 1), (2, 1, 2)]
    with pytest.raises(PatternMismatch):
        validate(Weave(2, make_word(2, [1, 1]), (WeaveEvent("three", 1),)))


def test_weave_file_round_trip():
    w = Weave(
        3,
        make_word(3, [1, 1, 2, 2]),
        (WeaveEvent("cup", 0), WeaveEvent("three", 0)),
    )
    assert validate(w) == [(1, 1, 2, 2), (2, 2), (2,)]
    again = parse_weave(w.render())
    assert again.top.letters == w.top.letters and again.events == w.events


def test_opening_order_left_comb():
    beta = parse_braid("B2: 1 1 1")
    w = weave_from_opening_order(beta, (1, 2, 3))
    assert tree_shape(w) == (
        "node",
        ("node", ("node", ("leaf", 0), ("leaf", 1)), ("leaf", 2)),
        ("leaf", 3),
    )


def test_opening_order_3strand_slices():
    beta = parse_braid("B3: 1 2 1 2")
    w = weave_from_opening_order(beta, (2, 1, 3, 4))
    slices = validate(w)
    assert slices[0] == (1, 2, 1, 2, 1, 2, 1)
    assert slices[-1] == (1, 2, 1)
    assert (1, 1, 2, 1, 2, 1) in slices  # opening the second crossing first
    assert w.counts()["three"] == 4
    assert w.opened_crossings == (2, 1, 3, 4)


def test_empty_word_constant_weave():
    beta = parse_braid("", 3)
    w = weave_from_opening_order(beta, ())
    assert w.events == () and w.bottom_letters() == (1, 2, 1)


def test_demazure_invariance_checked():
    # a cup breaks the Demazure flag but still validates as simplifying
    w = Weave(2, make_word(2, [1, 1]), (WeaveEvent("cup", 0),))
    assert validate(w) == [(1, 1), ()]
    assert w.is_simplifying() and not w.is_demazure()
    # caps insert a doubled letter and drop the simplifying flag
    wc = Weave(2, make_word(2, [1]), (WeaveEvent("cap", 0, 1),))
    assert validate(wc) == [(1,), (1, 1, 1)]
    assert not wc.is_simplifying()
    # a Demazure weave whose slice breaks the Demazure product is rejected,
    # also under python -O; a subclass supplies the slices (1 2 1) -> (1 2),
    # because no event that passes its pattern check changes the product
    import braidweave

    src = os.path.dirname(os.path.dirname(braidweave.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "from braidweave.braid import PatternMismatch, make_word\n"
        "from braidweave.weave import Weave, WeaveEvent, validate\n"
        "class Broken(Weave):\n"
        "    def slices(self):\n"
        "        return [(1, 2, 1), (1, 2)]\n"
        "w = Broken(3, make_word(3, [1, 2, 1]), (WeaveEvent('three', 1),))\n"
        "try:\n"
        "    validate(w)\n"
        "except PatternMismatch as exc:\n"
        "    print(exc)\n"
    )
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "Demazure product changed along the weave\n"


def test_trivalent_count_accounting():
    rng = random.Random(0)
    for _ in range(10):
        n = rng.choice([2, 3])
        l = rng.randrange(1, 5)
        beta = make_word(n, [rng.randrange(1, n) for _ in range(l)])
        order = list(range(1, l + 1))
        rng.shuffle(order)
        w = weave_from_opening_order(beta, order)
        assert w.counts()["three"] == l
        slices = w.slices()
        assert len(slices[0]) - len(slices[-1]) == l


def test_find_doubled_letter():
    assert find_doubled_letter((1, 2, 1), 3) is None  # reduced
    path, word, p = find_doubled_letter((1, 2, 1, 2), 3)
    assert word[p] == word[p + 1]
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(2, 6)
        letters = tuple(rng.randrange(1, n) for _ in range(rng.randrange(8)))
        found = find_doubled_letter(letters, n)
        assert (found is None) == is_reduced(letters, n), letters
        if found is not None:
            path, word, p = found
            assert apply_path(letters, path) == word and word[p] == word[p + 1], letters


def test_closed_form_paths_no_longer_than_breadth_first():
    # the four path families of weave_from_opening_order, for every letter j
    for n in range(2, 6):
        delta = half_twist_letters(n)
        rdelta, m = delta[::-1], len(delta)
        for j in range(1, n):
            to_j = _mirror(_to_suffix(rdelta, j)[0], m)
            starts_with_j = apply_path(delta, to_j)
            cases = [
                ((j,) + delta, _through_half_twist(j, delta, n), lambda w: w == delta + (n - j,)),
                (
                    delta + (j,),
                    _mirror(_through_half_twist(j, rdelta, n), m + 1),
                    lambda w: w == (n - j,) + delta,
                ),
                (delta, to_j, lambda w: w[0] == j),
                (starts_with_j, _reduced_path(starts_with_j, delta), lambda w: w == delta),
            ]
            for src, path, done in cases:
                assert done(apply_path(src, path)), (n, j, src)
                shortest, _ = shortest_path(src, done)
                assert len(path) <= len(shortest), (n, j, src, len(path), len(shortest))


def test_cached_paths_give_the_uncached_events(monkeypatch):
    # every n <= 5 word of length <= 3 in every order
    from braidweave import weave

    cases = [
        (make_word(n, letters), order)
        for n in range(2, 6)
        for l in range(1, 4)
        for letters in itertools.product(range(1, n), repeat=l)
        for order in itertools.permutations(range(1, l + 1))
    ]
    cached = [weave_from_opening_order(beta, order).events for beta, order in cases]
    assert weave._through_half_twist(1, half_twist_letters(4), 4) is weave._through_half_twist(
        1, half_twist_letters(4), 4
    )
    for name in ("_through_half_twist", "_open_in_half_twist"):
        monkeypatch.setattr(weave, name, getattr(weave, name).__wrapped__)
    assert [weave_from_opening_order(beta, order).events for beta, order in cases] == cached
    assert len(cases) == 9 + 58 + 183 + 420


def test_fan_triangulation_right_comb():
    beta = parse_braid("B2: 1 1 1")
    tri = fan_triangulation(beta)
    assert tri.total_defect() == 3
    w = weave_from_triangulation(tri, beta)
    assert tree_shape(w) == (
        "node",
        ("leaf", 0),
        ("node", ("leaf", 1), ("node", ("leaf", 2), ("leaf", 3))),
    )


def test_random_triangulations_defect_and_weave():
    rng = random.Random(1)
    done = 0
    while done < 100:
        n = rng.choice([2, 3])
        l = rng.randrange(0, 6 if n == 2 else 5)
        beta = make_word(n, [1 if n == 2 else rng.randrange(1, 3) for _ in range(l)])
        tri = random_triangulation(beta, rng)
        assert tri.total_defect() == len(beta)
        w = weave_from_triangulation(tri, beta)
        assert w.is_demazure()
        assert w.counts()["three"] == len(beta)
        done += 1


def test_bad_triangle_labels():
    from braidweave.braid import compose, transposition
    from braidweave.weave import check_demazure_triangle

    s1, s2 = transposition(3, 1), transposition(3, 2)
    assert not check_demazure_triangle(3, s1, s2, s1)
    assert check_demazure_triangle(3, s1, s2, compose(s1, s2))
    beta = parse_braid("B2: 1 1")
    with pytest.raises(InvalidLabels):
        triangulation_for(beta, {(0, 2), (1, 3)})  # crossing diagonals


def test_apply_move_cancel_pair_and_flip():
    from braidweave.chart import propagate_down, rational_map

    top = parse_braid("B3: 1 2 1 2")
    w = Weave(3, top, (WeaveEvent("six", 1), WeaveEvent("three", 0)))
    w2 = apply_move(w, "insert_cancel", 0, pos=0, kind="six")
    assert len(w2.events) == 4
    assert rational_map(w2) == rational_map(w)
    w3 = apply_move(w2, "remove_cancel", 0)
    assert w3.events == w.events
    # path flip between the two standard event paths
    wa = Weave(3, top, (WeaveEvent("six", 0), WeaveEvent("three", 2), WeaveEvent("six", 0)))
    wb = apply_move(wa, "flip_1212", 0, pos=0)
    assert [e.render() for e in wb.events] == ["six 1", "three 0"]
    assert rational_map(wa) == rational_map(wb)
    assert apply_move(wb, "flip_1212", 0, pos=0).events == wa.events


def test_apply_move_zamolodchikov():
    from braidweave.chart import rational_map

    top = parse_braid("B4: 1 2 3 1 2 1")
    left = Weave(
        4,
        top,
        tuple(
            WeaveEvent(k, p)
            for k, p in [("four", 2), ("six", 0), ("six", 2), ("four", 1), ("four", 4), ("six", 2), ("six", 0)]
        ),
    )
    right = apply_move(left, "flip_zam", 0, pos=0)
    assert rational_map(left) == rational_map(right)
    assert apply_move(right, "flip_zam", 0, pos=0).events == left.events


def test_swap_adjacent_events():
    top = parse_braid("B2: 1 1 1 1")
    w = Weave(2, top, (WeaveEvent("three", 2), WeaveEvent("three", 0)))
    s = swap_adjacent_events(w, 0)
    assert [e.render() for e in s.events] == ["three 0", "three 1"]
    assert canonicalize(w).events == s.events


def _canonicalize_counting_swaps(monkeypatch, w: Weave) -> Weave:
    """canonicalize(w), failing once it has made more than len(events)^2
    swaps instead of running on."""
    from braidweave import weave as weave_module

    swaps = 0
    swap = weave_module.swap_adjacent_events

    def counted(v, k):
        nonlocal swaps
        swaps += 1
        assert swaps <= len(w.events) ** 2, f"canonicalize does not settle on\n{w.render()}"
        return swap(v, k)

    with monkeypatch.context() as patch:
        patch.setattr(weave_module, "swap_adjacent_events", counted)
        return canonicalize(w)


def test_canonicalize_settles_with_cups_and_caps(monkeypatch):
    # a cup's empty produced span and a cap's empty consumed span at one
    # point: each order of the pair used to count as strictly left
    w = parse_weave("weave n=2 top=1 1\ncup 0\ncap 0 1\n")
    assert _canonicalize_counting_swaps(monkeypatch, w).events == w.events
    rng = random.Random(30)
    checked = 0
    while checked < 200:
        w = _random_weave(rng, rng.randrange(2, 6))
        if not {"cup", "cap"} & {ev.kind for ev in w.events}:
            continue
        c = _canonicalize_counting_swaps(monkeypatch, w)
        validate(c)
        assert canonicalize(c).events == c.events
        checked += 1


def test_mutate_involution_and_mismatch():
    beta = parse_braid("B2: 1 1 1")
    left = weave_from_opening_order(beta, (1, 2, 3))
    k1, k2 = [k for k, e in enumerate(left.events) if e.kind == "three"][:2]
    m = mutate(left, k1, k2)
    assert tree_shape(m) != tree_shape(left)
    back = mutate(m, k1, k2)
    assert canonicalize(back).events == canonicalize(left).events
    w = weave_from_opening_order(parse_braid("B2: 1 1 1 1"), (1, 3, 2, 4))
    threes = [k for k, e in enumerate(w.events) if e.kind == "three"]
    with pytest.raises(PatternMismatch):
        mutate(w, threes[0], threes[1])  # merges of (1,2) and (3,4) share no edge


def test_missing_crossing_one_vertex():
    from braidweave.weave import missing_crossing

    # the two standard paths below a braid-relation window drop one letter
    # each and, being equivalent, have the same missing crossing
    top = parse_braid("B3: 1 2 1 2")
    wa = Weave(3, top, (WeaveEvent("six", 0), WeaveEvent("three", 2), WeaveEvent("six", 0)))
    wb = Weave(3, top, (WeaveEvent("six", 1), WeaveEvent("three", 0)))
    assert missing_crossing(wa) == missing_crossing(wb) == 1
    with pytest.raises(PatternMismatch):
        missing_crossing(weave_from_opening_order(parse_braid("B2: 1 1"), (1, 2)))


def _orbit_over_every_pos(weave, cap):
    """Slow form of equivalence_orbit: tries flip_1212 at every position."""
    from collections import deque

    seen = {weave.render(): weave}
    queue = deque([weave])
    while queue and len(seen) < cap:
        cur = queue.popleft()
        candidates = []
        for k in range(len(cur.events) - 1):
            for move in ("swap", "remove_cancel"):
                try:
                    candidates.append(apply_move(cur, move, k))
                except PatternMismatch:
                    pass
        for k in range(len(cur.events)):
            for pos in range(len(cur.top)):
                try:
                    candidates.append(apply_move(cur, "flip_1212", k, pos))
                except (PatternMismatch, IndexError):
                    pass
        for nw in candidates:
            r = nw.render()
            if r not in seen:
                seen[r] = nw
                queue.append(nw)
    return list(seen.values())


def test_equivalence_orbit_matches_every_pos_search():
    for text in ("B3: 1 2 1", "B4: 2 2 2", "B4: 1 2 3", "B5: 3 3 3"):
        beta = parse_braid(text)
        for order in itertools.permutations(range(1, len(beta) + 1)):
            w = weave_from_opening_order(beta, order)
            fast = [x.render() for x in equivalence_orbit(w, cap=120)]
            slow = [x.render() for x in _orbit_over_every_pos(w, cap=120)]
            assert fast == slow, (text, order)


def _mutation_candidates(weave):
    """Pairs of trivalent event indices worth trying for a mutation."""
    idx = [k for k, ev in enumerate(weave.events) if ev.kind == "three"]
    return [(a, b) for i, a in enumerate(idx) for b in idx[i + 1 :]]


def _orbit_edges(beta, cap=120):
    """Slow, incomplete edge search: mutate the weaves in the capped
    equivalence orbits of up to three seed weaves per chart class and
    classify every mutant by its chart.  Returns (classes, edges) with the
    classes numbered as in mutation_graph."""
    from braidweave.chart import chart_parametrize, charts_equal_as_subsets

    class_charts, weaves, member = [], [], []

    def classify(chart):
        for i, rep in enumerate(class_charts):
            if charts_equal_as_subsets(chart, rep):
                return i
        return None

    for order in itertools.permutations(range(1, len(beta) + 1)):
        w = weave_from_opening_order(beta, order)
        c = chart_parametrize(w)
        idx = classify(c)
        if idx is None:
            idx = len(class_charts)
            class_charts.append(c)
        weaves.append(w)
        member.append(idx)
    seeds = {}
    for w, idx in zip(weaves, member):
        seeds.setdefault(idx, [])
        if len(seeds[idx]) < 3:
            seeds[idx].append(w)
    memo, tried, edges = {}, set(), set()
    for idx, seed_list in seeds.items():
        for seed in seed_list:
            for rep in equivalence_orbit(seed, cap=cap):
                for k1, k2 in _mutation_candidates(rep):
                    try:
                        w2 = mutate(rep, k1, k2)
                    except PatternMismatch:
                        continue
                    r2 = w2.render()
                    if (idx, r2) in tried:
                        continue
                    tried.add((idx, r2))
                    if r2 not in memo:
                        memo[r2] = classify(chart_parametrize(w2))
                    jdx = memo[r2]
                    if jdx is not None and jdx != idx:
                        edges.add(tuple(sorted((idx, jdx))))
    return len(class_charts), edges


@pytest.mark.parametrize(
    "text",
    [
        "B4: 2 2",
        "B4: 1 3",
        "B3: 1 2 1",
        "B3: 1 1 2",
        "B4: 1 2 2",
        "B4: 2 1 2",
        "B4: 1 2 3",
        "B3: 2 1 1",
        "B3: 1 1 1",
    ],
)
def test_mutation_graph_matches_orbit_search(text):
    beta = parse_braid(text)
    g = mutation_graph(beta)
    size, orbit = _orbit_edges(beta)
    assert len(g.vertices) == size
    assert g.edges == orbit


@pytest.mark.parametrize("text", ["B4: 2 2 2", "B5: 3 3 3", "B5: 4 4 4"])
def test_mutation_graph_finds_edges_the_orbit_search_misses(text):
    # the powers s_i^3 have the pentagon of B2: 1 1 1; the capped orbit
    # search finds only some of its edges
    beta = parse_braid(text)
    g = mutation_graph(beta)
    size, orbit = _orbit_edges(beta)
    assert len(g.vertices) == size == 5 and len(g.edges) == 5
    assert orbit < g.edges


def test_mutation_graph_pentagon():
    g = mutation_graph(parse_braid("B2: 1 1 1"))
    assert len(g.vertices) == 5 and len(g.edges) == 5
    assert g.proxy == "binary-tree shape"


def test_mutation_graph_catalan_14():
    g = mutation_graph(parse_braid("B2: 1 1 1 1"))
    assert len(g.vertices) == 14
    assert len(g.edges) == 21  # 1-skeleton of the 3-dimensional associahedron


def test_mutation_graph_budget():
    from braidweave.weave import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        mutation_graph(make_word(2, [1] * 9))


def test_export_dot():
    w = Weave(2, make_word(2, [1, 1]), (WeaveEvent("three", 0),))
    dot = export_dot(w)
    assert dot.startswith("graph weave {") and 'label="three@0"' in dot
    g = mutation_graph(parse_braid("B2: 1 1 1"))
    gdot = g.dot()
    assert gdot.count(" -- ") == 5
    empty = Weave(2, make_word(2, [1]), ())
    assert export_dot(empty).startswith("graph weave {")


def _random_weave(rng: random.Random, n: int) -> Weave:
    """A weave of up to 12 events on n strands: each step picks a kind among
    those that fit the current slice, then a place for it.  Caps keep the
    slices short words with doubled letters, so every kind turns up."""
    top = make_word(n, [rng.randrange(1, n) for _ in range(rng.randrange(7))])
    events: list[WeaveEvent] = []
    cur = top.letters
    for _ in range(rng.randrange(1, 13)):
        fits = {"cap": [(p, rng.randrange(1, n)) for p in range(len(cur) + 1)] if len(cur) < 8 else []}
        for p in range(len(cur) - 1):
            a, b = cur[p], cur[p + 1]
            if a == b:
                fits.setdefault("three", []).append((p, 0))
                fits.setdefault("cup", []).append((p, 0))
            elif abs(a - b) >= 2:
                fits.setdefault("four", []).append((p, 0))
            if p + 2 < len(cur) and cur[p + 2] == a and abs(a - b) == 1:
                fits.setdefault("six", []).append((p, 0))
        kinds = sorted(k for k, places in fits.items() if places)
        if not kinds:
            break
        kind = rng.choice(kinds)
        pos, letter = rng.choice(fits[kind])
        events.append(WeaveEvent(kind, pos, letter))
        cur = Weave(n, top, tuple(events)).bottom_letters()
    return Weave(n, top, tuple(events))


def test_weave_walks_pinned():
    """export_dot and edge_graph on 400 seeded random weaves with every event
    kind, against digests of their output recorded with the earlier walks
    that branched on each kind."""
    import hashlib

    from braidweave.cluster import edge_graph

    rng = random.Random(25)
    weaves = [_random_weave(rng, n) for n in (2, 3, 4, 5) for _ in range(100)]
    kinds = {ev.kind for w in weaves for ev in w.events}
    assert kinds == {"three", "cup", "six", "four", "cap"}
    assert sum(all(w.counts().values()) for w in weaves) >= 5  # weaves with all five kinds
    dots, graphs = hashlib.sha256(), hashlib.sha256()
    for w in weaves:
        dots.update((export_dot(w) + "\n").encode())
        g = edge_graph(w)
        fields = [sorted(d.items()) for d in (g.top_end, g.bottom_end, g.colors, g.at_slot)]
        graphs.update(repr(fields + [g.trivalent, g.hexavalent]).encode())
    assert dots.hexdigest() == "e127d0c35215f3e067c8ea97070127a9fa1d5d56341e980b4976a0c7b5d66660"
    assert graphs.hexdigest() == "de1064cce17a687acb93033a5f8cffa820ed1193e23d6baf0d192cd267994981"
