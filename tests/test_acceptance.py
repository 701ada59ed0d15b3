"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every assertion is exact (symbolic or integer equality); no tolerances.
"""
import itertools
import random
import sys

from braidweave.braid import (
    append_half_twist,
    apply_braid_move,
    available_moves,
    demazure_product,
    elementary_braid_matrix,
    half_twist_word,
    identity_perm,
    longest_perm,
    make_word,
    parse_braid,
)
from braidweave.chart import (
    chart_parametrize,
    chart_satisfies_equations,
    compare_extended,
    ldu_chart,
    mellit_order,
    mutation_graph,
    propagate_down,
    rational_map,
)
from braidweave.cluster import (
    WeaveCycle,
    a_coordinates,
    d4_quiver,
    edge_graph,
    i_cycle_candidates,
    mutation_equivalent,
    normalized_chart,
    path_cycle_pairing,
    quiver_from_cycles,
    y_cycle_candidates,
)
from braidweave.count import brute_count, point_count_polynomial
from braidweave.form import chart_form_matrix, pulled_back_form_matrix, quotient_rank_check
from braidweave.ring import poly, var_id
from braidweave.torus import action_weights, check_homogeneous, poly_weight
from braidweave.variety import split_full_twist, variety_equations
from braidweave.weave import (
    Weave,
    WeaveEvent,
    random_triangulation,
    weave_from_opening_order,
    weave_from_triangulation,
)
from strata_oracle import search_strata


def report(number, text):
    print(f"PASS criterion {number}: {text}", file=sys.__stdout__, flush=True)


def test_criterion_01_braid_relation():
    a, b, c = poly("z1"), poly("z2"), poly("z3")
    for n in range(3, 6):
        for i in range(1, n - 1):
            lhs = (
                elementary_braid_matrix(n, i, a)
                * elementary_braid_matrix(n, i + 1, b)
                * elementary_braid_matrix(n, i, c)
            )
            rhs = (
                elementary_braid_matrix(n, i + 1, c)
                * elementary_braid_matrix(n, i, b - a * c)
                * elementary_braid_matrix(n, i + 1, a)
            )
            assert lhs == rhs
    report(1, "braid relation holds symbolically for all i, n <= 5")


def test_criterion_02_trefoil_and_hopf_equations():
    tre = variety_equations(parse_braid("B2: 1 1 1 1"), longest_perm(2))
    assert [e.render() for e in tre.equations] == [
        "1 + z1*z2 + z1*z4 + z3*z4 + z1*z2*z3*z4"
    ]
    hopf = variety_equations(parse_braid("B2: 1 1 1 1"), identity_perm(2))
    assert [e.render() for e in hopf.equations] == ["z1 + z3 + z1*z2*z3"]
    report(2, "trefoil and Hopf defining equations match exactly")


def test_criterion_03_half_twist_point_and_splitting():
    for n in (2, 3, 4):
        pres = variety_equations(half_twist_word(n), longest_perm(n))
        # the equations are exactly the coordinates, so the variety is a point
        assert len(pres.equations) == n * (n - 1) // 2
        for eq in pres.equations:
            (mono, coeff), = eq.terms.items()
            assert len(mono) == 1 and mono[0][1] == 1 and coeff in (1, -1)
    for n in (2, 3):
        gens = [1] if n == 2 else [1, 2]
        for l in range(0, 5):
            for letters in itertools.product(gens, repeat=l):
                _, _, free = split_full_twist(make_word(n, letters))
                assert len(free) == n * (n - 1) // 2
    report(3, "half-twist variety is the coordinate point; full twist splits off C^(n(n-1)/2)")


def test_criterion_04_demazure_invariance():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(2, 6)
        l = rng.randrange(0, 7)
        word = make_word(n, [rng.randrange(1, n) for _ in range(l)])
        assert demazure_product(append_half_twist(word)) == longest_perm(n)
    for _ in range(60):
        n = rng.randrange(2, 5)
        l = rng.randrange(2, 7)
        word = make_word(n, [rng.randrange(1, n) for _ in range(l)])
        d = demazure_product(word)
        k = rng.randrange(l)
        assert demazure_product(make_word(n, word.letters[: k + 1] + word.letters[k:])) == d
        for pos, kind in available_moves(word.letters, n):
            assert demazure_product(apply_braid_move(word, pos, kind)[0]) == d
    report(4, "Demazure product absorbs the half twist and is move/doubling invariant")


def test_criterion_05_equivalence_move_chains():
    z = {k: poly(f"z{k}") for k in range(1, 7)}
    top = parse_braid("B3: 1 2 1 2")
    wa = Weave(3, top, (WeaveEvent("six", 0), WeaveEvent("three", 2), WeaveEvent("six", 0)))
    wb = Weave(3, top, (WeaveEvent("six", 1), WeaveEvent("three", 0)))
    expected = (z[4] + z[1].inverse(), z[3] + z[2] * z[4], z[2])
    assert rational_map(wa) == expected and rational_map(wb) == expected
    ca, cb = chart_parametrize(wa), chart_parametrize(wb)
    assert ca.subs == cb.subs and ca.inverted == cb.inverted
    top4 = parse_braid("B4: 1 2 3 1 2 1")
    left = Weave(
        4,
        top4,
        tuple(
            WeaveEvent(k, p)
            for k, p in [("four", 2), ("six", 0), ("six", 2), ("four", 1), ("four", 4), ("six", 2), ("six", 0)]
        ),
    )
    right = Weave(
        4,
        top4,
        tuple(
            WeaveEvent(k, p)
            for k, p in [("six", 3), ("six", 1), ("four", 0), ("four", 3), ("six", 1), ("six", 3), ("four", 2)]
        ),
    )
    zt = (
        z[6],
        z[5] - z[4] * z[6],
        z[4],
        z[3] - z[1] * z[5] - z[2] * z[6] + z[1] * z[4] * z[6],
        z[2] - z[1] * z[4],
        z[1],
    )
    assert rational_map(left) == zt and rational_map(right) == zt
    report(5, "braid-relation and Zamolodchikov chains give the expected tuples; charts agree")


def test_criterion_06_mutation_extensions():
    t3 = parse_braid("B2: 1 1 1")
    m1 = rational_map(Weave(2, t3, (WeaveEvent("three", 0), WeaveEvent("three", 0))))
    m2 = rational_map(Weave(2, t3, (WeaveEvent("three", 1), WeaveEvent("three", 0))))
    z1, z2, z3 = poly("z1"), poly("z2"), poly("z3")
    assert m1[0] == z3 + z1 / (1 + z1 * z2)
    assert compare_extended(m1, m2)
    report(6, "both mutation resolutions extend to z3 + z1/(1 + z1 z2)")


def test_criterion_07_mellit_order():
    beta = parse_braid("B3: 1 2 1")
    order = mellit_order(beta)
    assert order == [3, 1, 2]
    chart = chart_parametrize(weave_from_opening_order(beta, order))
    pres = variety_equations(append_half_twist(beta), longest_perm(3))
    assert chart_satisfies_equations(chart, pres)
    report(7, "Mellit order for 121 is (3, 1, 2) and its chart solves the equations")


def test_criterion_08_opening_vs_weave_oracle():
    total = 0
    for n in (2, 3):
        gens = [1] if n == 2 else [1, 2]
        for l in range(1, 5):
            for letters in itertools.product(gens, repeat=l):
                beta = make_word(n, letters)
                for order in itertools.permutations(range(1, l + 1)):
                    w = weave_from_opening_order(beta, order)
                    cw = chart_parametrize(w)
                    cl = ldu_chart(beta, order)
                    assert all(
                        cw.subs[v] == cl.subs[v] for v in cw.top.variables
                    ), (n, letters, order)
                    assert cl.inverted == cw.inverted, (n, letters, order)
                    total += 1
    assert total == 475
    report(8, f"factor-and-slide charts equal weave charts for all {total} cases")


def test_criterion_09_point_counts():
    tre = point_count_polynomial(parse_braid("B2: 1 1 1"))
    hopf = point_count_polynomial(parse_braid("B2: 1 1"))
    for q in (2, 3, 5, 7):
        assert tre.eval(q) == (q - 1) * (q * q + 1)
        assert hopf.eval(q) == (q - 1) ** 2 + q
    for n in (2, 3):
        gens = [1] if n == 2 else [1, 2]
        m = n * (n - 1) // 2
        for l in range(0, 8 - m):
            for letters in itertools.product(gens, repeat=l):
                beta = make_word(n, letters)
                p = point_count_polynomial(beta)
                gamma = append_half_twist(beta)
                for q in (2, 3, 5):
                    assert p.eval(q) == brute_count(gamma, longest_perm(n), q)
    beta = parse_braid("B3: 1 2 1 2")
    base = point_count_polynomial(beta).strata
    for seed in range(4):
        assert search_strata(beta, random.Random(seed)) == base
    report(9, "count polynomials match brute force at q in {2,3,5}; stratification-independent")


def test_criterion_10_form_ranks_and_path_agreement():
    cases = [("B2: 1 1 1", 2), ("B2: 1 1", 2), ("B2: 1 1 1 1 1", 4)]
    for text, rank in cases:
        beta = parse_braid(text)
        order = tuple(range(1, len(beta) + 1))
        direct = chart_form_matrix(beta, order)
        assert direct.rank() == rank
        assert quotient_rank_check(direct, beta)
        oracle = pulled_back_form_matrix(beta, order)
        assert direct.entries == oracle.entries
    report(10, "chart form ranks are (2, 2, 4) and both constructions agree")


def test_criterion_11_torus_homogeneity():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randrange(2, 5)
        l = rng.randrange(1, 6)
        word = make_word(n, [rng.randrange(1, n) for _ in range(l)])
        wa = action_weights(word, "left")
        perm = longest_perm(n) if rng.random() < 0.5 else identity_perm(n)
        for eq in variety_equations(word, perm).equations:
            assert poly_weight(eq, wa, n) is not None
    for text, order in [("B3: 1 2 1", (3, 1, 2)), ("B2: 1 1 1", (2, 1, 3)), ("B3: 1 2 1 2", (2, 4, 1, 3))]:
        beta = parse_braid(text)
        n = beta.n
        chart = chart_parametrize(weave_from_opening_order(beta, order))
        wa = action_weights(chart.top, "right")
        pw = {}
        for r, expr in zip(order, chart.inverted):
            wt = check_homogeneous(expr, wa, n)
            assert wt is not None
            pw[var_id(f"s{r}")] = wt
        for v in chart.top.variables:
            assert check_homogeneous(chart.subs[v], pw, n) == wa[v]
    hopf = parse_braid("B2: 1 1 1 1")
    origin = {v: 0 for v in hopf.variables}
    assert all(
        eq.eval_int(origin, 97) == 0
        for eq in variety_equations(hopf, identity_perm(2)).equations
    )
    report(11, "equations and chart coordinates are torus-homogeneous; Hopf origin is fixed")


def test_criterion_12_mutation_graphs():
    g3 = mutation_graph(parse_braid("B2: 1 1 1"))
    assert len(g3.vertices) == 5 and len(g3.edges) == 5
    g4 = mutation_graph(parse_braid("B2: 1 1 1 1"))
    assert len(g4.vertices) == 14
    g12 = mutation_graph(parse_braid("B3: 1 2 1 2"))
    assert len(g12.vertices) == 5 and len(g12.edges) == 5
    degrees = {}
    for a, b in g12.edges:
        degrees[a] = degrees.get(a, 0) + 1
        degrees[b] = degrees.get(b, 0) + 1
    assert all(d == 2 for d in degrees.values())  # a pentagon
    report(12, "mutation graphs: pentagon, 14 vertices, pentagon")


def test_criterion_13_cluster_fixtures():
    beta = parse_braid("B2: 1 1 1 1 1 1 1")
    s = {k: poly(f"S{k}") for k in range(1, 8)}
    inv = {k: s[k].inverse() for k in s}
    nc = normalized_chart(beta, (7, 1, 4, 3, 2, 6, 5))
    expected = {
        "z1": s[1],
        "z2": s[2] - inv[1] - inv[3],
        "z3": s[3] - inv[4],
        "z4": s[4],
        "z5": s[5] - inv[4] + inv[3] * inv[4] ** 2 - inv[2] * inv[3] ** 2 * inv[4] ** 2 - inv[6],
        "z6": s[6] - inv[7],
        "z7": s[7],
        "z8": inv[6] * inv[7] ** 2 - inv[5] * inv[6] ** 2 * inv[7] ** 2 - inv[7],
    }
    for name, value in expected.items():
        assert nc.subs[var_id(name)] == value
    nc2 = normalized_chart(beta, (7, 1, 4, 2, 3, 6, 5))
    expected2 = {
        "z1": s[1],
        "z2": s[2] - inv[1],
        "z3": s[3] - inv[2] - inv[4],
        "z4": s[4],
        "z5": s[5] - inv[4] + inv[3] * inv[4] ** 2 - inv[6],
        "z6": s[6] - inv[7],
        "z7": s[7],
        "z8": inv[6] * inv[7] ** 2 - inv[5] * inv[6] ** 2 * inv[7] ** 2 - inv[7],
    }
    for name, value in expected2.items():
        assert nc2.subs[var_id(name)] == value
    labels1 = sorted(lbl for _, _, lbl in a_coordinates(beta, (7, 1, 4, 3, 2, 6, 5)))
    labels2 = sorted(lbl for _, _, lbl in a_coordinates(beta, (7, 1, 4, 2, 3, 6, 5)))
    assert labels1 == sorted(["P13", "P16", "P36", "P46", "P69", "P79"])
    assert labels2 == sorted(["P13", "P16", "P14", "P46", "P69", "P79"])
    # the 3-strand torus link fixture
    top = make_word(3, (2, 1, 2, 1, 2, 1, 2, 1, 2))
    events = tuple(
        WeaveEvent(k, p)
        for k, p in [
            ("six", 0), ("three", 2), ("six", 1), ("three", 0), ("three", 2),
            ("six", 1), ("three", 0), ("three", 2), ("six", 1), ("three", 0),
        ]
    )
    w33 = Weave(3, top, events)
    g = edge_graph(w33)
    ys, iis = y_cycle_candidates(g), i_cycle_candidates(g)
    cycles = [ys[0], iis[0], ys[1], iis[1]]
    svx = (1, 3, 4, 6)
    mat = [[path_cycle_pairing(g, svx[i], cycles[j]) for j in range(4)] for i in range(4)]
    assert mat == [[1, 0, 0, 0], [-1, 1, 0, 0], [0, 0, 1, 0], [0, -1, -1, 1]]
    q = quiver_from_cycles(w33, cycles, g)
    assert mutation_equivalent(q, d4_quiver(), depth=6)
    report(13, "(2,7) substitutions and coordinate sets exact; (3,3) relations and D4 quiver")


def test_criterion_14_triangulations():
    rng = random.Random(2)
    done = 0
    while done < 100:
        n = rng.choice([2, 3])
        l = rng.randrange(0, 6 if n == 2 else 5)
        beta = make_word(n, [1 if n == 2 else rng.randrange(1, 3) for _ in range(l)])
        tri = random_triangulation(beta, rng)
        assert tri.total_defect() == len(beta)
        w = weave_from_triangulation(tri, beta)
        assert w.is_demazure() and w.counts()["three"] == len(beta)
        done += 1
    report(14, "100 random labeled triangulations: defect sums and Demazure weaves check out")
