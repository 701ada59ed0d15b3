"""Cluster coordinates: cycle bases, path pairings, A-coordinates, quivers."""
import pytest

from braidweave.braid import make_word, parse_braid
from braidweave.cluster import (
    NotTwoStrand,
    WeaveCycle,
    a_coordinates,
    d4_quiver,
    edge_graph,
    gamma_in_s,
    i_cycle_basis,
    i_cycle_candidates,
    mutation_equivalent,
    normalized_chart,
    pairing_matrix,
    path_cycle_pairing,
    plucker,
    quiver_dot,
    quiver_from_cycles,
    quiver_mutate,
    s_paths,
    y_cycle_candidates,
)
from braidweave.ring import poly, var_id, var_name
from braidweave.weave import Weave, WeaveEvent, weave_from_opening_order

BETA27 = parse_braid("B2: 1 1 1 1 1 1 1")
ORDER_A = (7, 1, 4, 3, 2, 6, 5)
ORDER_B = (7, 1, 4, 2, 3, 6, 5)


def test_basis_cycle_count_and_ending():
    w = weave_from_opening_order(BETA27, ORDER_A)
    basis = i_cycle_basis(BETA27, ORDER_A)
    assert len(basis.vertices) == 6  # one cycle per vertex except the last
    assert set(basis.ending.values()) <= set(range(len(w.events)))
    assert i_cycle_basis(parse_braid("B2: 1"), (1,)).vertices == []


def test_not_two_strand():
    with pytest.raises(NotTwoStrand):
        i_cycle_basis(parse_braid("B3: 1 2"), (1, 2))


def test_gamma_monomials_27():
    basis = i_cycle_basis(BETA27, ORDER_A)
    monomials = gamma_in_s(basis)
    assert monomials == [
        {7: 1},
        {1: 1},
        {4: 1},
        {3: 1, 4: 1},
        {1: 1, 2: 1, 3: 1, 4: 1},
        {6: 1, 7: 1},
    ]


def test_normalized_substitutions_27():
    nc = normalized_chart(BETA27, ORDER_A)
    s = {k: poly(f"S{k}") for k in range(1, 8)}
    inv = {k: s[k].inverse() for k in s}
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
        assert nc.subs[var_id(name)] == value, name


def test_normalized_substitutions_27_mutated():
    nc = normalized_chart(BETA27, ORDER_B)
    s = {k: poly(f"S{k}") for k in range(1, 8)}
    inv = {k: s[k].inverse() for k in s}
    expected = {
        "z1": s[1],
        "z2": s[2] - inv[1],
        "z3": s[3] - inv[2] - inv[4],
        "z4": s[4],
        "z5": s[5] - inv[4] + inv[3] * inv[4] ** 2 - inv[6],
        "z6": s[6] - inv[7],
        "z7": s[7],
        "z8": inv[6] * inv[7] ** 2 - inv[5] * inv[6] ** 2 * inv[7] ** 2 - inv[7],
    }
    for name, value in expected.items():
        assert nc.subs[var_id(name)] == value, name


def test_a_coordinate_sets_27():
    coords = a_coordinates(BETA27, ORDER_A)
    labels = [lbl for _, _, lbl in coords]
    assert sorted(labels) == sorted(["P13", "P16", "P36", "P46", "P69", "P79"])
    coords2 = a_coordinates(BETA27, ORDER_B)
    labels2 = [lbl for _, _, lbl in coords2]
    assert sorted(labels2) == sorted(["P13", "P16", "P14", "P46", "P69", "P79"])
    assert sorted(set(labels) ^ set(labels2)) == ["P14", "P36"]


def test_trivial_chart_single_coordinate():
    beta = parse_braid("B2: 1")
    coords = a_coordinates(beta, (1,))
    assert coords == []  # a single vertex carries no cycles
    # the chart itself is the coordinate z1
    nc = normalized_chart(beta, (1,))
    assert nc.subs[var_id("z1")] == poly("S1")


def test_exchange_relation_at_mutated_cycle():
    a1 = {lbl: val for _, val, lbl in a_coordinates(BETA27, ORDER_A)}
    a2 = {lbl: val for _, val, lbl in a_coordinates(BETA27, ORDER_B)}
    # continuant sign convention: P14 P36 + P13 P46 = P16
    assert a1["P36"] * a2["P14"] + a1["P13"] * a1["P46"] == a1["P16"]


def test_quiver_mutation_at_gamma4():
    q1 = i_cycle_basis(BETA27, ORDER_A).intersections
    q2 = i_cycle_basis(BETA27, ORDER_B).intersections
    assert quiver_mutate(q1, 3) == q2
    assert quiver_mutate(quiver_mutate(q1, 3), 3) == q1


def test_knot_relation_rank():
    # for 2-strand knots the cycle lattice has rank l(beta) - 1
    from fractions import Fraction

    for l in (3, 5, 7):
        beta = make_word(2, [1] * l)
        vecs = [list(v) for v in i_cycle_basis(beta, tuple(range(1, l + 1))).svectors]
        mat = [[Fraction(x) for x in row] for row in vecs]
        rank = 0
        for col in range(l):
            piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            mat[rank] = [x / mat[rank][col] for x in mat[rank]]
            for r in range(len(mat)):
                if r != rank and mat[r][col] != 0:
                    f = mat[r][col]
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
            rank += 1
        assert rank == l - 1


def test_rigid_tree_pairing_table():
    w = weave_from_opening_order(BETA27, ORDER_A)
    g = edge_graph(w)
    basis = i_cycle_basis(BETA27, ORDER_A)
    cycles = [WeaveCycle("I", (g.at_slot[(v, "out0")],)) for v in basis.vertices]
    table = pairing_matrix(w, cycles)
    for i, vi in enumerate(g.trivalent):
        for j, vj in enumerate(basis.vertices):
            expected = (1 if vi == vj else 0) - (1 if basis.ending[vj] == vi else 0)
            assert table[i][j] == expected


def test_s_paths_end_at_opened_crossings():
    w = weave_from_opening_order(BETA27, ORDER_A)
    for path, crossing in zip(s_paths(w), w.opened_crossings):
        assert path.chord + 1 == crossing


def test_generic_intersections_match_tree_table():
    # the basis read from the order against the opening weave's edge graph:
    # every order up to five letters, and three orders on seven
    import itertools

    cases = [
        (make_word(2, [1] * l), order)
        for l in range(1, 6)
        for order in itertools.permutations(range(1, l + 1))
    ]
    cases += [(BETA27, order) for order in (ORDER_A, ORDER_B, tuple(range(1, 8)))]
    for beta, order in cases:
        w = weave_from_opening_order(beta, order)
        g = edge_graph(w)
        basis = i_cycle_basis(beta, order)
        cycles = [WeaveCycle("I", (g.at_slot[(v, "out0")],)) for v in basis.vertices]
        assert quiver_from_cycles(w, cycles, g) == basis.intersections, order
        for v in basis.vertices:  # each cycle ends where its edge does
            assert g.bottom_end[g.at_slot[(v, "out0")]][0] == basis.ending[v], (order, v)


def test_plucker_convention():
    z = {k: poly(f"z{k}") for k in range(1, 10)}
    bd = make_word(2, [1] * 8)
    assert plucker(bd, 7, 9) == z[7]
    assert plucker(bd, 1, 3) == z[1]
    assert plucker(bd, 3, 6) == 1 + z[3] * z[4]
    p16 = plucker(bd, 1, 6)
    assert p16 == (
        1 + z[1] * z[2] + z[1] * z[4] + z[3] * z[4] + z[1] * z[2] * z[3] * z[4]
    )


def test_minors_match_matrix_products():
    # oracle: the (2,2)-entry of a MatrixExpr product of elementary matrices,
    # for every a < b on B2: 1^8 (b = a+1 is the empty product)
    from braidweave.braid import append_half_twist, elementary_braid_matrix
    from braidweave.ring import MatrixExpr

    beta = make_word(2, [1] * 8)
    bd = append_half_twist(beta)
    z = bd.var_exprs()
    oracle, labels = {}, {}
    for a in range(1, len(bd) + 2):
        m = MatrixExpr.identity(2)
        oracle[a, a + 1] = m[1, 1]
        for b in range(a + 2, len(bd) + 3):
            m = m * elementary_braid_matrix(2, 1, z[b - 3])
            oracle[a, b] = m[1, 1]
            labels.setdefault(m[1, 1].render(), f"P{a}{b}")
    for (a, b), minor in oracle.items():
        assert plucker(bd, a, b) == minor, (a, b)
    for order in ((8, 1, 7, 2, 6, 3, 5, 4), tuple(range(1, 9))):
        coords = a_coordinates(beta, order)
        assert any(label for _, _, label in coords)
        for _, val, label in coords:
            assert label == labels.get(val.render()), (order, label)


# ---------------------------------------------------------------------------
# the 3-strand torus link fixture


def fixture_33():
    top = make_word(3, (2, 1, 2, 1, 2, 1, 2, 1, 2))
    events = tuple(
        WeaveEvent(k, p)
        for k, p in [
            ("six", 0),
            ("three", 2),
            ("six", 1),
            ("three", 0),
            ("three", 2),
            ("six", 1),
            ("three", 0),
            ("three", 2),
            ("six", 1),
            ("three", 0),
        ]
    )
    return Weave(3, top, events)


def test_33_fixture_structure():
    w = fixture_33()
    assert w.is_demazure()
    assert w.bottom_letters() == (1, 2, 1)
    assert w.counts()["three"] == 6
    g = edge_graph(w)
    ys, iis = y_cycle_candidates(g), i_cycle_candidates(g)
    assert len(ys) == 2 and len(iis) == 2


def test_33_fixture_relations():
    w = fixture_33()
    g = edge_graph(w)
    ys, iis = y_cycle_candidates(g), i_cycle_candidates(g)
    cycles = [ys[0], iis[0], ys[1], iis[1]]  # gamma_1 .. gamma_4
    svx = (1, 3, 4, 6)  # event indices of the four labeled vertices
    mat = [[path_cycle_pairing(g, svx[i], cycles[j]) for j in range(4)] for i in range(4)]
    # s1 = g1, s2 = g1^-1 g2, s3 = g3, s4 = g2^-1 g3^-1 g4
    assert mat == [
        [1, 0, 0, 0],
        [-1, 1, 0, 0],
        [0, 0, 1, 0],
        [0, -1, -1, 1],
    ]


def test_33_fixture_quiver_d4():
    w = fixture_33()
    g = edge_graph(w)
    ys, iis = y_cycle_candidates(g), i_cycle_candidates(g)
    cycles = [ys[0], iis[0], ys[1], iis[1]]
    q = quiver_from_cycles(w, cycles, g)
    assert mutation_equivalent(q, d4_quiver(), depth=6)
    assert not mutation_equivalent([[0, 0], [0, 0]], [[0, 2], [-2, 0]], depth=4)


def test_plucker_agreement_and_dual_diagonals():
    import itertools
    import random

    from braidweave.weave import merge_intervals

    rng = random.Random(9)
    for l in range(1, 7):
        beta = make_word(2, [1] * l)
        if l <= 4:
            orders = list(itertools.permutations(range(1, l + 1)))
        else:
            orders = [tuple(rng.sample(range(1, l + 1), l)) for _ in range(8)]
        for order in orders:
            coords = a_coordinates(beta, order)
            intervals = merge_intervals(order)
            basis = i_cycle_basis(beta, order)
            for (mono, val, label), v in zip(coords, basis.vertices):
                assert label is not None  # every coordinate is a minor
                lo, hi = intervals[v][0] + 1, intervals[v][1] + 1  # 1-based leaves
                assert label == f"P{lo}{hi + 1}"  # the dual diagonal


def test_quiver_alias():
    from braidweave.cluster import quiver

    basis = i_cycle_basis(BETA27, ORDER_A)
    assert quiver(basis) == basis.intersections
    empty = i_cycle_basis(parse_braid("B2: 1"), (1,))
    assert quiver(empty) == []


def test_quiver_dot_output():
    q = d4_quiver()
    dot = quiver_dot(q)
    assert dot.count("->") == 3
    assert quiver_dot([[0]]).count("->") == 0


def test_a_coordinates_match_chart_route_oracle():
    # the unit products against products of canonical record powers
    # (tests/cluster_oracle.py): every order up to five letters, and ten
    # seeded orders on each of six to nine letters
    import itertools
    import random

    import cluster_oracle

    rng = random.Random(23)
    cases = [
        (make_word(2, [1] * l), order)
        for l in range(1, 6)
        for order in itertools.permutations(range(1, l + 1))
    ]
    cases += [
        (make_word(2, [1] * l), tuple(rng.sample(range(1, l + 1), l)))
        for l in range(6, 10)
        for _ in range(10)
    ]
    for beta, order in cases:
        assert a_coordinates(beta, order) == cluster_oracle.a_coordinates(beta, order), order


def test_a_coordinates_run_no_gcd(monkeypatch):
    # the README command and every cluster command of the benchmark's
    # cli-long pools: the unit products leave no base in a denominator
    import json
    from pathlib import Path

    from braidweave import ring

    cases = json.loads((Path(__file__).parents[1] / "perfbench" / "cases.json").read_text())
    commands = [
        case["argv"]
        for pool in cases["cli-long"].values()
        for case in pool
        if case["argv"][0] == "cluster"
    ]
    assert len(commands) == 12
    commands.append(["cluster", "--braid", "B2: 1 1 1 1 1 1 1", "--order", "7 1 4 3 2 6 5"])
    calls = []
    gcd = ring.poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(ring, "poly_gcd", counted)
    for argv in commands:
        coords = a_coordinates(parse_braid(argv[2]), [int(r) for r in argv[4].split()])
        assert coords and not calls, argv


def test_minor_range_is_checked():
    # 1 <= a < b <= len(word) + 2: a start below 1 used to wrap round to the
    # end of the word, and an end past it raised a bare IndexError
    from braidweave.braid import PatternMismatch
    from braidweave.cluster import minor_pass

    word = parse_braid("B2: 1 1 1")
    z = {k: poly(f"z{k}") for k in range(1, 4)}
    for a, b in ((0, 2), (-1, 2), (1, 6), (4, 6), (2, 2)):
        with pytest.raises(PatternMismatch, match="1 <= a < b <= 5"):
            plucker(word, a, b)
    for a in (0, -1, 5):
        with pytest.raises(PatternMismatch, match="1 <= a < b <= 5"):
            minor_pass(word, a)
    assert plucker(word, 1, 5) == z[1] + z[3] + z[1] * z[2] * z[3]
    assert plucker(word, 4, 5) == 1
    assert minor_pass(word, 4) == []
