"""The tautological 2-form and its chart restrictions."""
import itertools

from braidweave.braid import half_twist_word, make_word, parse_braid
from braidweave.form import (
    chart_form_matrix,
    omega_word,
    pulled_back_form_matrix,
    quotient_rank_check,
)
from braidweave.ring import MatrixExpr, TwoForm, const, poly, var_id, wedge_trace


def test_omega_single_letter_and_half_twists():
    assert omega_word(parse_braid("B2: 1")).is_zero()
    for n in (2, 3, 4):
        assert omega_word(half_twist_word(n)).is_zero()


def test_omega_full_twist_equals_lower_upper_pairing():
    om = omega_word(parse_braid("B2: 1 1"))
    z1, z2 = poly("z1"), poly("z2")
    lower = MatrixExpr([[const(1), const(0)], [z1, const(1)]])
    upper = MatrixExpr([[const(1), z2], [const(0), const(1)]])
    assert om == wedge_trace(lower, upper)
    assert om.coeffs == {(var_id("z1"), var_id("z2")): const(1)}


def test_merge_identity():
    # (f1|f2|f3) = (f1|f2 f3) + (f2|f3) on braid letters
    from braidweave.braid import elementary_braid_matrix

    f1 = elementary_braid_matrix(2, 1, poly("z1"))
    f2 = elementary_braid_matrix(2, 1, poly("z2"))
    f3 = elementary_braid_matrix(2, 1, poly("z3"))
    lhs = wedge_trace(f1, f2) + wedge_trace(f1 * f2, f3)
    rhs = wedge_trace(f1, f2 * f3) + wedge_trace(f2, f3)
    assert lhs == rhs


def test_chart_form_ranks():
    cases = [
        ("B2: 1 1", 2),  # two-component link on two strands
        ("B2: 1 1 1", 2),  # knot
        ("B2: 1 1 1 1 1", 4),  # (2,5) knot
    ]
    for text, rank in cases:
        beta = parse_braid(text)
        m = chart_form_matrix(beta, tuple(range(1, len(beta) + 1)))
        assert m.rank() == rank
        assert quotient_rank_check(m, beta)


def test_antisymmetry_and_bounds():
    beta = parse_braid("B3: 1 2 1 2")
    m = chart_form_matrix(beta, (2, 4, 1, 3))
    size = len(m.entries)
    for i in range(size):
        assert m.entries[i][i] == 0
        for j in range(size):
            assert m.entries[i][j] == -m.entries[j][i]
            assert abs(m.entries[i][j]) <= 2 * beta.n


def test_rank_order_independent():
    beta = parse_braid("B2: 1 1 1")
    ranks = {
        chart_form_matrix(beta, order).rank()
        for order in itertools.permutations((1, 2, 3))
    }
    assert ranks == {2}
    beta3 = parse_braid("B3: 1 2 1")
    ranks3 = {
        chart_form_matrix(beta3, order).rank()
        for order in itertools.permutations((1, 2, 3))
    }
    assert len(ranks3) == 1


def test_path_agreement_small():
    cases = [
        ("B2: 1 1", (1, 2)),
        ("B2: 1 1", (2, 1)),
        ("B2: 1 1 1", (2, 3, 1)),
        ("B3: 1 2", (2, 1)),
        ("B3: 1 2 1", (3, 1, 2)),
    ]
    for text, order in cases:
        beta = parse_braid(text)
        direct = chart_form_matrix(beta, order)
        oracle = pulled_back_form_matrix(beta, order)
        assert direct.entries == oracle.entries


def test_empty_word_form():
    beta = parse_braid("", 2)
    m = chart_form_matrix(beta, ())
    assert m.entries == [] and m.rank() == 0


def test_boundary_pairing_fixture():
    # two-component 2-strand links: the kernel of the cycle pairing inside the
    # cycle lattice pairs with a complementary direction with value exactly 2
    from braidweave.cluster import i_cycle_basis
    from fractions import Fraction

    for text in ("B2: 1 1", "B2: 1 1 1 1"):
        beta = parse_braid(text)
        order = tuple(range(1, len(beta) + 1))
        m = chart_form_matrix(beta, order)
        basis = i_cycle_basis(beta, order)
        inter = basis.intersections
        size = len(inter)
        # kernel of the intersection form on the cycles = boundary difference
        mat = [[Fraction(x) for x in row] + [Fraction(0)] * size for row in inter]
        for i in range(size):
            mat[i][size + i] = Fraction(1)
        rank = 0
        for col in range(size):
            piv = next((r for r in range(rank, size) if mat[r][col] != 0), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            mat[rank] = [x / mat[rank][col] for x in mat[rank]]
            for r in range(size):
                if r != rank and mat[r][col] != 0:
                    f = mat[r][col]
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
            rank += 1
        kernel = []
        for r in range(rank, size):
            kernel.append([int(x) for x in mat[r][size:]])
        assert len(kernel) == 1  # one boundary-difference class (two components)
        vker = [0] * len(order)
        for coeff, svec in zip(kernel[0], basis.svectors):
            for j, e in enumerate(svec):
                vker[j] += coeff * e
        values = set()
        for j in range(len(order)):
            unit = [1 if k == j else 0 for k in range(len(order))]
            values.add(abs(m.pair(vker, unit)))
        values.discard(0)
        assert min(values) == 2  # the boundary pairing value
