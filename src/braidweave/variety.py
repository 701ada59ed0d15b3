"""Braid-variety presentations, the full-twist splitting, augmentation
equations with marked points, and the Borel action on braid matrix tuples.

The variety attached to a word beta and permutation pi is cut out inside
affine space (one coordinate per letter) by the condition that
``B_beta(z) . P_pi`` is upper triangular; its equations are the strictly
below-diagonal entries of that product, read row-major with the row index
descending from n (design choice: deterministic golden-file order).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ring import (
    DomainError,
    LaurentPoly,
    MatrixExpr,
    NonUnitDiagonal,
    RationalExpr,
    RingError,
    var_id,
)
from .braid import (
    BraidWord,
    append_half_twist,
    braid_matrix,
    demazure_product,
    half_twist_letters,
    identity_perm,
    longest_perm,
    lower_c_matrix,
    perm_matrix,
)
from .chart import slide_left


class EliminationFailed(DomainError):
    pass


@dataclass
class VarietyPresentation:
    """Equations (each required to vanish) and optional inequations of a
    braid variety, together with the ambient data."""

    n: int
    perm: tuple[int, ...]
    variables: tuple[int, ...]
    equations: list[LaurentPoly]
    inequations: list[LaurentPoly] = field(default_factory=list)

    def render(self) -> str:
        return "\n".join(e.render() for e in self.equations)


def below_diagonal_positions(n: int):
    """(row, col) strictly below the diagonal, row descending from n (1-based)."""
    for a in range(n, 1, -1):
        for b in range(1, a):
            yield a, b


def _polynomial_entry(m: MatrixExpr, i: int, j: int) -> LaurentPoly:
    """Entry [i, j] of a braid matrix product, checked to be a polynomial."""
    entry = m[i, j]
    if not entry.is_polynomial():
        raise RingError(f"entry ({i + 1}, {j + 1}) is not a polynomial: {entry.render()}")
    return entry.num


def variety_equations(word: BraidWord, perm=None) -> VarietyPresentation:
    """Defining equations of the locus where B_word(z) . P_perm is upper
    triangular.  Identically-zero entries are dropped."""
    if perm is None:
        perm = identity_perm(word.n)
    m = braid_matrix(word)
    eqs = [_polynomial_entry(m, a - 1, perm[b - 1]) for a, b in below_diagonal_positions(word.n)]
    return VarietyPresentation(
        n=word.n,
        perm=tuple(perm),
        variables=word.variables,
        equations=[p for p in eqs if not p.is_zero()],
    )


def variety_dimension(word: BraidWord):
    """dim X0(word; w0) = l(word) - n(n-1)/2 when the Demazure product is w0,
    else None (the variety is empty)."""
    n = word.n
    if demazure_product(word) != longest_perm(n):
        return None
    return len(word) - n * (n - 1) // 2


def delta_upper_factor(n: int, variables) -> MatrixExpr:
    """w0 . B_Delta(w): upper uni-triangular with polynomial entries."""
    word = BraidWord(n, half_twist_letters(n), tuple(variables))
    m = perm_matrix(longest_perm(n)) * braid_matrix(word)
    if not m.is_upper_triangular():
        raise RingError("w0 . B_Delta is not upper triangular")
    return m


def split_full_twist(word: BraidWord):
    """Exhibit X0(beta Delta^2) ~ X0(beta Delta; w0) x C^{n(n-1)/2}.

    Returns (full presentation, residual presentation, free variable ids).
    The full-twist equations are verified to be the residual equations
    transformed by the unit upper-triangular factor of the second half twist,
    column by column; failure raises EliminationFailed.
    """
    n = word.n
    mchoose = n * (n - 1) // 2
    bd = append_half_twist(word)  # beta Delta
    bdd = append_half_twist(bd)  # beta Delta^2
    free_vars = bdd.variables[len(bd) :]

    full = variety_equations(bdd, identity_perm(n))
    residual = variety_equations(bd, longest_perm(n))

    # entry identity: (F . Uhat)_{ab} = F_{ab} + sum_{c<b} F_{ac} Uhat_{cb}
    f = braid_matrix(bd) * perm_matrix(longest_perm(n))
    uhat = delta_upper_factor(n, free_vars)
    full_matrix = braid_matrix(bdd)
    for a in range(n):
        for b in range(n):
            if a <= b:
                continue
            lhs = full_matrix[a, identity_perm(n)[b]]
            rhs = f[a, b]
            for c in range(b):
                rhs = rhs + f[a, c] * uhat[c, b]
            if lhs != rhs:
                raise EliminationFailed(f"entry ({a + 1},{b + 1}) mismatch")
    return full, residual, list(free_vars)


def augmentation_equations(word: BraidWord, marked) -> VarietyPresentation:
    """Equations for the augmentation variety with marked strands.

    ``B_word(z) . L(c) . diag(t)`` must be upper triangular with the
    unmarked diagonal entries 1; marked strands carry
    unit variables t_i.  The c variables fill a lower uni-triangular matrix.
    """
    n = word.n
    marked = set(marked)
    if not marked <= set(range(1, n + 1)):
        raise ValueError("marked strands must lie in 1..n")
    lower, cvars = lower_c_matrix(n)
    one, zero = RationalExpr.const(1), RationalExpr.const(0)
    tvars = []
    diag = []
    for i in range(1, n + 1):
        if i in marked:
            vid = var_id(f"t{i}")
            tvars.append(vid)
            diag.append(RationalExpr.variable(vid))
        else:
            diag.append(one)
    dmat = MatrixExpr([[diag[i] if i == j else zero for j in range(n)] for i in range(n)])
    m = braid_matrix(word) * lower * dmat

    eqs = [_polynomial_entry(m, a - 1, b - 1) for a, b in below_diagonal_positions(n)]
    eqs = [p for p in eqs if not p.is_zero()]
    # the diagonal on unmarked strands is normalized to 1
    for i in range(1, n + 1):
        if i not in marked:
            p = (m[i - 1, i - 1] - one).num
            if not p.is_zero():
                eqs.append(p)
    ineqs = [LaurentPoly.variable(v) for v in tvars]
    variables = word.variables + tuple(cvars.values()) + tuple(tvars)
    return VarietyPresentation(
        n=n,
        perm=longest_perm(n),
        variables=variables,
        equations=eqs,
        inequations=ineqs,
    )


def borel_act(u0: MatrixExpr, word: BraidWord, values=None):
    """Right action of an upper-triangular matrix with unit diagonal entries
    on braid matrix tuples (``NonUnitDiagonal`` for any other matrix).

    Iterated sliding from the rightmost letter: B_i(z) U = U' B_i(z').
    Returns (u_final, new_values) with
    ``B_word(values) . u0 == u_final . B_word(new_values)``.
    """
    if not u0.is_upper_triangular():
        raise NonUnitDiagonal("action matrix must be upper triangular")
    for i in range(u0.n):
        d = u0[i, i]
        if d.is_zero() or not d.is_unit():
            raise NonUnitDiagonal(f"diagonal entry {d.render()} is not a unit")
    if values is None:
        values = word.var_exprs()
    return slide_left(u0, word.letters, values)
