"""The tautological 2-form on braid matrix products and its restriction to
opening-order charts.

``omega_word`` is the telescoping sum of Tr(F^-1 dF ^ dG G^-1) over the
partial products of the word's elementary matrices.  On the chart obtained
by opening the crossings of beta in some order, the form becomes a constant
integer combination of dlog of the unit parameters: every opening deposits a
diagonal factor with entries (-1/z, z) at the strand pair of the opened
letter, transported by the permutation of the letters to its left at opening
time; the matrix of coefficients is the pairwise pattern-overlap of these
diagonal positions.  The expensive oracle (pulling the telescoping form back
through the opening-order chart) is also provided.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ring import RationalExpr, RingError, TwoForm, gauss_jordan, var_id, wedge_trace
from .braid import (
    BraidWord,
    append_half_twist,
    check_opening_order,
    coxeter_letters,
    elementary_braid_matrix,
    opening_positions,
    word_cycle_count,
)
from .chart import ldu_chart


def omega_word(word: BraidWord) -> TwoForm:
    """(B_{i_1}|B_{i_2}) + (B_{i_1}B_{i_2}|B_{i_3}) + ... for the word."""
    total = TwoForm.zero()
    if len(word) < 2:
        return total
    values = word.var_exprs()
    prefix = elementary_braid_matrix(word.n, word.letters[0], values[0])
    for k in range(1, len(word)):
        factor = elementary_braid_matrix(word.n, word.letters[k], values[k])
        total = total + wedge_trace(prefix, factor)
        prefix = prefix * factor
    return total


@dataclass
class TwoFormMatrix:
    """Constant antisymmetric integer matrix of a chart 2-form in dlog
    coordinates of the unit parameters (opened crossings, in opening order)."""

    entries: list[list[int]]

    def rank(self) -> int:
        return len(gauss_jordan(self.entries)[1])

    def pair(self, u, v) -> int:
        """Evaluate the form on two integer vectors in the parameter lattice."""
        total = 0
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                total += a * self.entries[i][j] * b
        return total

    def render(self) -> str:
        lines = ["[" + " ".join(f"{x:3d}" for x in row) + "]" for row in self.entries]
        lines.append(f"rank: {self.rank()}")
        return "\n".join(lines)


def chart_form_matrix(beta: BraidWord, order) -> TwoFormMatrix:
    """Track the diagonal factors deposited by opening beta's crossings in the
    given order; the (a, b) entry is the signed overlap of their support
    patterns (a opened before b)."""
    order = check_opening_order(beta, order)
    n = beta.n
    letters = list(beta.letters)
    eps = []  # per opened crossing: vector with -1 at w(i), +1 at w(i+1)
    for p in opening_positions(order):
        i = letters[p]
        w = coxeter_letters(n, letters[:p])
        vec = [0] * n
        vec[w[i - 1]] -= 1
        vec[w[i]] += 1
        eps.append(vec)
        del letters[p]
    size = len(order)
    entries = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(a + 1, size):
            dot = sum(x * y for x, y in zip(eps[a], eps[b]))
            entries[a][b] = dot
            entries[b][a] = -dot
    return TwoFormMatrix(entries)


def pulled_back_form_matrix(beta: BraidWord, order):
    """Oracle: pull omega of beta Delta^2 back through the chart of the
    opening order (``ldu_chart``) and read off the dlog-coefficient matrix.

    The second half twist contributes free affine coordinates; their dz's
    must not survive, and the coefficient of ds_a ^ ds_b must be the constant
    M[a][b] / (s_a s_b).
    """
    bdd = append_half_twist(append_half_twist(beta))
    omega = omega_word(bdd)
    subs = dict(ldu_chart(beta, order).subs)
    # free coordinates of the second half twist substitute to themselves
    for v in bdd.variables[len(beta) + beta.n * (beta.n - 1) // 2 :]:
        subs[v] = RationalExpr.variable(v)
    params = [var_id(f"s{r}") for r in order]
    free = list(bdd.variables[len(beta) + beta.n * (beta.n - 1) // 2 :])
    new_vars = params + free

    # differentials of the substitutions
    diff = {}
    for v, e in subs.items():
        diff[v] = {p: e.derivative(p) for p in new_vars}

    size = len(params)
    index = {p: k for k, p in enumerate(new_vars)}
    acc: dict[tuple[int, int], RationalExpr] = {}
    zero = RationalExpr.const(0)
    for (v, w), c in omega.coeffs.items():
        c_sub = c.substitute(subs)
        for p in new_vars:
            dv = diff[v][p]
            if dv.is_zero():
                continue
            for q in new_vars:
                if p == q:
                    continue
                dw = diff[w][q]
                if dw.is_zero():
                    continue
                term = c_sub * dv * dw
                a, b = index[p], index[q]
                if a < b:
                    key = (p, q)
                else:
                    key, term = (q, p), -term
                acc[key] = acc.get(key, zero) + term
    entries = [[0] * size for _ in range(size)]
    sparams = [RationalExpr.variable(p) for p in params]
    for (p, q), c in acc.items():
        if c.is_zero():
            continue
        if p not in index or q not in index or index[p] >= size or index[q] >= size:
            raise RingError("form does not vanish on affine directions")
        a, b = index[p], index[q]
        val = c * sparams[a] * sparams[b]
        if val.variables():
            raise RingError(
                f"coefficient of ds_{a} ds_{b} is not constant: {val.render()}"
            )
        fr = val.num.constant_value()
        if fr.denominator != 1:
            raise RingError(f"coefficient of ds_{a} ds_{b} is not an integer: {fr}")
        entries[a][b] = int(fr)
        entries[b][a] = -int(fr)
    return TwoFormMatrix(entries)


def quotient_rank_check(m: TwoFormMatrix, beta: BraidWord) -> bool:
    """rank == l(beta) - n + (number of cycles of the braid's permutation)."""
    target = len(beta) - beta.n + word_cycle_count(beta)
    return m.rank() == target
