"""Torus actions on braid varieties: per-variable weights, homogeneity
checking, free subtori, and admissible matrices.

Weights live in the character lattice of T = (C*)^n / C*_diag, realized as
integer vectors of length n summing to zero.  The letter at position k of a
word (letter i, 1-based) gets

- left convention:   e_{w_k(i+1)} - e_{w_k(i)},   w_k = s_{i_1} ... s_{i_{k-1}},
- right convention:  e_{v_k(i)} - e_{v_k(i+1)},   v_k = s_{i_l} ... s_{i_{k+1}},

the left one scaling-compatible with multiplying the braid matrix by a
diagonal torus on the left, the right one equivariant for weave
correspondences.
"""
from __future__ import annotations

from .ring import LaurentPoly
from .braid import BraidWord, coxeter_image, cycles


Weight = tuple  # integer vector of length n summing to 0


def basis_difference(n: int, a: int, b: int) -> Weight:
    """e_a - e_b (1-based indices)."""
    w = [0] * n
    w[a - 1] += 1
    w[b - 1] -= 1
    return tuple(w)


def weight_add(u: Weight, v: Weight) -> Weight:
    return tuple(x + y for x, y in zip(u, v))


def weight_scale(u: Weight, k: int) -> Weight:
    return tuple(k * x for x in u)


def zero_weight(n: int) -> Weight:
    return (0,) * n


def action_weights(word: BraidWord, side: str = "left") -> dict[int, Weight]:
    """Weight of every letter variable under the chosen torus action.  The
    right weights are the negated left weights of the reversed word, with
    the variables in the same (reversed) order."""
    if side == "right":
        mirror = BraidWord(word.n, word.letters[::-1], word.variables[::-1])
        return {v: weight_scale(w, -1) for v, w in action_weights(mirror).items()}
    if side != "left":
        raise ValueError(f"unknown side {side!r}")
    n = word.n
    out: dict[int, Weight] = {}
    w = list(range(n))  # w_k in one-line notation
    for k, i in enumerate(word.letters):
        out[word.variables[k]] = basis_difference(n, w[i] + 1, w[i - 1] + 1)
        w[i - 1], w[i] = w[i], w[i - 1]
    return out


def monomial_weight(mono, wa: dict[int, Weight], n: int) -> Weight | None:
    w = zero_weight(n)
    for v, e in mono:
        if v not in wa:
            return None
        w = weight_add(w, weight_scale(wa[v], e))
    return w


def poly_weight(p: LaurentPoly, wa: dict[int, Weight], n: int) -> Weight | None:
    """The common weight of all monomials, or None if inhomogeneous.  The
    zero polynomial is homogeneous of weight zero."""
    weight = None
    for m in p.terms:
        w = monomial_weight(m, wa, n)
        if w is None:
            return None
        if weight is None:
            weight = w
        elif weight != w:
            return None
    return weight if weight is not None else zero_weight(n)


def check_homogeneous(expr, wa: dict[int, Weight], n: int) -> Weight | None:
    """The weight of a homogeneous rational expression (numerator and
    denominator separately homogeneous), or None."""
    if isinstance(expr, LaurentPoly):
        return poly_weight(expr, wa, n)
    wn = poly_weight(expr.num, wa, n)
    wd = poly_weight(expr.den, wa, n)
    if wn is None or wd is None:
        return None
    return weight_add(wn, weight_scale(wd, -1))


def free_subtorus(word: BraidWord):
    """Character-lattice equations t_a = t_b cutting the subtorus that acts
    freely: one representative strand per cycle of the word's permutation,
    all representatives equated."""
    reps = [min(c) + 1 for c in cycles(coxeter_image(word))]
    reps.sort()
    return [(reps[0], r) for r in reps[1:]]


def is_admissible(m, perm, wa: dict[int, Weight]) -> bool:
    """Whether every entry (a, k) of the matrix is homogeneous of weight
    e_{w(a)} - e_{w(k)}.  Identically-zero entries pass."""
    n = m.n
    for a in range(1, n + 1):
        for k in range(1, n + 1):
            e = m[a - 1, k - 1]
            if e.is_zero():
                continue
            w = check_homogeneous(e, wa, n)
            if w is None:
                return False
            if w != basis_difference(n, perm[a - 1] + 1, perm[k - 1] + 1):
                return False
    return True
