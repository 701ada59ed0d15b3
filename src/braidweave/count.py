"""Stratification of braid varieties by simplifying weaves and exact point
counts over prime fields, with a brute-force oracle.

A word gamma with Demazure product w0 is stratified by branching at a doubled
letter (reached by braid moves in closed form): the letter's variable is
either invertible (trivalent vertex, one letter shorter) or zero (cup, two
letters shorter).
Each leaf reached at a reduced word for w0 contributes a stratum
C^a x (C*)^b, and the count polynomial is sum q^a (q-1)^b over leaves.
A word reached along several branches is stratified once and its node is
shared.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .braid import (
    BraidWord,
    append_half_twist,
    demazure_letters,
    longest_perm,
)
from .weave import BudgetExceeded, find_doubled_letter


@dataclass(eq=False)
class StrataTree:
    """One node of a stratification.  Equal words share one node, so the
    tree is a DAG and nodes compare by identity."""

    letters: tuple[int, ...]
    status: str  # "branch", "leaf", "dead"
    invert_child: "StrataTree | None" = None
    vanish_child: "StrataTree | None" = None

    def strata(self):
        """Multiset of (a, b) = (cups, trivalent) over the live leaves below
        this node, folded bottom-up with each shared node visited once."""
        folded: dict[StrataTree, dict[tuple[int, int], int]] = {}

        def fold(node):
            if node not in folded:
                out: dict[tuple[int, int], int] = {}
                if node.status == "leaf":
                    out[(0, 0)] = 1
                elif node.status == "branch":
                    for child, da, db in ((node.invert_child, 0, 1), (node.vanish_child, 1, 0)):
                        for (a, b), mult in fold(child).items():
                            out[(a + da, b + db)] = out.get((a + da, b + db), 0) + mult
                folded[node] = out
            return folded[node]

        return fold(self)


@dataclass
class PointCountPolynomial:
    """sum_a n_a q^a (q-1)^{l - 2a}; kept as the strata multiset."""

    length: int  # l(gamma) - n(n-1)/2
    strata: dict[tuple[int, int], int]

    def eval(self, q: int) -> int:
        return sum(
            mult * q**a * (q - 1) ** b for (a, b), mult in self.strata.items()
        )

    def coefficients(self) -> list[int]:
        """Coefficients of the expanded polynomial in q, ascending."""
        import math

        size = self.length + 1
        out = [0] * size
        for (a, b), mult in self.strata.items():
            for i in range(b + 1):  # (q-1)^b = sum_i C(b,i) (-1)^(b-i) q^i
                out[a + i] += mult * math.comb(b, i) * (-1) ** (b - i)
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def render(self) -> str:
        if not self.strata:
            return "0"
        parts = []
        for (a, b), mult in sorted(self.strata.items()):
            factors = []
            if a == 1:
                factors.append("q")
            elif a > 1:
                factors.append(f"q^{a}")
            if b == 1:
                factors.append("(q-1)")
            elif b > 1:
                factors.append(f"(q-1)^{b}")
            body = "".join(factors) if factors else "1"
            parts.append(body if mult == 1 else f"{mult}{body}")
        return " + ".join(parts)


def stratify(word: BraidWord) -> StrataTree:
    """Stratification tree of X0(word; w0).  Each distinct word reached gets
    one node, one Demazure check and one rewrite to a doubled letter."""
    n = word.n
    w0 = longest_perm(n)
    nodes: dict[tuple[int, ...], StrataTree] = {}

    def rec(letters):
        if letters in nodes:
            return nodes[letters]
        if demazure_letters(n, letters) != w0:
            node = StrataTree(letters, "dead")
        else:
            found = find_doubled_letter(letters, n)
            if found is None:
                # reduced with Demazure product w0: a point stratum
                node = StrataTree(letters, "leaf")
            else:
                _, moved, p = found
                inv = rec(moved[:p] + moved[p + 1 :])
                van = rec(moved[:p] + moved[p + 2 :])
                node = StrataTree(letters, "branch", inv, van)
        nodes[letters] = node
        return node

    return rec(tuple(word.letters))


def point_count_polynomial(beta: BraidWord) -> PointCountPolynomial:
    """The count polynomial of X0(beta Delta; w0) over F_q."""
    gamma = append_half_twist(beta)
    tree = stratify(gamma)
    return PointCountPolynomial(len(beta), tree.strata())


# Matrices that brute_count holds at its deepest level at once.  A chunk k
# levels above holds at most _ROWS / q^k, so memory is bounded by about
# 2 * _ROWS matrices whatever q^l and the budget are.
_ROWS = 2**15


def brute_count(word: BraidWord, perm, q: int, budget: int = 10**8) -> int:
    """Exhaustive point count of the presentation over F_q.

    The q^l points form a prefix tree on their digits: the product of the
    first k elementary matrices is computed once per prefix (numpy batched,
    entries kept reduced mod q), and the tree is walked depth first in chunks.
    Every point is enumerated and checked."""
    letters = word.letters
    l = len(letters)
    if q**l > budget:
        raise BudgetExceeded(f"brute count needs {q}^{l} = {q**l} points, over the budget of {budget}")
    n = word.n
    vanishing = [(a, perm[b]) for a in range(1, n) for b in range(a)]

    def walk(mats, k):
        """Points whose first k digits have the prefix products mats."""
        if k == l:
            ok = np.ones(len(mats), dtype=bool)
            for a, c in vanishing:
                ok &= mats[:, a, c] == 0
            return int(ok.sum())
        below = q ** (l - k - 1)  # points under each child prefix
        digit_step = min(q, max(1, _ROWS // below))
        row_step = max(1, _ROWS // (below * digit_step))
        total = 0
        for r in range(0, len(mats), row_step):
            for d in range(0, q, digit_step):
                digits = np.arange(d, min(q, d + digit_step))
                total += walk(_times_letter(mats[r : r + row_step], letters[k], digits, q), k + 1)
        return total

    return walk(np.eye(n, dtype=np.int64)[None], 0)


def _times_letter(mats, i: int, digits, q: int):
    """Every matrix M times B_i(z) for every digit z: columns i, i+1
    (1-based) become M_{i+1} and M_i + z M_{i+1} mod q."""
    out = np.repeat(mats, len(digits), axis=0)
    z = np.tile(digits, len(mats))[:, None]
    new = (out[:, :, i - 1] + z * out[:, :, i]) % q
    out[:, :, i - 1] = out[:, :, i]
    out[:, :, i] = new
    return out


def brute_count_presentation(pres, q: int, budget: int = 10**8) -> int:
    """Exhaustive count of an arbitrary presentation (equations vanish,
    inequations invertible); used for augmentation presentations."""
    vars_ = list(pres.variables)
    l = len(vars_)
    if q**l > budget:
        raise BudgetExceeded(f"brute count needs {q}^{l} = {q**l} points, over the budget of {budget}")
    total = 0
    point = dict.fromkeys(vars_, 0)
    for code in range(q**l):
        x = code
        for v in vars_:
            point[v] = x % q
            x //= q
        if any(eq.eval_int(point, q) != 0 for eq in pres.equations):
            continue
        if any(ineq.eval_int(point, q) == 0 for ineq in pres.inequations):
            continue
        total += 1
    return total
