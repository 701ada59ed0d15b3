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
from math import comb

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
        this node, folded bottom-up with each shared node visited once.

        A path to a leaf drops two letters per cup and one per trivalent
        vertex, so b follows from a and the leaf length.  A node's multiset
        is one int whose slot a, len(letters) + 1 bits wide, counts the
        leaves reached with a cups; fewer than 2^len(letters) paths leave
        this node, so no slot overflows."""
        below, todo, leaf_len = {self}, [self], None
        while todo:
            node = todo.pop()
            if node.status == "leaf":
                leaf_len = len(node.letters)
            elif node.status == "branch":
                for child in (node.invert_child, node.vanish_child):
                    if child not in below:
                        below.add(child)
                        todo.append(child)
        width = len(self.letters) + 1
        # a child's word is shorter than its parent's, so folding by length
        # folds every child before its parents
        folded: dict[StrataTree, int] = {}
        for node in sorted(below, key=lambda node: len(node.letters)):
            if node.status == "branch":
                folded[node] = folded[node.invert_child] + (folded[node.vanish_child] << width)
            else:
                folded[node] = int(node.status == "leaf")
        packed, out, mask, a = folded[self], {}, (1 << width) - 1, 0
        while packed:
            if packed & mask:
                out[(a, len(self.letters) - leaf_len - 2 * a)] = packed & mask
            packed >>= width
            a += 1
        return out


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
        size = self.length + 1
        out = [0] * size
        for (a, b), mult in self.strata.items():
            for i in range(b + 1):  # (q-1)^b = sum_i C(b,i) (-1)^(b-i) q^i
                out[a + i] += mult * comb(b, i) * (-1) ** (b - i)
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
    root = StrataTree(tuple(word.letters), "")
    nodes = {root.letters: root}
    todo = [root]  # nodes made for a word reached, their status not yet set
    while todo:
        node = todo.pop()
        letters = node.letters
        if demazure_letters(n, letters) != w0:
            node.status = "dead"
            continue
        found = find_doubled_letter(letters, n)
        if found is None:
            # reduced with Demazure product w0: a point stratum
            node.status = "leaf"
            continue
        _, moved, p = found
        node.status = "branch"
        kids = []
        for child in (moved[:p] + moved[p + 1 :], moved[:p] + moved[p + 2 :]):
            kid = nodes.get(child)
            if kid is None:
                kid = nodes[child] = StrataTree(child, "")
                todo.append(kid)
            kids.append(kid)
        node.invert_child, node.vanish_child = kids
    return root


def point_count_polynomial(beta: BraidWord) -> PointCountPolynomial:
    """The count polynomial of X0(beta Delta; w0) over F_q."""
    gamma = append_half_twist(beta)
    tree = stratify(gamma)
    return PointCountPolynomial(len(beta), tree.strata())


# Products of the first l-1 letters that brute_count holds at once.  When
# q > n(n-1) it holds fewer, so that the points it tests in place at once,
# q per product, stay within _ROWS * n(n-1), the entries of _ROWS products.
# A chunk k levels above holds at most 1/q^k as many, so memory is bounded
# by about twice that whatever q^l and the budget are.
_ROWS = 2**15


def brute_count(word: BraidWord, perm, q: int, budget: int = 10**8) -> int:
    """Exhaustive point count of the presentation over F_q.

    The q^l points form a prefix tree on their digits: the product of the
    first k elementary matrices is computed once per prefix (numpy batched,
    entries kept reduced mod q), and the tree is walked depth first in chunks.
    A chunk of m products is one array of shape (n-1, n, m): row 0 is left
    out, since no vanishing entry lies in it and a right product by B_i(z)
    acts on each row alone, and the points lie on the last axis.  The q^l
    final products are never built: the last letter is tested in place on
    the products of the first l-1 letters, for all q digits at once (in
    blocks of digits only when q alone passes the chunk size).  Every point
    is enumerated and checked."""
    letters = word.letters
    l = len(letters)
    if q**l > budget:
        raise BudgetExceeded(f"brute count needs {q}^{l} = {q**l} points, over the budget of {budget}")
    n = word.n
    # entry (a, perm[b]) with b < a, held at row a - 1 of a chunk
    vanishing = [(a - 1, perm[b]) for a in range(1, n) for b in range(a)]
    # x + z*y with x, y, z < q is at most q*(q-1)
    dtype = np.int16 if q * (q - 1) <= np.iinfo(np.int16).max else np.int64
    tested = _ROWS * (n - 1) * n  # points tested in place at once
    deepest = max(1, tested // max(q, (n - 1) * n))  # products of l-1 letters at once
    start = np.eye(n, dtype=dtype)[1:, :, None]
    if l == 0:
        return int(all(start[r, c, 0] == 0 for r, c in vanishing))

    def block(d, step):
        """The digits d, d+1, ... below d + step and q."""
        return np.arange(d, min(q, d + step), dtype=dtype)

    def last(rows, i, digits):
        """Points whose first l-1 digits have the prefix products rows and
        whose last digit z is in digits, for the last letter i: after B_i(z),
        column i-1 (0-based) holds the old column i, column i holds old
        column i-1 + z * old column i, and every other column is unchanged."""
        ok = np.ones(rows.shape[2], dtype=bool)
        ok_digits = None
        for r, c in vanishing:
            if c == i:
                zero = (rows[r, i - 1] + digits[:, None] * rows[r, i]) % q == 0
                ok_digits = zero if ok_digits is None else ok_digits & zero
            else:
                ok &= rows[r, i if c == i - 1 else c] == 0
        if ok_digits is None:
            return len(digits) * int(ok.sum())
        return int((ok_digits & ok).sum())

    def walk(rows, k):
        """Points whose first k digits have the prefix products rows."""
        if k == l - 1:
            step = max(1, tested // rows.shape[2])
            return sum(last(rows, letters[k], block(d, step)) for d in range(0, q, step))
        below = q ** (l - k - 2)  # deepest built products under each child
        digit_step = min(q, max(1, deepest // below))
        row_step = max(1, deepest // (below * digit_step))
        total = 0
        for r in range(0, rows.shape[2], row_step):
            for d in range(0, q, digit_step):
                chunk = _times_letter(rows[:, :, r : r + row_step], letters[k], block(d, digit_step), q)
                total += walk(chunk, k + 1)
        return total

    return walk(start, 0)


def _times_letter(rows, i: int, digits, q: int):
    """The products rows (shape (n-1, n, m)) times B_i(z) for every digit z,
    as shape (n-1, n, len(digits) * m): columns i, i+1 (1-based) become
    M_{i+1} and M_i + z M_{i+1} mod q."""
    out = np.empty(rows.shape[:2] + (len(digits), rows.shape[2]), dtype=rows.dtype)
    out[...] = rows[:, :, None, :]
    out[:, i - 1] = rows[:, i, None, :]
    out[:, i] = (rows[:, i - 1, None, :] + digits[:, None] * rows[:, i, None, :]) % q
    return out.reshape(rows.shape[0], rows.shape[1], -1)


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
        if any(ineq.eval_int(point, q) in (None, 0) for ineq in pres.inequations):
            continue
        total += 1
    return total
