"""Stratification of braid varieties by simplifying weaves and exact point
counts over prime fields, with a brute-force oracle.

``stratify`` branches a word gamma with Demazure product w0 at a doubled
letter (reached by braid moves in closed form): the letter's variable is
either invertible (trivalent vertex, one letter shorter) or zero (cup, two
letters shorter).  Each leaf reached at a reduced word for w0 contributes a
stratum C^a x (C*)^b, and the count polynomial is sum q^a (q-1)^b over
leaves.  A word reached along several branches is stratified once and its
node is shared.  ``point_count_polynomial`` counts the same strata with no
words and no braid moves.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .braid import (
    BraidWord,
    coxeter_letters,
    demazure_letters,
    half_twist_letters,
    identity_perm,
    longest_perm,
    right_descent,
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
    """The count polynomial of X0(beta Delta; w0) over F_q, from one left to
    right pass over the permutation p of the reduced prefix (Deodhar's
    decomposition; T_p T_s = (q-1) T_p + q T_ps for a descent s of p).

    An ascent s moves p to ps.  A descent is the doubled letter where
    ``stratify`` branches: p stays with one more trivalent vertex, or moves
    to ps with one more cup.  The strata are the paths that end at w0, and
    a path with a cups has b = len(beta) - 2a trivalent vertices.  Each p
    keeps one int whose slot a, len(gamma) + 1 bits wide, counts the paths
    to it with a cups; at most 2^len(gamma) paths are made, so no slot
    overflows."""
    n = beta.n
    gamma = (*beta.letters, *half_twist_letters(n))
    width = len(gamma) + 1
    paths = {identity_perm(n): 1}
    for s in gamma:
        step: dict[tuple[int, ...], int] = {}
        for p, packed in paths.items():
            if right_descent(p, s):
                step[p] = step.get(p, 0) + packed
                packed <<= width
            ps = coxeter_letters(n, (s,), p)
            step[ps] = step.get(ps, 0) + packed
        paths = step
    packed, strata, mask, a = paths.get(longest_perm(n), 0), {}, (1 << width) - 1, 0
    while packed:
        if packed & mask:
            strata[(a, len(beta) - 2 * a)] = packed & mask
        packed >>= width
        a += 1
    return PointCountPolynomial(len(beta), strata)


# Products of the walked letters that brute_count holds at once, each with
# its n-1 row codes and up to 64 points tested as bits.  A chunk j levels
# above holds at most 1/q^j as many, so memory is bounded by about twice
# that whatever q^l and the budget are.
_ROWS = 2**12


def brute_count(word: BraidWord, perm, q: int, budget: int = 10**8) -> int:
    """Exhaustive point count of the presentation over F_q.

    The product M of the elementary matrices B_i(z) of the letters lies in
    the presentation when its entries (a, perm[b]) vanish for all b < a.
    Row a of a product is one code sum_j M[a, j] q^j; row 0 is left out, as
    no vanishing entry lies in it.  A right product by B_i(z) acts on each
    row alone, so it is one gather per row from the letter's table
    T_i[c, z], the code of row c times B_i(z).

    The last k letters, with q^k <= 64, are folded into one 64-bit mask per
    row a and code c: bit s is set when row a, continued from c through the
    tail digits s, vanishes where it must.  The first l - k letters are
    walked depth first over their digits, as a prefix tree in chunks of
    products; at a leaf the points are the set bits of its rows' masks and-ed
    together.  Every point of F_q^l is tested, as one bit."""
    letters = word.letters
    l = len(letters)
    if q**l > budget:
        raise BudgetExceeded(f"brute count needs {q}^{l} = {q**l} points, over the budget of {budget}")
    n = word.n
    distinct = sorted(set(letters))
    codes = q**n
    entries = (len(distinct) + n - 1) * q * codes  # the tables, and the masks as they are folded
    if entries > budget:
        raise BudgetExceeded(
            f"brute count tables need {entries} entries for n = {n}, q = {q}, over the budget of {budget}"
        )
    # Imported here, the one place that uses it: at module level numpy cost
    # every CLI command about 110 ms of start-up, and none of them counts.
    import numpy as np

    code = np.arange(codes)
    digits = code // q ** np.arange(n)[:, None] % q  # digit j of code c at [j, c]
    # T_i[c, z]: column i-1 (0-based) takes the old column i, and column i
    # takes old column i-1 + z * old column i, mod q
    low = q ** (np.array(distinct, dtype=int)[:, None, None] - 1)
    x, y = digits[[i - 1 for i in distinct], :, None], digits[distinct, :, None]
    stacked = y * np.arange(q)
    stacked += x
    stacked %= q
    stacked *= low * q
    stacked += code[:, None] + (y - x - y * q) * low
    tables = dict(zip(distinct, stacked))

    k = 0
    while k < l and q ** (k + 1) <= 64:
        k += 1
    # the tail folded in from its last letter back: bit z * width + s of a
    # mask is bit s of the mask of the code after digit z
    masks = np.logical_and.accumulate(digits[list(perm[: n - 1])] == 0, axis=0).astype(np.uint64)
    width = 1
    for i in reversed(letters[l - k :]):
        shift = np.arange(0, q * width, width, dtype=np.uint64)
        masks = np.bitwise_or.reduce(masks.take(tables[i], axis=1) << shift, axis=2)
        width *= q
    full = np.uint64(2**width - 1)
    head = l - k

    def walk(rows, j):
        """Points whose first j digits have the prefix products whose row
        codes are the columns of rows."""
        if j == head:
            found = np.full(rows.shape[1], full)
            for mask, row in zip(masks, rows):
                found &= mask.take(row)
            return np.count_nonzero(np.unpackbits(found.view(np.uint8)))
        # a chunk times a block of digits holds at most _ROWS leaf products,
        # or one product when that alone has more, so rows is never split
        step = min(q, max(1, _ROWS // q ** (head - j - 1)))
        table = tables[letters[j]]
        return sum(
            walk(table[:, d : d + step].take(rows, axis=0).reshape(n - 1, -1), j + 1) for d in range(0, q, step)
        )

    return walk(q ** np.arange(1, n)[:, None], 0)


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
