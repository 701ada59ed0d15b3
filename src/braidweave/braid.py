"""Braid words, permutations, Demazure products, and braid matrices.

Conventions used throughout the package:

- permutations are tuples ``p`` with ``p[i]`` the 0-based image of ``i``;
  products compose as functions, ``(a * b)(x) = a(b(x))``, so the word
  ``s_{i_1} ... s_{i_l}`` multiplies left factor outermost.  This matches the
  matrix convention: the permutation matrix ``P[p(j)][j] = 1`` satisfies
  ``P_a P_b = P_{a o b}``, and a braid matrix at all-zero variables is exactly
  the permutation matrix of the word's Coxeter image.
- braid word letters are 1-based generator indices ``i`` in ``[1, n-1]``; the
  letter ``i`` acts on strands ``i`` and ``i+1`` (matrix rows ``i-1, i``).
- the half twist is fixed to the word
  ``(s_1 s_2 ... s_{n-1})(s_1 ... s_{n-2}) ... (s_1 s_2) s_1``.

Braid text format: ``B<n>: i1 i2 ... il``; permutations print one-indexed,
``[3 2 1]``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ring import MatrixExpr, RationalExpr, var_id


class BraidError(Exception):
    pass


class IndexOutOfRange(BraidError):
    pass


class PatternMismatch(BraidError):
    pass


class NotReduced(BraidError):
    pass


class LengthIncreases(BraidError):
    pass


# ---------------------------------------------------------------------------
# permutations


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def longest_perm(n: int) -> tuple[int, ...]:
    """The order-reversing permutation w0."""
    return tuple(n - 1 - i for i in range(n))


def transposition(n: int, i: int) -> tuple[int, ...]:
    """The simple transposition s_i (1-based i), swapping i and i+1."""
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def compose(a, b):
    """(a o b)(x) = a(b(x))."""
    return tuple(a[b[i]] for i in range(len(a)))


def perm_length(p) -> int:
    """Coxeter length = inversion count."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def cycle_count(p) -> int:
    n = len(p)
    seen = [False] * n
    c = 0
    for i in range(n):
        if not seen[i]:
            c += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
    return c


def cycles(p):
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if not seen[i]:
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = p[j]
            out.append(tuple(cyc))
    return out


def right_descent(p, i: int) -> bool:
    """True iff l(p s_i) = l(p) - 1 (1-based i)."""
    return p[i - 1] > p[i]


def coxeter_letters(n: int, letters, start=None) -> tuple[int, ...]:
    """Coxeter image ``start * s_{i_1} * ... * s_{i_l}`` of a letter tuple
    (``start`` defaults to the identity of S_n): each letter i swaps entries
    i-1 and i of the one-line list."""
    p = list(range(n) if start is None else start)
    for i in letters:
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def stall_index(n: int, letters) -> int | None:
    """The 0-based k at which the word stops being reduced: ``letters[:k]``
    is reduced and ``letters[k]`` is a right descent of it.  None for a
    reduced word."""
    p = identity_perm(n)
    for k, i in enumerate(letters):
        if right_descent(p, i):
            return k
        p = coxeter_letters(n, (i,), p)
    return None


def demazure_letters(n: int, letters, start=None) -> tuple[int, ...]:
    """0-Hecke product ``start * s_{i_1} * ... * s_{i_l}`` of a letter tuple
    (``start`` defaults to the identity of S_n): each letter i swaps entries
    i-1 and i of the one-line list exactly when that raises the length."""
    p = list(range(n) if start is None else start)
    for i in letters:
        if p[i - 1] < p[i]:
            p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def perm_matrix(p) -> MatrixExpr:
    n = len(p)
    one, zero = RationalExpr.const(1), RationalExpr.const(0)
    return MatrixExpr([[one if p[j] == i else zero for j in range(n)] for i in range(n)])


def render_perm(p) -> str:
    return "[" + " ".join(str(x + 1) for x in p) + "]"


def parse_perm(text: str) -> tuple[int, ...]:
    vals = [parse_int(t, "permutation entry") for t in text.strip().strip("[]").split()]
    p = tuple(v - 1 for v in vals)
    if sorted(p) != list(range(len(p))):
        raise BraidError(f"not a permutation: {text!r}")
    return p


class NilHeckeElement:
    """Element of the 0-Hecke monoid, carried by its Norton representative."""

    __slots__ = ("perm",)

    def __init__(self, perm):
        self.perm = tuple(perm)

    @classmethod
    def generator(cls, n, i):
        return cls(transposition(n, i))

    def star(self, other: "NilHeckeElement") -> "NilHeckeElement":
        # fold a reduced word for other.perm into the Demazure product
        return NilHeckeElement(
            demazure_letters(len(self.perm), reduced_word(other.perm), self.perm)
        )

    def __mul__(self, other):
        return self.star(other)

    def __eq__(self, other):
        return isinstance(other, NilHeckeElement) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"NilHeckeElement({render_perm(self.perm)})"


def reduced_word(p) -> list[int]:
    """A reduced word for p, peeling right descents (1-based letters)."""
    p = list(p)
    n = len(p)
    word = []
    while True:
        for i in range(1, n):
            if p[i - 1] > p[i]:
                word.append(i)
                p[i - 1], p[i] = p[i], p[i - 1]
                break
        else:
            break
    word.reverse()
    return word


# ---------------------------------------------------------------------------
# braid words


@dataclass(frozen=True)
class BraidWord:
    """A positive braid word with one named variable per letter."""

    n: int
    letters: tuple[int, ...]
    variables: tuple[int, ...]  # var ids, pairwise distinct

    def __post_init__(self):
        for i in self.letters:
            if not 1 <= i <= self.n - 1:
                raise IndexOutOfRange(f"letter {i} out of range for n={self.n}")
        if len(set(self.variables)) != len(self.variables):
            raise BraidError("letter variables must be pairwise distinct")
        if len(self.variables) != len(self.letters):
            raise BraidError("one variable per letter required")

    def __len__(self):
        return len(self.letters)

    def var_exprs(self):
        return [RationalExpr.variable(v) for v in self.variables]

    def render(self) -> str:
        return f"B{self.n}: " + " ".join(str(i) for i in self.letters)

    def concat(self, other: "BraidWord") -> "BraidWord":
        if other.n != self.n:
            raise BraidError("strand counts differ")
        return BraidWord(self.n, self.letters + other.letters, self.variables + other.variables)


def make_word(n: int, letters, start: int = 1) -> BraidWord:
    letters = tuple(letters)
    vids = tuple(var_id(f"z{start + k}") for k in range(len(letters)))
    return BraidWord(n, letters, vids)


def parse_braid(text: str, n: int | None = None) -> BraidWord:
    """Parse either ``B<n>: i1 i2 ...`` or a bare space-separated letter list
    (``n`` required in the bare form).  Fresh variables z1..zl are attached."""
    text = text.strip()
    if text.startswith("B"):
        head, _, body = text.partition(":")
        n = parse_int(head[1:], "strand count")
    else:
        if n is None:
            raise BraidError("strand count n required")
        body = text
    if n < 1:
        raise BraidError(f"strand count must be at least 1, got {n}")
    letters = tuple(parse_int(t, "letter") for t in body.split())
    return make_word(n, letters)


def parse_int(token: str, what: str) -> int:
    """int(token), with a BraidError naming ``what`` for a non-integer."""
    try:
        return int(token)
    except ValueError:
        raise BraidError(f"{what} {token.strip()!r} is not an integer") from None


def check_opening_order(beta: BraidWord, order) -> list[int]:
    """The order as a list, checked to be a permutation of beta's 1-based
    crossing indices."""
    order = list(order)
    if sorted(order) != list(range(1, len(beta) + 1)):
        raise PatternMismatch("order must be a permutation of the crossing indices")
    return order


def half_twist_word(n: int, start: int = 1) -> BraidWord:
    """The fixed positive lift of w0: (1 2 .. n-1)(1 .. n-2)...(1 2)(1)."""
    return make_word(n, half_twist_letters(n), start)


def half_twist_letters(n: int) -> tuple[int, ...]:
    letters = []
    for k in range(n - 1, 0, -1):
        letters.extend(range(1, k + 1))
    return tuple(letters)


def append_half_twist(word: BraidWord) -> BraidWord:
    """word . Delta with variables continuing the z-numbering."""
    return word.concat(half_twist_word(word.n, start=len(word) + 1))


def coxeter_image(word: BraidWord):
    return coxeter_letters(word.n, word.letters)


def word_cycle_count(word: BraidWord) -> int:
    return cycle_count(coxeter_image(word))


def is_reduced(word: BraidWord) -> bool:
    return perm_length(coxeter_image(word)) == len(word)


def demazure_product(word: BraidWord):
    """The image of the word in the 0-Hecke monoid, as a permutation."""
    return demazure_letters(word.n, word.letters)


# ---------------------------------------------------------------------------
# braid matrices


def elementary_braid_matrix(n: int, i: int, z: RationalExpr) -> MatrixExpr:
    """Identity with the 2x2 block [[0,1],[1,z]] at rows/columns i, i+1."""
    m = MatrixExpr.identity(n)
    rows = m.rows
    zero, one = RationalExpr.const(0), RationalExpr.const(1)
    rows[i - 1][i - 1], rows[i - 1][i] = zero, one
    rows[i][i - 1], rows[i][i] = one, z
    return m


def braid_matrix(word: BraidWord, values=None) -> MatrixExpr:
    """Product of the elementary matrices over the word's letters."""
    if values is None:
        values = word.var_exprs()
    m = MatrixExpr.identity(word.n)
    for i, z in zip(word.letters, values):
        m = m * elementary_braid_matrix(word.n, i, z)
    return m


# ---------------------------------------------------------------------------
# braid moves with their exact variable change


def apply_braid_move(word: BraidWord, pos: int, kind: str):
    """Apply a braid move at 0-based position ``pos``.

    kinds: ``r3_up``   (i, i+1, i) -> (i+1, i, i+1), values (a,b,c) -> (c, b-ac, a)
           ``r3_down`` (i+1, i, i+1) -> (i, i+1, i), values (a,b,c) -> (c, b+ac, a)
           ``comm``    (i, j), |i-j| >= 2           -> (j, i), values swap

    Returns ``(word', subst)`` where word' reuses the variable ids positionally
    and ``subst`` maps each of word''s variable ids to its value as a
    RationalExpr in word's variables, so that
    ``braid_matrix(word) == braid_matrix(word') after substitution``.
    """
    L = word.letters
    V = word.variables
    n = word.n

    def expr(vid):
        return RationalExpr.variable(vid)

    if kind in ("r3_up", "r3_down"):
        if pos + 3 > len(L):
            raise PatternMismatch("r3 needs three letters")
        a, b, c = L[pos : pos + 3]
        if kind == "r3_up":
            ok = a == c and b == a + 1
        else:
            ok = a == c and b == a - 1
        if not ok:
            raise PatternMismatch(f"no r3 pattern at {pos}: {L[pos:pos+3]}")
        new_letters = L[:pos] + (b, a, b) + L[pos + 3 :]
        va, vb, vc = V[pos : pos + 3]
        sign = -1 if kind == "r3_up" else 1
        subst = {
            va: expr(vc),
            vb: expr(vb) + expr(va) * expr(vc) * RationalExpr.const(sign),
            vc: expr(va),
        }
        return BraidWord(n, new_letters, V), subst
    if kind == "comm":
        if pos + 2 > len(L):
            raise PatternMismatch("comm needs two letters")
        a, b = L[pos : pos + 2]
        if abs(a - b) < 2:
            raise PatternMismatch(f"letters {a},{b} do not commute")
        new_letters = L[:pos] + (b, a) + L[pos + 2 :]
        va, vb = V[pos : pos + 2]
        subst = {va: expr(vb), vb: expr(va)}
        return BraidWord(n, new_letters, V), subst
    raise PatternMismatch(f"unknown move kind {kind!r}")


def available_moves(letters, n):
    """All (pos, kind) braid moves applicable to a letter tuple."""
    out = []
    for p in range(len(letters) - 2):
        a, b, c = letters[p : p + 3]
        if a == c and b == a + 1:
            out.append((p, "r3_up"))
        if a == c and b == a - 1:
            out.append((p, "r3_down"))
    for p in range(len(letters) - 1):
        if abs(letters[p] - letters[p + 1]) >= 2:
            out.append((p, "comm"))
    return out


def exchange_index(word: BraidWord, i: int) -> int:
    """For a reduced word u and l(u s_i) = l(u) - 1, the unique 1-based k with
    u with its k-th letter deleted equal to u s_i.

    Found by strand tracking: label strand positions at the right end, follow
    the two strands ending at positions i, i+1 leftwards; they cross exactly
    once, at letter k.
    """
    if not is_reduced(word):
        raise NotReduced(word.render())
    u = coxeter_image(word)
    if not right_descent(u, i):
        raise LengthIncreases(f"l(u s_{i}) > l(u)")
    a, b = i, i + 1  # 1-based positions at the right edge
    for k in range(len(word), 0, -1):
        j = word.letters[k - 1]
        if {j, j + 1} == {a, b}:
            return k
        if a == j:
            a = j + 1
        elif a == j + 1:
            a = j
        if b == j:
            b = j + 1
        elif b == j + 1:
            b = j
    raise BraidError("strands never cross; word was not reduced")


def exchange_index_brute(word: BraidWord, i: int) -> int:
    """Oracle for exchange_index: try deleting every letter."""
    u = coxeter_image(word)
    target = compose(u, transposition(word.n, i))
    for k in range(1, len(word) + 1):
        p = identity_perm(word.n)
        for pos, j in enumerate(word.letters, start=1):
            if pos != k:
                p = compose(p, transposition(word.n, j))
        if p == target:
            return k
    raise BraidError("no exchange index found")
