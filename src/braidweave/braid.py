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
- braid moves are the weave events ``six`` (the braid relation) and ``four``
  (a commutation); ``braid_move_letters`` and ``braid_move_in_place`` are the
  one place where their patterns and exact value changes are written.

Braid text format: ``B<n>: i1 i2 ... il``; permutations print one-indexed,
``[3 2 1]``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ring import DomainError, MatrixExpr, RationalExpr, var_id


class BraidError(DomainError):
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


def lower_c_matrix(n: int):
    """The lower uni-triangular matrix L(c) of variables c{a}{b}, a > b, and
    the id of each as {(a, b): id}, interned row by row."""
    one, zero = RationalExpr.const(1), RationalExpr.const(0)
    rows = [[one if r == c else zero for c in range(n)] for r in range(n)]
    ids = {}
    for a in range(2, n + 1):
        for b in range(1, a):
            ids[(a, b)] = var_id(f"c{a}{b}")
            rows[a - 1][b - 1] = RationalExpr.variable(ids[(a, b)])
    return MatrixExpr(rows), ids


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


def opening_positions(order) -> list[int]:
    """The 0-based position of each crossing, when the order opens it, among
    the crossings not yet opened: the number of later openings of smaller
    crossings."""
    return [sum(c < r for c in order[k + 1 :]) for k, r in enumerate(order)]


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


def times_letter(rows, i: int, z: RationalExpr) -> None:
    """Multiply the rows by B_i(z) on the right, in place: column i (1-based)
    becomes column i+1 and column i+1 becomes column i + z . column i+1.
    The letter tables of ``count.brute_count`` hold the same update mod q,
    for every row over F_q."""
    for row in rows:
        x, y = row[i - 1], row[i]
        row[i - 1], row[i] = y, (x if y.is_zero() else x + z * y)


def braid_matrix(word: BraidWord, values=None) -> MatrixExpr:
    """Product of the elementary matrices over the word's letters, applied
    as one column update per letter."""
    if values is None:
        values = word.var_exprs()
    m = MatrixExpr.identity(word.n)
    for i, z in zip(word.letters, values):
        times_letter(m.rows, i, z)
    return m


# ---------------------------------------------------------------------------
# braid moves with their exact variable change


def braid_move_letters(letters, p: int, kind: str) -> tuple[int, ...]:
    """The letters that the braid move ``kind`` writes at the 0-based p, in
    place of the 3 (six) or 2 (four) letters it reads there; raises
    PatternMismatch when the pattern is not at p."""
    if kind == "six":
        if p + 2 >= len(letters):
            raise PatternMismatch("six needs three letters")
        a, b, c = letters[p : p + 3]
        if a != c or abs(a - b) != 1:
            raise PatternMismatch(f"no braid pattern at {p}")
        return b, a, b
    if kind == "four":
        if p + 1 >= len(letters):
            raise PatternMismatch("four needs two letters")
        a, b = letters[p : p + 2]
        if abs(a - b) < 2:
            raise PatternMismatch(f"letters {a},{b} do not commute")
        return b, a
    raise PatternMismatch(f"unknown braid move {kind!r}")


def braid_move_in_place(letters: list, values: list, p: int, kind: str) -> None:
    """Apply the braid move ``kind`` at p to a letter list and its value list
    (of any type with +, - and *) in place.  six: (i, i+1, i) -> (i+1, i, i+1)
    with values (a, b, c) -> (c, b - ac, a), and (i+1, i, i+1) -> (i, i+1, i)
    with (a, b, c) -> (c, b + ac, a); the direction is read from the letters,
    so each change undoes the other and the upward chart pass runs the same
    move as the downward one.  four: (i, j) -> (j, i), values swap."""
    new = braid_move_letters(letters, p, kind)
    if kind == "six":
        a, b, c = values[p : p + 3]
        values[p : p + 3] = [c, b - a * c if new[0] == new[1] + 1 else b + a * c, a]
    else:
        values[p], values[p + 1] = values[p + 1], values[p]
    letters[p : p + len(new)] = new


def apply_braid_move(word: BraidWord, pos: int, kind: str):
    """Apply the braid move ``kind`` (``six`` or ``four``) at 0-based ``pos``.

    Returns ``(word', subst)`` where word' reuses the variable ids positionally
    and ``subst`` maps each of word''s variable ids to its value as a
    RationalExpr in word's variables, so that
    ``braid_matrix(word) == braid_matrix(word') after substitution``.
    """
    letters = list(word.letters)
    values = word.var_exprs()
    braid_move_in_place(letters, values, pos, kind)
    return BraidWord(word.n, tuple(letters), word.variables), dict(zip(word.variables, values))


def available_moves(letters, n):
    """All (pos, kind) braid moves applicable to a letter tuple: every six,
    then every four, each by position."""
    out = []
    for kind in ("six", "four"):
        for p in range(len(letters)):
            try:
                braid_move_letters(letters, p, kind)
            except PatternMismatch:
                continue
            out.append((p, kind))
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
