"""Answer checks that share no code with braidweave.

Everything here works on plain Python integers modulo a prime:

- ``FlagCounter``: the number of points of X0(gamma; w0) over F_q, by a
  dynamic programme over complete flags.  A point is a tuple z with
  B(gamma; z) in B+ . B(Delta; 0), where B+ is the invertible upper
  triangular group; the coset B+ . M is a complete flag, right
  multiplication by an elementary braid matrix acts on flags, so the count
  is a walk count on the (small) flag set.
- ``parse_expr`` / ``evaluate``: read the canonical text rendering of a
  rational function and evaluate it at a point mod p.
- ``chart_text_ok``: a rendered chart (``z_k = ...`` and ``invert: ...``
  lines) must land in the variety at random points, and its inverted
  expressions must give back the chart parameters.
- ``cluster_text_ok``: every ``gamma_k = ... = value = Pab`` line whose
  label names a 2x2 minor must agree with that minor at random points.
- ``fingerprint``: a digest of a rendered output that identifies its
  functions whatever order the terms are printed in.
"""
from __future__ import annotations

import hashlib
import random
import re

import numpy as np

# a Mersenne prime: random evaluation mod P misses a nonzero rational
# function of small degree with probability about degree / P
P = (1 << 61) - 1
POINTS = 3  # random points per checked output


def half_twist_letters(n: int) -> list[int]:
    """(1 2 .. n-1)(1 .. n-2) ... (1 2)(1), the README's fixed lift of w0."""
    out = []
    for k in range(n - 1, 0, -1):
        out.extend(range(1, k + 1))
    return out


def mat_times_letter(m, i: int, z: int, p: int):
    """m . B_i(z) mod p, where B_i(z) is the identity with the block
    [[0, 1], [1, z]] on strands i, i+1 (1-based)."""
    out = [list(row) for row in m]
    for row in out:
        a, b = row[i - 1], row[i]
        row[i - 1], row[i] = b, (a + z * b) % p
    return out


def word_matrix(letters, values, n: int, p: int):
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    for i, z in zip(letters, values):
        m = mat_times_letter(m, i, z, p)
    return m


def flag_key(m, p: int) -> tuple:
    """Canonical representative of the coset B+ . m (rows mod p).

    Rows are reduced from the bottom: row a is cleared at the pivot columns
    of every row below it (nearest-to-the-bottom first, so no cleared entry
    is disturbed again) and scaled to a leading 1.
    """
    n = len(m)
    rows: list[list[int]] = [None] * n
    pivots = [0] * n
    for a in range(n - 1, -1, -1):
        r = [x % p for x in m[a]]
        for b in range(n - 1, a, -1):
            c = r[pivots[b]]
            if c:
                rb = rows[b]
                r = [(x - c * y) % p for x, y in zip(r, rb)]
        piv = next(j for j, x in enumerate(r) if x)
        inv = pow(r[piv], -1, p)
        rows[a] = [x * inv % p for x in r]
        pivots[a] = piv
    return tuple(tuple(r) for r in rows)


def target_flag(n: int, p: int) -> tuple:
    """The flag of B(Delta; 0): Delta's variety is the single point z = 0,
    so B(gamma; z) . P(w0) is upper triangular exactly on this coset."""
    d = half_twist_letters(n)
    return flag_key(word_matrix(d, [0] * len(d), n, p), p)


class FlagCounter:
    """Point counts of X0(gamma; w0) over F_q for every word in B_n.

    The transition table (flag, letter, z) -> flag is built once per (n, q)
    by a search from the identity flag; a count is then one numpy gather
    per letter.
    """

    def __init__(self, n: int, q: int):
        self.n, self.q = n, q
        start = flag_key([[int(r == c) for c in range(n)] for r in range(n)], q)
        index = {start: 0}
        order = [start]
        trans = {i: [] for i in range(1, n)}
        k = 0
        while k < len(order):
            f = order[k]
            for i in range(1, n):
                row = []
                for z in range(q):
                    g = flag_key(mat_times_letter(f, i, z, q), q)
                    if g not in index:
                        index[g] = len(order)
                        order.append(g)
                    row.append(index[g])
                trans[i].append(row)
            k += 1
        self.size = len(order)
        self.trans = {i: np.array(t, dtype=np.int64) for i, t in trans.items()}
        self.target = index[target_flag(n, q)]

    def count(self, letters) -> int:
        counts = np.zeros(self.size, dtype=np.int64)
        counts[0] = 1
        for i in letters:
            nxt = np.zeros(self.size, dtype=np.int64)
            for z in range(self.q):
                np.add.at(nxt, self.trans[i][:, z], counts)
            counts = nxt
        return int(counts[self.target])


# ---------------------------------------------------------------------------
# canonical renderings


_COEFF = re.compile(r"^\d+(/\d+)?$")


def _parse_poly(text: str):
    """Terms of a rendered Laurent polynomial: [(num, den, {var: exp})]."""
    text = text.strip()
    terms = []
    pieces = re.split(r" ([+-]) ", text)
    signs = ["+"] + pieces[1::2]
    for sign, body in zip(signs, pieces[0::2]):
        neg = sign == "-"
        if body.startswith("-"):
            neg, body = not neg, body[1:]
        num, den, mono = 1, 1, {}
        for factor in body.split("*"):
            if _COEFF.match(factor):
                a, _, b = factor.partition("/")
                num, den = int(a), int(b or 1)
            else:
                name, _, e = factor.partition("^")
                mono[name] = mono.get(name, 0) + int(e or 1)
        terms.append((-num if neg else num, den, mono))
    return terms


def parse_expr(text: str):
    """A rendered RationalExpr as (numerator terms, denominator terms)."""
    text = text.strip()
    if text.startswith("(") and ")/(" in text and text.endswith(")"):
        num, den = text[1:-1].split(")/(")
        return _parse_poly(num), _parse_poly(den)
    return _parse_poly(text), [(1, 1, {})]


def _eval_poly(terms, point, p: int) -> int:
    total = 0
    for num, den, mono in terms:
        t = num * pow(den, -1, p)
        for name, e in mono.items():
            t = t * pow(point[name], e, p)
        total += t
    return total % p


def evaluate(expr, point, p: int = P):
    """Value mod p, or None when the point is a pole (a vanishing
    denominator or a zero variable under a negative power)."""
    num, den = expr
    try:
        d = _eval_poly(den, point, p)
        if d == 0:
            return None
        return _eval_poly(num, point, p) * pow(d, -1, p) % p
    except ValueError:  # pow(0, -k, p)
        return None


def _variables(expr) -> set[str]:
    return {name for part in expr for _, _, mono in part for name in mono}


# ---------------------------------------------------------------------------
# rendered CLI outputs


def chart_text_ok(text: str, letters, n: int, rng: random.Random) -> bool:
    """Check a rendered opening chart of beta . Delta (``letters`` are beta's).

    At random parameter values mod P the z values must put B(beta Delta; z)
    in the coset of B(Delta; 0) (the variety equations), and the inverted
    expressions, evaluated at those z values, must be exactly the
    parameters (one opened crossing each).
    """
    subs, inverted = {}, []
    for line in text.splitlines():
        if line.startswith("invert: "):
            inverted.append(parse_expr(line[len("invert: "):]))
        elif " = " in line:
            name, _, rhs = line.partition(" = ")
            subs[name] = parse_expr(rhs)
    word = list(letters) + half_twist_letters(n)
    names = [f"z{k}" for k in range(1, len(word) + 1)]
    if sorted(subs) != sorted(names) or len(inverted) != len(letters):
        return False
    params = sorted(set().union(*(_variables(e) for e in subs.values())))
    goal = target_flag(n, P)
    done = 0
    for _ in range(20 * POINTS):
        if done == POINTS:
            break
        point = {s: rng.randrange(1, P) for s in params}
        zs = [evaluate(subs[name], point) for name in names]
        if any(z is None for z in zs):
            continue
        if flag_key(word_matrix(word, zs, n, P), P) != goal:
            return False
        zpoint = dict(zip(names, zs))
        back = [evaluate(e, zpoint) for e in inverted]
        if any(b is None for b in back):
            continue
        if sorted(back) != sorted(point.values()):
            return False
        done += 1
    return done == POINTS


def minor(zs, a: int, b: int, p: int = P) -> int:
    """(2,2)-entry of B_1(z_a) ... B_1(z_{b-2}) for a 2-strand word."""
    m = [[1, 0], [0, 1]]
    for k in range(a, b - 1):
        m = mat_times_letter(m, 1, zs[k - 1], p)
    return m[1][1]


_LABEL = re.compile(r"^P(\d)(\d+)$")  # a <= 9, b may be 10


def cluster_text_ok(text: str, length: int, rng: random.Random) -> bool:
    """Check rendered A-coordinates of a 2-strand word of ``length`` letters:
    one line per cycle, every value a polynomial in z, and each value that
    carries a minor label ``Pab`` equal to that minor at random z."""
    lines = text.splitlines()
    if len(lines) != length - 1:
        return False
    size = length + 1  # beta . Delta has one more letter than beta
    for _ in range(POINTS):
        zs = [rng.randrange(P) for _ in range(size)]
        point = {f"z{k}": z for k, z in enumerate(zs, start=1)}
        for line in lines:
            parts = line.split(" = ")
            if len(parts) not in (3, 4):
                return False
            value = parse_expr(parts[2])
            if value[1] != [(1, 1, {})]:
                return False
            if len(parts) == 4:
                label = _LABEL.match(parts[3])
                if not label:
                    return False
                a, b = int(label.group(1)), int(label.group(2))
                if evaluate(value, point) != minor(zs, a, b):
                    return False
    return True


_NAME = re.compile(r"^(z\d+|gamma_\d+|P\d+)$")


def fingerprint(text: str) -> str:
    """Digest of a rendered chart or coordinate list as functions, not text.

    Every expression is replaced by its values at two fixed points mod P,
    so the digest ignores the order of terms and factors and the sign
    normalisation of a fraction; in-process renderings order monomials by
    variable interning order, which depends on what ran before.
    """
    out = []
    for line in text.splitlines():
        head, sep, rest = line.partition("invert: ")
        fields = ["invert", rest] if sep and not head else line.split(" = ")
        row = []
        for field in fields:
            if _NAME.match(field) or field == "invert":
                row.append(field)
                continue
            expr = parse_expr(field)
            row.append(
                [evaluate(expr, {v: _fixed(v, j) for v in _variables(expr)}) for j in (1, 2)]
            )
        out.append(row)
    return hashlib.sha256(repr(out).encode()).hexdigest()


def _fixed(name: str, j: int) -> int:
    return int.from_bytes(hashlib.sha256(f"{name}:{j}".encode()).digest()[:8], "big") % P


def graph_counts(text: str) -> tuple[int, int]:
    """(vertices, edges) from the rendered mutation graph."""
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    return int(fields["vertices"]), int(fields["edges"])
