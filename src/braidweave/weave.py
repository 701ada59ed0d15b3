"""Weave diagrams: validated event sequences between braid-word slices.

A weave is stored as its top word plus a list of events, one per slice
transition, each acting at a 0-based position of the slice above it:

- ``three p``: letters (i, i) at p, p+1 merge into one letter i,
- ``six p``:   letters (i, j, i) with |i-j| = 1 at p..p+2 become (j, i, j),
- ``four p``:  letters (i, j) with |i-j| >= 2 swap,
- ``cup p``:   letters (i, i) at p, p+1 disappear,
- ``cap p i``: letters (i, i) appear at position p.

Demazure means no cups or caps; simplifying means no caps.  For Demazure
weaves the Demazure product of every slice agrees with the top one (checked
by ``validate``).  Equality of weaves is structural on (top, events);
``canonicalize`` bubbles independent adjacent events into position order so
that equal diagrams compare equal.
"""
from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, replace

from .braid import (
    BraidWord,
    PatternMismatch,
    append_half_twist,
    check_opening_order,
    demazure_letters,
    half_twist_letters,
    make_word,
    parse_int,
    perm_length,
    reduced_word,
    stall_index,
)
from .ring import var_id


class BudgetExceeded(Exception):
    pass


class InvalidLabels(Exception):
    pass


@dataclass(frozen=True)
class WeaveEvent:
    kind: str
    pos: int
    letter: int = 0  # generator index, caps only

    def render(self) -> str:
        if self.kind == "cap":
            return f"cap {self.pos} {self.letter}"
        return f"{self.kind} {self.pos}"


def _apply_event(letters: tuple[int, ...], ev: WeaveEvent, index: int = -1):
    p = ev.pos
    if ev.kind == "three":
        if p + 1 >= len(letters) or letters[p] != letters[p + 1]:
            raise PatternMismatch(f"event {index}: no doubled letter at {p}")
        return letters[:p] + letters[p + 1 :]
    if ev.kind == "cup":
        if p + 1 >= len(letters) or letters[p] != letters[p + 1]:
            raise PatternMismatch(f"event {index}: no doubled letter at {p}")
        return letters[:p] + letters[p + 2 :]
    if ev.kind == "six":
        if p + 2 >= len(letters):
            raise PatternMismatch(f"event {index}: six needs three letters")
        a, b, c = letters[p : p + 3]
        if a != c or abs(a - b) != 1:
            raise PatternMismatch(f"event {index}: no braid pattern at {p}")
        return letters[:p] + (b, a, b) + letters[p + 3 :]
    if ev.kind == "four":
        if p + 1 >= len(letters):
            raise PatternMismatch(f"event {index}: four needs two letters")
        a, b = letters[p : p + 2]
        if abs(a - b) < 2:
            raise PatternMismatch(f"event {index}: letters {a},{b} do not commute")
        return letters[:p] + (b, a) + letters[p + 2 :]
    if ev.kind == "cap":
        if not 0 <= p <= len(letters):
            raise PatternMismatch(f"event {index}: cap position out of range")
        return letters[:p] + (ev.letter, ev.letter) + letters[p:]
    raise PatternMismatch(f"event {index}: unknown kind {ev.kind!r}")


@dataclass(frozen=True)
class Weave:
    n: int
    top: BraidWord
    events: tuple[WeaveEvent, ...]
    # for weaves built from an opening order: crossing index per three-event
    opened_crossings: tuple[int, ...] | None = None

    def slices(self) -> list[tuple[int, ...]]:
        out = [self.top.letters]
        cur = self.top.letters
        for k, ev in enumerate(self.events):
            cur = _apply_event(cur, ev, k)
            out.append(cur)
        return out

    def bottom_letters(self) -> tuple[int, ...]:
        return self.slices()[-1]

    def bottom_variables(self) -> tuple[int, ...]:
        return tuple(var_id(f"_b{k + 1}") for k in range(len(self.bottom_letters())))

    def is_demazure(self) -> bool:
        return all(ev.kind in ("three", "six", "four") for ev in self.events)

    def is_simplifying(self) -> bool:
        return all(ev.kind != "cap" for ev in self.events)

    def counts(self):
        c = {"three": 0, "six": 0, "four": 0, "cup": 0, "cap": 0}
        for ev in self.events:
            c[ev.kind] += 1
        return c

    def render(self) -> str:
        lines = [
            f"weave n={self.n} top=" + " ".join(str(i) for i in self.top.letters)
        ]
        lines += [ev.render() for ev in self.events]
        return "\n".join(lines)


def validate(weave: Weave) -> list[tuple[int, ...]]:
    """Compute and return all slices, checking every event pattern.  For
    Demazure weaves the Demazure product of every slice is asserted equal."""
    slices = weave.slices()
    if weave.is_demazure():
        top_d = demazure_letters(weave.n, slices[0])
        for s in slices[1:]:
            if demazure_letters(weave.n, s) != top_d:
                raise PatternMismatch("Demazure product changed along the weave")
    return slices


def parse_weave(text: str) -> Weave:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    head = lines[0] if lines else []
    if len(head) < 3 or head[0] != "weave" or head[1][:2] != "n=" or head[2][:4] != "top=":
        raise PatternMismatch(f"bad weave header: {' '.join(head)!r}")
    n = parse_int(head[1][2:], "strand count")
    top_letters = [parse_int(t, "letter") for t in " ".join(head[2:])[len("top="):].split()]
    events = []
    for parts in lines[1:]:
        width = 3 if parts[0] == "cap" else 2
        if len(parts) < width:
            raise PatternMismatch(f"event {' '.join(parts)!r} is missing a field")
        pos = parse_int(parts[1], "event position")
        if pos < 0:
            raise PatternMismatch(f"event {' '.join(parts)!r} has a negative position")
        letter = parse_int(parts[2], "cap letter") if width == 3 else 0
        if width == 3 and not 1 <= letter <= n - 1:
            raise PatternMismatch(f"event {' '.join(parts)!r}: letter out of range for n={n}")
        events.append(WeaveEvent(parts[0], pos, letter))
    w = Weave(n, make_word(n, top_letters), tuple(events))
    validate(w)
    return w


# ---------------------------------------------------------------------------
# braid-move paths in closed form (shared with stratification)
#
# A path is a tuple of (pos, kind) braid moves, as in braid.available_moves.
# The variable change of a positive braid does not depend on which path of
# braid moves is taken (Zamolodchikov relations), so every path below gives
# the same chart; each is written down from the exchange condition, with no
# search.


def _to_suffix(word: tuple[int, ...], s: int):
    """Moves taking the reduced word ``word``, which has right descent s, to
    a word ending in s; returns (path, final word).  With t the last letter:
    nothing to do if t = s; if t commutes with s, move s to the end of the
    prefix and commute; if |s - t| = 1, rewrite the prefix to end in t s and
    turn t s t into s t s (Björner-Brenti, Combinatorics of Coxeter Groups,
    3.3)."""
    if not word:
        raise PatternMismatch(f"letter {s} is not a right descent of the word")
    t, end = word[-1], len(word)
    if t == s:
        return (), word
    path, u = _to_suffix(word[:-1], s)
    if abs(s - t) >= 2:
        return path + ((end - 2, "comm"),), u[:-1] + (t, s)
    path2, v = _to_suffix(u[:-1], t)
    kind = "r3_up" if s == t + 1 else "r3_down"
    return path + path2 + ((end - 3, kind),), v[:-1] + (s, t, s)


def _reduced_path(src: tuple[int, ...], dst: tuple[int, ...]):
    """Moves taking the reduced word src to the reduced word dst of the same
    permutation: bring dst's last letter to the end of src, then recurse on
    both prefixes."""
    if len(src) != len(dst):
        raise PatternMismatch(f"{src} and {dst} are not braid equivalent")
    if not dst:
        return ()
    path, src = _to_suffix(src, dst[-1])
    return path + _reduced_path(src[:-1], dst[:-1])


def _mirror(path, length: int):
    """The same moves on the reversed word."""
    return tuple((length - pos - (2 if kind == "comm" else 3), kind) for pos, kind in path)


def _through_half_twist(j: int, delta: tuple[int, ...], n: int):
    """Moves taking (j,) + delta to delta + (n - j,), for a reduced word
    delta of w0: rewrite delta to end in n - j (w0 s_{n-j} = s_j w0), after
    which the first len(delta) letters again spell w0."""
    path, y = _to_suffix(delta, n - j)
    shifted = tuple((pos + 1, kind) for pos, kind in path)
    return shifted + _reduced_path((j,) + y[:-1], delta)


def find_doubled_letter(letters: tuple[int, ...], n: int):
    """Braid moves that give a non-reduced word a doubled letter.

    Returns (move path, final word, position of the double), or None if the
    word is reduced.  The first prefix that is not reduced ends in a right
    descent s of the reduced part; rewriting that part to end in s doubles
    s."""
    k = stall_index(n, letters)
    if k is None:
        return None
    path, prefix = _to_suffix(tuple(letters[:k]), letters[k])
    return path, prefix + tuple(letters[k:]), k - 1


def _moves_to_events(path, offset: int):
    out = []
    for pos, kind in path:
        out.append(WeaveEvent("six" if kind.startswith("r3") else "four", offset + pos))
    return out


# ---------------------------------------------------------------------------
# builders


def weave_from_opening_order(beta: BraidWord, order) -> Weave:
    """The Demazure weave from beta Delta to Delta realizing the given
    opening order (1-based crossing indices of beta).

    For each crossing in order: the half-twist block is moved leftwards to
    abut the crossing (braid moves only), rewritten to start with the
    crossing's letter, a trivalent vertex is applied, and the block is moved
    back to the right end.
    """
    n = beta.n
    order = check_opening_order(beta, order)
    delta = half_twist_letters(n)
    rdelta = delta[::-1]
    m = len(delta)
    word = append_half_twist(beta)
    letters = list(word.letters)
    remaining = list(range(1, len(beta) + 1))
    events: list[WeaveEvent] = []

    def apply_events(evs):
        nonlocal letters
        cur = tuple(letters)
        for ev in evs:
            cur = _apply_event(cur, ev)
        letters = list(cur)
        events.extend(evs)

    def apply_path(path, pos):
        apply_events(_moves_to_events(path, pos))

    for r in order:
        p = remaining.index(r)
        d = len(remaining)  # block currently at [d, d+m)
        # move the block left, one letter at a time
        for q in range(d - 1, p, -1):
            apply_path(_through_half_twist(letters[q], delta, n), q)
        # block now at [p+1, p+1+m); rewrite it to start with the crossing letter
        apply_path(_mirror(_to_suffix(rdelta, letters[p])[0], m), p + 1)
        apply_events([WeaveEvent("three", p)])
        # block now at [p, p+m); rewrite back to the fixed half-twist word
        apply_path(_reduced_path(tuple(letters[p : p + m]), delta), p)
        # move the block right, back to the end
        remaining.remove(r)
        for q in range(p, len(remaining)):
            apply_path(_mirror(_through_half_twist(letters[q + m], rdelta, n), m + 1), q)
    if tuple(letters) != tuple(delta):
        raise PatternMismatch(f"opening left {tuple(letters)}, not the half twist")
    w = Weave(n, word, tuple(events), opened_crossings=tuple(order))
    validate(w)
    return w


def demazure_weave_events(letters: tuple[int, ...], target: tuple[int, ...], n: int):
    """Events of a Demazure weave from ``letters`` to the reduced word
    ``target`` (greedy: contract doubled letters until reduced, then braid
    moves to the target)."""
    events: list[WeaveEvent] = []
    cur = tuple(letters)
    while (found := find_doubled_letter(cur, n)) is not None:
        path, word, p = found
        events.extend(_moves_to_events(path, 0))
        cur = word[:p] + word[p + 1 :]
        events.append(WeaveEvent("three", p))
    return events + _moves_to_events(_reduced_path(cur, tuple(target)), 0)


# ---------------------------------------------------------------------------
# triangulations


@dataclass(frozen=True)
class Triangulation:
    """A triangulation of the polygon whose sides spell beta Delta (clockwise)
    plus one base side labeled w0; diagonals carry Demazure-product labels."""

    n: int
    letters: tuple[int, ...]  # the letters of beta Delta, sides 1..N
    diagonals: frozenset  # pairs (a, b), 0 <= a < b <= N, b - a >= 2, not the base

    @property
    def size(self) -> int:
        return len(self.letters)

    def label(self, a: int, b: int):
        return demazure_letters(self.n, self.letters[a:b])

    def edges(self):
        N = self.size
        sides = {(k, k + 1) for k in range(N)}
        return sides | {(0, N)} | set(self.diagonals)

    def triangles(self):
        """All triangles (a, c, b) with a < c < b and all three edges present."""
        edges = self.edges()
        out = []
        for a, b in sorted(edges):
            if b - a < 2:
                continue
            for c in range(a + 1, b):
                if (a, c) in edges and (c, b) in edges:
                    out.append((a, c, b))
        # keep only genuine triangle faces: (a,c,b) with no vertex of the
        # triangulation strictly inside the fan -- for polygon triangulations
        # the edge test above already characterizes faces
        return out

    def validate(self):
        N = self.size
        if len(self.diagonals) != max(0, N - 2):
            raise InvalidLabels(
                f"{len(self.diagonals)} diagonals; a triangulation needs {max(0, N - 2)}"
            )
        for a, b in self.diagonals:
            if not (0 <= a < b <= N) or b - a < 2 or (a, b) == (0, N):
                raise InvalidLabels(f"bad diagonal {(a, b)}")
        # non-crossing
        di = sorted(self.diagonals)
        for x in range(len(di)):
            for y in range(x + 1, len(di)):
                (a, b), (c, d) = di[x], di[y]
                if a < c < b < d or c < a < d < b:
                    raise InvalidLabels(f"diagonals {di[x]} and {di[y]} cross")
        return True

    def defect(self, triangle) -> int:
        a, c, b = triangle
        u, v = self.label(a, c), self.label(c, b)
        w = self.label(a, b)
        return perm_length(u) + perm_length(v) - perm_length(w)

    def total_defect(self) -> int:
        return sum(self.defect(t) for t in self.triangles())


def check_demazure_triangle(n: int, u, v, w) -> bool:
    """A labeled triangle is valid when the third side is the 0-Hecke product
    of the other two."""
    return demazure_letters(n, reduced_word(v), u) == w


def triangulation_for(beta: BraidWord, diagonals) -> Triangulation:
    bd = append_half_twist(beta)
    tri = Triangulation(beta.n, bd.letters, frozenset(diagonals))
    tri.validate()
    return tri


def fan_triangulation(beta: BraidWord) -> Triangulation:
    """Fan from the last polygon vertex; for 2-strand words its weave is the
    right-comb tree."""
    N = len(beta) + beta.n * (beta.n - 1) // 2
    diagonals = {(k, N) for k in range(1, N - 1)}
    return triangulation_for(beta, diagonals)


def random_triangulation(beta: BraidWord, rng: random.Random) -> Triangulation:
    N = len(beta) + beta.n * (beta.n - 1) // 2
    diagonals = set()

    def split(a, b):
        if b - a < 2:
            return
        c = rng.randrange(a + 1, b)
        for e in ((a, c), (c, b)):
            if e[1] - e[0] >= 2 and e != (0, N):
                diagonals.add(e)
        split(a, c)
        split(c, b)

    split(0, N)
    return triangulation_for(beta, diagonals)


def weave_from_triangulation(tri: Triangulation, beta: BraidWord) -> Weave:
    """Demazure weave from beta Delta to Delta determined by the labeled
    triangulation; its trivalent vertices count the total defect = l(beta)."""
    tri.validate()
    n = tri.n
    edges = tri.edges()

    def build(a, b):
        """Events from the subword letters[a:b] down to the canonical reduced
        word of its label; returns (events, reduced_letters)."""
        if b - a == 1:
            return [], (tri.letters[a],)
        c = next(c for c in range(a + 1, b) if (a, c) in edges and (c, b) in edges)
        ev_left, w_left = build(a, c)
        ev_right, w_right = build(c, b)
        u, v = tri.label(a, c), tri.label(c, b)
        if not check_demazure_triangle(n, u, v, tri.label(a, b)):
            raise InvalidLabels(f"triangle ({a},{c},{b}) violates the product rule")
        events = list(ev_left)
        offset = len(w_left)
        events += [replace(ev, pos=ev.pos + offset) for ev in ev_right]
        word = w_left + w_right
        tgt = tuple(reduced_word(tri.label(a, b)))
        events += demazure_weave_events(tuple(word), tgt, n)
        return events, tgt

    events, bottom = build(0, tri.size)
    # finish with braid moves to the fixed half-twist word
    events += _moves_to_events(_reduced_path(tuple(bottom), half_twist_letters(n)), 0)
    bd = append_half_twist(beta)
    w = Weave(n, bd, tuple(events))
    validate(w)
    return w


# ---------------------------------------------------------------------------
# equivalence moves and mutation


def _event_span(ev: WeaveEvent):
    width = {"three": 2, "cup": 2, "six": 3, "four": 2, "cap": 0}[ev.kind]
    return ev.pos, ev.pos + width  # [start, end)


def _length_change(ev: WeaveEvent) -> int:
    return {"three": -1, "cup": -2, "six": 0, "four": 0, "cap": 2}[ev.kind]


def swap_adjacent_events(weave: Weave, k: int) -> Weave:
    """Swap events k and k+1 when they act on disjoint letter ranges
    (a planar isotopy changing vertex heights)."""
    e1, e2 = weave.events[k], weave.events[k + 1]
    s1, t1 = _event_span(e1)
    s2, t2 = _event_span(e2)
    d = _length_change(e1)
    if s2 >= t1 + d:  # e2 entirely right of e1 (positions in the middle slice)
        new1 = replace(e2, pos=e2.pos - d)
        new2 = e1
    elif t2 <= s1:  # e2 entirely left of e1
        new1 = e2
        new2 = replace(e1, pos=e1.pos + _length_change(e2))
    else:
        raise PatternMismatch("events overlap; not an isotopy")
    events = list(weave.events)
    events[k], events[k + 1] = new1, new2
    w = Weave(weave.n, weave.top, tuple(events), None)
    validate(w)
    return w


def canonicalize(weave: Weave) -> Weave:
    """Bubble independent adjacent events into position order so structurally
    equal weaves compare equal."""
    w = weave
    changed = True
    while changed:
        changed = False
        for k in range(len(w.events) - 1):
            e1, e2 = w.events[k], w.events[k + 1]
            s1, t1 = _event_span(e1)
            s2, t2 = _event_span(e2)
            if t2 <= s1:  # e2 is strictly left: put it first
                w = swap_adjacent_events(w, k)
                changed = True
    return w


_ZAM_LEFT = ((("four", 2), ("six", 0), ("six", 2), ("four", 1), ("four", 4), ("six", 2), ("six", 0)))
_ZAM_RIGHT = ((("six", 3), ("six", 1), ("four", 0), ("four", 3), ("six", 1), ("six", 3), ("four", 2)))


def apply_move(weave: Weave, move: str, k: int, pos: int = 0, kind: str = "six") -> Weave:
    """Apply a cataloged equivalence move at event index k.

    moves: "swap" (isotopy of adjacent independent events at k, k+1),
    "insert_cancel" (insert an inverse pair kind@pos before event k),
    "remove_cancel" (delete the inverse pair at k, k+1),
    "flip_1212" (exchange the two standard event paths below a 4-letter
    braid-relation window starting at pos),
    "flip_zam" (exchange the two standard event paths below a 6-letter
    Zamolodchikov window starting at pos).
    """
    events = list(weave.events)
    if move == "swap":
        return swap_adjacent_events(weave, k)
    if move == "insert_cancel":
        if kind not in ("six", "four"):
            raise PatternMismatch("only six/four pairs cancel")
        events[k:k] = [WeaveEvent(kind, pos), WeaveEvent(kind, pos)]
    elif move == "remove_cancel":
        e1, e2 = events[k], events[k + 1]
        if e1 != e2 or e1.kind not in ("six", "four"):
            raise PatternMismatch("events do not form an inverse pair")
        del events[k : k + 2]
    elif move == "flip_1212":
        pat_a = [("six", pos), ("three", pos + 2), ("six", pos)]
        pat_b = [("six", pos + 1), ("three", pos)]
        got3 = [(e.kind, e.pos) for e in events[k : k + 3]]
        got2 = [(e.kind, e.pos) for e in events[k : k + 2]]
        if got3 == pat_a:
            events[k : k + 3] = [WeaveEvent(kd, pp) for kd, pp in pat_b]
        elif got2 == pat_b:
            events[k : k + 2] = [WeaveEvent(kd, pp) for kd, pp in pat_a]
        else:
            raise PatternMismatch("no braid-relation path pattern here")
    elif move == "flip_zam":
        left = [(kd, pos + pp) for kd, pp in _ZAM_LEFT]
        right = [(kd, pos + pp) for kd, pp in _ZAM_RIGHT]
        got = [(e.kind, e.pos) for e in events[k : k + 7]]
        if got == left:
            events[k : k + 7] = [WeaveEvent(kd, pp) for kd, pp in right]
        elif got == right:
            events[k : k + 7] = [WeaveEvent(kd, pp) for kd, pp in left]
        else:
            raise PatternMismatch("no Zamolodchikov pattern here")
    else:
        raise PatternMismatch(f"unknown move {move!r}")
    out = Weave(weave.n, weave.top, tuple(events), None)
    validate(out)
    return out


def mutate(weave: Weave, k1: int, k2: int) -> Weave:
    """Mutation at a composable pair of trivalent vertices (event indices
    k1 < k2): (ss)s <-> s(ss).  Intervening independent events are bubbled
    out of the way first; raises PatternMismatch when the two vertices do not
    form the mutation pattern."""
    if weave.events[k1].kind != "three" or weave.events[k2].kind != "three":
        raise PatternMismatch("mutation needs two trivalent vertices")
    w = weave
    # bubble k2 down to k1 + 1
    j = k2
    while j > k1 + 1:
        try:
            w = swap_adjacent_events(w, j - 1)
        except PatternMismatch:
            raise PatternMismatch("vertices are not composable (blocked)")
        j -= 1
    e1, e2 = w.events[k1], w.events[k1 + 1]
    slices = w.slices()
    s = slices[k1]
    if e1.pos == e2.pos:
        p = e1.pos
        if not (p + 2 < len(s) + 1) or s[p] != s[p + 1]:
            raise PatternMismatch("no (ss)s pattern")
        if p + 2 >= len(s) or s[p + 2] != s[p]:
            raise PatternMismatch("no (ss)s pattern")
        new = [replace(e1, pos=p + 1), replace(e2, pos=p)]
    elif e1.pos == e2.pos + 1:
        p = e2.pos
        if p + 2 >= len(s) or not (s[p] == s[p + 1] == s[p + 2]):
            raise PatternMismatch("no s(ss) pattern")
        new = [replace(e1, pos=p), replace(e2, pos=p)]
    else:
        raise PatternMismatch("vertices do not share an edge")
    events = list(w.events)
    events[k1 : k1 + 2] = new
    out = Weave(w.n, w.top, tuple(events), None)
    validate(out)
    return out


def missing_crossing(weave: Weave) -> int:
    """For a Demazure weave with exactly one trivalent vertex: the 1-based
    top crossing not hit by the bottom-to-top crossing injection (6- and
    4-valent vertices are bijections, the trivalent vertex keeps its right
    strand).  Well defined only at one vertex; equivalent one-vertex weaves
    have the same missing crossing."""
    if not weave.is_demazure():
        raise PatternMismatch("missing crossing needs a Demazure weave")
    threes = [ev for ev in weave.events if ev.kind == "three"]
    if len(threes) != 1:
        raise PatternMismatch("missing crossing is only defined for one trivalent vertex")
    origins = list(range(1, len(weave.top) + 1))
    missing = None
    for ev in weave.events:
        p = ev.pos
        if ev.kind == "six":
            origins[p], origins[p + 2] = origins[p + 2], origins[p]
        elif ev.kind == "four":
            origins[p], origins[p + 1] = origins[p + 1], origins[p]
        elif ev.kind == "three":
            missing = origins[p]
            del origins[p]
    return missing


# ---------------------------------------------------------------------------
# mutation graph


@dataclass
class MutationGraph:
    beta: BraidWord
    vertices: list  # class representatives (Weave)
    edges: set  # pairs of vertex indices
    proxy: str

    def render(self) -> str:
        lines = [
            f"vertices: {len(self.vertices)}",
            f"edges: {len(self.edges)}",
            f"proxy: {self.proxy}",
        ]
        return "\n".join(lines)


def _tree_shape(weave: Weave):
    """Binary-tree shape of a 2-strand Demazure weave (nested merges)."""
    leaves = list(range(len(weave.top)))
    items = [("leaf", k) for k in leaves]
    for ev in weave.events:
        if ev.kind != "three":
            raise PatternMismatch("2-strand Demazure weave expected")
        p = ev.pos
        items[p : p + 2] = [("node", items[p], items[p + 1])]
    if len(items) != 1:
        raise PatternMismatch(f"weave ends in {len(items)} letters, not one")
    return items[0]


def _tree_rotations(shape):
    """All single (ss)s <-> s(ss) rotations of a binary tree shape."""
    out = []

    def rec(t, rebuild):
        if t[0] == "leaf":
            return
        _, left, right = t
        if left[0] == "node":  # (xy)z -> x(yz)
            _, a, b = left
            out.append(rebuild(("node", a, ("node", b, right))))
        if right[0] == "node":  # x(yz) -> (xy)z
            _, b, c = right
            out.append(rebuild(("node", ("node", left, b), c)))
        rec(left, lambda s: rebuild(("node", s, right)))
        rec(right, lambda s: rebuild(("node", left, s)))

    rec(shape, lambda s: s)
    return out


def all_orders(l: int):
    return itertools.permutations(range(1, l + 1))


def equivalence_orbit(weave: Weave, cap: int = 250):
    """Weaves reachable from this one by the cataloged equivalence moves
    (height isotopies, cancel-pair removals, braid-relation path flips), in
    breadth-first order, capped at ``cap`` weaves; it exposes mutation
    patterns hidden by block shuffles."""
    seen = {weave.render(): weave}
    queue = deque([weave])
    while queue and len(seen) < cap:
        cur = queue.popleft()
        candidates = []
        for k in range(len(cur.events) - 1):
            try:
                candidates.append(swap_adjacent_events(cur, k))
            except PatternMismatch:
                pass
            try:
                candidates.append(apply_move(cur, "remove_cancel", k))
            except PatternMismatch:
                pass
        # both flip patterns open with a six event: pattern b at pos + 1,
        # pattern a at pos
        for k, ev in enumerate(cur.events):
            if ev.kind != "six":
                continue
            for pos in (ev.pos - 1, ev.pos):
                if 0 <= pos < len(cur.top):
                    try:
                        candidates.append(apply_move(cur, "flip_1212", k, pos))
                    except PatternMismatch:
                        pass
        for nw in candidates:
            r = nw.render()
            if r not in seen:
                seen[r] = nw
                queue.append(nw)
    return list(seen.values())


# longest words whose mutation graphs are built: every opening order is tried
MUTATION_GRAPH_MAX_LEN_2 = 8  # two strands
MUTATION_GRAPH_MAX_LEN_3 = 5  # three or more strands


def mutation_graph(beta: BraidWord) -> MutationGraph:
    """Vertices: classes of Demazure weaves beta Delta -> Delta (class proxy:
    equality of the charts as subsets; for n = 2 this is the binary-tree
    shape).  Edges: single mutations, decided for n >= 3 by exact chart
    adjacency (the two tori differ in one exchange binomial)."""
    # lazy import; chart depends on weave
    from .chart import chart_parametrize, charts_adjacent, charts_equal_as_subsets

    n = beta.n
    l = len(beta)
    limit = MUTATION_GRAPH_MAX_LEN_2 if n == 2 else MUTATION_GRAPH_MAX_LEN_3
    if l > limit:
        raise BudgetExceeded(f"mutation graph bound exceeded for n={n}: l={l} letters, over the limit of {limit}")
    if n == 2:
        shapes = {}
        for order in all_orders(l):
            w = weave_from_opening_order(beta, order)
            shapes.setdefault(_tree_shape(w), w)
        index = {s: i for i, s in enumerate(shapes)}
        edges = set()
        for s in shapes:
            for s2 in _tree_rotations(s):
                if s2 in index:
                    edges.add(tuple(sorted((index[s], index[s2]))))
        return MutationGraph(beta, list(shapes.values()), edges, "binary-tree shape")

    class_charts: list = []
    class_weaves: list[Weave] = []
    for order in all_orders(l):
        w = weave_from_opening_order(beta, order)
        c = chart_parametrize(w)
        if not any(charts_equal_as_subsets(c, rep) for rep in class_charts):
            class_charts.append(c)
            class_weaves.append(w)
    edges = {
        (i, j)
        for i, j in itertools.combinations(range(len(class_charts)), 2)
        if charts_adjacent(class_charts[i], class_charts[j])
    }
    return MutationGraph(beta, class_weaves, edges, "chart-subset equality")


# ---------------------------------------------------------------------------
# DOT export


def export_dot(obj) -> str:
    """Deterministic DOT rendering of a weave (edges labeled by generator
    index) or of a mutation graph."""
    if isinstance(obj, MutationGraph):
        lines = ["graph mutation_graph {"]
        for i in range(len(obj.vertices)):
            lines.append(f'  v{i} [label="{i}"];')
        for a, b in sorted(obj.edges):
            lines.append(f"  v{a} -- v{b};")
        lines.append("}")
        return "\n".join(lines)
    weave: Weave = obj
    slices = weave.slices()
    lines = ["graph weave {"]
    # nodes: one per event, plus anchors for top and bottom edge endpoints
    for k, ev in enumerate(weave.events):
        lines.append(f'  e{k} [label="{ev.kind}@{ev.pos}"];')
    # track, per current slice position, the node the edge hangs from
    hang = [f"t{p}" for p in range(len(slices[0]))]
    for p in range(len(slices[0])):
        lines.append(f'  t{p} [shape=point, label=""];')
    edges = []
    for k, ev in enumerate(weave.events):
        p = ev.pos
        node = f"e{k}"
        s = slices[k]
        if ev.kind == "three":
            edges.append((hang[p], node, s[p]))
            edges.append((hang[p + 1], node, s[p + 1]))
            hang[p : p + 2] = [node]
        elif ev.kind == "cup":
            edges.append((hang[p], node, s[p]))
            edges.append((hang[p + 1], node, s[p + 1]))
            hang[p : p + 2] = []
        elif ev.kind == "six":
            for q in range(3):
                edges.append((hang[p + q], node, s[p + q]))
            hang[p : p + 3] = [node, node, node]
        elif ev.kind == "four":
            edges.append((hang[p], node, s[p]))
            edges.append((hang[p + 1], node, s[p + 1]))
            hang[p : p + 2] = [node, node]
        elif ev.kind == "cap":
            hang[p:p] = [node, node]
    for p, h in enumerate(hang):
        lines.append(f'  b{p} [shape=point, label=""];')
        edges.append((h, f"b{p}", slices[-1][p] if p < len(slices[-1]) else 0))
    for a, b, lab in edges:
        lines.append(f'  {a} -- {b} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines)
