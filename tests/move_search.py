"""Breadth-first braid-move searches: oracles for the closed-form paths in
``braidweave.weave``.  They share no code with braidweave: moves, their
patterns and reducedness are written out again here.

A path is a list of (pos, kind) moves, kind ``six`` (i, j, i with |i-j| = 1)
or ``four`` (i, j with |i-j| >= 2), the weave events of the same names.
"""
from collections import deque


def moves(word):
    """Every (pos, kind, word after the move) of a letter tuple."""
    out = []
    for p in range(len(word) - 2):
        a, b, c = word[p : p + 3]
        if a == c and abs(a - b) == 1:
            out.append((p, "six", word[:p] + (b, a, b) + word[p + 3 :]))
    for p in range(len(word) - 1):
        a, b = word[p : p + 2]
        if abs(a - b) >= 2:
            out.append((p, "four", word[:p] + (b, a) + word[p + 2 :]))
    return out


def apply_path(word, path):
    """The word after the path; raises ValueError at a move whose pattern is
    not there."""
    for pos, kind in path:
        found = [w for p, k, w in moves(word) if (p, k) == (pos, kind)]
        if not found:
            raise ValueError(f"no {kind} at {pos} in {word}")
        word = found[0]
    return word


def shortest_path(src, done, rng=None):
    """(path, word) for a shortest path from src to a word with done(word);
    None if there is none.  With rng, each word's moves are tried in a
    shuffled order."""
    seen = {src: None}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        if done(cur):
            path, node = [], cur
            while seen[node] is not None:
                node, move = seen[node]
                path.append(move)
            return path[::-1], cur
        options = moves(cur)
        if rng is not None:
            rng.shuffle(options)
        for p, k, nxt in options:
            if nxt not in seen:
                seen[nxt] = (cur, (p, k))
                queue.append(nxt)
    return None


def is_reduced(word, n):
    perm = list(range(n))
    for i in word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
    return inversions == len(word)


def double_at(word):
    return next((p for p in range(len(word) - 1) if word[p] == word[p + 1]), None)


def doubled_letter(letters, n, rng=None):
    """The breadth-first find_doubled_letter: (path, word, position of the
    double) at the nearest word with a doubled letter, or None for a reduced
    word."""
    if is_reduced(letters, n):
        return None
    path, word = shortest_path(tuple(letters), lambda w: double_at(w) is not None, rng)
    return path, word, double_at(word)

