"""Oracles for ``count.point_count_polynomial``, which counts strata in one
pass over prefix permutations: the paper's weave stratification
``count.stratify``, a tree of words with braid moves, folded here with one
dict from (a, b) to its multiplicity at every node."""
from functools import partial

import pytest

from braidweave import count
from braidweave.braid import append_half_twist
from move_search import doubled_letter


def dict_strata(tree):
    """Multiset of (a, b) = (cups, trivalent) over the live leaves below a
    ``StrataTree`` node, folded bottom-up with each shared node once."""
    below, todo = {tree}, [tree]
    while todo:
        node = todo.pop()
        if node.status == "branch":
            for child in (node.invert_child, node.vanish_child):
                if child not in below:
                    below.add(child)
                    todo.append(child)
    folded = {}
    # a child's word is shorter than its parent's
    for node in sorted(below, key=lambda node: len(node.letters)):
        out = {}
        if node.status == "leaf":
            out[(0, 0)] = 1
        elif node.status == "branch":
            for child, da, db in ((node.invert_child, 0, 1), (node.vanish_child, 1, 0)):
                for (a, b), mult in folded[child].items():
                    out[(a + da, b + db)] = out.get((a + da, b + db), 0) + mult
        folded[node] = out
    return folded[tree]


def tree_strata(beta):
    """The strata of X0(beta Delta; w0) from the tree of words."""
    return dict_strata(count.stratify(append_half_twist(beta)))


def search_strata(beta, rng):
    """``tree_strata(beta)`` with every doubled letter found by the shuffled
    breadth-first search of ``move_search``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(count, "find_doubled_letter", partial(doubled_letter, rng=rng))
        return tree_strata(beta)
