"""Downward propagation with canonical ``RationalExpr`` arithmetic at every
step: the oracle for ``chart.propagate_down``, which keeps its values over
the cores of the inverted values instead and canonicalises only what is
read.  The slide, the vertex factors and the braid steps are the package's
own; only the arithmetic differs, so every gcd the old pass ran runs here.
"""
from dataclasses import dataclass

from braidweave.braid import BraidWord, PatternMismatch, braid_move_in_place
from braidweave.chart import _dense, cup_factor, slide_left, trivalent_factor
from braidweave.ring import MatrixExpr, RationalExpr, var_id


@dataclass
class Propagation:
    bottom: BraidWord
    values: list[RationalExpr]
    inverted: list[RationalExpr]
    vanishing: list[RationalExpr]
    factors: list[MatrixExpr]

    @property
    def left_matrix(self) -> MatrixExpr:
        one, zero = RationalExpr.const(1), RationalExpr.const(0)
        u = MatrixExpr.identity(self.bottom.n)
        for factor in self.factors:
            u = u * _dense(factor, one, zero)
        return u


def propagate_down(weave) -> Propagation:
    if any(ev.kind == "cap" for ev in weave.events):
        raise PatternMismatch("propagation requires a simplifying weave (no caps)")
    n = weave.n
    letters = list(weave.top.letters)
    values = weave.top.var_exprs()
    inverted, vanishing, factors = [], [], []
    for ev in weave.events:
        p = ev.pos
        if ev.kind == "three":
            a, b = values[p], values[p + 1]
            if a.is_zero():
                raise PatternMismatch("trivalent vertex with identically zero input")
            inverted.append(a)
            factor = trivalent_factor(n, letters[p], a)
            factor, values[:p] = slide_left(factor, letters[:p], values[:p])
            values[p : p + 2] = [b + a.inverse()]
            del letters[p + 1]
            factors.append(factor)
        elif ev.kind == "cup":
            a, b = values[p], values[p + 1]
            vanishing.append(a)
            factor = cup_factor(n, letters[p], b)
            factor, values[:p] = slide_left(factor, letters[:p], values[:p])
            del values[p : p + 2]
            del letters[p : p + 2]
            factors.append(factor)
        else:
            braid_move_in_place(letters, values, p, ev.kind)
    bottom_ids = tuple(var_id(f"_b{k + 1}") for k in range(len(letters)))
    bottom = BraidWord(n, tuple(letters), bottom_ids)
    return Propagation(bottom, values, inverted, vanishing, factors)
