"""The chart passes with canonical ``RationalExpr`` arithmetic at every step:
the oracle for ``chart.chart_parametrize``, whose upward pass runs on bare
Laurent polynomials, and for ``chart.ldu_chart``, which restores on Laurent
polynomials and records its inverted values over the inverted bases.  The
slide, the vertex factors, the braid steps and ``solve_half_twist`` are the
package's own; only the arithmetic differs.
"""
from braidweave.braid import (
    PatternMismatch,
    append_half_twist,
    braid_move_in_place,
    check_opening_order,
    coxeter_letters,
    longest_perm,
    perm_length,
)
from braidweave.chart import (
    ChartMap,
    _opening_slides,
    cup_factor,
    propagate_down,
    slide_left,
    solve_half_twist,
    trivalent_factor,
)
from braidweave.ring import MatrixExpr, RationalExpr, var_id


def chart_parametrize(weave) -> ChartMap:
    if any(ev.kind == "cap" for ev in weave.events):
        raise PatternMismatch("charts require a simplifying weave (no caps)")
    slices = weave.slices()
    bottom = slices[-1]
    n = weave.n
    bp = coxeter_letters(n, bottom)
    if bp != longest_perm(n) or perm_length(bp) != len(bottom):
        raise PatternMismatch("chart parametrization needs a reduced w0 word at the bottom")

    three_idx = [k for k, ev in enumerate(weave.events) if ev.kind == "three"]
    cup_idx = [k for k, ev in enumerate(weave.events) if ev.kind == "cup"]
    if weave.opened_crossings is not None:
        unit_names = {k: f"s{c}" for k, c in zip(three_idx, weave.opened_crossings)}
    else:
        unit_names = {k: f"t{j + 1}" for j, k in enumerate(three_idx)}
    affine_names = {k: f"a{j + 1}" for j, k in enumerate(cup_idx)}

    zero = RationalExpr.const(0)
    letters = list(bottom)
    values = [zero] * len(letters)
    unit_params, affine_params = [], []
    for k in range(len(weave.events) - 1, -1, -1):
        ev = weave.events[k]
        p = ev.pos
        if ev.kind == "three":
            t = RationalExpr.variable(var_id(unit_names[k]))
            unit_params.append(var_id(unit_names[k]))
            factor = trivalent_factor(n, letters[p], t)
            _, values[:p] = slide_left(factor, letters[:p], values[:p], back=True)
            values[p : p + 1] = [t, values[p] - t.inverse()]
            letters[p : p + 1] = [letters[p], letters[p]]
        elif ev.kind == "cup":
            letter = slices[k][p]
            a = RationalExpr.variable(var_id(affine_names[k]))
            affine_params.append(var_id(affine_names[k]))
            factor = cup_factor(n, letter, a)
            _, values[:p] = slide_left(factor, letters[:p], values[:p], back=True)
            values[p:p] = [zero, a]
            letters[p:p] = [letter, letter]
        else:
            braid_move_in_place(letters, values, p, ev.kind)
    if tuple(letters) != weave.top.letters:
        raise PatternMismatch("upward pass did not restore the top word")
    unit_params.reverse()
    affine_params.reverse()
    prop = propagate_down(weave)
    return ChartMap(
        top=weave.top,
        unit_params=unit_params,
        affine_params=affine_params,
        subs=dict(zip(weave.top.variables, values)),
        inverted=prop.inverted,
        vanishing=prop.vanishing,
        opened_crossings=list(weave.opened_crossings)
        if weave.opened_crossings is not None
        else None,
    )


def ldu_chart(beta, order) -> ChartMap:
    n = beta.n
    order = check_opening_order(beta, order)
    letters, crossings, values = [], [], []
    lower = MatrixExpr.identity(n)
    for r in reversed(order):
        t = RationalExpr.variable(var_id(f"s{r}"))
        p = sum(1 for c in crossings if c < r)
        i = beta.letters[r - 1]
        values, low = _opening_slides(n, i, t, letters, values, p, back=True)
        lower = lower * low
        letters.insert(p, i)
        crossings.insert(p, r)
        values.insert(p, t)
    if letters != list(beta.letters):
        raise PatternMismatch("restored letters differ from beta")
    bd = append_half_twist(beta)
    subs = dict(zip(beta.variables, values))
    subs.update(zip(bd.variables[len(beta) :], solve_half_twist(lower)))

    values = beta.var_exprs()
    inverted = []
    for r in order:
        p = crossings.index(r)
        del crossings[p], letters[p]
        t = values.pop(p)
        inverted.append(t)
        values, _ = _opening_slides(n, beta.letters[r - 1], t, letters, values, p)
    return ChartMap(
        top=bd,
        unit_params=[var_id(f"s{r}") for r in order],
        affine_params=[],
        subs=subs,
        inverted=inverted,
        vanishing=[],
        opened_crossings=list(order),
    )
