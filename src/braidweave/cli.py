"""Command-line front end.

Subcommands: matrix, variety, demazure, weights, weave, chart, mellit, form,
count, cluster, mutation-graph.  All output is plain deterministic text in
the canonical renderings; DOT files are written on request.  Exit codes:
0 success, 1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import braid, chart, cluster, count, form, ring, torus, variety, weave


def _parse_order(text: str):
    return [braid.parse_int(t, "crossing index") for t in text.replace(",", " ").split()]


def _parse_pi(text: str, n: int):
    if text == "w0":
        return braid.longest_perm(n)
    if text == "id":
        return braid.identity_perm(n)
    p = braid.parse_perm(text)
    if len(p) != n:
        raise braid.BraidError(f"permutation {text!r} does not have {n} entries")
    return p


def cmd_matrix(args, out):
    word = braid.parse_braid(args.braid)
    out.write(braid.braid_matrix(word).render() + "\n")


def cmd_variety(args, out):
    word = braid.parse_braid(args.braid)
    pres = variety.variety_equations(word, _parse_pi(args.pi, word.n))
    text = pres.render()
    out.write((text + "\n") if text else "")


def cmd_demazure(args, out):
    word = braid.parse_braid(args.braid)
    out.write(braid.render_perm(braid.demazure_product(word)) + "\n")


def cmd_weights(args, out):
    word = braid.parse_braid(args.braid)
    wa = torus.action_weights(word, args.side)
    for v in word.variables:
        vec = ",".join(str(x) for x in wa[v])
        out.write(f"{ring.var_name(v)} : ({vec})\n")


def cmd_weave(args, out):
    with open(args.weave) as fh:
        w = weave.parse_weave(fh.read())
    slices = weave.validate(w)
    for s in slices:
        out.write(" ".join(str(i) for i in s) + "\n")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(weave.export_dot(w) + "\n")
        out.write(f"dot written: {args.dot}\n")


def cmd_chart(args, out):
    if not args.mellit and args.order is None:
        print("error: chart needs --order or --mellit", file=sys.stderr)
        raise SystemExit(2)
    if args.mellit and args.order is not None:
        print("error: chart takes --order or --mellit, not both", file=sys.stderr)
        raise SystemExit(2)
    beta = braid.parse_braid(args.braid)
    order = chart.mellit_order(beta) if args.mellit else _parse_order(args.order)
    out.write(chart.ldu_chart(beta, order).render() + "\n")


def cmd_mellit(args, out):
    beta = braid.parse_braid(args.braid)
    out.write(" ".join(str(r) for r in chart.mellit_order(beta)) + "\n")


def cmd_form(args, out):
    beta = braid.parse_braid(args.braid)
    order = list(range(1, len(beta) + 1)) if args.order is None else _parse_order(args.order)
    m = form.chart_form_matrix(beta, order)
    out.write(m.render() + "\n")


def _integer_root(q: int, k: int) -> int:
    """The largest r with r**k <= q, for q >= 1 (Newton's method from above)."""
    r = 1 << -(-q.bit_length() // k)
    while (s := ((k - 1) * r + q // r ** (k - 1)) // k) < r:
        r = s
    return r


def _is_prime_power(q: int) -> bool:
    """Whether q = p^k for a prime p: each exact integer root of q is put
    to a Miller-Rabin test with the first 13 primes as bases.  That test is
    exact below 3 317 044 064 679 887 385 961 981 (Sorenson and Webster,
    Math. Comp. 2017); a larger q is refused."""
    bound = 3317044064679887385961981
    if q >= bound:
        raise weave.BudgetExceeded(f"--q {q} is over the bound {bound} of the prime-power test")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

    def is_prime(p):
        if any(p % a == 0 for a in bases):
            return p in bases
        d, s = p - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in bases:
            x = pow(a, d, p)
            if x == 1:
                continue
            for _ in range(s):  # x runs through a^(d 2^j), j < s
                if x == p - 1:
                    break
                x = x * x % p
            else:
                return False
        return True

    if q < 2:
        return False
    for k in range(1, q.bit_length()):
        p = _integer_root(q, k)
        if p ** k == q and is_prime(p):
            return True
    return False


def cmd_count(args, out):
    beta = braid.parse_braid(args.braid)
    if args.q is not None and not _is_prime_power(args.q):
        print(f"error: --q {args.q} is not a prime power", file=sys.stderr)
        raise SystemExit(1)
    poly = count.point_count_polynomial(beta)
    line = f"polynomial: {poly.render()}"
    if args.q is not None:
        line += f"; q={args.q}: {poly.eval(args.q)}"
    out.write(line + "\n")
    if args.strata:
        for (a, b), mult in sorted(poly.strata.items()):
            out.write(f"stratum a={a} b={b} count={mult}\n")


def cmd_cluster(args, out):
    beta = braid.parse_braid(args.braid)
    order = list(range(1, len(beta) + 1)) if args.order is None else _parse_order(args.order)
    coords = cluster.a_coordinates(beta, order)
    for k, (mono, val, label) in enumerate(coords, start=1):
        ms = "*".join(
            (f"s{r}" if e == 1 else f"s{r}^{e}") for r, e in sorted(mono.items())
        )
        line = f"gamma_{k} = {ms} = {val.render()}"
        if label:
            line += f" = {label}"
        out.write(line + "\n")
    if args.dot:
        basis = cluster.i_cycle_basis(beta, order)
        with open(args.dot, "w") as fh:
            fh.write(cluster.quiver_dot(basis.intersections) + "\n")
        out.write(f"dot written: {args.dot}\n")


def cmd_mutation_graph(args, out):
    beta = braid.parse_braid(args.braid)
    graph = chart.mutation_graph(beta)
    out.write(graph.render() + "\n")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(graph.dot() + "\n")
        out.write(f"dot written: {args.dot}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every invocation shares it."""
    p = argparse.ArgumentParser(
        prog="braidweave",
        description="Exact computations with braid varieties and weave diagrams",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        sp = sub.add_parser(name)
        for flag, kw in flags.items():
            sp.add_argument(flag, **kw)
        sp.set_defaults(fn=fn)
        return sp

    add("matrix", cmd_matrix, **{"--braid": dict(required=True)})
    add(
        "variety",
        cmd_variety,
        **{"--braid": dict(required=True), "--pi": dict(default="id")},
    )
    add("demazure", cmd_demazure, **{"--braid": dict(required=True)})
    add(
        "weights",
        cmd_weights,
        **{"--braid": dict(required=True), "--side": dict(default="left", choices=["left", "right"])},
    )
    add(
        "weave",
        cmd_weave,
        **{"--weave": dict(required=True), "--dot": dict(default=None)},
    )
    add(
        "chart",
        cmd_chart,
        **{
            "--braid": dict(required=True),
            "--order": dict(default=None),
            "--mellit": dict(action="store_true"),
        },
    )
    add("mellit", cmd_mellit, **{"--braid": dict(required=True)})
    add(
        "form",
        cmd_form,
        **{"--braid": dict(required=True), "--order": dict(default=None)},
    )
    add(
        "count",
        cmd_count,
        **{
            "--braid": dict(required=True),
            "--q": dict(type=int, default=None),
            "--strata": dict(action="store_true"),
        },
    )
    add(
        "cluster",
        cmd_cluster,
        **{
            "--braid": dict(required=True),
            "--order": dict(default=None),
            "--dot": dict(default=None),
        },
    )
    add(
        "mutation-graph",
        cmd_mutation_graph,
        **{"--braid": dict(required=True), "--dot": dict(default=None)},
    )
    return p


# every exception braidweave raises on bad input derives from ring.DomainError
DOMAIN_ERRORS = (ring.DomainError, OSError)


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.fn(args, out)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run(argv, out=None) -> int:
    """Programmatic entry point: route one invocation, returning the exit
    code (0 success, 1 domain error, 2 usage error)."""
    return main(argv, out=out)


if __name__ == "__main__":
    sys.exit(main())
