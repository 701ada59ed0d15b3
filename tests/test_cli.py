"""Command-line interface: outputs, formats, exit codes."""
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import braidweave
from braidweave.cli import main
from braidweave.weave import parse_weave


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_demazure():
    code, text = run(["demazure", "--braid", "B3: 1 2 1 2"])
    assert code == 0 and text == "[3 2 1]\n"


def test_variety_trefoil():
    code, text = run(["variety", "--braid", "B2: 1 1 1 1 1", "--pi", "id"])
    assert code == 0
    assert "1 + z1*z2 + z1*z4 + z3*z4 + z1*z2*z3*z4" in text


def test_variety_w0_and_perm():
    code, text = run(["variety", "--braid", "B2: 1 1 1 1", "--pi", "w0"])
    assert code == 0 and "1 + z1*z2" in text
    code, text2 = run(["variety", "--braid", "B2: 1 1 1 1", "--pi", "[2 1]"])
    assert code == 0 and text2 == text


def test_matrix():
    code, text = run(["matrix", "--braid", "B2: 1"])
    assert code == 0 and text == "[0, 1]\n[1, z1]\n"


def test_weights():
    code, text = run(["weights", "--braid", "B2: 1 1"])
    assert code == 0
    assert text.splitlines() == ["z1 : (-1,1)", "z2 : (1,-1)"]
    code, text = run(["weights", "--braid", "B2: 1 1", "--side", "right"])
    assert code == 0
    assert text.splitlines() == ["z1 : (-1,1)", "z2 : (1,-1)"]


def test_count_output():
    code, text = run(["count", "--braid", "B2: 1 1 1", "--q", "2"])
    assert code == 0
    assert text == "polynomial: (q-1)^3 + 2q(q-1); q=2: 5\n"
    code, text = run(["count", "--braid", "B2: 1 1 1", "--strata"])
    assert "stratum a=0 b=3 count=1" in text and "stratum a=1 b=1 count=2" in text


def test_count_q_must_be_a_prime_power(capsys):
    for q in ("6", "0", "-3", "1"):
        code, text = run(["count", "--braid", "B2: 1 1 1", "--q", q])
        err = capsys.readouterr().err
        assert code == 1 and text == "", q
        assert err == f"error: --q {q} is not a prime power\n"
    code, text = run(["count", "--braid", "B2: 1 1 1", "--q", "4"])
    assert code == 0
    assert text == "polynomial: (q-1)^3 + 2q(q-1); q=4: 51\n"


def test_count_q_check_is_bounded(capsys):
    # large q: a Mersenne prime, the square of one, and a product of two
    # primes near 10^9, each far beyond trial division; past the bound of
    # the Miller-Rabin test, q is refused
    for q, ok in ((2**61 - 1, True), ((2**31 - 1) ** 2, True), ((10**9 + 7) * (10**9 + 9), False)):
        code, text = run(["count", "--braid", "B2: 1", "--q", str(q)])
        err = capsys.readouterr().err
        if ok:
            assert (code, text, err) == (0, f"polynomial: (q-1); q={q}: {q - 1}\n", "")
        else:
            assert (code, text, err) == (1, "", f"error: --q {q} is not a prime power\n")
    bound = 3317044064679887385961981
    code, text = run(["count", "--braid", "B2: 1", "--q", str(bound)])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == f"error: --q {bound} is over the bound {bound} of the prime-power test\n"


def test_mellit_and_chart():
    code, text = run(["mellit", "--braid", "B3: 1 2 1"])
    assert code == 0 and text == "3 1 2\n"
    code, text = run(["chart", "--braid", "B2: 1", "--order", "1"])
    assert code == 0
    assert "z1 = s1" in text and "z2 = -s1^-1" in text and "invert: z1" in text
    code, text2 = run(["chart", "--braid", "B2: 1", "--mellit"])
    assert code == 0 and text2 == text


def test_form():
    code, text = run(["form", "--braid", "B2: 1 1 1"])
    assert code == 0 and text.strip().endswith("rank: 2")


def test_cluster():
    code, text = run(
        ["cluster", "--braid", "B2: 1 1 1 1 1 1 1", "--order", "7 1 4 3 2 6 5"]
    )
    assert code == 0
    assert "= P36" in text and "= P79" in text


def test_mutation_graph():
    code, text = run(["mutation-graph", "--braid", "B2: 1 1 1"])
    assert code == 0
    assert "vertices: 5" in text and "edges: 5" in text and "proxy:" in text


def test_mutation_graph_pentagon_dot(tmp_path):
    dot = tmp_path / "g.dot"
    code, text = run(["mutation-graph", "--braid", "B4: 2 2 2", "--dot", str(dot)])
    assert code == 0
    assert text.splitlines()[:3] == ["vertices: 5", "edges: 5", "proxy: chart-subset equality"]
    assert dot.read_text() == (
        "graph mutation_graph {\n"
        '  v0 [label="0"];\n'
        '  v1 [label="1"];\n'
        '  v2 [label="2"];\n'
        '  v3 [label="3"];\n'
        '  v4 [label="4"];\n'
        "  v0 -- v1;\n"
        "  v0 -- v2;\n"
        "  v1 -- v4;\n"
        "  v2 -- v3;\n"
        "  v3 -- v4;\n"
        "}\n"
    )


def test_mutation_graph_three_strand_associahedron():
    code, text = run(["mutation-graph", "--braid", "B3: 1 1 1 1"])
    assert code == 0
    assert text.splitlines()[:2] == ["vertices: 14", "edges: 21"]


def test_weave_file_round_trip(tmp_path):
    source = "weave n=3 top=1 2 1\nsix 0\n"
    path = tmp_path / "w.weave"
    path.write_text(source)
    dot = tmp_path / "w.dot"
    code, text = run(["weave", "--weave", str(path), "--dot", str(dot)])
    assert code == 0
    assert text.splitlines()[:2] == ["1 2 1", "2 1 2"]
    assert dot.read_text().startswith("graph weave {")
    # rendering parses back to an equal weave
    w = parse_weave(source)
    assert parse_weave(w.render()).events == w.events


def test_usage_and_domain_errors(capsys):
    code, _ = run(["nonsense"])
    assert code == 2
    code, _ = run(["variety"])
    assert code == 2
    code, _ = run(["variety", "--braid", "B3: 9"])
    assert code == 1
    code, _ = run(["count", "--braid", "B2: 1 1 1", "--seed", "1"])
    assert code == 2
    capsys.readouterr()
    code, _ = run(["chart", "--braid", "B2: 1 1"])  # neither order nor mellit
    assert code == 2
    assert capsys.readouterr().err == "error: chart needs --order or --mellit\n"
    # both: the order is refused, not dropped, whether it is valid or not
    for order in ("1 2", "1 2 3 4"):
        code, text = run(["chart", "--braid", "B3: 1 2 1 2", "--order", order, "--mellit"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: chart takes --order or --mellit, not both\n"


def test_invalid_orders_are_one_error_line(capsys):
    # a repeated index, a short order, index 0 and an index past the end
    argvs = [
        ["chart", "--braid", "B3: 1 2 1 2", "--order", order]
        for order in ("1 1 2", "1 2", "0 1 2 3", "1 2 3 5")
    ]
    argvs.append(["cluster", "--braid", "B2: 1 1 1", "--order", "1 1 2"])
    for argv in argvs:
        code, text = run(argv)
        assert (code, text) == (1, ""), argv
        err = capsys.readouterr().err
        assert err == "error: order must be a permutation of the crossing indices\n", argv


def test_empty_order_on_a_nonempty_word_is_refused_by_chart(capsys):
    # an empty --order is given, not absent: it is checked as an order
    code, text = run(["chart", "--braid", "B2: 1 1", "--order", ""])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == "error: order must be a permutation of the crossing indices\n"


def test_empty_order_on_a_nonempty_word_is_refused_by_form(capsys):
    # before, form read an empty --order as absent and printed the identity
    # order's matrix
    code, text = run(["form", "--braid", "B2: 1 1", "--order", ""])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == "error: order must be a permutation of the crossing indices\n"


def test_empty_order_on_a_nonempty_word_is_refused_by_cluster(capsys):
    code, text = run(["cluster", "--braid", "B2: 1 1", "--order", ""])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == "error: order must be a permutation of the crossing indices\n"


def test_empty_order_charts_the_empty_word(capsys):
    code, text = run(["chart", "--braid", "B2:", "--order", ""])
    assert (code, text) == (0, "z1 = 0\n")
    assert capsys.readouterr().err == ""


def test_cluster_checks_the_order_before_the_strand_count(capsys):
    code, text = run(["cluster", "--braid", "B3: 1 2 1 2"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == "error: 2-strand Demazure weave required\n"
    code, text = run(["cluster", "--braid", "B3: 1 2 1 2", "--order", "1 1 2"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == "error: order must be a permutation of the crossing indices\n"


def test_bad_input_is_one_error_line(capsys, tmp_path):
    weave_files = []
    bodies = (
        "weave n=x top=1\n",
        "",
        "weave n=2 top=1 1\nsix\n",
        "weave n=2 top=1 1\nthree -1\n",
        "weave n=3 top=1\ncap 0 9\n",
    )
    for k, body in enumerate(bodies):
        path = tmp_path / f"bad{k}.weave"
        path.write_text(body)
        weave_files.append(["weave", "--weave", str(path)])
    for argv in (
        *weave_files,
        ["demazure", "--braid", "B2: x"],
        ["demazure", "--braid", "Bx: 1"],
        ["demazure", "--braid", "B0:"],
        ["form", "--braid", "B2: 1 1", "--order", "3 1"],
        ["chart", "--braid", "B2: 1 1", "--order", "1 x"],
        ["variety", "--braid", "B2: 1", "--pi", "[2 y]"],
        ["variety", "--braid", "B2: 1", "--pi", "[1 2 3]"],
    ):
        code, text = run(argv)
        err = capsys.readouterr().err
        assert code == 1 and text == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


def test_malformed_braid_moves_name_the_event(capsys, tmp_path):
    # six past the end, six without the pattern, four past the end, four on
    # adjacent letters: each fails at event 1, after a move that does fit
    cases = (
        ("weave n=3 top=1 2 1\nsix 0\nsix 1\n", "event 1: six needs three letters"),
        ("weave n=4 top=1 3 2 2\nfour 0\nsix 1\n", "event 1: no braid pattern at 1"),
        ("weave n=4 top=1 3\nfour 0\nfour 1\n", "event 1: four needs two letters"),
        ("weave n=3 top=1 2 1\nsix 0\nfour 1\n", "event 1: letters 1,2 do not commute"),
    )
    for k, (body, message) in enumerate(cases):
        path = tmp_path / f"move{k}.weave"
        path.write_text(body)
        code, text = run(["weave", "--weave", str(path)])
        assert (code, text) == (1, ""), body
        assert capsys.readouterr().err == f"error: {message}\n", body


def test_every_exception_class_is_a_domain_error():
    # the CLI catches ring.DomainError, so an exception class that does not
    # derive from it would escape as a traceback
    import importlib
    import inspect
    import pkgutil

    from braidweave import cli, ring

    assert cli.DOMAIN_ERRORS == (ring.DomainError, OSError)
    found = []
    for info in pkgutil.iter_modules(braidweave.__path__):
        module = importlib.import_module(f"braidweave.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == module.__name__:
                found.append(name)
                assert issubclass(obj, ring.DomainError), f"{module.__name__}.{name}"
    assert {"PatternMismatch", "RingError", "BudgetExceeded", "NotTwoStrand"} <= set(found)


def test_braid_format_round_trip():
    from braidweave.braid import parse_braid

    w = parse_braid("B3: 1 2 1")
    assert parse_braid(w.render()).letters == w.letters


def test_budget_errors_name_the_count_and_the_limit(capsys):
    # one-letter words on six and seven strands reach a doubled letter
    # without any search, so they count without a budget
    for text in ("B6: 5", "B7: 3"):
        code, out = run(["count", "--braid", text])
        assert code == 0 and out == "polynomial: (q-1)\n", text
    code, text = run(["mutation-graph", "--braid", "B2: 1 1 1 1 1 1 1 1 1"])
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert err == "error: mutation graph bound exceeded for n=2: l=9 letters, over the limit of 8\n"


def test_seven_strand_mellit_chart():
    code, text = run(["chart", "--braid", "B7: 1 2 3", "--mellit"])
    assert code == 0
    assert text.splitlines()[-3:] == ["invert: z1", "invert: z2", "invert: z3"]


GOLDEN = Path(__file__).parent / "golden" / "cli.txt"

# the README commands (except ``weave``, which needs an input file) and a few
# longer words; DOT paths are relative, so they land in the run's directory
GOLDEN_COMMANDS = [
    ["matrix", "--braid", "B2: 1"],
    ["variety", "--braid", "B2: 1 1 1 1 1", "--pi", "id"],
    ["demazure", "--braid", "B3: 1 2 1 2"],
    ["weights", "--braid", "B2: 1 1 1 1"],
    ["mellit", "--braid", "B3: 1 2 1"],
    ["chart", "--braid", "B3: 1 2 1", "--mellit"],
    ["chart", "--braid", "B2: 1 1 1", "--order", "3 1 2"],
    ["form", "--braid", "B2: 1 1 1"],
    ["count", "--braid", "B2: 1 1 1", "--q", "2"],
    ["count", "--braid", "B2: 1 1 1", "--strata"],
    ["cluster", "--braid", "B2: 1 1 1 1 1 1 1", "--order", "7 1 4 3 2 6 5", "--dot", "quiver.dot"],
    ["mutation-graph", "--braid", "B2: 1 1 1", "--dot", "graph.dot"],
    ["weights", "--braid", "B3: 2 1 2 1", "--side", "right"],
    ["form", "--braid", "B3: 1 2 1 2 1", "--order", "3 1 5 2 4"],
    ["count", "--braid", "B4: 1 2 3 1 2 3 1 2", "--strata"],
    ["chart", "--braid", "B3: 1 2 1 1 1 1 2", "--mellit"],
    ["mutation-graph", "--braid", "B4: 2 2 2"],
    ["chart", "--braid", "B2: 1 1", "--order", "1 x"],
]


def _block(argv, code, stdout, stderr):
    header = " ".join(a if re.fullmatch(r"[\w.-]+", a) else repr(a) for a in argv)
    return f"$ braidweave {header}\nexit {code}\n--- stdout\n{stdout}--- stderr\n{stderr}"


def _fresh_env():
    """The environment of a fresh process that imports this braidweave."""
    src = os.path.dirname(os.path.dirname(braidweave.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _fresh_process_record(argv, cwd):
    """Stdout, stderr, exit code and DOT file of one ``braidweave`` run in its
    own interpreter, as one text block headed by the command line.

    A fresh process matters: variable ids are interned per process, so the
    render order of an in-process run can depend on what ran before it.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "braidweave.cli", *argv],
        capture_output=True, text=True, env=_fresh_env(), cwd=cwd, timeout=120,
    )
    block = _block(argv, proc.returncode, proc.stdout, proc.stderr)
    if "--dot" in argv:
        dot = Path(cwd) / argv[argv.index("--dot") + 1]
        block += f"--- {dot.name}\n{dot.read_text()}"
    return block


def _golden_blocks(text):
    return re.split(r"(?m)^(?=\$ braidweave )", text)[1:]


def test_chart_oracle_rejects_a_corrupted_coefficient():
    # perfbench's chart oracle, which the frontier-digests CI job runs on the
    # frontier charts, must see a one-coefficient change in either kind of line
    from frontier_check import chart_ok

    braid = "B3: 1 2 1 1 1 1 2"
    header = f"$ braidweave chart --braid '{braid}' --mellit\n"
    block = next(b for b in _golden_blocks(GOLDEN.read_text()) if b.startswith(header))
    text = block.split("--- stdout\n")[1].split("--- stderr\n")[0]
    assert chart_ok(text, braid)
    invert = "invert: z2 - z1*z3 - z1*z5 + z2*z4*z5 - z1*z3*z4*z5\n"
    for line, corrupt in ((invert, invert.replace("- z1*z5", "- 2*z1*z5")), ("z4 = s4 - s3^-1\n", "z4 = s4 - 2*s3^-1\n")):
        assert text.count(line) == 1
        assert not chart_ok(text.replace(line, corrupt), braid), corrupt


def test_fresh_process_output_is_golden(tmp_path):
    expected = _golden_blocks(GOLDEN.read_text())
    assert len(expected) == len(GOLDEN_COMMANDS)
    for argv, want in zip(GOLDEN_COMMANDS, expected):
        assert _fresh_process_record(argv, tmp_path) == want


def test_one_process_runs_many_invocations(capsys):
    # the parser is built once per process and reused: a usage error, a
    # domain error and a normal command, twice over, each give the golden
    # output and exit code
    from braidweave import cli

    golden = {b.split("\n", 1)[0]: b for b in _golden_blocks(GOLDEN.read_text())}
    domain = ["chart", "--braid", "B2: 1 1", "--order", "1 x"]
    normal = ["demazure", "--braid", "B3: 1 2 1 2"]
    for _ in range(2):
        out = io.StringIO()
        assert cli.run(["variety"], out=out) == 2
        assert out.getvalue() == ""
        assert capsys.readouterr().err.startswith("usage: braidweave variety")
        for argv in (domain, normal):
            out = io.StringIO()
            code = cli.run(argv, out=out)
            block = _block(argv, code, out.getvalue(), capsys.readouterr().err)
            assert block == golden[block.split("\n", 1)[0]]
    assert cli.build_parser() is cli.build_parser()


def test_no_command_imports_numpy(tmp_path):
    # numpy cost every fresh command about 110 ms of start-up, and only
    # count.brute_count, which no command calls, uses it; a fresh process,
    # since the suite itself imports numpy
    (tmp_path / "w.weave").write_text("weave n=3 top=1 2 1\nsix 0\n")
    commands = [*GOLDEN_COMMANDS, ["weave", "--weave", "w.weave", "--dot", "w.dot"]]
    code = (
        "import contextlib, io, sys\n"
        "from braidweave import cli\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [cli.run(argv, out=io.StringIO()) for argv in {commands!r}]\n"
        "print(codes.count(0), 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_fresh_env(), cwd=tmp_path,
        timeout=120,
    )
    # every command but the golden domain error exits 0
    assert (proc.stdout, proc.stderr) == (f"{len(commands) - 1} False\n", "")


# replaces the weave route in every module that binds one of its names
WEAVE_ROUTE = ("weave_from_opening_order", "chart_parametrize")
NO_WEAVE = (
    "from braidweave import chart, cluster, form, weave\n"
    "def fail(*args):\n"
    "    raise AssertionError('the weave route was called')\n"
    "for module in (chart, cluster, form, weave):\n"
    f"    for name in {WEAVE_ROUTE!r}:\n"
    "        if hasattr(module, name):\n"
    "            setattr(module, name, fail)\n"
)


def test_chart_command_builds_no_weave(tmp_path):
    # one fresh process per command, as for the golden file; --order is given
    # the Mellit order, so both commands print the golden --mellit chart
    golden = {b.split("\n", 1)[0]: b for b in _golden_blocks(GOLDEN.read_text())}
    mellit = ["chart", "--braid", "B3: 1 2 1 1 1 1 2", "--mellit"]
    want = golden[_block(mellit, 0, "", "").split("\n", 1)[0]]
    for argv in (mellit, [*mellit[:3], "--order", "3 4 5 1 2 6 7"]):
        code = NO_WEAVE + f"import sys\nfrom braidweave import cli\nsys.exit(cli.main({argv!r}))\n"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_fresh_env(), cwd=tmp_path,
            timeout=120,
        )
        assert _block(mellit, proc.returncode, proc.stdout, proc.stderr) == want, argv


def test_cluster_command_builds_no_weave(tmp_path):
    # the golden cluster command, DOT file included: the cycle basis is read
    # from the opening order and the chart from ldu_chart
    argv = ["cluster", "--braid", "B2: 1 1 1 1 1 1 1", "--order", "7 1 4 3 2 6 5", "--dot", "quiver.dot"]
    golden = {b.split("\n", 1)[0]: b for b in _golden_blocks(GOLDEN.read_text())}
    code = NO_WEAVE + f"import sys\nfrom braidweave import cli\nsys.exit(cli.main({argv!r}))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_fresh_env(), cwd=tmp_path,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    block = _block(argv, proc.returncode, proc.stdout, proc.stderr)
    block += f"--- quiver.dot\n{(tmp_path / 'quiver.dot').read_text()}"
    assert block == golden[block.split("\n", 1)[0]]


def test_normalized_chart_and_form_oracle_build_no_weave(monkeypatch):
    from braidweave import chart, cluster, form, weave
    from braidweave.braid import parse_braid

    def fail(*args):
        raise AssertionError("the weave route was called")

    for module in (chart, cluster, form, weave):
        for name in WEAVE_ROUTE:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fail)
    nc = cluster.normalized_chart(parse_braid("B2: 1 1 1 1 1"), (4, 3, 2, 1, 5))
    assert nc.order == [4, 3, 2, 1, 5]
    beta = parse_braid("B2: 1 1 1")
    assert form.pulled_back_form_matrix(beta, (3, 1, 2)) == form.chart_form_matrix(beta, (3, 1, 2))


if __name__ == "__main__":
    # rewrite the golden file from the current tree:
    #   PYTHONPATH=src python tests/test_cli.py
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text("".join(_fresh_process_record(a, tmp) for a in GOLDEN_COMMANDS))
