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
    capsys.readouterr()
    code, _ = run(["chart", "--braid", "B2: 1 1"])  # neither order nor mellit
    assert code == 2
    assert capsys.readouterr().err == "error: chart needs --order or --mellit\n"


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


def _fresh_process_record(argv, cwd):
    """Stdout, stderr, exit code and DOT file of one ``braidweave`` run in its
    own interpreter, as one text block headed by the command line.

    A fresh process matters: variable ids are interned per process, so the
    render order of an in-process run can depend on what ran before it.
    """
    src = os.path.dirname(os.path.dirname(braidweave.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "braidweave.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    header = " ".join(a if re.fullmatch(r"[\w.-]+", a) else repr(a) for a in argv)
    block = f"$ braidweave {header}\nexit {proc.returncode}\n"
    block += f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
    if "--dot" in argv:
        dot = Path(cwd) / argv[argv.index("--dot") + 1]
        block += f"--- {dot.name}\n{dot.read_text()}"
    return block


def _golden_blocks(text):
    return re.split(r"(?m)^(?=\$ braidweave )", text)[1:]


def test_fresh_process_output_is_golden(tmp_path):
    expected = _golden_blocks(GOLDEN.read_text())
    assert len(expected) == len(GOLDEN_COMMANDS)
    for argv, want in zip(GOLDEN_COMMANDS, expected):
        assert _fresh_process_record(argv, tmp_path) == want


if __name__ == "__main__":
    # rewrite the golden file from the current tree:
    #   PYTHONPATH=src python tests/test_cli.py
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text("".join(_fresh_process_record(a, tmp) for a in GOLDEN_COMMANDS))
