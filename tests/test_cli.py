import json
import subprocess
import sys

import pytest

from laddergraphs import cli
from laddergraphs.cli import main
from laddergraphs.exprs import evaluate, parse
from laddergraphs.ladder import NormalPolynomial, multiply_monomials


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_normal_order_text(capsys):
    code, out, err = run_cli(capsys, "normal-order", "a ad")
    assert code == 0 and err == ""
    assert out == "ad a + 1\n"


def test_normal_order_json(capsys):
    code, out, _ = run_cli(capsys, "normal-order", "--json", "a ad")
    assert code == 0
    assert json.loads(out) == evaluate(parse("a ad")).to_json()


def test_normal_order_parse_error(capsys):
    code, out, err = run_cli(capsys, "normal-order", "a ^")
    assert code == 1 and out == ""
    assert "syntax error at position 3" in err


def test_commutator(capsys):
    code, out, _ = run_cli(capsys, "commutator", "2", "2")
    assert code == 0
    assert out == "4 ad a + 2\n"
    code, out, _ = run_cli(capsys, "commutator", "--json", "3", "1")
    assert json.loads(out) == NormalPolynomial({(0, 2): 3}).to_json()


def test_commutator_rejects_non_integers():
    with pytest.raises(SystemExit) as excinfo:
        main(["commutator", "x", "2"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["commutator", "-1", "2"], "must be nonnegative: '-1'"),
    (["project-check", "--bounds", "1,x,1,1"], "bounds must be integers: '1,x,1,1'"),
    (["project-check", "--bounds", "1,-1,1,1"], "bounds must be nonnegative"),
])
def test_out_of_range_arguments_are_refused_without_a_traceback(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    _, err = capsys.readouterr()
    assert err.rstrip("\n").endswith(message) and "Traceback" not in err


def test_compose_text_golden(capsys):
    code, out, _ = run_cli(capsys, "compose", "2", "2", "2", "1")
    assert code == 0
    assert out == (
        "(2,2) o (2,1): 7 compositions\n"
        "i=0: 1 -> (4,3)\n"
        "i=1: 4 -> (3,2)\n"
        "i=2: 2 -> (2,1)\n"
        "projection: ad^4 a^3 + 4 ad^3 a^2 + 2 ad^2 a\n"
    )


def test_compose_three_by_three(capsys):
    code, out, _ = run_cli(capsys, "compose", "3", "3", "3", "3")
    assert code == 0
    assert out.splitlines()[0] == "(3,3) o (3,3): 34 compositions"


def test_compose_trivial_case(capsys):
    code, out, _ = run_cli(capsys, "compose", "0", "0", "0", "0")
    assert code == 0
    assert out.splitlines()[0] == "(0,0) o (0,0): 1 composition"


def test_compose_json(capsys):
    code, out, _ = run_cli(capsys, "compose", "--json", "2", "2", "2", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 7
    assert blob["classes"] == [
        {"i": 0, "count": 1, "r": 4, "s": 3},
        {"i": 1, "count": 4, "r": 3, "s": 2},
        {"i": 2, "count": 2, "r": 2, "s": 1},
    ]
    assert len(blob["graphs"]) == 7
    assert NormalPolynomial.from_json(blob["projection"]) == multiply_monomials((2, 2), (2, 1))


def test_compose_writes_dot_files(capsys, tmp_path):
    target = tmp_path / "out"
    code, out, _ = run_cli(capsys, "compose", "1", "1", "1", "1", "--dot", str(target))
    assert code == 0
    files = sorted(p.name for p in target.glob("*.dot"))
    assert files == ["composition_0.dot", "composition_1.dot"]
    assert (target / "composition_0.dot").read_text().startswith("digraph composition_0 {")
    assert f"wrote 2 dot files to {target}" in out


@pytest.mark.parametrize("argv", [("compose", "1", "1", "1", "1"), ("render", "1,1")])
def test_unwritable_dot_directory_is_one_error_line(capsys, tmp_path, argv):
    # A path below a regular file cannot be made into a directory.
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run_cli(capsys, *argv, "--dot", str(blocker / "x"))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("compose", str(10**20), "0", "0", "0"),  # no ssize_t holds the size
    ("compose", str(2**62), "0", "0", "0"),  # refused before anything is allocated
    ("compose", "0", "0", "0", str(2**62)),
    ("render", f"{10**20},1"),
    ("render", f"1,0;0,{2**62}"),
])
def test_sizes_that_cannot_be_built_are_one_error_line(capsys, tmp_path, argv):
    if argv[0] == "render":
        argv += ("--dot", str(tmp_path / "out"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("raised, code, line", [
    (KeyboardInterrupt, 130, "interrupted\n"),
    (MemoryError, 1, "error: MemoryError\n"),
    (RecursionError("maximum recursion depth exceeded"), 1,
     "error: RecursionError: maximum recursion depth exceeded\n"),
])
def test_last_resort_failures_are_one_stderr_line(capsys, monkeypatch, raised, code, line):
    def subcommand(args):
        print("partial")
        raise raised

    monkeypatch.setattr(cli, "_cmd_compose", subcommand)
    status, out, err = run_cli(capsys, "compose", "9", "9", "9", "9")
    assert status == code and out == "partial\n"
    assert err == line


def test_project_check(capsys):
    code, out, _ = run_cli(capsys, "project-check", "--bounds", "2,2,2,2")
    assert code == 0
    assert out.startswith("PASS (81 exhaustive products, 0 words, 0 graph pairs, 0 mismatches)")


def test_project_check_rejects_bad_bounds():
    with pytest.raises(SystemExit) as excinfo:
        main(["project-check", "--bounds", "1,2,3"])
    assert excinfo.value.code == 2


def test_oracle_check_passes(capsys):
    code, out, _ = run_cli(
        capsys, "oracle-check", "--bounds", "2,2,2,2", "--words", "25", "--pairs", "6",
    )
    assert code == 0
    assert out == "PASS (81 exhaustive products, 25 words, 6 graph pairs, 0 mismatches)\n"


def test_check_defaults_are_pinned(capsys):
    # Bounds 4,4,4,4 for both; 200 words and 50 graph pairs for oracle-check only.
    assert run_cli(capsys, "oracle-check") == (
        0, "PASS (625 exhaustive products, 200 words, 50 graph pairs, 0 mismatches)\n", "")
    assert run_cli(capsys, "project-check") == (
        0, "PASS (625 exhaustive products, 0 words, 0 graph pairs, 0 mismatches)\n", "")


def test_oracle_check_is_deterministic(capsys):
    args = ("oracle-check", "--bounds", "1,1,1,1", "--words", "15", "--pairs", "4",
            "--seed", "7")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_render_golden(capsys, tmp_path):
    target = tmp_path / "dots"
    code, out, _ = run_cli(capsys, "render", "2,1;2,2@2", "--dot", str(target))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph: V:0,1/2;3,4/5,6|E:4>2|I:5,6|O:0,1,3"
    assert lines[1] == "projection: (3, 2)"
    assert (target / "render.dot").read_text().startswith("digraph render {")


def test_render_requires_dot():
    with pytest.raises(SystemExit) as excinfo:
        main(["render", "2,1"])
    assert excinfo.value.code == 2


def test_render_bad_matching_index(capsys, tmp_path):
    code, out, err = run_cli(capsys, "render", "2,1;2,2@9", "--dot", str(tmp_path))
    assert code == 1
    assert "out of range" in err


def test_render_bad_chain_syntax(capsys, tmp_path):
    code, _, err = run_cli(capsys, "render", "2;1", "--dot", str(tmp_path))
    assert code == 1
    assert "bad chain step" in err


def test_closed_pipe_exits_without_traceback():
    # The JSON document is far larger than a pipe buffer, so the write fails
    # once the reader has gone.
    proc = subprocess.Popen(
        [sys.executable, "-m", "laddergraphs", "compose", "5", "5", "5", "5", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "laddergraphs", "normal-order", "a ad"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout == "ad a + 1\n"
