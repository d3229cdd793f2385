import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from leveltree.cli import run
from leveltree.tree import tree_json


@pytest.fixture
def tree_file(tmp_path, nested_tree):
    path = tmp_path / "nested.json"
    path.write_text(tree_json(nested_tree.base, nested_tree.level))
    return str(path)


def test_validate_ok(tree_file, capsys):
    assert run(["validate", tree_file]) == 0
    assert "m=-2" in capsys.readouterr().out


def test_validate_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"root": "o", ')
    assert run(["validate", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_validate_names_violated_invariant(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "root": "o", "parents": {"a": "o"}, "weights": {"o": 0, "a": 1},
        "levels": {"o": "0", "a": "1"}}))
    assert run(["validate", str(path)]) == 2
    assert "nonpositive" in capsys.readouterr().err


def test_indices_table(tree_file, capsys):
    assert run(["indices", tree_file]) == 0
    out = capsys.readouterr().out
    assert "m = -2" in out
    assert "I_plus  = ['-1', '-2']" in out
    assert "section(-2) = ['a', 'c', 'd']" in out


def test_indices_json_round_trip(tree_file, capsys):
    assert run(["indices", tree_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["m"] == "-2"
    assert data["i_plus"] == ["-1", "-2"]


def test_contract_matches_expected_tree(tree_file, capsys):
    assert run(["contract", tree_file, "--levels=-2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["parents"] == {"a": "o", "b": "o"}
    assert data["levels"] == {"a": "-1", "b": "-1", "o": "0"}
    assert data["weights"] == {"a": 1, "b": 2, "o": 0}


def test_contract_mixed_subset(tree_file, capsys):
    assert run(["contract", tree_file, "--levels=-1,-2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["parents"] == {}


def test_contract_dot_output(tree_file, capsys):
    assert run(["contract", tree_file, "--levels=-2", "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_contract_rejects_foreign_label(tree_file, capsys):
    assert run(["contract", tree_file, "--levels=-7"]) == 2
    assert "outside the index set" in capsys.readouterr().err


def test_chart_prints_theta_and_mu(tree_file, capsys):
    assert run(["chart", tree_file, "--special=-1=b,-2=a"]) == 0
    out = capsys.readouterr().out
    assert "theta zeta_a = eps(-1) * eps(-2)" in out
    assert "mu[I={-1}] level=-2 edge=c: eps(-1)^-1 * u_c" in out


def test_verify_all_suites_pass(tree_file, capsys):
    assert run(["verify", tree_file, "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out and "suite charts" in out


def test_blowup_report(tree_file, capsys):
    assert run(["blowup-report", tree_file]) == 0
    out = capsys.readouterr().out
    assert "stage 2: section ['a', 'b']" in out
    assert "divisor pullback k=2: eps(-1)" in out
    assert "reconstruction from slots [1, 2]" in out


def test_enumerate_counts(capsys):
    assert run(["enumerate", "--max-edges", "2", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "63"


def test_enumerate_stream_is_valid_json_lines(capsys):
    assert run(["enumerate", "--max-edges", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    for line in lines:
        blob = json.loads(line)
        assert {"root", "parents", "weights", "levels"} <= set(blob)


def test_enumerate_env_override(tree_file, capsys, monkeypatch):
    monkeypatch.setenv("LEVELTREE_MAX_EDGES", "1")
    from leveltree.cli import build_parser
    parser = build_parser()
    args = parser.parse_args(["enumerate", "--count-only"])
    assert args.max_edges == 1


def test_missing_file(capsys):
    assert run(["validate", "/nonexistent/tree.json"]) == 2


@pytest.mark.parametrize("weight", [True, 1.7, "1"])
def test_validate_rejects_non_integer_weights(tmp_path, capsys, weight):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({
        "root": "o", "parents": {"a": "o"}, "weights": {"o": weight, "a": 1},
        "levels": {"o": "0", "a": "-1"}}))
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: weight of 'o' must be a nonnegative integer")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["contract", "--levels=x"],
                                  ["contract", "--levels=-1/0"],
                                  ["chart", "--special=x=b,-2=a"]])
def test_bad_level_arguments_are_usage_errors(tree_file, capsys, argv):
    assert run([argv[0], tree_file] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad level") and len(err.splitlines()) == 1


def test_non_integer_edge_bound_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("LEVELTREE_MAX_EDGES", "four")
    assert run(["enumerate", "--count-only"]) == 2
    err = capsys.readouterr().err
    assert err == "error: LEVELTREE_MAX_EDGES must be an integer, not 'four'\n"


GOOD = {"root": "o", "parents": {"a": "o"}, "weights": {"o": 0, "a": 1},
        "levels": {"o": "0", "a": "-1"}}


@pytest.mark.parametrize("blob, message", [
    (["o"], "a tree file must hold a JSON object, not an array"),
    ("o", "a tree file must hold a JSON object, not a string"),
    (dict(GOOD, parents=["a"]), "tree field 'parents' must be a JSON object, not an array"),
    (dict(GOOD, weights=[0, 1]), "tree field 'weights' must be a JSON object, not an array"),
    (dict(GOOD, levels="0"), "tree field 'levels' must be a JSON object, not a string"),
    (dict(GOOD, root=["o"]), 'vertex names must be strings, not ["o"]'),
    (dict(GOOD, parents={"a": 0}), "vertex names must be strings, not 0"),
])
def test_validate_rejects_malformed_tree_shapes(tmp_path, capsys, blob, message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(blob))
    assert run(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("level, shown", [(-0.1, "-0.1"), (-1, "-1"),
                                          (True, "true"), (False, "false")])
def test_validate_rejects_non_string_levels(tmp_path, capsys, level, shown):
    path = tmp_path / "levels.json"
    path.write_text(json.dumps(dict(GOOD, levels={"o": "0", "a": level})))
    assert run(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        f'error: level of \'a\' must be a string such as "-1/2", not {shown}\n')


def test_cli_checks_survive_optimize_mode(tmp_path):
    """Under ``python -O`` asserts are stripped, yet bad input still exits 2
    and enumeration still counts every class."""
    path = tmp_path / "upside_down.json"
    path.write_text(json.dumps({
        "root": "o", "parents": {"a": "o", "b": "a"}, "weights": {"o": 0, "a": 0, "b": 1},
        "levels": {"o": "0", "a": "-2", "b": "-1"}}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "LEVELTREE_MAX_EDGES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cli(*argv):
        return subprocess.run([sys.executable, "-O", "-m", "leveltree.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    upside_down = cli("validate", str(path))
    assert upside_down.returncode == 2
    assert upside_down.stderr == "error: levels must strictly decrease along edges ('a' -> 'b')\n"
    count = cli("enumerate", "--max-edges", "3", "--count-only")
    assert count.returncode == 0 and count.stdout == "451\n"
