import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from leveltree import charts, cli
from leveltree.blowup import MAX_SECTIONS
from leveltree.charts import TwistedChart
from leveltree.checks import MAX_SPECIAL_MAPS
from leveltree.cli import run
from leveltree.enumerate import EnumSpec, gen_instances
from leveltree.levels import make_level_tree
from leveltree.tree import tree_json

GOLDEN_BLOWUP = Path(__file__).parent / "golden" / "nested_blowup.txt"


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


def test_blowup_report(tree_file, tmp_path, capsys):
    assert run(["blowup-report", tree_file]) == 0
    out = capsys.readouterr().out
    assert "stage 2: section ['a', 'b']" in out
    assert "divisor pullback k=2: eps(-1)" in out
    assert "reconstruction from slots [1, 2]" in out
    # the same class with b at -1/2: its slots are the ranks of its levels
    blob = json.loads(Path(tree_file).read_text())
    blob["levels"] = {"o": "0", "b": "-1/2", "a": "-1", "c": "-1", "d": "-1"}
    half = tmp_path / "half.json"
    half.write_text(json.dumps(blob))
    assert run(["blowup-report", str(half)]) == 0
    out = capsys.readouterr().out
    assert "divisor pullback k=2: eps(-1/2)" in out
    assert ("reconstruction from slots [1, 2]: levels "
            "{'a': '-2', 'b': '-1', 'c': '-2', 'd': '-2', 'o': '0'}") in out
    assert run(["verify", str(half), "--suite", "blowup"]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_blowup_report_matches_golden(tree_file, capsys):
    assert run(["blowup-report", tree_file]) == 0
    assert capsys.readouterr().out == GOLDEN_BLOWUP.read_text()


@pytest.mark.parametrize("argv", [["chart"], ["blowup-report"], ["verify", "--suite", "blowup"],
                                  ["verify", "--suite", "charts"], ["verify", "--suite", "all"]])
def test_commands_leave_no_chart_to_the_cyclic_collector(tree_file, capsys, argv):
    # a chart kept in its tree's memo refers back to the tree, so a command
    # that kept it would leave the cycle for the collector, switched off here
    def live_charts():
        return [o for o in gc.get_objects() if isinstance(o, TwistedChart)]

    gc.collect()
    before = live_charts()
    gc.disable()
    try:
        assert run([argv[0], tree_file, *argv[1:]]) == 0
        left = [o for o in live_charts() if not any(o is b for b in before)]
    finally:
        gc.enable()
    assert left == []


@pytest.mark.parametrize("argv, frames", [(["blowup-report"], 0),
                                          (["verify", "--suite", "blowup"], 1)])
def test_the_blowup_commands_read_the_tree_not_a_chart(tree_file, capsys, monkeypatch,
                                                       argv, frames):
    """The centers and divisors read the level tree alone: ``blowup-report``
    builds no chart frame, and the blowup suite only the one its chart
    comparison reads."""
    real, built = charts.ChartFrame.__post_init__, []

    def counting(frame):
        built.append(frame)
        real(frame)

    monkeypatch.setattr(charts.ChartFrame, "__post_init__", counting)
    assert run([argv[0], tree_file, *argv[1:]]) == 0
    assert len(built) == frames


def _spoke_file(tmp_path, n: int) -> str:
    """A root with ``n`` spokes, each carrying two weighted leaves, so the
    weight-contracted tree keeps all 3n edges and has 2^n sections."""
    spokes = [f"s{i}" for i in range(n)]
    leaves = {f"l{i}{j}": f"s{i}" for i in range(n) for j in "ab"}
    t = make_level_tree(root="o", parent={**{s: "o" for s in spokes}, **leaves},
                        weight={"o": 0, **{s: 0 for s in spokes}, **{v: 1 for v in leaves}},
                        level={"o": 0, **{s: -1 for s in spokes}, **{v: -2 for v in leaves}})
    path = tmp_path / f"spokes{n}.json"
    path.write_text(tree_json(t.base, t.level))
    return str(path)


def test_blowup_report_lists_every_section(tmp_path, capsys):
    path = _spoke_file(tmp_path, 8)
    start = time.perf_counter()
    assert run(["blowup-report", path]) == 0
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("stage ") for line in lines) == 256
    assert "schedule order-compatible: True" in lines


def test_blowup_commands_on_a_long_path_finish_in_time(tmp_path, capsys):
    # a 400-edge path, levels -1..-400, weight on its lowest quarter
    n = 400
    t = make_level_tree(root="o", parent={f"s{k}": f"s{k - 1}" if k > 1 else "o"
                                          for k in range(1, n + 1)},
                        weight={"o": 0, **{f"s{k}": int(k > n - n // 4)
                                           for k in range(1, n + 1)}},
                        level={"o": 0, **{f"s{k}": -k for k in range(1, n + 1)}})
    path = tmp_path / "path400.json"
    path.write_text(tree_json(t.base, t.level))
    start = time.perf_counter()
    assert run(["verify", str(path), "--suite", "blowup"]) == 0
    assert run(["blowup-report", str(path)]) == 0
    assert time.perf_counter() - start < 1.5
    out = capsys.readouterr().out
    assert "0 failures" in out and f"divisor pullback k={n}: " in out


@pytest.mark.parametrize("argv", [["blowup-report"], ["verify", "--suite", "blowup"],
                                  ["verify", "--suite", "all", "--json"]])
def test_too_many_sections_are_refused_up_front(tmp_path, capsys, argv):
    path = _spoke_file(tmp_path, 15)
    start = time.perf_counter()
    assert run(argv[:1] + [path] + argv[1:]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: the tree has {2 ** 15} traverse sections; they are "
                   f"listed only up to {MAX_SECTIONS}\n")


@pytest.mark.parametrize("suite", ["charts", "all"])
def test_too_many_special_maps_are_refused_up_front(tmp_path, capsys, suite):
    # 14 spokes at -1 and 28 leaves at -2: 392 special-edge maps
    path = _spoke_file(tmp_path, 14)
    start = time.perf_counter()
    assert run(["verify", path, "--suite", suite]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", "error: the tree has 392 special-edge maps; their "
                                       f"pairs are checked only up to {MAX_SPECIAL_MAPS} maps\n")


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


def test_enumerate_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LEVELTREE_MAX_EDGES", "1")
    assert run(["enumerate", "--count-only"]) == 0
    assert capsys.readouterr().out == "10\n"


def test_enumerate_stable_only_and_max_levels(capsys):
    stable = sum(1 for _ in gen_instances(EnumSpec(max_edges=3), stable_only=True))
    assert run(["enumerate", "--max-edges", "3", "--stable-only", "--count-only"]) == 0
    assert capsys.readouterr().out == f"{stable}\n" == "168\n"
    assert run(["enumerate", "--max-edges", "3", "--max-levels", "2", "--count-only"]) == 0
    assert capsys.readouterr().out == "56\n"
    assert run(["enumerate", "--max-levels", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: enumeration bounds must be nonnegative\n")


def test_the_parser_is_built_once(tree_file, capsys, monkeypatch):
    builds = []

    def spy():
        builds.append(1)
        return real()

    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", spy)
    monkeypatch.setattr(cli, "_parser", None)
    assert run(["validate", tree_file]) == 0
    assert run(["indices", tree_file, "--json"]) == 0
    with pytest.raises(SystemExit) as exc:  # a usage error exits through argparse
        run(["validate"])
    assert exc.value.code == 2
    assert run(["validate", tree_file]) == 0
    assert capsys.readouterr().out.count("ok: 5 vertices, 4 edges, m=-2\n") == 2
    assert run(["enumerate", "--max-edges", "1", "--count-only"]) == 0
    assert capsys.readouterr().out == "10\n"
    assert builds == [1]


@pytest.mark.parametrize("argv, env, asked", [
    (["--max-edges", "7"], None, "7 edges and weight 2"),
    (["--max-weight", "3"], None, "4 edges and weight 3"),
    (["--max-edges", "3", "--max-weight", "30"], None, "3 edges and weight 30"),
    ([], "7", "7 edges and weight 2")])
def test_enumerate_is_refused_above_its_bound(capsys, monkeypatch, argv, env, asked):
    if env is None:
        monkeypatch.delenv("LEVELTREE_MAX_EDGES", raising=False)
    else:
        monkeypatch.setenv("LEVELTREE_MAX_EDGES", env)
    start = time.perf_counter()
    assert run(["enumerate", "--count-only"] + argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "", f"error: enumerate is bounded to 6 edges and weight 2; asked for {asked}\n")


def test_missing_file(capsys):
    assert run(["validate", "/nonexistent/tree.json"]) == 2


def test_unreadable_files_are_input_errors(tmp_path, capsys):
    assert run(["validate", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert len(err.splitlines()) == 1
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a tree file must be UTF-8 text: ")
    assert len(err.splitlines()) == 1


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
                                  ["chart", "--special=x=b,-2=a"],
                                  ["contract", "--levels=-1e5000"],
                                  ["contract", "--levels=-1,-1e10000000"],
                                  ["chart", "--special=-1e-5000=b"]])
def test_bad_level_arguments_are_usage_errors(tree_file, capsys, argv):
    assert run([argv[0], tree_file] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad level") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["chart", "--tags=j1,j1"], "error: repeated extra tag in ['j1', 'j1']"),
    (["chart", "--tags=j1,"], "error: empty tag name in --tags='j1,'"),
    (["chart", "--special=-1=b,-2=a,-4/2=c"],
     "error: level -2 is given twice in --special='-1=b,-2=a,-4/2=c'"),
], ids=["repeated", "empty", "repeated-special-level"])
def test_bad_tag_arguments_are_usage_errors(tree_file, capsys, argv, message):
    assert run([argv[0], tree_file] + argv[1:]) == 2
    assert capsys.readouterr() == ("", message + "\n")


def test_non_integer_edge_bound_is_a_usage_error(tree_file, capsys, monkeypatch):
    monkeypatch.setenv("LEVELTREE_MAX_EDGES", "four")
    assert run(["enumerate", "--count-only"]) == 2
    err = capsys.readouterr().err
    assert err == "error: LEVELTREE_MAX_EDGES must be an integer, not 'four'\n"
    # only enumerate reads the bound
    assert run(["validate", tree_file]) == 0
    assert capsys.readouterr() == ("ok: 5 vertices, 4 edges, m=-2\n", "")
    assert run(["enumerate", "--max-edges", "1", "--count-only"]) == 0
    assert capsys.readouterr().out == "10\n"


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


@pytest.mark.parametrize("level", ["-1e5000", "-1e-5000", "-1e10000000"])
@pytest.mark.parametrize("argv", [["validate"], ["indices"], ["contract", "--levels=-1"]])
def test_levels_too_long_to_print_are_refused_in_time(tmp_path, capsys, level, argv):
    path = tmp_path / "long_level.json"
    path.write_text(json.dumps(dict(GOOD, levels={"o": "0", "a": level})))
    start = time.perf_counter()
    assert run([argv[0], str(path), *argv[1:]]) == 2
    assert time.perf_counter() - start < 2  # refused before the power of 10 is built
    assert capsys.readouterr() == ("", f"error: bad level {level!r}: more than 1000 digits\n")


TWO_HEAVY = '{{"root": "o", "parents": {{"a": "o", "b": "o"}}, "weights": {{"o": 0, ' \
    '"a": {}, "b": {}}}, "levels": {{"o": "0", "a": "-1", "b": "-1"}}}}'


@pytest.mark.parametrize("text, message", [
    # past 4,300 digits json.load itself fails, with a ValueError
    (TWO_HEAVY.format("1" + "0" * 5000, 0), "a number in a tree file is too long to read"),
    # each weight can be read, but their sum could not be printed
    (TWO_HEAVY.format("4" * 4300, "4" * 4300), "the total weight has more than 1000 digits"),
    # each weight is short enough, but their sum is not
    (TWO_HEAVY.format("9" * 1000, "9" * 1000), "the total weight has more than 1000 digits"),
], ids=["unreadable", "unprintable-sum", "long-total"])
@pytest.mark.parametrize("argv", [["validate"], ["contract", "--edges=b"]])
def test_weights_too_long_to_read_or_print_are_refused(tmp_path, capsys, text, message, argv):
    path = tmp_path / "heavy.json"
    path.write_text(text)
    assert run([argv[0], str(path), *argv[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("text, key", [
    ('{"root": "o", "parents": {}, "weights": {"o": 1}, "levels": {"o": "0"}, "root": "o"}',
     "root"),
    # without the check the last value would win, and the tree would pass
    ('{"root": "o", "parents": {"a": "o", "b": "o"}, "weights": {"o": 0, "a": 1, "b": 1, '
     '"a": 0}, "levels": {"o": "0", "a": "-1", "b": "-1"}}', "a"),
], ids=["top-level", "nested"])
def test_validate_rejects_repeated_json_keys(tmp_path, capsys, text, key):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert run(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f'error: repeated key "{key}" in a JSON object\n')


@pytest.mark.parametrize("level, shown", [(-0.1, "-0.1"), (-1, "-1"),
                                          (True, "true"), (False, "false")])
def test_validate_rejects_non_string_levels(tmp_path, capsys, level, shown):
    path = tmp_path / "levels.json"
    path.write_text(json.dumps(dict(GOOD, levels={"o": "0", "a": level})))
    assert run(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        f'error: level of \'a\' must be a string such as "-1/2", not {shown}\n')


def test_cli_checks_survive_optimize_mode(tmp_path):
    """Under ``python -O`` asserts are stripped, yet bad input (levels that
    climb, a cyclic parent map) still exits 2 and enumeration still counts
    every class."""
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
    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text(json.dumps({
        "root": "o", "parents": {"a": "b", "b": "a"}, "weights": {"o": 1, "a": 0, "b": 0},
        "levels": {"o": "0", "a": "-1", "b": "-2"}}))
    cycle = cli("validate", str(cyclic))
    assert cycle.returncode == 2 and cycle.stderr == "error: cycle through 'a'\n"
    count = cli("enumerate", "--max-edges", "3", "--count-only")
    assert count.returncode == 0 and count.stdout == "451\n"
