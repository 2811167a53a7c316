"""CLI surface: subcommands, serializations, exit codes, determinism."""

from __future__ import annotations

import io
import json
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from localfields.cli import build_parser, main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_mahler_expand(self, capsys):
        code, out, _ = run_cli(capsys, "-p", "2", "-N", "8",
                               "mahler", "expand", "x^2", "-J", "6")
        assert code == 0
        assert out.strip() == "[0,1,2,0,0,0,0]"

    def test_mahler_evaluate(self, capsys):
        code, out, _ = run_cli(capsys, "mahler", "evaluate",
                               "--series", "p=2 N=8 coeffs=[0,1]",
                               "--at", "7")
        assert code == 0
        assert out.strip().endswith(":111")  # 7 in base 2

    def test_tower_project_cycles(self, capsys):
        code, out, _ = run_cli(capsys, "-p", "3", "tower", "project",
                               "x+1", "-k", "1")
        assert code == 0
        assert out.strip() == "(0 1 2)"

    def test_tower_project_oneline(self, capsys):
        code, out, _ = run_cli(capsys, "-p", "3", "tower", "project", "x+1",
                               "-k", "1", "--format", "oneline")
        assert code == 0
        assert "level=1" in out and out.strip().endswith("1 2 0")

    def test_calculus_leibniz(self, capsys):
        code, out, _ = run_cli(capsys, "calculus", "leibniz",
                               "n=1", "f=x", "g=x")
        assert code == 0
        assert out.strip() == "status PASS margin 0"

    def test_calculus_fixture_file(self, capsys, tmp_path):
        path = tmp_path / "fx.txt"
        path.write_text(
            "leibniz phi n=1 p=3 f=x^2 g=x x=1 vs=1 ts=1 expect=PASS\n")
        code, out, _ = run_cli(capsys, "calculus", "check",
                               "--fixtures", str(path))
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["status"] == "PASS" and rec["margin"] == "0"

    def test_calculus_check_honours_precision(self, capsys, tmp_path):
        path = tmp_path / "fx.txt"
        path.write_text(
            "leibniz phi n=1 p=3 f=x^2 g=x x=1 vs=1 ts=1 expect=PASS\n")
        code, out, _ = run_cli(capsys, "-N", "8", "calculus", "check",
                               "--fixtures", str(path))
        assert code == 0
        rec = json.loads(out)
        assert rec["lhs"].endswith(" mod 3^8>") and "mod 3^24" not in out

    def test_corrupted_fixture_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "fx.txt"
        path.write_text("leibniz phi n=2 p=3 f=x g=x x=1 vs=1 ts=1\n")
        code, out, err = run_cli(capsys, "calculus", "check",
                                 "--fixtures", str(path))
        assert code == 2

    def test_tables_T(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--kind", "T",
                               "--bound", "3")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[2] == "1,0,1,0,0"  # T_{1,k} = (0,1,0,0)

    def test_tables_S(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--kind", "S", "--bound", "2")
        assert code == 0
        assert out.strip().splitlines()[3] == "2,0,-1/2,1/2"

    def test_tables_omega(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--kind", "Omega",
                               "--bound", "2")
        assert code == 0
        assert "1,1,\"1\",1" in out

    def test_mahler_tables_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "mahler", "tables", "--kind", "T",
                               "--bound", "2")
        assert code == 0
        assert out.strip().splitlines()[0] == "n\\k,0,1,2"

    def test_tables_bound_cap(self, capsys):
        code, _, _ = run_cli(capsys, "tables", "--kind", "Omega",
                             "--bound", "99")
        assert code == 2

    def test_witness(self, capsys):
        code, out, _ = run_cli(capsys, "-p", "3", "tower", "witness",
                               "-k", "1")
        assert code == 0
        rec = json.loads(out)
        assert rec["identity_at_level"] is True

    def test_commutators(self, capsys):
        code, out, _ = run_cli(capsys, "tower", "commutators",
                               "--perm", "1 2 0 3 4")
        assert code == 0
        assert "product check: PASS" in out

    def test_oneparam_ball_group(self, capsys):
        code, out, _ = run_cli(capsys, "-p", "2", "oneparam", "ball-group",
                               "-s", "1", "--sv", "2")
        assert code == 0
        assert json.loads(out) == {"order": 2, "exponent": 2, "width": 1}

    def test_oneparam_eta(self, capsys):
        code, out, _ = run_cli(capsys, "-p", "2", "oneparam", "eta",
                               "-s", "1", "--sv", "2", "--cycle", "2")
        assert code == 0
        assert json.loads(out)["feasible"] is True

    @pytest.mark.parametrize("argv", [
        ("-p", "2", "-u", "4", "oneparam", "eta", "-s", "1", "--sv", "2"),
        ("-p", "2", "-u", "5", "oneparam", "eta", "-s", "1", "--sv", "2"),
        ("-p", "2", "oneparam", "eta", "--sv", "8"),
    ], ids=["F16-order-16", "F32-order-32", "F2-order-128"])
    def test_oneparam_eta_needs_three_generators(self, capsys, argv):
        # a complement of <x0> in these groups needs three or more generators
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["feasible"] is True

    def test_oneparam_obstruction(self, capsys):
        code, out, _ = run_cli(capsys, "-p", "2", "oneparam", "obstruction",
                               "--exp", "2")
        assert code == 0
        rec = json.loads(out)
        assert rec["g_p_is_identity"] is False and rec["bound_holds"] is True

    def test_oneparam_lift(self, capsys):
        code, out, _ = run_cli(capsys, "-p", "2", "oneparam", "lift",
                               "--fn", "x+pi", "--levels", "2,3")
        assert code == 0
        assert json.loads(out)["compatible"] is True

    def test_loop_wedge(self, capsys):
        code, out, _ = run_cli(capsys, "loop", "wedge", "--a", "1",
                               "--b", "2", "--n-size", "3")
        assert code == 0
        assert out.strip() == "{1,2}"

    def test_loop_classes_count(self, capsys):
        code, out, _ = run_cli(capsys, "loop", "classes", "--m-size", "4",
                               "--n-size", "3")
        assert code == 0
        assert out.strip().splitlines()[-1] == "# 10 classes"

    def test_loop_thread_file(self, capsys, tmp_path):
        data = {
            "targets": [[0, 1], [0, 1, 2, 3]],
            "levels": [[5], [2, 1, 3]],
            "maps": [{"0": 0, "1": 1, "2": 0, "3": 1}],
        }
        path = tmp_path / "thread.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "-p", "2", "loop", "thread",
                               "--file", str(path))
        assert code == 0
        assert json.loads(out)["compatible"] is True


class TestRun:
    def test_suite_none_empty(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--suite", "none")
        assert code == 0
        assert json.loads(out)["summary"]["checks"] == 0

    def test_unknown_suite_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--suite", "nosuch")
        assert code == 2

    def test_comma_separated_suites(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--suite",
                               "stirling,valuation")
        assert code == 0
        ids = {json.loads(line).get("check_id")
               for line in out.splitlines() if "check_id" in line}
        assert any(i.startswith("01-") for i in ids)
        assert any(i.startswith("11-") for i in ids)

    def test_suite_that_raises_records_a_fail(self, capsys):
        # on seed 18 every sampled point of leibniz-chain is degenerate and
        # the suite raises ZeroDenominator
        code, out, err = run_cli(capsys, "--seed", "18", "run",
                                 "--suite", "leibniz-chain")
        assert code == 1
        assert "Traceback" not in err
        lines = out.strip().splitlines()
        rec = json.loads(lines[0])
        assert rec["check_id"] == "leibniz-chain-raised"
        assert rec["status"] == "FAIL"
        assert rec["operation"] == "leibniz-chain"
        assert "ZeroDenominator" in rec["inputs"]
        assert json.loads(lines[-1])["summary"] == {
            "checks": 1, "passed": 0, "failed": 1}

    def test_stirling_suite_passes(self, capsys):
        code, out, err = run_cli(capsys, "run", "--suite", "stirling")
        assert code == 0
        assert "PASS  01-stirling-identities" in err

    def test_determinism_modulo_timing(self, capsys):
        def strip(text):
            out = []
            for line in text.splitlines():
                rec = json.loads(line)
                rec.pop("elapsed", None)
                out.append(json.dumps(rec, sort_keys=True))
            return out

        _, out1, _ = run_cli(capsys, "--seed", "7", "run",
                             "--suite", "witness")
        _, out2, _ = run_cli(capsys, "--seed", "7", "run",
                             "--suite", "witness")
        assert strip(out1) == strip(out2)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.jsonl"
        code, _, _ = run_cli(capsys, "--out", str(path), "run",
                             "--suite", "stirling")
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert json.loads(lines[-1])["summary"]["failed"] == 0

    def test_global_options_after_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "-p", "3", "tower", "project", "x+1",
                               "-k", "1", "-p", "5")
        assert code == 0
        assert out.strip() == "(0 1 2 3 4)"

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("LOCALFIELDS_PRIME", "5")
        code, out, _ = run_cli(capsys, "tower", "project", "x+1", "-k", "1")
        assert code == 0
        assert out.strip() == "(0 1 2 3 4)"

    @pytest.mark.parametrize("var, raw", [("LOCALFIELDS_SEED", "abc"),
                                          ("LOCALFIELDS_PRECISION", "1.5")])
    def test_bad_env_value_is_one_line_error(self, capsys, monkeypatch,
                                             var, raw):
        monkeypatch.setenv(var, raw)
        code, out, err = run_cli(capsys, "run", "--suite", "none")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {var}=") and err.count("\n") == 1


class TestUsageErrors:
    def test_missing_spec(self, capsys):
        code, _, err = run_cli(capsys, "tower", "project")
        assert code == 2

    def test_bad_expression(self, capsys):
        code, _, err = run_cli(capsys, "tower", "project", "x++1")
        assert code == 2

    def test_odd_perm_commutators(self, capsys):
        code, _, err = run_cli(capsys, "tower", "commutators",
                               "--perm", "1 0 2 3 4")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("-p", "4", "tower", "project", "x+p"),
        ("tower", "project", "x+1/0"),
        ("-N", "0", "tower", "project", "x+3"),
        ("mahler", "evaluate", "--series", "p=3 N=8 coeffs=[0,1]",
         "--at", "abc"),
        ("tower", "project", "x", "-k", "0"),
        ("tower", "thread", "x", "--levels", "a"),
        ("tower", "commutators", "--perm", "a b"),
        ("calculus", "leibniz", "n=abc"),
        ("oneparam", "ball-group", "-s", "0"),
        ("-p", "3", "tower", "check", "--fn", "x^3", "--gn", "x^3", "-k", "1"),
        ("-p", "3", "tower", "check", "--fn", "x^3", "--gn", "x^3", "-k", "2"),
        ("oneparam", "lift", "-s", "0"),
        ("oneparam", "lift", "--levels", "0"),
        ("oneparam", "lift", "--levels", "a"),
        ("tables", "--kind", "S", "--bound", "-1"),
        ("mahler", "invert", "--series", "p=3 N=8 coeffs=[0,1]", "-K", "-1"),
        ("mahler", "invert", "--series", "p=3 N=32 coeffs=[0,1]", "-K", "0"),
        ("loop", "classes", "--m-size", "-1"),
        ("mahler", "compose", "--outer", "p=3 N=8 coeffs=[0,1]",
         "--inner", "p=5 N=8 coeffs=[0,1]"),
        ("mahler", "expand", "--fn", "x", "-J", "-1"),
        ("tables", "--kind", "S", "--bound", "65"),
        ("mahler", "tables", "--kind", "S", "--bound", "65"),
        ("tower", "check", "--fn", "x", "--gn", "x", "-k", "40"),
        ("tower", "project", "x", "-k", "40"),
        ("tower", "thread", "x", "--levels", "1,40"),
        ("tower", "witness", "-k", "40"),
        ("-p", "5", "tower", "witness", "-k", "7"),
        ("oneparam", "lift", "--levels", "40"),
        ("-N", "-2", "tower", "witness", "-k", "1"),
        ("calculus", "chain", "f=1/0", "u=x"),
        ("oneparam", "lift", "--fn", "2*x", "--levels", "2,3"),
        ("-N", "0", "calculus", "multi", "fs=x"),
        ("oneparam", "lift", "-s", "2", "--levels", "3"),
        ("oneparam", "ball-group", "--sv", "40"),
        ("calculus", "leibniz", "n=1", "f=x", "g=x", "flavor=bogus"),
        ("oneparam", "eta", "--cycle", "0"),
        ("oneparam", "eta", "--cycle", "-3"),
    ], ids=["composite-prime", "zero-denominator", "zero-precision",
            "bad-point", "zero-level", "bad-levels", "bad-perm",
            "bad-order", "zero-ball-radius", "critical-inverse",
            "non-bijective-check", "lift-zero-radius", "lift-zero-level",
            "lift-bad-levels", "negative-table-bound",
            "negative-invert-order", "zero-invert-order", "negative-loop-size",
            "compose-across-fields", "negative-expand-order",
            "table-bound-cap", "mahler-table-bound-cap", "huge-level-check",
            "huge-level-project", "huge-level-thread", "huge-level-witness",
            "huge-witness-search-level", "huge-level-lift",
            "negative-precision-witness", "chain-zero-denominator",
            "lift-infeasible-level", "zero-precision-multi",
            "lift-anchor-outside-ball", "huge-ball-group", "bogus-flavor",
            "zero-eta-cycle", "negative-eta-cycle"])
    def test_bad_input_is_one_line_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == ""


def readme_cli_examples():
    """The arguments of every `localfields ...` line in README's code blocks
    under "## CLI"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"```sh\n(.*?)```", section, re.S)
            for line in block.splitlines() if line.startswith("localfields ")]


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=shlex.join)
def test_readme_example_parses(argv):
    build_parser().parse_args(argv)


# the CLI argument surface, every value kept small: no level, size or k above
# 3, no bound above 8 and no s_v above 4, so no example enumerates a large ring
SPECS = ["x", "x+1", "x^2+x", "x+pi", "2*x", "x^3", "x+p", "1/0", "x++1", ""]
SERIES = ["p=2 N=8 coeffs=[0,1,2]", "p=3 N=8 coeffs=[0,1]",
          "p=3 N=8 coeffs=[1,1]", "p=3 N=8 coeffs=[0,3]", "p=5 N=8 coeffs=[0,1]",
          "coeffs=[", ""]
small = st.integers(-1, 3).map(str)
spec = st.sampled_from(SPECS)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def _action(command, actions, *options):
    return _argv(st.just([command]), st.sampled_from(actions).map(lambda a: [a]),
                 *options)


def _kv(key, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{key}={v}"]))


COMMANDS = st.one_of(
    st.just(["run", "--suite", "none"]), st.just(["run", "--suite", "nosuch"]),
    _action("mahler", ["expand", "evaluate", "compose", "invert", "tables"],
            st.lists(spec, max_size=1), _opt("--fn", spec),
            _opt("--series", st.sampled_from(SERIES)),
            _opt("--outer", st.sampled_from(SERIES)),
            _opt("--inner", st.sampled_from(SERIES)),
            _opt("--at", st.sampled_from(["0", "3", "-2", "abc"])),
            _opt("-J", small), _opt("-K", small),
            _opt("--kind", st.sampled_from(["S", "T", "Omega"])),
            _opt("--bound", st.integers(-1, 8).map(str))),
    _action("tower", ["project", "check", "witness", "commutators", "thread"],
            st.lists(spec, max_size=1), _opt("--fn", spec), _opt("--gn", spec),
            _opt("-k", small),
            _opt("--levels", st.sampled_from(["1,2,3", "2", "0", "1,a", ""])),
            _opt("--perm", st.sampled_from(["1 2 0 3 4", "1 0 2 3 4", "0",
                                            "a b", "0 0", ""])),
            _opt("--format", st.sampled_from(["cycles", "oneline"])),
            st.lists(st.just("--units"), max_size=1)),
    _action("calculus", ["leibniz", "multi", "chain", "check"],
            _kv("n", st.sampled_from(["0", "1", "2", "3", "abc"])),
            _kv("f", spec), _kv("g", spec),
            _kv("fs", st.sampled_from(["x", "x,x+1", "x,1/0", ""])),
            _kv("u", spec), _kv("p", st.sampled_from(["2", "3", "4"])),
            _kv("flavor", st.sampled_from(["phi", "upsilon"])),
            _kv("ts", st.sampled_from(["0", "1", "1,1", "2"])),
            _opt("--fixtures", st.just("no-such-fixtures.txt"))),
    _action("oneparam", ["ball-group", "eta", "lift", "obstruction",
                         "condition-i"],
            st.lists(spec, max_size=1), _opt("-s", small),
            _opt("--sv", st.integers(-1, 4).map(str)),
            _opt("--levels", st.sampled_from(["2,3", "2", "3", "0", "a"])),
            _opt("--cycle", small), _opt("--fn", spec),
            _opt("--exp", small)),
    _action("loop", ["classes", "wedge", "group", "thread"],
            _opt("--m-size", small), _opt("--n-size", small),
            _opt("--a", st.sampled_from(["1", "1,2", "2,2", "9", "x", ""])),
            _opt("--b", st.sampled_from(["1", "2", "0", ""])),
            _opt("--file", st.just("no-such-thread.json"))),
    _argv(st.just(["tables", "--kind"]),
          st.sampled_from(["S", "T", "Omega"]).map(lambda k: [k]),
          _opt("--bound", st.integers(-1, 8).map(str))),
)
GLOBALS = _argv(_opt("-p", st.sampled_from(["2", "3", "4", "0"])),
                _opt("-u", st.sampled_from(["1", "2"])),
                _opt("-N", st.sampled_from(["-2", "0", "1", "4", "12"])),
                _opt("--seed", st.sampled_from(["0", "1"])))


@settings(max_examples=300, deadline=None)
@given(_argv(GLOBALS, COMMANDS))
@example(["-p", "2", "oneparam", "lift", "2*x"])  # 2*x is 0 over F_2((t))
def test_no_argument_vector_escapes_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
