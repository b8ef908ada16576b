import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import odecert
from odecert import cli
from odecert.cli import main

ALPHA_E_ODE = "u' = -v + u/4*(1-u^2-v^2), v' = u + v/4*(1-u^2-v^2)"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def disk_prob(tmp_path):
    return write(tmp_path, "disk.prob",
                 f"vars: u, v\node: {ALPHA_E_ODE}\n"
                 "candidate: 1 - u^2 - v^2 > 0\n")


@pytest.fixture
def half_prob(tmp_path):
    return write(tmp_path, "half.prob",
                 f"vars: u, v\node: {ALPHA_E_ODE}\n"
                 "candidate: u^2 + v^2 < 1/4 | (u^2 + v^2 = 1/4 & u >= 0)\n")


@pytest.fixture
def circle_prob(tmp_path):
    return write(tmp_path, "circle.prob",
                 f"vars: u, v\node: {ALPHA_E_ODE}\npolynomial: u^2 + v^2 - 1\n")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExitCodes:
    def test_invariant_is_zero(self, disk_prob, capsys):
        assert main(["check-inv", disk_prob]) == 0

    def test_not_invariant_is_one(self, half_prob, capsys):
        assert main(["check-inv", half_prob]) == 1

    def test_usage_error_is_three_on_every_call(self, capsys):
        # the parser is built once per process; a reused parser must still
        # reject bad usage with exit code 3 and argparse's text
        texts = []
        for argv in (["rank"], ["frobnicate", "x.prob"], ["rank"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 3
            texts.append(capsys.readouterr().err)
        assert texts[0] == texts[2] and texts[0].startswith("usage: odecert")
        assert "invalid choice: 'frobnicate'" in texts[1]

    def test_bad_flag_value_is_three_and_help_is_zero(self, circle_prob, capsys):
        with pytest.raises(SystemExit) as info:
            main(["rank", circle_prob, "--solver-timeout", "abc"])
        assert info.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: odecert rank")
        assert err.endswith("odecert rank: error: argument --solver-timeout: "
                            "invalid float value: 'abc'\n")
        with pytest.raises(SystemExit) as info:
            main(["rank", "--help"])
        assert info.value.code == 0

    # sha256 of stdout + stderr at 80 columns, recorded before main's fast
    # path for ``COMMAND FILE --json`` was added: it must leave every other
    # argv to argparse, with argparse's exact text
    @pytest.mark.parametrize("argv, code, digest", [
        pytest.param(argv, code, digest, id=" ".join(argv) or "no-argument")
        for argv, code, digest in [
            (["-h"], 0, "7c02deb6ea4a79336bdfc31f986cc1ca8eed377bf21040336c413d7d6d0774b6"),
            (["lie", "-h"], 0,
             "41f5cc8372f2985687a8a22ff854de0e32d0e85bb6c9b3724f306789142cc81a"),
            (["rank", "-h"], 0,
             "d9f0befbf9291e1b9a3a07f1f1a9ad8d46f5434ad946cf44ac03c0b4c1375191"),
            (["radical", "-h"], 0,
             "855328c346fb60f289b7e144247d6867305b5b101e53eeda38721ea2c1d94985"),
            (["progress", "-h"], 0,
             "9f70990218700b61aaa3ad1d07b9f0d2c75be0f79eef7d7a2c53164a72550b23"),
            (["check-alg", "-h"], 0,
             "d227cd196d7433d1b01e70f4bc55c354cf3f510d70bc7d0de6f0f5b313f4b1dc"),
            (["check-inv", "-h"], 0,
             "111a1a9f22d30bc9b454c500fd28cd027573c34f01c2c380fdf7b9017c25c22f"),
            (["darboux", "-h"], 0,
             "0a9a353f9506112aef519a62cd6135967e7958f27c3e43961df0bd1b1cad322c"),
            (["hp-reduce", "-h"], 0,
             "afd27b258ce30cb21435b894456e94c46b3dde3f80c74453bc595fa16e9b49fa"),
            (["emit-smt", "-h"], 0,
             "3a5f744ba91c39ca2d4c04330a6ce1dca387164c4d050c75bb9151165303bd1f"),
            (["cert-check", "-h"], 0,
             "72074401ecb2827a894ea3aacab76dfc2f7d72026b773403d0c7b8ea091752b4"),
            ([], 3, "393291b82e1a5fcad629b76b7eba39d6504b14381c52536112084d99d9110094"),
            (["rank"], 3, "7d1774f26cf837ecb100d759196098d2e3f59f96dc84efe940eff0b657c2d603"),
            (["rank", "--json"], 3,
             "7d1774f26cf837ecb100d759196098d2e3f59f96dc84efe940eff0b657c2d603"),
            (["rank", "p.prob", "--json", "--seed", "x"], 3,
             "913c72c2eb28f28f977a28d4aa224b4981d12c170f1aa2070d42155e923d1eea"),
            (["hp-reduce", "p.prob", "--json", "--bogus"], 3,
             "7b6eb824279ae5ddfaa8cf917c7f2c38c503b7104fa55bc9d142c1325b50c04f"),
            (["cert-check", "p.prob", "q.prob", "--json"], 3,
             "2a92e177e143cee14c3e271af374edf3008ad79a1c124663aa1e3e9f1140b4b6"),
        ]])
    def test_help_and_usage_text_is_pinned(self, capsys, monkeypatch, argv, code, digest):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == code
        out, err = capsys.readouterr()
        assert hashlib.sha256((out + err).encode()).hexdigest() == digest

    @pytest.mark.parametrize("key", ["seed", "samples", "cap", "deg_bound"])
    def test_bad_integer_option_names_its_line_once(self, tmp_path, capsys, key):
        prob = write(tmp_path, "int.prob", "vars: x, y\node: x' = y, y' = -x\n"
                     f"polynomial: x\n{key}: abc\n")
        assert main(["rank", prob]) == 3
        assert capsys.readouterr().err == (f"input error: 4:1: in '{key}': {key} "
                                           "must be an integer, got 'abc'\n")

    # int() takes other Unicode digits, underscores and spaces; the term
    # grammar does not, and neither does an integer option
    NOT_ASCII_INTEGERS = ["\u0662\u0660\u0660", "1_2", "\u0663", "\uff15", "+-3", "2 0"]

    @pytest.mark.parametrize("value", NOT_ASCII_INTEGERS)
    @pytest.mark.parametrize("key", ["seed", "samples", "cap", "deg_bound"])
    def test_integer_option_takes_ascii_digits_only(self, tmp_path, capsys, key, value):
        prob = write(tmp_path, "int.prob", "vars: x, y\node: x' = y, y' = -x\n"
                     f"polynomial: x\n{key}: {value}\n")
        assert main(["rank", prob]) == 3
        assert capsys.readouterr().err == (f"input error: 4:1: in '{key}': {key} "
                                           f"must be an integer, got {value!r}\n")

    @pytest.mark.parametrize("value", NOT_ASCII_INTEGERS)
    @pytest.mark.parametrize("flag", ["--seed", "--samples", "--cap", "--deg-bound", "--max"])
    def test_integer_flag_takes_ascii_digits_only(self, circle_prob, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            main(["lie", circle_prob, flag, value])
        assert info.value.code == 3
        assert capsys.readouterr().err.endswith(
            f"odecert lie: error: argument {flag}: invalid int value: {value!r}\n")

    @pytest.mark.parametrize("key, value, seen", [
        ("seed", "+7", 7), ("seed", "-3", -3), ("samples", "0020", 20), ("cap", "5", 5)])
    def test_ascii_integer_options_are_read(self, tmp_path, key, value, seen):
        prob = write(tmp_path, "int.prob", f"vars: x\n{key}: {value}\n")
        assert getattr(cli._load_problem(prob), key) == seen
        assert getattr(cli._build_parser().parse_args(
            ["rank", prob, "--" + key, value]), key) == seen

    def test_negative_samples_is_input_error(self, tmp_path, half_prob, capsys):
        # a count below 0 would draw no point and answer unknown; 0 turns
        # sampling off.  The same check holds in the problem file and for
        # the flag of a problem-file command and of cert-check.
        error = "input error: samples must be >= 0\n"
        prob = write(tmp_path, "neg.prob", Path(half_prob).read_text() + "samples: -5\n")
        assert main(["check-inv", prob]) == 3
        assert capsys.readouterr().err == error
        assert main(["check-inv", half_prob, "--samples", "-1"]) == 3
        assert capsys.readouterr().err == error
        assert main(["check-inv", half_prob, "--samples", "0"]) == 2
        assert main(["check-inv", half_prob]) == 1
        capsys.readouterr()
        hp = write(tmp_path, "hp.prob", "vars: x\nprogram: { x := -x }*\npost: x = 0\n")
        _, report = run_json(capsys, ["hp-reduce", hp, "--json"])
        cert = write(tmp_path, "cert.json", json.dumps(report["data"]["certificate"]))
        assert main(["cert-check", cert, "--samples", "-1"]) == 3
        assert capsys.readouterr().err == error
        assert main(["cert-check", cert, "--samples", "0"]) == 0

    def test_power_past_the_term_cap_is_four(self, tmp_path, capsys):
        prob = write(tmp_path, "terms.prob", "vars: x, y, z\n"
                     "ode: x' = y, y' = z, z' = x\npolynomial: (x+y+z+1)^90\n")
        started = time.monotonic()
        assert main(["lie", prob]) == 4
        assert time.monotonic() - started < 1
        assert "exceeds the term cap" in capsys.readouterr().err

    @pytest.mark.parametrize("problem, count", [
        # zero from the second derivative on: each derivative is cheap
        ("vars: x\node: x' = 1\npolynomial: x\n", "1000000000"),
        # the terms grow with every derivative
        ("vars: x, y\node: x' = x*y + 1, y' = x^2 - y\npolynomial: x*y\n", "1000"),
    ])
    def test_lie_past_the_step_budget_is_four(self, tmp_path, problem, count):
        prob = write(tmp_path, "lie.prob", problem)
        started = time.monotonic()
        done = subprocess.run([sys.executable, "-m", "odecert", "lie", prob, "--max", count],
                              capture_output=True, text=True, env=_odecert_env(), timeout=60)
        assert time.monotonic() - started < 10
        assert done.returncode == 4
        assert done.stdout == ""
        assert done.stderr == "resource error: lie step budget exhausted\n"

    # reduction steps of this chain grow coefficients past the digit cap
    # long before the term cap or the step budget is reached
    COEF_PROBLEM = "vars: x, y\node: x' = x^999*y - 1, y' = 2*x - 1\n"

    def test_rank_past_the_digit_cap_is_four(self, tmp_path, capsys):
        prob = write(tmp_path, "coef.prob", self.COEF_PROBLEM + "polynomial: 2*x + 2*y^2\n")
        started = time.monotonic()
        assert main(["rank", prob]) == 4
        assert time.monotonic() - started < 2
        assert "exceeds the digit cap" in capsys.readouterr().err

    def test_check_inv_past_the_digit_cap_is_unknown(self, tmp_path, capsys):
        prob = write(tmp_path, "coef.prob", self.COEF_PROBLEM +
                     "candidate: 2*x + 2*y^2 >= 0 & -x >= 0 | 2*x^2 >= 0 & -2 > 0\n")
        started = time.monotonic()
        assert main(["check-inv", prob]) == 2
        assert time.monotonic() - started < 2

    def test_input_error_is_three(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.prob", "vars: x\npolynomial: x + y\n")
        assert main(["rank", bad]) == 3
        assert main(["rank", str(tmp_path / "missing.prob")]) == 3

    def test_deeply_nested_certificate_json_is_three(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["cert-check", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: invalid certificate JSON") and "Traceback" not in err

    def test_negative_lie_order_is_three(self, circle_prob, capsys):
        assert main(["lie", circle_prob, "--max", "-3"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: Lie derivative order must be non-negative\n"
        assert main(["lie", circle_prob, "--max", "0"]) == 0
        assert capsys.readouterr().out == "L^0: u^2 + v^2 - 1\n"

    def test_monomial_order_key_is_unknown(self, circle_prob, capsys):
        # grevlex is the one monomial order: there is no key to choose another
        prob = Path(circle_prob)
        prob.write_text(prob.read_text() + "order: lex\n")
        assert main(["rank", str(prob)]) == 3
        assert capsys.readouterr().err == "input error: 4:1: unknown key 'order'\n"

    def test_non_utf8_problem_file_is_three(self, tmp_path, capsys):
        prob = tmp_path / "latin1.prob"
        prob.write_bytes(b"vars: x\npolynomial: x\xff\n")
        assert main(["rank", str(prob)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: cannot read {prob}: ") and "Traceback" not in err

    @pytest.mark.parametrize("out", ["notadir", "notadir/sub"])
    def test_emit_smt_out_onto_a_file_is_three(self, tmp_path, circle_prob, capsys,
                                              monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        Path("notadir").write_text("a file\n")
        assert main(["emit-smt", circle_prob, "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: cannot write {out}: ")
        assert "Traceback" not in captured.err
        assert Path("notadir").read_text() == "a file\n"

    def test_resource_error_is_four(self, tmp_path, capsys):
        prob = write(tmp_path, "loop.prob",
                     "vars: x\nprogram: { x := x^2 + 1 }*\npost: x = 0\ncap: 0\n")
        assert main(["hp-reduce", prob]) == 4

    def test_huge_exponent_is_a_resource_error(self, tmp_path, capsys):
        prob = write(tmp_path, "huge.prob",
                     "vars: x, y\node: x' = y, y' = -x\npolynomial: (x+1)^3000\n")
        started = time.monotonic()
        assert main(["lie", prob]) == 4
        assert time.monotonic() - started < 5
        assert "degree cap" in capsys.readouterr().err

    def test_constant_power_past_the_cap_is_four(self, tmp_path, capsys):
        prob = write(tmp_path, "const.prob",
                     "vars: x, y\node: x' = y, y' = -x\npolynomial: 2^1001\n")
        started = time.monotonic()
        assert main(["rank", prob]) == 4
        assert time.monotonic() - started < 0.5
        assert "exponent 1001 exceeds the degree cap" in capsys.readouterr().err
        prob = write(tmp_path, "const.prob",
                     "vars: x, y\node: x' = y, y' = -x\npolynomial: 2^1000\n")
        code, report = run_json(capsys, ["rank", prob, "--json"])
        assert code == 0 and report["data"]["rank"] == 1

    @pytest.mark.parametrize("polynomial", ["x^²", "²*x", "x*٣"])
    def test_non_ascii_digit_is_three(self, tmp_path, capsys, polynomial):
        prob = write(tmp_path, "digit.prob",
                     f"vars: x, y\node: x' = y, y' = -x\npolynomial: {polynomial}\n")
        assert main(["rank", prob]) == 3
        assert "unexpected character" in capsys.readouterr().err

    def test_unicode_variable_names(self, tmp_path, capsys):
        prob = write(tmp_path, "accent.prob",
                     "vars: é, y\node: é' = y, y' = -é\npolynomial: é^2 + y^2\n")
        code, report = run_json(capsys, ["rank", prob, "--json"])
        assert code == 0 and report["data"]["rank"] == 1

    def test_unknown_is_two(self, tmp_path, capsys):
        prob = write(tmp_path, "green.prob",
                     f"vars: u, v\node: {ALPHA_E_ODE}\n"
                     "candidate: u^2 <= v^2 + 9/2\nsamples: 300\n")
        assert main(["check-inv", prob]) == 2

    @pytest.mark.parametrize("command, body", [
        ("rank", "polynomial: " + "(" * 1000 + "x" + ")" * 1000),
        ("lie", "polynomial: " + "(" * 1000 + "x" + ")" * 1000),
        ("check-inv", "candidate: " + "(" * 1000 + "x > 0" + ")" * 1000),
        ("hp-reduce", "program: " + "{" * 1000 + "x := 1" + "}" * 1000 + "\npost: x = 0"),
    ])
    def test_deep_nesting_is_three(self, tmp_path, capsys, command, body):
        prob = write(tmp_path, "deep.prob", f"vars: x, y\node: x' = y, y' = -x\n{body}\n")
        assert main([command, prob]) == 3
        assert "nesting deeper than" in capsys.readouterr().err

    def test_nesting_at_the_bound_is_accepted(self, tmp_path, capsys):
        from odecert.parser import MAX_NESTING
        deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        prob = write(tmp_path, "deep.prob", f"vars: x, y\node: x' = y, y' = -x\n"
                                            f"polynomial: {deep}\ncandidate: {deep} > 0\n")
        code, report = run_json(capsys, ["rank", prob, "--json"])
        assert code == 0 and report["data"]["rank"] == 2
        assert main(["check-inv", prob, "--samples", "20"]) in (0, 1, 2)

    def test_long_implication_chain_is_three(self, tmp_path, capsys):
        chain = " -> ".join(["x > 0"] * 2001)
        prob = write(tmp_path, "imp.prob", f"vars: x, y\node: x' = y, y' = -x\n"
                                           f"candidate: {chain}\n")
        assert main(["check-inv", prob]) == 3
        assert "nesting deeper than" in capsys.readouterr().err

    def test_long_literal_is_three(self, tmp_path, capsys):
        prob = write(tmp_path, "lit.prob", "vars: x, y\node: x' = y, y' = -x\n"
                                           f"polynomial: {'7' * 5000}*x\n")
        assert main(["rank", prob]) == 3
        assert "longer than 4000 digits" in capsys.readouterr().err

    def test_long_computed_coefficient_is_four(self, tmp_path, capsys):
        prob = write(tmp_path, "big.prob", "vars: x, y\node: x' = y, y' = -x\n"
                                           "polynomial: (2^1000)^1000*x\n")
        assert main(["lie", prob]) == 4
        assert "digit cap" in capsys.readouterr().err

    def test_unexpected_exception_is_five(self, circle_prob, capsys, monkeypatch):
        from odecert import cli

        def broken(args):
            raise RuntimeError("broken on purpose")

        monkeypatch.setattr(cli, "_run_command", broken)
        assert main(["rank", circle_prob]) == cli.EXIT_INTERNAL == 5
        assert capsys.readouterr().err.startswith("internal error: RuntimeError")


def _odecert_env():
    """The environment for ``python -m odecert`` in a subprocess, importing
    this odecert."""
    src = str(Path(odecert.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_into_closed_pipe(argv, closed="stdout"):
    """``python -m odecert argv`` with the ``closed`` stream a pipe whose
    reader has gone, as in ``odecert ... | head -c 1`` once head has exited;
    the other stream is captured."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, closed: write_end}
    try:
        return subprocess.run([sys.executable, "-m", "odecert", *argv], **streams,
                              text=True, env=_odecert_env(), timeout=120)
    finally:
        os.close(write_end)


class TestClosedStdout:
    """A closed stdout ends the run quietly, with the exit code of its
    verdict: no traceback, and not exit 5."""

    ROTATION = "vars: x, y\node: x' = y, y' = -x\n"

    @pytest.mark.parametrize("candidate, flags, code", [
        ("x^2 + y^2 <= 1", ["--json"], 0),
        ("x^2 + y^2 <= 1", [], 0),
        ("x <= 0", ["--json"], 1),
        ("x <= 0", [], 1),
    ])
    def test_check_inv_into_a_closed_pipe(self, tmp_path, candidate, flags, code):
        prob = write(tmp_path, "p.prob", self.ROTATION + f"candidate: {candidate}\n")
        done = _run_into_closed_pipe(["check-inv", prob, *flags])
        assert done.returncode == code
        if flags:
            assert done.stderr == ""
        else:
            assert done.stderr.startswith("elapsed: ") and done.stderr.count("\n") == 1

    def test_long_human_summary_into_a_closed_pipe(self, tmp_path):
        # about 40 kB of Lie derivatives: more than a pipe's buffer holds
        prob = write(tmp_path, "p.prob", self.ROTATION + "polynomial: x^5*y^5 + 3*x^2*y - 7\n")
        done = _run_into_closed_pipe(["lie", prob, "--max", "100"])
        assert done.returncode == 0
        assert done.stderr.startswith("elapsed: ") and done.stderr.count("\n") == 1


class TestClosedStderr:
    """A closed stderr loses the ``elapsed:`` and error lines, and nothing
    else: stdout and the exit code are those of an open stderr."""

    ROTATION = TestClosedStdout.ROTATION

    @pytest.mark.parametrize("candidate, code", [("x^2 + y^2 <= 1", 0), ("x <= 0", 1)])
    def test_check_inv_with_a_closed_stderr(self, tmp_path, candidate, code):
        prob = write(tmp_path, "p.prob", self.ROTATION + f"candidate: {candidate}\n")
        done = _run_into_closed_pipe(["check-inv", prob], closed="stderr")
        assert done.returncode == code
        assert done.stdout.startswith("verdict: ")

    @pytest.mark.parametrize("text, code", [
        ("vars: x\npolynomial: x + y\n", 3),
        (TestExitCodes.COEF_PROBLEM + "polynomial: 2*x + 2*y^2\n", 4),
    ])
    def test_error_line_into_a_closed_stderr(self, tmp_path, text, code):
        prob = write(tmp_path, "p.prob", text)
        done = _run_into_closed_pipe(["rank", prob], closed="stderr")
        assert done.returncode == code
        assert done.stdout == ""


class TestCommands:
    def test_rank_zero_polynomial(self, tmp_path, capsys):
        prob = write(tmp_path, "z.prob",
                     f"vars: u, v\node: {ALPHA_E_ODE}\npolynomial: 0\n")
        code, report = run_json(capsys, ["rank", prob, "--json"])
        assert code == 0
        assert report["data"]["rank"] == 1

    def test_lie_command(self, circle_prob, capsys):
        code, report = run_json(capsys, ["lie", circle_prob, "--json", "--max", "1"])
        assert code == 0
        assert report["data"]["lie_derivatives"][0] == "u^2 + v^2 - 1"

    def test_check_alg_emits_dri_certificate(self, circle_prob, capsys):
        code, report = run_json(capsys, ["check-alg", circle_prob, "--json"])
        assert code == 0
        cert = report["data"]["certificate"]
        assert cert["kind"] == "dri" and cert["rank"]["n"] == 1
        assert cert["rank"]["cofactors"] == ["-1/2*u^2 - 1/2*v^2"]

    def test_check_alg_with_domain(self, tmp_path, capsys):
        prob = write(tmp_path, "dom.prob",
                     f"vars: u, v\node: {ALPHA_E_ODE}\n"
                     "polynomial: u^2 + v^2 - 1\ndomain: u != 0\n")
        code, report = run_json(capsys, ["check-alg", prob, "--json"])
        assert code == 0
        assert report["data"]["certificate"]["domain"] == "u"

    def test_check_inv_reports_witness(self, half_prob, capsys):
        code, report = run_json(capsys, ["check-inv", half_prob, "--json"])
        assert code == 1
        assert report["data"]["verdict"] == "not_invariant"
        assert report["data"]["witness"] is not None

    def test_check_inv_decides_past_the_complement_disjunct_limit(self, tmp_path, capsys):
        # the complement of this candidate has 3^8 = 6561 > 4096 normal-form
        # cells; the backward condition negates progress formulas instead,
        # and sampling refutes it although its hypothesis has no normal form
        prob = write(tmp_path, "cells.prob",
                     "vars: x, y\node: x' = 1, y' = -2*x*y + y^2 - 2\n"
                     "candidate: (2*x^2 + 2 > 0 | y - 1 > 0) & (-2*x^2 + x >= 0 | 4*y^2 > 0)"
                     " & (x^2 >= 0 | -2*x*y - 2*x > 0)\nsamples: 2000\n")
        code, report = run_json(capsys, ["check-inv", prob, "--json"])
        assert code == 1
        data = report["data"]
        assert data["verdict"] == "not_invariant"
        backward = data["conditions"][1]
        assert backward["provenance"] == "sai-backward"
        assert backward["status"]["kind"] == "refuted"
        assert backward["status"]["witness"] == data["witness"] == ["-17", "0"]

    def test_check_inv_with_large_hypothesis_normal_forms_writes_no_stderr(self, tmp_path):
        # problem 75 of the sai-sampling pool: discharge builds hypothesis
        # normal forms of hundreds of cells, and none of them writes to stderr
        prob = write(tmp_path, "pool75.prob",
                     "vars: x, y\node: x' = 1, y' = -2*x*y + y^2 - 2\n"
                     "candidate: (2*x^2 + 2 > 0 | y - 1 > 0) & (-2*x^2 + x >= 0 | 4*y^2 > 0)"
                     " & (x^2 >= 0 | -2*x*y - 2*x > 0)\nsamples: 2000\nseed: 0\ncap: 20\n")
        done = subprocess.run([sys.executable, "-m", "odecert", "check-inv", prob, "--json"],
                              capture_output=True, text=True, env=_odecert_env(),
                              timeout=120)
        assert done.returncode == 1
        assert json.loads(done.stdout)["data"]["verdict"] == "not_invariant"
        assert done.stderr == ""

    def test_ideal_tier_proves_a_conclusion_past_the_disjunct_limit(self, tmp_path, capsys):
        # problem 98 of the sai-sampling pool: the forward conclusion has
        # 12600 normal-form cells; the ideal tier reads it off the formula
        prob = write(tmp_path, "pool98.prob",
                     "vars: x, y\node: x' = -1, y' = x^2 + 2\n"
                     "candidate: -y >= 0 & -2*x + 2 >= 0 | 2*y + 2 > 0 & -2*y^2 + y + 1 > 0"
                     " | -3*x*y + 2*y^2 > 0 & 2*x^2 + x*y > 0\n"
                     "samples: 2000\nseed: 0\ncap: 20\n")
        code, report = run_json(capsys, ["check-inv", prob, "--json"])
        assert code == 1
        data = report["data"]
        assert data["verdict"] == "not_invariant"
        forward, backward = data["conditions"]
        assert forward["provenance"] == "sai-forward"
        assert forward["status"]["kind"] == "proved_by_ideal_reduction"
        assert backward["status"]["kind"] == "refuted"
        assert backward["status"]["witness"] == data["witness"] == ["15/4", "1"]

    def test_darboux_scalar_and_vectorial(self, tmp_path, circle_prob, capsys):
        code, report = run_json(capsys, ["darboux", circle_prob, "--json"])
        assert code == 0 and report["data"]["cofactor"] == "-1/2*u^2 - 1/2*v^2"
        vec = write(tmp_path, "vec.prob",
                    "vars: x, y\node: x' = y, y' = x\npolynomials: x, y\n")
        code, report = run_json(capsys, ["darboux", vec, "--json"])
        assert code == 0 and report["data"]["G"] == [["0", "1"], ["1", "0"]]

    def test_darboux_not_found_is_unknown(self, tmp_path, capsys):
        prob = write(tmp_path, "nd.prob",
                     "vars: x, y\node: x' = y, y' = x\npolynomial: x\n")
        assert main(["darboux", prob]) == 2

    def test_darboux_default_bound_past_the_unknown_cap(self, tmp_path, capsys):
        # the default degree bound is 59: 1830 unknowns in one dense solve
        prob = write(tmp_path, "big.prob",
                     "vars: x, y\node: x' = y^60 + x, y' = x^60 + y\npolynomial: x + y + 1\n")
        start = time.perf_counter()
        assert main(["darboux", prob]) == 4
        assert time.perf_counter() - start < 5
        assert "1830 unknowns, cap 150" in capsys.readouterr().err

    def test_darboux_huge_bound_is_refused_before_enumeration(self, tmp_path, capsys):
        prob = write(tmp_path, "circ.prob",
                     "vars: x, y\node: x' = y, y' = -x\npolynomial: x^2 + y^2\n")
        assert main(["darboux", prob, "--deg-bound", "100000"]) == 4
        assert "5000150001 unknowns" in capsys.readouterr().err
        assert main(["darboux", prob, "--deg-bound", "2"]) == 0

    def test_progress_command(self, circle_prob, capsys):
        code, report = run_json(capsys, ["progress", circle_prob, "--json"])
        assert code == 0
        assert report["data"]["gt_forward"] == "u^2 + v^2 - 1 > 0"

    @pytest.fixture
    def stabilize_calls(self, monkeypatch):
        """The argument tuples of every ``ideals.stabilize`` run (one per
        rank chain)."""
        import odecert.ideals as ideals
        calls = []
        real_stabilize = ideals.stabilize

        def counting_stabilize(*args, **kwargs):
            calls.append(args)
            return real_stabilize(*args, **kwargs)

        monkeypatch.setattr(ideals, "stabilize", counting_stabilize)
        return calls

    def test_radical_command(self, circle_prob, capsys, stabilize_calls):
        calls = stabilize_calls
        code, report = run_json(capsys, ["radical", circle_prob, "--json"])
        assert code == 0
        assert report["data"]["formula"] == "u^2 + v^2 - 1 = 0"
        assert len(calls) == 1  # the chain and the formula share one chain run

    @pytest.mark.parametrize("text, runs", [
        pytest.param("polynomial: x\n", 1, id="polynomial"),
        pytest.param("polynomial: x\ncandidate: x > 0 | y >= 0\n", 2, id="both"),
    ])
    def test_progress_ranks_each_polynomial_once(self, tmp_path, capsys,
                                                 stabilize_calls, text, runs):
        prob = write(tmp_path, "p.prob", "vars: x, y\node: x' = y, y' = x\n" + text)
        code, report = run_json(capsys, ["progress", prob, "--json"])
        assert code == 0
        assert report["data"]["gt_forward"] == "x >= 0 & (x = 0 -> y > 0)"
        assert report["data"]["gt_backward"] == "x >= 0 & (x = 0 -> -y > 0)"
        # x (and y) ranked forward only: the backward chains are derived
        assert len(stabilize_calls) == runs

    def test_hp_reduce_loop(self, tmp_path, capsys):
        prob = write(tmp_path, "hp.prob",
                     "vars: x\nprogram: { x := -x }*\npost: x = 0\n")
        code, report = run_json(capsys, ["hp-reduce", prob, "--json"])
        assert code == 0
        assert report["data"]["reduced"] == "x"
        cert = report["data"]["certificate"]
        assert cert["kind"] == "hpreduce"
        assert cert["chains"][0]["chain"] == ["x", "-x"]

    def test_hp_reduce_with_ode_node(self, tmp_path, capsys):
        prob = write(tmp_path, "hpode.prob",
                     f"vars: u, v\n"
                     "program: u := u + 1 ; { u' = v, v' = u }\n"
                     "post: u = 0\n")
        code, report = run_json(capsys, ["hp-reduce", prob, "--json"])
        assert code == 0
        # rank of u under the swap system is 2, then u := u+1 substitutes
        assert report["data"]["reduced"] == "u^2 + v^2 + 2*u + 1"

    def test_hp_reduce_loop_with_choice_and_ode_ends_quickly(self, tmp_path, capsys):
        # this loop combines ++ with an ODE; reduced as one sum of squares it
        # reached degree 16 by the third iterate and ran past 30 s
        prob = write(tmp_path, "unbounded.prob",
                     "vars: x, y\nprogram: { { x := 2*y + 1 ++ y := -y ; "
                     "y := x + 2*y + 1 } ; { x' = -y + 2, y' = -2*x - 4*y } }*\n"
                     "post: x = 0\ncap: 20\n")
        started = time.perf_counter()
        code, report = run_json(capsys, ["hp-reduce", prob, "--json"])
        assert code == 0
        assert report["data"]["reduced"] == "x^2 + 5*y^2 + 5"
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(report["data"]["certificate"]))
        code, report = run_json(capsys, ["cert-check", str(cert), "--json"])
        assert code == 0 and report["data"]["valid"] is True
        assert time.perf_counter() - started < 1.0

    def test_hp_reduce_long_sequence(self, tmp_path, capsys):
        prob = write(tmp_path, "long.prob", "vars: x, y\nprogram: "
                     + " ; ".join(["x := 1"] * 3000) + "\npost: x = 0\n")
        code, report = run_json(capsys, ["hp-reduce", prob, "--json"])
        assert code == 0 and report["data"]["reduced"] == "1"
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(report["data"]["certificate"]))
        assert main(["cert-check", str(cert)]) == 0

    def test_emit_smt_files(self, tmp_path, circle_prob, capsys):
        out_dir = tmp_path / "smt"
        code, report = run_json(capsys, ["emit-smt", circle_prob, "--json",
                                         "--out", str(out_dir)])
        assert code == 0
        files = report["data"]["files"]
        assert len(files) == 1
        text = (out_dir / "algebraic-invariance.smt2").read_text()
        assert "(set-logic QF_NRA)" in text and "(check-sat)" in text
        assert "(declare-const u Real)" in text

    def test_emit_smt_candidate_mode_writes_both_conditions(self, tmp_path,
                                                            disk_prob, capsys):
        out_dir = tmp_path / "smt2"
        code, report = run_json(capsys, ["emit-smt", disk_prob, "--json",
                                         "--out", str(out_dir)])
        assert code == 0
        names = sorted(f.rsplit("/", 1)[-1] for f in report["data"]["files"])
        assert names == ["sai-backward.smt2", "sai-forward.smt2"]

    def test_emit_smt_golden_query(self, tmp_path, capsys):
        prob = write(tmp_path, "q.prob",
                     "vars: x, y\node: x' = 1, y' = 1\npolynomial: x\n"
                     "domain: y != 0\n")
        code, report = run_json(capsys, ["emit-smt", prob, "--json"])
        assert code == 0
        query = report["data"]["queries"][0]["query"]
        assert "(assert (and (= x 0) (not (= y 0))))" in query


class TestProvedOnce:
    """An invariant verdict is its certificate's replay, proved once; the
    replay of a refuted one's evidence does not run."""

    @staticmethod
    def _calls(monkeypatch, name, keep=lambda *args: True):
        from odecert import invariant
        calls, real = [], getattr(invariant, name)

        def counted(*args, **kwargs):
            if keep(*args):
                calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(invariant, name, counted)
        return calls

    def test_check_inv_builds_its_conditions_once(self, disk_prob, capsys, monkeypatch):
        calls = self._calls(monkeypatch, "sai_side_conditions")
        assert main(["check-inv", disk_prob]) == 0
        assert len(calls) == 1

    def test_check_alg_discharges_its_condition_once(self, tmp_path, capsys, monkeypatch):
        prob = write(tmp_path, "rot.prob",
                     "vars: x, y\node: x' = -y, y' = x\npolynomial: x^2 + y^2 - 1\n")
        calls = self._calls(monkeypatch, "discharge",
                            lambda cond, *rest: cond.provenance == "algebraic-invariance")
        assert main(["check-alg", prob]) == 0
        assert len(calls) == 1

    def test_refuted_check_alg_replays_no_chain(self, tmp_path, capsys, monkeypatch):
        prob = write(tmp_path, "line.prob", "vars: x, y\node: x' = 1, y' = 0\npolynomial: x\n")
        calls = self._calls(monkeypatch, "differential_radical")
        assert main(["check-alg", prob]) == 1
        assert calls == []


class TestCertCheckCommand:
    def test_round_trip_through_files(self, tmp_path, circle_prob, capsys):
        code, report = run_json(capsys, ["check-alg", circle_prob, "--json"])
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(report["data"]["certificate"]))
        assert main(["cert-check", str(cert_path)]) == 0
        # tamper with a cofactor: must be rejected
        doc = json.loads(cert_path.read_text())
        doc["rank"]["cofactors"][0] += " + 1"
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(doc))
        assert main(["cert-check", str(bad_path)]) == 1

    def test_hpreduce_certificate_without_records_is_rejected_at_once(self, tmp_path,
                                                                      capsys):
        # with no record, the replay keeps x, meets x again and finds it a
        # member with no record: rejected in round 1, not after 10^9 rounds
        hp = write(tmp_path, "hp.prob", "vars: x\nprogram: { x := x }*\npost: x = 0\n")
        _, report = run_json(capsys, ["hp-reduce", hp, "--json"])
        doc = report["data"]["certificate"]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        assert main(["cert-check", str(path)]) == 0
        assert doc["chains"]
        doc.update(chains=[], cap=10 ** 9)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        started = time.monotonic()
        assert main(["cert-check", str(path)]) == 1
        assert time.monotonic() - started < 1
        out, err = capsys.readouterr()
        assert out == "certificate hpreduce: REJECTED\n"
        assert "Traceback" not in err and "error" not in err

    def test_problem_file_defaults_are_the_cert_check_defaults(self, tmp_path, circle_prob,
                                                              capsys, monkeypatch):
        # circle_prob sets none of seed, samples and cap
        from odecert import cli
        from odecert.invariant import DischargeConfig
        args = cli._build_parser().parse_args(["check-alg", circle_prob])
        config = cli._config(cli._load_problem(circle_prob), args)
        assert config == DischargeConfig()
        code, report = run_json(capsys, ["check-alg", circle_prob, "--json"])
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(report["data"]["certificate"]))
        seen = []
        monkeypatch.setattr(cli, "check_certificate",
                            lambda cert, cfg: seen.append(cfg) or True)
        assert main(["cert-check", str(cert_path)]) == 0
        assert seen == [config]

    def test_zero_solver_timeout_is_kept(self, tmp_path, circle_prob, capsys, monkeypatch):
        from odecert import cli
        from odecert.smtlib import SolverConfig
        _, report = run_json(capsys, ["check-alg", circle_prob, "--json"])
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(report["data"]["certificate"]))
        seen = []
        monkeypatch.setattr(cli, "check_certificate",
                            lambda cert, cfg: seen.append(cfg) or True)
        base = ["cert-check", str(cert_path), "--solver", "z3"]
        assert main(base + ["--solver-timeout", "0"]) == 0
        assert main(base) == 0
        assert [cfg.solver.timeout for cfg in seen] == [0.0, SolverConfig.timeout]
        assert cli._load_problem(circle_prob).solver_timeout == SolverConfig.timeout

    @pytest.mark.parametrize("timeout", ["abc", "nan", "inf", "-1", "1e9"])
    def test_bad_solver_timeout_is_input_error(self, tmp_path, circle_prob, capsys,
                                               timeout):
        # in the problem file it is an error at its line; as a flag, of
        # problem-file commands and of cert-check alike
        solver = tmp_path / "unknown.sh"
        solver.write_text("#!/bin/sh\necho unknown\n")
        solver.chmod(0o755)
        prob = write(tmp_path, "timeout.prob", Path(circle_prob).read_text()
                     + f"solver: {solver}\nsolver_timeout: {timeout}\n")
        assert main(["check-alg", prob]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: 5:1: ") and "Traceback" not in err
        if timeout == "abc":
            return  # argparse rejects a flag value that is not a number
        _, report = run_json(capsys, ["check-alg", circle_prob, "--json"])
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(report["data"]["certificate"]))
        flag = ["--solver", str(solver), "--solver-timeout", timeout]
        assert main(["check-alg", circle_prob] + flag) == 3
        assert main(["cert-check", str(cert_path)] + flag) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_invalid_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["cert-check", str(path)]) == 3

    def test_integer_past_the_json_digit_limit_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"kind": "dri", "version": ' + "1" * 5000 + "}")
        assert main(["cert-check", str(path)]) == 3

    def test_version_1_hpreduce_certificate_is_input_error(self, tmp_path, capsys):
        hp = write(tmp_path, "hp.prob", "vars: x\nprogram: { x := -x }*\npost: x = 0\n")
        _, report = run_json(capsys, ["hp-reduce", hp, "--json"])
        doc = report["data"]["certificate"]
        assert doc["version"] == 2
        doc["version"] = 1
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert main(["cert-check", str(path)]) == 3
        assert "predates generator-set loop chains" in capsys.readouterr().err

    def test_version_1_sai_certificate_is_input_error(self, tmp_path, disk_prob, capsys):
        _, report = run_json(capsys, ["check-inv", disk_prob, "--json", "--samples", "50"])
        doc = report["data"]["certificate"]
        assert doc["version"] == 3
        path = tmp_path / "sai.json"
        path.write_text(json.dumps(doc))
        assert main(["cert-check", str(path)]) == 0
        for version in (1, 2):
            doc["version"] = version
            path.write_text(json.dumps(doc))
            assert main(["cert-check", str(path)]) == 3
            assert (f"sai certificate version {version} records side conditions that "
                    "are now rebuilt from system, P and Q; run check-inv again for a "
                    "version 3 one") in capsys.readouterr().err

    def test_sai_certificate_states_only_its_claim(self, disk_prob, capsys):
        _, report = run_json(capsys, ["check-inv", disk_prob, "--json", "--samples", "50"])
        assert set(report["data"]["certificate"]) == {"kind", "version", "system", "P", "Q",
                                                      "cap"}

    def test_sai_certificate_replays_under_its_own_cap(self, tmp_path, capsys):
        # the domain atom has rank 22: past cert-check's default cap of 20,
        # within the problem's cap of 30, which the certificate records
        prob = write(tmp_path, "cap.prob", "vars: x, y, z\node: x' = y, y' = -x, z' = 1\n"
                     "candidate: x^2 + 1 > 0\ndomain: z^21 + x^2 + y^2 >= 0\ncap: 30\n")
        code, report = run_json(capsys, ["check-inv", prob, "--json"])
        assert code == 0
        doc = report["data"]["certificate"]
        assert doc["cap"] == 30
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(doc))
        assert main(["cert-check", str(path)]) == 0
        doc["cap"] = 20
        path.write_text(json.dumps(doc))
        assert main(["cert-check", str(path)]) == 1
        del doc["cap"]  # a version 3 file without cap has the default one
        path.write_text(json.dumps(doc))
        assert main(["cert-check", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "certificate sai: VALID", "certificate sai: REJECTED",
            "certificate sai: REJECTED"]

    def test_version_2_sai_certificate_with_a_huge_witness_ends_at_once(
            self, tmp_path, disk_prob, capsys):
        # version 2 restated the side conditions, whose witnesses are never
        # parsed now: Fraction("1e200000000") alone would run for minutes
        _, report = run_json(capsys, ["check-inv", disk_prob, "--json", "--samples", "50"])
        conditions = report["data"]["conditions"]
        conditions[0]["status"]["witness"] = ["1e200000000", "0"]
        doc = dict(report["data"]["certificate"], version=2, conditions=conditions,
                   forward=conditions[0]["conclusion"],
                   backward=conditions[1]["conclusion"])
        path = tmp_path / "sai.json"
        path.write_text(json.dumps(doc))
        done = subprocess.run([sys.executable, "-m", "odecert", "cert-check", str(path)],
                              capture_output=True, text=True, env=_odecert_env(), timeout=5)
        assert done.returncode == 3
        assert "sai certificate version 2 records side conditions" in done.stderr

    @staticmethod
    def _certificate_doc(kind, tmp_path, circle_prob, capsys):
        if kind == "dri":
            return run_json(capsys, ["check-alg", circle_prob, "--json"])[1]["data"]["certificate"]
        if kind == "hpreduce":
            hp = write(tmp_path, "hp.prob", "vars: x\nprogram: { x := -x }*\npost: x = 0\n")
            return run_json(capsys, ["hp-reduce", hp, "--json"])[1]["data"]["certificate"]
        table = odecert.VarTable(["x", "y"])
        x, y = (odecert.Polynomial.variable(table, n) for n in ("x", "y"))
        swap = odecert.OdeSystem.from_pairs(table, [("x", y), ("y", x)])
        return odecert.certificate_to_json(odecert.dri_companion(odecert.rank(x, swap), swap))

    @pytest.mark.parametrize("form", ["bool", "float"])
    @pytest.mark.parametrize("kind", ["dri", "vdbx", "hpreduce"])
    def test_version_must_be_an_int(self, tmp_path, circle_prob, capsys, kind, form):
        # True == 1 and 1.0 == 1, yet neither is a format version
        doc = self._certificate_doc(kind, tmp_path, circle_prob, capsys)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        assert main(["cert-check", str(path)]) == 0
        doc["version"] = True if form == "bool" else float(doc["version"])
        path.write_text(json.dumps(doc))
        assert main(["cert-check", str(path)]) == 3
        assert "unsupported certificate version" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc.pop("rank"),
        lambda doc: doc["rank"].update(n="one"),
        lambda doc: doc["rank"].pop("cofactors"),
        lambda doc: doc["rank"].update(cofactors=[1]),
        lambda doc: doc.update(system=[]),
        lambda doc: doc["system"].pop("ode_rhs"),
        lambda doc: doc["system"].update(ode_rhs=doc["system"]["ode_rhs"][:1]),
        lambda doc: doc.update(p=None),
        lambda doc: doc.update(domain=7),
    ], ids=["no-rank", "n-string", "no-cofactors", "cofactor-int", "system-list",
            "no-ode-rhs", "short-ode-rhs", "p-null", "domain-int"])
    def test_malformed_dri_certificate_is_input_error(self, tmp_path, circle_prob,
                                                      capsys, mutate):
        _, report = run_json(capsys, ["check-alg", circle_prob, "--json"])
        doc = report["data"]["certificate"]
        mutate(doc)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert main(["cert-check", str(path)]) == 3
        assert "input error" in capsys.readouterr().err

    def test_malformed_hpreduce_and_sai_certificates_are_input_errors(
            self, tmp_path, disk_prob, capsys):
        hp = write(tmp_path, "hp.prob", "vars: x\nprogram: { x := -x }*\npost: x = 0\n")
        _, report = run_json(capsys, ["hp-reduce", hp, "--json"])
        hp_doc = report["data"]["certificate"]
        _, report = run_json(capsys, ["check-inv", disk_prob, "--json", "--samples", "50"])
        sai_doc = report["data"]["certificate"]
        cases = [
            (hp_doc, lambda d: d.update(cap="20")),
            (hp_doc, lambda d: d["chains"][0].update(chain="x")),
            (hp_doc, lambda d: d.pop("vars")),
            (sai_doc, lambda d: d["P"].update(disjuncts=[{"geqs": []}])),
        ]
        for k, (original, mutate) in enumerate(cases):
            doc = json.loads(json.dumps(original))
            mutate(doc)
            path = tmp_path / f"malformed{k}.json"
            path.write_text(json.dumps(doc))
            assert main(["cert-check", str(path)]) == 3, k


class TestUnivariateSignTests:
    """Candidates whose side conditions need a literal in one variable shown
    sign-definite by a Sturm count: both are invariant, with a certificate
    that ``cert-check`` replays."""

    @pytest.mark.parametrize("text, forward", [
        # an empty candidate: -x^2 - 3 >= 0 has no real point
        pytest.param("vars: x, y\node: x' = -x^2 + 2*x*y, y' = -3*x + 2*y\n"
                     "candidate: -x^2 - 3 >= 0\n", "proved_identity", id="empty-region"),
        # on the case q = -2p the conclusion reduces to 8p^2 - 6p + 2 >= 0
        pytest.param("vars: p, q\node: p' = -2*p^2 + p*q + p, q' = -2*q - 2\n"
                     "candidate: -2*p - q >= 0\n", "proved_by_ideal_reduction",
                     id="half-plane"),
    ])
    def test_check_inv_and_cert_check(self, tmp_path, capsys, text, forward):
        code, report = run_json(capsys, ["check-inv", write(tmp_path, "sign.prob", text),
                                         "--json"])
        assert code == 0 and report["data"]["verdict"] == "invariant"
        kinds = {c["provenance"]: c["status"]["kind"] for c in report["data"]["conditions"]}
        assert kinds == {"sai-forward": forward, "sai-backward": "proved_identity"}
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(report["data"]["certificate"]))
        code, checked = run_json(capsys, ["cert-check", str(cert_path), "--json"])
        assert code == 0 and checked["data"] == {"kind": "sai", "valid": True}


class TestDeterminism:
    def test_byte_identical_reports(self, half_prob, capsys):
        code1 = main(["check-inv", half_prob, "--json", "--seed", "0"])
        out1 = capsys.readouterr().out
        code2 = main(["check-inv", half_prob, "--json", "--seed", "0"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 1
        assert out1 == out2

    def test_seed_recorded(self, disk_prob, capsys):
        _, report = run_json(capsys, ["check-inv", disk_prob, "--json", "--seed", "3"])
        assert report["seed"] == 3


class TestPinnedOutputs:
    """sha256 of ``--json`` output on fixed problems.

    ``check-inv`` on the running-example regions was recorded when the
    backward condition came to negate progress formulas, and the open disk
    again when ``sai`` certificates came to state only their claim (version
    3); its sampling draws and refuting witnesses are those
    recorded before sampling moved to integers: a change to the sampling
    rng's call sequence or to the root lists moves the witnesses.  ``radical`` was recorded while
    loop chains still ran a from-scratch Groebner basis per membership test:
    the rank chains must not move under the incremental chain engine.
    ``hp-reduce`` was recorded when the reduction moved to generator lists
    (version 2 certificates, one chain record per loop member)."""

    HALF = "u^2 + v^2 < 1/4 | (u^2 + v^2 = 1/4 & u >= 0)"

    @pytest.mark.parametrize("candidate, extra, digest", [
        pytest.param("1 - u^2 - v^2 > 0", [],
                     "e96232c7f0e012206a35bb150d2cab2734b3bce933280920ac1e2edaab39395a",
                     id="open-disk"),
        pytest.param("u^2 <= v^2 + 9/2\nsamples: 2000", [],
                     "bb955c1027da34487b56e2a2d9701716d68119357a7676aacfa73c515329f8c4",
                     id="green-region"),
        pytest.param(HALF, [],
                     "78b424fdb956875fa38e7222962cfdace45709dace04034e3dad4c8330ff46b3",
                     id="half-open-disk"),
        pytest.param(HALF, ["--seed", "5"],
                     "38017be24114e50f64409864460f2455a57520b29f19582f02dc64618e8bd78b",
                     id="half-open-disk-seed-5"),
    ])
    def test_check_inv_json_digest(self, tmp_path, capsys, candidate, extra, digest):
        prob = write(tmp_path, "region.prob",
                     f"vars: u, v\node: {ALPHA_E_ODE}\ncandidate: {candidate}\n")
        main(["check-inv", prob, "--json"] + extra)
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command, text, digest", [
        pytest.param("hp-reduce", "vars: x\nprogram: { x := x^2 + 1 }*\npost: x = 0\n",
                     "6a3867d3f9c703c1f55a4f742444014a592107eafa0367f2c2db5e880d7cdf82",
                     id="loop-to-unit-ideal"),
        pytest.param("hp-reduce", "vars: x, y\nprogram: { x := x + y }*\npost: x - x = 0\n",
                     "3f6d6628afeafaedbd8b7da6f4eaad3ff6be367edd87c9bd7836ac7fdccee772",
                     id="loop-zero-postcondition"),
        pytest.param("hp-reduce", "vars: x, y\nprogram: x := x + 1 ; "
                     "{ y := 2*y ; { x' = y, y' = -x } }*\npost: x^2 + y^2 - 1 = 0\n",
                     "6b2ddd6f17ae06a24fbc52b5d3b03624d0b8c23d1686e908cdc3eb40b2a33ed1",
                     id="loop-with-ode"),
        pytest.param("hp-reduce", "vars: x, y\nprogram: { x := x + y ++ y := x - 1 }*\n"
                     "post: x = 0\n",
                     "209448a4d507ade352e3e0a45b5b7d185fdf20d1c4093640c5be029bc9add7fe",
                     id="loop-with-choice"),
        pytest.param("radical", "vars: x, y\node: x' = y, y' = x\npolynomial: x\n",
                     "cf13889c7b2e91359c71e4ab18a2e3cddfff4eb37b81edc1521aa3af9357f012",
                     id="radical-rank-2"),
        pytest.param("radical", "vars: x, y\node: x' = 1, y' = -x*y - 3*x\n"
                     "polynomial: -2*x*y\n",
                     "71a5a59a7a1a6ffc5c347ef71c1c081135c34fa19530a7c655f851fee8bef04e",
                     id="radical-rank-4-unit-ideal"),
    ])
    def test_chain_json_digest(self, tmp_path, capsys, command, text, digest):
        main([command, write(tmp_path, "chain.prob", text), "--json"])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPinnedSummaries:
    """sha256 of stdout, human summary and ``--json`` report, of every
    command; recorded before the summary came to be rendered from the
    report's data.  stderr (``elapsed: N ms``) is not pinned."""

    FILES = {
        "circle.prob": f"vars: u, v\node: {ALPHA_E_ODE}\npolynomial: u^2 + v^2 - 1\n",
        "disk.prob": f"vars: u, v\node: {ALPHA_E_ODE}\ncandidate: 1 - u^2 - v^2 > 0\n",
        "half.prob": f"vars: u, v\node: {ALPHA_E_ODE}\n"
                     "candidate: u^2 + v^2 < 1/4 | (u^2 + v^2 = 1/4 & u >= 0)\n",
        "vec.prob": "vars: x, y\node: x' = y, y' = x\npolynomials: x, y\n",
        "nd.prob": "vars: x, y\node: x' = y, y' = x\npolynomial: x\n",
        "vnd.prob": "vars: x, y\node: x' = y, y' = x^2\npolynomials: x\n",
        "loop.prob": "vars: x\nprogram: { x := -x }*\npost: x = 0\n",
        "bare.prob": "vars: x\nprogram: { x := x }*\npost: x = 0\n",
    }

    @pytest.fixture
    def files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name, text in self.FILES.items():
            Path(name).write_text(text)
        _, report = run_json(capsys, ["check-alg", "circle.prob", "--json"])
        Path("dri.json").write_text(json.dumps(report["data"]["certificate"]))
        _, report = run_json(capsys, ["hp-reduce", "bare.prob", "--json"])
        cert = report["data"]["certificate"]
        cert.update(chains=[])
        Path("rejected.json").write_text(json.dumps(cert))

    @pytest.mark.parametrize("argv, code, human, report", [
        pytest.param(argv, code, human, report, id=" ".join(argv))
        for argv, code, human, report in [
            (["lie", "circle.prob", "--max", "2"], 0,
             "2b0ca8375fb8bb41b40533d1430688e4f78d526f8ebad7e6bee21e413936d2bd",
             "80512a3acf77aaea9f2249ce855c999bffb7c5f3a8ed91afa01219e79ee5b3c1"),
            (["rank", "circle.prob"], 0,
             "b74a30de1046ff5c461a52d9a7e7f75680832898549ad1c933e0c9103c3ff2bf",
             "090ba22a3d17230e5107b6ce2c475381043b0930cf88e2c54019896460250394"),
            (["radical", "nd.prob"], 0,
             "08133363ee397ac25abca37afb63a32ed49cf0b9203bf119a198d0277306ffdb",
             "cf13889c7b2e91359c71e4ab18a2e3cddfff4eb37b81edc1521aa3af9357f012"),
            (["progress", "circle.prob"], 0,
             "55650ed49b39c18b0781ac660c097ff0176ae4de610ea8e91e5ebbad37bd4d42",
             "069c295a2e4e19237af14a4951a798632f689a3cae2b687bd03c84f241e4e849"),
            (["progress", "disk.prob"], 0,
             "a8dbe012ff8201d6fe4ba6ddcdb1e1ec2939c682ae35bb813141dd85fb018d74",
             "3c32ce232d2065c7f79697043c6bb96bb5a6db0fadd2cf427a68da60d2d54cc1"),
            (["check-alg", "circle.prob"], 0,
             "08f64f77679b9249f50b254511fbc65c443d8a85e53f4dad3df81e7326329147",
             "5fad0db3f0dc7362ab0943bed559c779227a21ecb05a68c9ed63f1f3f403b0a8"),
            (["check-inv", "disk.prob"], 0,
             "49c9a38235af154c915671ab5abc7f9350892d766df989351c092007fc701701",
             "e96232c7f0e012206a35bb150d2cab2734b3bce933280920ac1e2edaab39395a"),
            (["check-inv", "half.prob"], 1,
             "6387afc1a9b19052924e182b53bff5856e4652500add103dd67ad1b28460bda7",
             "78b424fdb956875fa38e7222962cfdace45709dace04034e3dad4c8330ff46b3"),
            (["darboux", "circle.prob"], 0,
             "aa92fb8d5119b2b3c597f43a042cbfd115b144b68df6554a1ef19496cf01aec8",
             "4c76c5a7210719189b04256afd77cb642884d97f002c0d769d90d317d6f09ff2"),
            (["darboux", "vec.prob"], 0,
             "3a7b3fe416148d9c84aee4612088408506929610330986a48410ac3aff4ea61b",
             "1ec2531176b47e5b58e5f8e7c9760bc14fb2885d7a23260d65f67e35fa652717"),
            (["darboux", "nd.prob"], 2,
             "101ed805d75039db70a5448315a05cb1026aef31a89a6842ae6487ca98185f3a",
             "43bf74cb1a8450838b1a1a236b3b0b71cc981841f1d40c210de4668bcece9383"),
            (["darboux", "vnd.prob"], 2,
             "2275ad2f5e99a82730e62d724520a643a5c0971cc797be6108f44a76a653c30e",
             "43bf74cb1a8450838b1a1a236b3b0b71cc981841f1d40c210de4668bcece9383"),
            (["hp-reduce", "loop.prob"], 0,
             "bdca0bbfdf24fb0012c68e20788b6ca9dc1e1800e1f3295cb8e2b9766f7b4a08",
             "57a301194c5c51127d22afcaa67974bf82ec1a2563ad16cb6e2c53ef984f6df1"),
            (["emit-smt", "circle.prob"], 0,
             "0eaee48b7909be91e048e6145e2aede84d45d861abac7efd7729424d04ca7fef",
             "7b9d1822cbef0467b58edf95ce65d48ac30ac2de495fb6feff7ee88fd463a0de"),
            (["emit-smt", "disk.prob", "--out", "smt"], 0,
             "ecdf96e1952b080163c37301608a6d43cb7a21a66a0404bbc499639b996f6d03",
             "76724227542e26d10e7f3a83bd71e34f235e659e1a9371bc95c2e55b9a673f9a"),
            (["cert-check", "dri.json"], 0,
             "6c45caaaaf513ed790d78f7b2cf78e59583c0c975647e7e3786bdedc3815c9d0",
             "a81e3562a288878eeabbd507fb41225fdb8c7874913ec614b89fd496b4c864d1"),
            (["cert-check", "rejected.json"], 1,
             "80e57c1d7fb714796d397ba3cec15d6679cd0525b363563f5ca21d1cd0c65ea3",
             "4927f1af19b9b2136581ef51f5b653c1b44de2ecb1270931fec798c54da3e60a"),
        ]])
    def test_stdout_digests(self, files, capsys, argv, code, human, report):
        digests = []
        for extra in ([], ["--json"]):
            assert main(argv + extra) == code
            digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert digests == [human, report]


# strings with non-ASCII, control and lone-surrogate characters, and the
# characters JSON escapes
JSON_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                              st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff')))
JSON_LEAF = (st.none() | st.booleans() | st.integers() | st.integers(10**30, 10**60)
             | st.floats() | JSON_TEXT)


class TestJsonWriter:
    """``cli._json_text`` is ``json.dumps(indent=2, sort_keys=True)``."""

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(JSON_LEAF, lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(JSON_TEXT, inner, max_size=4)), max_leaves=40))
    @example({"a": [], "b": {}, "c": (), "d": [{}, [[]], ()]})
    @example({"\ud800": ["\udfff\x00", -(10**80)], "": None, "t": True, "f": False})
    def test_equals_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


class TestArgvFastPath:
    """``COMMAND FILE --json`` skips argparse with the Namespace argparse
    would give; every other argv still reaches argparse."""

    COMMANDS = ["lie", "rank", "radical", "progress", "check-alg", "check-inv",
                "darboux", "hp-reduce", "emit-smt", "cert-check"]

    @pytest.fixture
    def argparse_calls(self, monkeypatch):
        calls = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, args=None, namespace=None):
            calls.append(args)
            return parse_args(parser, args, namespace)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        return calls

    def test_commands_are_the_parsers(self):
        assert sorted(cli._command_defaults()) == sorted(self.COMMANDS)

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_same_namespace_without_argparse(self, cmd, argparse_calls):
        argv = [cmd, "p.prob", "--json"]
        fast = cli._parse_args(argv)
        assert argparse_calls == []
        assert fast == cli._build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [
        [cmd, *rest] for cmd in COMMANDS
        for rest in (["-1", "--json"], ["--json", "p.prob"], ["p.prob"],
                     ["p.prob", "--json", "--seed", "3"])] + [["-h"]], ids=" ".join)
    def test_other_argv_reaches_argparse(self, argv, argparse_calls, capsys):
        try:
            got = cli._parse_args(argv)
        except SystemExit as exc:  # -h prints the help and exits 0
            got = exc.code
        assert argparse_calls == [argv]
        if argv != ["-h"]:
            assert got == cli._build_parser().parse_args(argv)

    def test_argv_none_reads_sys_argv(self, tmp_path, capsys, monkeypatch, argparse_calls):
        loop = write(tmp_path, "loop.prob", "vars: x\nprogram: { x := x }*\npost: x = 0\n")
        assert main(["hp-reduce", loop, "--json"]) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["odecert", "hp-reduce", loop, "--json"])
        assert main() == 0
        assert capsys.readouterr().out == expected
        assert argparse_calls == []
