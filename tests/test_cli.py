import hashlib
import json
import time

import pytest

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

    def test_usage_error_is_two_on_every_call(self, capsys):
        # the parser is built once per process; a reused parser must still
        # reject bad usage with argparse's exit code and text
        texts = []
        for argv in (["rank"], ["frobnicate", "x.prob"], ["rank"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            texts.append(capsys.readouterr().err)
        assert texts[0] == texts[2] and texts[0].startswith("usage: odecert")
        assert "invalid choice: 'frobnicate'" in texts[1]

    def test_input_error_is_three(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.prob", "vars: x\npolynomial: x + y\n")
        assert main(["rank", bad]) == 3
        assert main(["rank", str(tmp_path / "missing.prob")]) == 3

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

    @pytest.mark.filterwarnings("ignore:normal form has")
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

    def test_progress_command(self, circle_prob, capsys):
        code, report = run_json(capsys, ["progress", circle_prob, "--json"])
        assert code == 0
        assert report["data"]["gt_forward"] == "u^2 + v^2 - 1 > 0"

    def test_radical_command(self, circle_prob, capsys, monkeypatch):
        import odecert.ideals as ideals
        calls = []
        real_rank = ideals.rank

        def counting_rank(*args, **kwargs):
            calls.append(args)
            return real_rank(*args, **kwargs)

        monkeypatch.setattr(ideals, "rank", counting_rank)
        code, report = run_json(capsys, ["radical", circle_prob, "--json"])
        assert code == 0
        assert report["data"]["formula"] == "u^2 + v^2 - 1 = 0"
        assert len(calls) == 1  # the chain and the formula share one rank run

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
        assert doc["version"] == 2
        path = tmp_path / "sai.json"
        path.write_text(json.dumps(doc))
        assert main(["cert-check", str(path)]) == 0
        doc["version"] = 1
        path.write_text(json.dumps(doc))
        assert main(["cert-check", str(path)]) == 3
        assert ("sai certificate version 1 predates backward conditions that "
                "negate progress formulas") in capsys.readouterr().err

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
            (sai_doc, lambda d: d.pop("conditions")),
            (sai_doc, lambda d: d["conditions"][0]["status"].update(witness=[1])),
            (sai_doc, lambda d: d["conditions"][0]["status"].update(witness=["1/0"])),
            (sai_doc, lambda d: d["P"].update(disjuncts=[{"geqs": []}])),
        ]
        for k, (original, mutate) in enumerate(cases):
            doc = json.loads(json.dumps(original))
            mutate(doc)
            path = tmp_path / f"malformed{k}.json"
            path.write_text(json.dumps(doc))
            assert main(["cert-check", str(path)]) == 3, k


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
    backward condition came to negate progress formulas (version 2 ``sai``
    certificates); its sampling draws and refuting witnesses are those
    recorded before sampling moved to integers: a change to the sampling
    rng's call sequence or to the root lists moves the witnesses.  ``radical`` was recorded while
    loop chains still ran a from-scratch Groebner basis per membership test:
    the rank chains must not move under the incremental chain engine.
    ``hp-reduce`` was recorded when the reduction moved to generator lists
    (version 2 certificates, one chain record per loop member)."""

    HALF = "u^2 + v^2 < 1/4 | (u^2 + v^2 = 1/4 & u >= 0)"

    @pytest.mark.parametrize("candidate, extra, digest", [
        pytest.param("1 - u^2 - v^2 > 0", [],
                     "7feaad6f0013eb8124c9c5d13cb383b3735d025079d02ccf2eaf686425dd4f60",
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
