"""Command-line interface.

Each subcommand reads a problem file (except cert-check, which reads a
certificate JSON) and writes a human summary to stdout, or a deterministic
JSON report with --json.  Exit codes: 0 invariant/success, 1 not-invariant or
refuted, 2 unknown, 3 input error (usage errors included), 4 resource error,
5 internal error (any other exception: a bug, never a verdict).  Output goes
to stdout once the command is done; a reader of stdout or stderr that has
gone by then (as in ``| head -c 1``) leaves the exit code as it is, with
no traceback.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stdout
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

from .certio import certificate_from_json, certificate_to_json, condition_json
from .errors import InputError, OdecertError, ResourceError
from .hpreduce import reduce_box
from .ideals import differential_radical, rank
from .invariant import (ChainRecord, DischargeConfig, HpReductionCert,
                        SideCondition, Verdict, algebraic_invariance_condition,
                        check_algebraic_invariance,
                        check_certificate, check_semialgebraic_invariance,
                        find_darboux_cofactor, find_vectorial_darboux,
                        sai_side_conditions)
from .odecore import higher_lie, reverse
from .problemfile import ProblemFile, parse_int, parse_problem
from .semalg import (NormalForm, algebraic_combine, progress_geq, progress_gt,
                     radical_of_chain, render_formula, semialg_progress,
                     to_normal_form)
from .smtlib import SolverConfig, emit_smtlib

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5

_VERDICT_EXIT = {"invariant": EXIT_OK, "not_invariant": EXIT_REFUTED,
                 "unknown": EXIT_UNKNOWN}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, but a usage error is an input error (exit 3):
    argparse's own 2 is the code of an ``unknown`` verdict."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _int_arg(text: str) -> int:
    """An integer flag, spelled as the problem file spells one."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(prog="odecert",
                          description="Exact invariance checking and "
                                      "certification for polynomial ODEs")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, cert_input: bool = False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="certificate JSON" if cert_input else "problem file")
        cmd.add_argument("--json", action="store_true", help="emit a JSON report")
        cmd.add_argument("--timing", action="store_true",
                         help="include wall time in the report")
        cmd.add_argument("--seed", type=_int_arg, default=None)
        cmd.add_argument("--samples", type=_int_arg, default=None)
        cmd.add_argument("--cap", type=_int_arg, default=None)
        cmd.add_argument("--deg-bound", type=_int_arg, default=None, dest="deg_bound")
        cmd.add_argument("--solver", default=None)
        cmd.add_argument("--solver-timeout", type=float, default=None,
                         dest="solver_timeout")
        return cmd

    add("lie", "print higher Lie derivatives of the polynomial").add_argument(
        "--max", type=_int_arg, default=1, help="highest derivative order to print")
    add("rank", "rank of the polynomial with its cofactors")
    add("radical", "differential radical formula of the polynomial")
    add("progress", "progress formulas (atom or semialgebraic, forward and backward)")
    add("check-alg", "decide invariance of polynomial = 0 (DRI route)")
    add("check-inv", "decide semialgebraic invariance (SAI route)")
    add("darboux", "Darboux cofactor search (scalar or vectorial)")
    add("hp-reduce", "reduce a box property of a hybrid program to one equation")
    add("emit-smt", "write side conditions as SMT-LIB queries").add_argument(
        "--out", default=None, help="directory for .smt2 files (default: stdout)")
    add("cert-check", "re-verify a certificate JSON", cert_input=True)
    return top


@functools.cache
def _command_defaults() -> dict[str, dict]:
    """Each subcommand's Namespace defaults, read from its parser."""
    (sub,) = [a for a in _build_parser()._actions if a.dest == "command"]
    return {name: {a.dest: a.default for a in cmd._actions
                   if a.default is not argparse.SUPPRESS}
            for name, cmd in sub.choices.items()}


def _parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    """``COMMAND FILE --json`` skips argparse's walk; any other argv (flags,
    help, usage errors) goes through argparse."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[2] == "--json" and not argv[1].startswith("-") \
            and argv[0] in _command_defaults():
        return argparse.Namespace(**{**_command_defaults()[argv[0]], "command": argv[0],
                                     "file": argv[1], "json": True})
    return _build_parser().parse_args(argv)


def _json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.  With
    ``indent`` the json module encodes in pure Python; here strings go
    through its C string encoder and ints through ``int.__repr__``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
             for k, v in sorted(value.items())]) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(
            [_json_text(v, inner) for v in value]) + pad + "]"
    return json.dumps(value)


def _load_problem(path: str) -> ProblemFile:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_problem(text)


def _config(pf: ProblemFile, args) -> DischargeConfig:
    seed = args.seed if args.seed is not None else pf.seed
    samples = args.samples if args.samples is not None else pf.samples
    cap = args.cap if args.cap is not None else pf.cap
    solver_path = args.solver if args.solver is not None else pf.solver
    timeout = args.solver_timeout if args.solver_timeout is not None else pf.solver_timeout
    solver = None
    if solver_path:
        solver = SolverConfig(path=solver_path, args=pf.solver_args, timeout=timeout)
    return DischargeConfig(samples=samples, seed=seed, solver=solver, rank_cap=cap)


def _require(pf: ProblemFile, attr: str, what: str):
    value = getattr(pf, attr)
    if value is None:
        raise InputError(f"this command needs the problem file to declare {what!r}")
    return value


def _fraction_list(point) -> Optional[list[str]]:
    return None if point is None else [str(v) for v in point]


def _verdict_report(verdict: Verdict) -> dict:
    cert = None
    if verdict.certificate is not None:
        cert = certificate_to_json(verdict.certificate)
    return {
        "verdict": verdict.kind,
        "certificate": cert,
        "witness": _fraction_list(verdict.witness),
        "conditions": [condition_json(c) for c in verdict.conditions],
        "diagnostics": verdict.diagnostics,
    }


def _print_conditions(conditions, out):
    for c in conditions:
        line = f"  [{c.status.kind}] {c.provenance}"
        if c.status.witness is not None:
            line += " at (" + ", ".join(str(v) for v in c.status.witness) + ")"
        if c.status.detail:
            line += f" ({c.status.detail})"
        print(line, file=out)


def _run_command(args) -> tuple[dict, int, int]:
    """Returns (report data, exit code, effective seed)."""
    if args.command == "cert-check":
        try:
            doc = json.loads(Path(args.file).read_text())
        except OSError as exc:
            raise InputError(f"cannot read {args.file}: {exc}") from None
        except ValueError as exc:  # bad JSON, or an integer past json's digit limit
            raise InputError(f"invalid certificate JSON: {exc}") from None
        cert = certificate_from_json(doc)
        timeout = args.solver_timeout if args.solver_timeout is not None \
            else SolverConfig.timeout
        solver = SolverConfig(args.solver, timeout=timeout) if args.solver else None
        given = {"samples": args.samples, "seed": args.seed, "rank_cap": args.cap}
        config = DischargeConfig(solver=solver,  # unset options keep its defaults
                                 **{k: v for k, v in given.items() if v is not None})
        ok = check_certificate(cert, config)
        data = {"valid": ok, "kind": doc.get("kind")}
        if not args.json:
            print(f"certificate {doc.get('kind')}: {'VALID' if ok else 'REJECTED'}")
        return data, (EXIT_OK if ok else EXIT_REFUTED), config.seed

    pf = _load_problem(args.file)
    config = _config(pf, args)

    if args.command == "lie":
        sys_ = _require(pf, "ode", "ode")
        p = _require(pf, "polynomial", "polynomial")
        rows = []
        q = p
        for i in range(max(0, args.max) + 1):
            rows.append(q.render())
            if i < args.max:
                q = higher_lie(q, sys_, 1)
        if not args.json:
            for i, text in enumerate(rows):
                print(f"L^{i}: {text}")
        return {"lie_derivatives": rows}, EXIT_OK, config.seed

    if args.command == "rank":
        sys_ = _require(pf, "ode", "ode")
        p = _require(pf, "polynomial", "polynomial")
        rr = rank(p, sys_, cap=config.rank_cap, order=pf.order)
        data = {"rank": rr.n, "cofactors": [g.render() for g in rr.cofactors]}
        if not args.json:
            print(f"rank: {rr.n}")
            for i, g in enumerate(rr.cofactors):
                print(f"g_{i}: {g.render()}")
        return data, EXIT_OK, config.seed

    if args.command == "radical":
        sys_ = _require(pf, "ode", "ode")
        p = _require(pf, "polynomial", "polynomial")
        chain = differential_radical(p, sys_, cap=config.rank_cap, order=pf.order)
        formula = radical_of_chain(chain)
        data = {"chain": [q.render() for q in chain],
                "formula": render_formula(formula)}
        if not args.json:
            print(render_formula(formula))
        return data, EXIT_OK, config.seed

    if args.command == "progress":
        sys_ = _require(pf, "ode", "ode")
        rsys = reverse(sys_)
        data: dict = {}
        if pf.polynomial is not None:
            p = pf.polynomial
            data["gt_forward"] = render_formula(progress_gt(p, sys_, cap=config.rank_cap))
            data["geq_forward"] = render_formula(progress_geq(p, sys_, cap=config.rank_cap))
            data["gt_backward"] = render_formula(progress_gt(p, rsys, cap=config.rank_cap))
            data["geq_backward"] = render_formula(progress_geq(p, rsys, cap=config.rank_cap))
        if pf.candidate is not None:
            nf = to_normal_form(pf.candidate)
            data["semialg_forward"] = render_formula(
                semialg_progress(nf, sys_, cap=config.rank_cap))
            data["semialg_backward"] = render_formula(
                semialg_progress(nf, rsys, cap=config.rank_cap))
        if not data:
            raise InputError("progress needs 'polynomial' or 'candidate'")
        if not args.json:
            for key, value in data.items():
                print(f"{key}: {value}")
        return data, EXIT_OK, config.seed

    if args.command == "check-alg":
        sys_ = _require(pf, "ode", "ode")
        p = _require(pf, "polynomial", "polynomial")
        verdict = check_algebraic_invariance(p, sys_, pf.domain_polynomial(), config)
        data = _verdict_report(verdict)
        if not args.json:
            print(f"verdict: {verdict.kind}")
            _print_conditions(verdict.conditions, sys.stdout)
        return data, _VERDICT_EXIT[verdict.kind], config.seed

    if args.command == "check-inv":
        sys_ = _require(pf, "ode", "ode")
        candidate = _require(pf, "candidate", "candidate")
        P = to_normal_form(candidate)
        Q = to_normal_form(pf.domain) \
            if pf.domain is not None else NormalForm.true()
        verdict = check_semialgebraic_invariance(P, Q, sys_, config)
        data = _verdict_report(verdict)
        if not args.json:
            print(f"verdict: {verdict.kind}")
            _print_conditions(verdict.conditions, sys.stdout)
        return data, _VERDICT_EXIT[verdict.kind], config.seed

    if args.command == "darboux":
        sys_ = _require(pf, "ode", "ode")
        bound = args.deg_bound if args.deg_bound is not None else pf.deg_bound
        if pf.polynomials is not None:
            G = find_vectorial_darboux(pf.polynomials, sys_, bound)
            if G is None:
                data = {"found": False}
                if not args.json:
                    print("no vectorial cofactor matrix at this degree bound")
                return data, EXIT_UNKNOWN, config.seed
            data = {"found": True,
                    "G": [[G.get(i, j).render() for j in range(G.cols)]
                          for i in range(G.rows)]}
            if not args.json:
                for i in range(G.rows):
                    print("[ " + ", ".join(G.get(i, j).render()
                                           for j in range(G.cols)) + " ]")
            return data, EXIT_OK, config.seed
        p = _require(pf, "polynomial", "polynomial")
        g = find_darboux_cofactor(p, sys_, bound)
        if g is None:
            data = {"found": False}
            if not args.json:
                print("no cofactor at this degree bound")
            return data, EXIT_UNKNOWN, config.seed
        data = {"found": True, "cofactor": g.render()}
        if not args.json:
            print(f"cofactor: {g.render()}")
        return data, EXIT_OK, config.seed

    if args.command == "hp-reduce":
        program = _require(pf, "program", "program")
        post = _require(pf, "post", "post")
        nf = to_normal_form(post)
        p = algebraic_combine(nf, table=pf.table)
        q, trace = reduce_box(program, p, cap=config.rank_cap)
        chains = tuple(ChainRecord(tuple(c), tuple(w))
                       for c, w in trace.star_chains())
        cert = HpReductionCert(table=pf.table, program=program, p=p, q=q,
                               chains=chains, cap=config.rank_cap)
        data = {
            "postcondition": p.render(),
            "reduced": q.render(),
            "certificate": certificate_to_json(cert),
        }
        if not args.json:
            print(f"postcondition as single equation: {p.render()} = 0")
            print(f"[program] holds iff: {q.render()} = 0")
            for idx, rec in enumerate(chains):
                print(f"loop chain {idx}: " + "; ".join(s.render() for s in rec.chain))
        return data, EXIT_OK, config.seed

    if args.command == "emit-smt":
        sys_ = _require(pf, "ode", "ode")
        conditions: list[SideCondition] = []
        if pf.candidate is not None:
            P = to_normal_form(pf.candidate)
            Q = to_normal_form(pf.domain) \
                if pf.domain is not None else NormalForm.true()
            conditions.extend(sai_side_conditions(P, Q, sys_, config))
        elif pf.polynomial is not None:
            chain = differential_radical(pf.polynomial, sys_, cap=config.rank_cap)
            conditions.append(algebraic_invariance_condition(chain, sys_,
                                                             pf.domain_polynomial()))
        else:
            raise InputError("emit-smt needs 'candidate' or 'polynomial'")
        queries = []
        for cond in conditions:
            query = emit_smtlib(cond.hypothesis, cond.conclusion,
                                cond.universal_vars,
                                comment=f"side condition: {cond.provenance}")
            queries.append({"provenance": cond.provenance, "query": query})
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            files = []
            for entry in queries:
                path = out_dir / f"{entry['provenance']}.smt2"
                path.write_text(entry["query"])
                files.append(str(path))
            data = {"files": files}
            if not args.json:
                for f in files:
                    print(f)
        else:
            data = {"queries": queries}
            if not args.json:
                for entry in queries:
                    print(f"; --- {entry['provenance']} ---")
                    print(entry["query"])
        return data, EXIT_OK, config.seed

    raise InputError(f"unknown command {args.command!r}")


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse_args(argv)
    started = time.monotonic()
    out = io.StringIO()  # the human summary, written once the verdict is in
    try:
        with redirect_stdout(out):
            data, code, seed = _run_command(args)
    except InputError as exc:
        _write(sys.stderr, f"input error: {exc}\n")
        return EXIT_INPUT
    except ResourceError as exc:
        _write(sys.stderr, f"resource error: {exc}\n")
        return EXIT_RESOURCE
    except OdecertError as exc:
        _write(sys.stderr, f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:
        _write(sys.stderr, f"internal error: {type(exc).__name__}: {exc}\n"
                           + traceback.format_exc())
        return EXIT_INTERNAL
    elapsed_ms = int((time.monotonic() - started) * 1000)
    report = {
        "version": 1,
        "command": args.command,
        "seed": seed,
        "exit_code": code,
        "data": data,
    }
    if args.timing:
        report["timing_ms"] = elapsed_ms
    if args.json:
        print(_json_text(report), file=out)
    _write(sys.stdout, out.getvalue())
    if not args.json:
        _write(sys.stderr, f"elapsed: {elapsed_ms} ms\n")
    return code


def _write(stream, text: str) -> None:
    """Write and flush ``text``; if the stream's reader has gone (``| head``,
    or a closed stderr), drop it quietly: the verdict's exit code stands,
    and the stream is pointed at the null device so the interpreter's own
    flush at exit fails no more."""
    try:
        stream.write(text)
        stream.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)


if __name__ == "__main__":
    sys.exit(main())
