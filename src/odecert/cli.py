"""Command-line interface.

Each subcommand reads a problem file (except cert-check, which reads a
certificate JSON) and returns its report data: --json writes the
deterministic JSON report, and without it a human summary rendered from
the data goes to stdout.  Exit codes: 0 invariant/success, 1 not-invariant
or refuted, 2 unknown, 3 input error (usage errors included), 4 resource
error, 5 internal error (any other exception: a bug, never a verdict).
Output goes to stdout once the command is done; a reader of stdout or
stderr that has gone by then (as in ``| head -c 1``) leaves the exit code
as it is, with no traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

from .certio import certificate_from_json, certificate_to_json, condition_json
from .errors import InputError, OdecertError, ResourceError
from .ideals import DEFAULT_STEP_BUDGET, StepBudget, differential_radical, rank
from .invariant import (DischargeConfig, Verdict, algebraic_invariance_condition,
                        check_algebraic_invariance, check_certificate,
                        check_semialgebraic_invariance, find_darboux_cofactor,
                        find_vectorial_darboux, radical_chains,
                        reduction_certificate, sai_side_conditions)
from .odecore import higher_lie
from .problemfile import ProblemFile, parse_int, parse_problem
from .semalg import (NormalForm, algebraic_combine, atoms, progress_geq, progress_gt,
                     radical_of_chain, render_formula, reverse_chain,
                     semialg_progress, to_normal_form)
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
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


def _require(pf: ProblemFile, attr: str):
    value = getattr(pf, attr)
    if value is None:
        raise InputError(f"this command needs the problem file to declare {attr!r}")
    return value


def _regions(pf: ProblemFile) -> tuple[NormalForm, NormalForm]:
    """The normal forms of the candidate and of the domain (true if none)."""
    P = to_normal_form(_require(pf, "candidate"))
    return P, to_normal_form(pf.domain) if pf.domain is not None else NormalForm.true()


def _verdict_report(verdict: Verdict) -> tuple[dict, int]:
    cert, witness = verdict.certificate, verdict.witness
    return {
        "verdict": verdict.kind,
        "certificate": None if cert is None else certificate_to_json(cert),
        "witness": None if witness is None else [str(v) for v in witness],
        "conditions": [condition_json(c) for c in verdict.conditions],
        "diagnostics": verdict.diagnostics,
    }, _VERDICT_EXIT[verdict.kind]


# each command: (problem file, args, config) -> (report data, exit code)

def _lie(pf, args, config):
    sys_, q = _require(pf, "ode"), _require(pf, "polynomial")
    if args.max < 0:  # as higher_lie rejects it; range() would print L^0 alone
        raise InputError("Lie derivative order must be non-negative")
    rows = [q.render()]
    # a derivative spends one step per term pair it may multiply, at least one
    budget, width = StepBudget(DEFAULT_STEP_BUDGET, "lie"), sum(len(f.nums) for f in sys_.rhs)
    for _ in range(args.max):
        budget.spend(max(1, len(q.nums) * width))
        q = higher_lie(q, sys_, 1)
        rows.append(q.render())
    return {"lie_derivatives": rows}, EXIT_OK


def _rank(pf, args, config):
    sys_, p = _require(pf, "ode"), _require(pf, "polynomial")
    rr = rank(p, sys_, cap=config.rank_cap)
    return {"rank": rr.n, "cofactors": [g.render() for g in rr.cofactors]}, EXIT_OK


def _radical(pf, args, config):
    sys_, p = _require(pf, "ode"), _require(pf, "polynomial")
    chain = differential_radical(p, sys_, cap=config.rank_cap)
    return {"chain": [q.render() for q in chain],
            "formula": render_formula(radical_of_chain(chain))}, EXIT_OK


def _progress(pf, args, config):
    sys_ = _require(pf, "ode")
    nf = None if pf.candidate is None else to_normal_form(pf.candidate)
    polys = [] if pf.polynomial is None else [pf.polynomial]
    # forward chains, each polynomial ranked once; the backward ones derived
    forward = radical_chains(polys + ([] if nf is None else atoms(nf)), sys_,
                             config.rank_cap)
    data: dict = {}
    if pf.polynomial is not None:
        chain = forward[pf.polynomial]
        for direction, c in (("forward", chain), ("backward", reverse_chain(chain))):
            data["gt_" + direction] = render_formula(progress_gt(c))
            data["geq_" + direction] = render_formula(progress_geq(c))
    if nf is not None:
        backward = {p: reverse_chain(chain) for p, chain in forward.items()}
        for direction, chains in (("forward", forward), ("backward", backward)):
            data["semialg_" + direction] = render_formula(semialg_progress(nf, chains))
    if not data:
        raise InputError("progress needs 'polynomial' or 'candidate'")
    return data, EXIT_OK


def _check_alg(pf, args, config):
    sys_, p = _require(pf, "ode"), _require(pf, "polynomial")
    return _verdict_report(check_algebraic_invariance(p, sys_, pf.domain_polynomial(),
                                                      config))


def _check_inv(pf, args, config):
    sys_ = _require(pf, "ode")
    return _verdict_report(check_semialgebraic_invariance(*_regions(pf), sys_, config))


def _darboux(pf, args, config):
    sys_ = _require(pf, "ode")
    bound = args.deg_bound if args.deg_bound is not None else pf.deg_bound
    if pf.polynomials is not None:
        G = find_vectorial_darboux(pf.polynomials, sys_, bound)
        if G is None:
            return {"found": False}, EXIT_UNKNOWN
        return {"found": True, "G": [[G.get(i, j).render() for j in range(G.cols)]
                                     for i in range(G.rows)]}, EXIT_OK
    g = find_darboux_cofactor(_require(pf, "polynomial"), sys_, bound)
    if g is None:
        return {"found": False}, EXIT_UNKNOWN
    return {"found": True, "cofactor": g.render()}, EXIT_OK


def _hp_reduce(pf, args, config):
    program = _require(pf, "program")
    p = algebraic_combine(to_normal_form(_require(pf, "post")), table=pf.table)
    cert = reduction_certificate(pf.table, program, p, config.rank_cap)
    return {"postcondition": p.render(), "reduced": cert.q.render(),
            "certificate": certificate_to_json(cert)}, EXIT_OK


def _emit_smt(pf, args, config):
    sys_ = _require(pf, "ode")
    if pf.candidate is not None:
        conditions = sai_side_conditions(*_regions(pf), sys_, config.rank_cap)
    elif pf.polynomial is not None:
        chain = differential_radical(pf.polynomial, sys_, cap=config.rank_cap)
        conditions = [algebraic_invariance_condition(chain, sys_, pf.domain_polynomial())]
    else:
        raise InputError("emit-smt needs 'candidate' or 'polynomial'")
    queries = [{"provenance": c.provenance,
                "query": emit_smtlib(c.hypothesis, c.conclusion, c.universal_vars,
                                     comment=f"side condition: {c.provenance}")}
               for c in conditions]
    if not args.out:
        return {"queries": queries}, EXIT_OK
    files = [Path(args.out) / f"{entry['provenance']}.smt2" for entry in queries]
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        for path, entry in zip(files, queries):
            path.write_text(entry["query"])
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from None
    return {"files": [str(path) for path in files]}, EXIT_OK


_COMMANDS = {"lie": _lie, "rank": _rank, "radical": _radical, "progress": _progress,
             "check-alg": _check_alg, "check-inv": _check_inv, "darboux": _darboux,
             "hp-reduce": _hp_reduce, "emit-smt": _emit_smt}


def _run_command(args) -> tuple[dict, int, DischargeConfig, Optional[ProblemFile]]:
    """Returns (report data, exit code, config, problem file); cert-check
    reads no problem file."""
    if args.command != "cert-check":
        pf = _load_problem(args.file)
        config = _config(pf, args)
        return (*_COMMANDS[args.command](pf, args, config), config, pf)
    try:
        doc = json.loads(Path(args.file).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from None
    except ValueError as exc:  # bad JSON, or an integer past json's digit limit
        raise InputError(f"invalid certificate JSON: {exc}") from None
    except RecursionError:
        raise InputError("invalid certificate JSON: nested too deeply") from None
    cert = certificate_from_json(doc)
    config = _config(ProblemFile(table=None), args)  # the problem-file defaults
    ok = check_certificate(cert, config)
    data = {"valid": ok, "kind": doc.get("kind")}
    return data, EXIT_OK if ok else EXIT_REFUTED, config, None


def _summary(command: str, data: dict, pf: Optional[ProblemFile]) -> list[str]:
    """The human summary: a view of the report's data (and, for darboux's
    not-found lines, of the problem file)."""
    if command == "cert-check":
        return [f"certificate {data['kind']}: {'VALID' if data['valid'] else 'REJECTED'}"]
    if command == "lie":
        return [f"L^{i}: {text}" for i, text in enumerate(data["lie_derivatives"])]
    if command == "rank":
        return [f"rank: {data['rank']}",
                *(f"g_{i}: {g}" for i, g in enumerate(data["cofactors"]))]
    if command == "radical":
        return [data["formula"]]
    if command == "progress":
        return [f"{key}: {value}" for key, value in data.items()]
    if command in ("check-alg", "check-inv"):
        lines = [f"verdict: {data['verdict']}"]
        for cond in data["conditions"]:
            status = cond["status"]
            line = f"  [{status['kind']}] {cond['provenance']}"
            if status["witness"] is not None:
                line += " at (" + ", ".join(status["witness"]) + ")"
            if status["detail"]:
                line += f" ({status['detail']})"
            lines.append(line)
        return lines
    if command == "darboux":
        if not data["found"]:
            return ["no vectorial cofactor matrix at this degree bound"
                    if pf.polynomials is not None else "no cofactor at this degree bound"]
        if "G" in data:
            return ["[ " + ", ".join(row) + " ]" for row in data["G"]]
        return [f"cofactor: {data['cofactor']}"]
    if command == "hp-reduce":
        return [f"postcondition as single equation: {data['postcondition']} = 0",
                f"[program] holds iff: {data['reduced']} = 0",
                *(f"loop chain {i}: " + "; ".join(rec["chain"])
                  for i, rec in enumerate(data["certificate"]["chains"]))]
    if "files" in data:  # emit-smt
        return data["files"]
    return [line for entry in data["queries"]
            for line in (f"; --- {entry['provenance']} ---", entry["query"])]


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse_args(argv)
    started = time.monotonic()
    try:
        data, code, config, pf = _run_command(args)
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
        "seed": config.seed,
        "exit_code": code,
        "data": data,
    }
    if args.timing:
        report["timing_ms"] = elapsed_ms
    if args.json:
        _write(sys.stdout, _json_text(report) + "\n")
        return code
    _write(sys.stdout, "".join(line + "\n" for line in _summary(args.command, data, pf)))
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
