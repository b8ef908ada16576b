"""SMT-LIB 2 export of side conditions and an untrusted external-solver client.

A condition "forall x. hypothesis -> conclusion" is exported as the
satisfiability query hypothesis AND NOT conclusion over QF_NRA with every
universal variable declared as a real constant; ``unsat`` means the condition
is valid.  Solver answers are never trusted directly: models are parsed back
into exact rationals and re-verified by evaluation before they can influence
any verdict.
"""

from __future__ import annotations

import re
import subprocess
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import InputError
from .polyarith import Polynomial, decimal
from .semalg import And, Atom, FalseF, Formula, Implies, Not, Or, TrueF


def check_timeout(seconds: float) -> float:
    """``seconds`` if it is from 0 to 10^6, else InputError (nan included);
    subprocess overflows on a wait much past 2^31 milliseconds."""
    if not 0 <= seconds <= 1e6:
        raise InputError(f"solver timeout must be from 0 to 1e6 seconds, got {seconds}")
    return seconds


@dataclass(frozen=True)
class SolverConfig:
    """External solver invocation: ``path [args...] query.smt2``."""
    path: str
    args: tuple[str, ...] = ()
    timeout: float = 60.0

    def __post_init__(self):
        check_timeout(self.timeout)


@dataclass
class SolverAnswer:
    result: str  # "sat" | "unsat" | "unknown" | "error"
    model: Optional[dict[str, Fraction]] = None
    detail: str = ""


def _rational_sexpr(c: Fraction) -> str:
    if c < 0:
        return f"(- {_rational_sexpr(-c)})"
    if c.denominator == 1:
        return decimal(c.numerator)
    return f"(/ {decimal(c.numerator)} {decimal(c.denominator)})"


def poly_sexpr(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        factors = []
        for i, e in enumerate(m):
            factors.extend([p.table.name(i)] * e)
        if not factors:
            parts.append(_rational_sexpr(c))
        elif c == 1 and len(factors) == 1:
            parts.append(factors[0])
        else:
            parts.append("(* " + " ".join([_rational_sexpr(c)] + factors) + ")")
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def formula_sexpr(f: Formula) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Atom):
        body = poly_sexpr(f.poly)
        if f.op == "=":
            return f"(= {body} 0)"
        if f.op == "!=":
            return f"(not (= {body} 0))"
        if f.op == ">=":
            return f"(>= {body} 0)"
        if f.op == ">":
            return f"(> {body} 0)"
        if f.op == "<=":
            return f"(<= {body} 0)"
        return f"(< {body} 0)"
    if isinstance(f, Not):
        return f"(not {formula_sexpr(f.arg)})"
    if isinstance(f, And):
        return "(and " + " ".join(formula_sexpr(a) for a in f.args) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(formula_sexpr(a) for a in f.args) + ")"
    if isinstance(f, Implies):
        return f"(=> {formula_sexpr(f.hyp)} {formula_sexpr(f.concl)})"
    raise InputError("quantified formulas cannot be exported (body must be "
                     "quantifier-free under its universal closure)")


def emit_smtlib(hypothesis: Formula, conclusion: Formula,
                universal_vars: tuple[str, ...], comment: str = "") -> str:
    lines = []
    if comment:
        for ln in comment.splitlines():
            lines.append(f"; {ln}")
    lines.append("(set-option :produce-models true)")
    lines.append("(set-logic QF_NRA)")
    for v in universal_vars:
        lines.append(f"(declare-const {v} Real)")
    lines.append(f"(assert {formula_sexpr(hypothesis)})")
    lines.append(f"(assert (not {formula_sexpr(conclusion)}))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# model parsing (tiny s-expression reader)

def _tokenize(text: str) -> list[str]:
    """Parentheses, and the runs of other non-space characters
    (``str.isspace`` space) between them."""
    return re.findall(r"[()]|[^()\s]+", text)


# deepest list nesting read from solver output; deeper output is
# unparseable, which bounds the recursion of the readers below
MAX_SEXPR_DEPTH = 100


def _parse_sexprs(tokens: list[str]) -> Optional[list]:
    """The top-level s-expressions of the tokens, read with an explicit
    stack: a stray ")" is skipped and lists still open at the end are
    closed.  None when lists nest deeper than ``MAX_SEXPR_DEPTH``."""
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            if len(stack) > MAX_SEXPR_DEPTH:
                return None
            stack.append([])
        elif tok != ")":
            stack[-1].append(tok)
        elif len(stack) > 1:
            stack[-2].append(stack.pop())
    while len(stack) > 1:
        stack[-2].append(stack.pop())
    return stack[0]


def _value_to_fraction(v) -> Optional[Fraction]:
    if isinstance(v, str):
        try:
            if "." in v:
                whole, frac = v.split(".", 1)
                den = 10 ** len(frac)
                num = int(whole or "0") * den + int(frac or "0")
                return Fraction(num, den)
            return Fraction(int(v))
        except ValueError:
            return None
    if isinstance(v, list) and v:
        if v[0] == "-" and len(v) == 2:
            inner = _value_to_fraction(v[1])
            return None if inner is None else -inner
        if v[0] == "/" and len(v) == 3:
            num = _value_to_fraction(v[1])
            den = _value_to_fraction(v[2])
            if num is None or den is None or den == 0:
                return None
            return num / den
    return None  # algebraic/irrational model values are rejected


def parse_model(text: str, variables: tuple[str, ...]) -> Optional[dict[str, Fraction]]:
    """Extract rational assignments from solver output containing
    ``(define-fun v () Real <value>)`` entries; None when any needed value
    fails to parse as an exact rational."""
    exprs = _parse_sexprs(_tokenize(text))
    if exprs is None:
        return None
    assigns: dict[str, Fraction] = {}

    def scan(e):
        if isinstance(e, list):
            if len(e) >= 5 and e[0] == "define-fun" and isinstance(e[1], str):
                val = _value_to_fraction(e[-1])
                if val is not None:
                    assigns[e[1]] = val
            else:
                for item in e:
                    scan(item)

    for e in exprs:
        scan(e)
    if all(v in assigns for v in variables):
        return {v: assigns[v] for v in variables}
    return None


def run_solver(query: str, config: SolverConfig,
               variables: tuple[str, ...]) -> SolverAnswer:
    """Run the external solver on the query file; never raises.

    Accepted verdict tokens are sat/unsat/unknown on the first non-comment
    output line; anything else (including subprocess failure or timeout)
    degrades to "error"/"unknown" without influencing verdicts.
    """
    try:
        with tempfile.TemporaryDirectory(prefix="odecert-smt-") as tmp:
            query_path = Path(tmp) / "query.smt2"
            query_path.write_text(query)
            proc = subprocess.run(
                [config.path, *config.args, str(query_path)],
                capture_output=True, text=True, timeout=config.timeout,
            )
    except FileNotFoundError:
        return SolverAnswer("error", detail=f"solver binary not found: {config.path}")
    except subprocess.TimeoutExpired:
        return SolverAnswer("unknown", detail=f"solver timeout after {config.timeout}s")
    except OSError as exc:
        return SolverAnswer("error", detail=f"solver subprocess failed: {exc}")
    out = proc.stdout.strip()
    verdict = None
    for line in out.splitlines():
        line = line.strip()
        if line in ("sat", "unsat", "unknown"):
            verdict = line
            break
    if verdict is None:
        return SolverAnswer("error", detail=f"unrecognized solver output: {out[:200]!r}")
    if verdict == "sat":
        return SolverAnswer("sat", model=parse_model(out, variables))
    return SolverAnswer(verdict)
