"""Problem-file parsing: a flat `key: value` format with # comments.

Indented lines continue the previous value.  Unknown keys are rejected.
Recognized keys:

  vars          comma-separated variable names (required)
  ode           comma-separated equations  x' = term
  polynomial    one term (for lie/rank/radical/darboux/check-alg/progress)
  polynomials   comma-separated terms (vectorial darboux)
  candidate     formula (check-inv, semialgebraic progress)
  domain        formula; for check-alg it must be a disequation r != 0
  program       hybrid program (hp-reduce)
  post          algebraic formula postcondition (hp-reduce)
  seed samples cap deg_bound order solver solver_args solver_timeout
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import InputError
from .hpreduce import HybridProgram
from .ideals import DEFAULT_RANK_CAP
from .invariant import DischargeConfig
from .odecore import OdeSystem
from .parser import parse_formula, parse_ode, parse_program, parse_term
from .polyarith import MonomialOrder, Polynomial, VarTable, order_by_name
from .semalg import Atom, Formula, TrueF
from .smtlib import SolverConfig, check_timeout

_KEYS = ("vars", "ode", "polynomial", "polynomials", "candidate", "domain",
         "program", "post", "seed", "samples", "cap", "deg_bound", "order",
         "solver", "solver_args", "solver_timeout")


@dataclass
class ProblemFile:
    table: VarTable
    ode: Optional[OdeSystem] = None
    polynomial: Optional[Polynomial] = None
    polynomials: Optional[list[Polynomial]] = None
    candidate: Optional[Formula] = None
    domain: Optional[Formula] = None
    program: Optional[HybridProgram] = None
    post: Optional[Formula] = None
    seed: int = DischargeConfig.seed
    samples: int = DischargeConfig.samples
    cap: int = DEFAULT_RANK_CAP
    deg_bound: Optional[int] = None
    order: MonomialOrder = field(default_factory=lambda: order_by_name("grevlex"))
    solver: Optional[str] = None
    solver_args: tuple[str, ...] = ()
    solver_timeout: float = SolverConfig.timeout

    def domain_polynomial(self) -> Optional[Polynomial]:
        """The r of a disequational domain r != 0; None for a true domain."""
        if self.domain is None or isinstance(self.domain, TrueF):
            return None
        if isinstance(self.domain, Atom) and self.domain.op == "!=":
            return self.domain.poly
        raise InputError("this command needs the domain to be a disequation r != 0")


def _collect_entries(text: str) -> list[tuple[str, str, int]]:
    entries: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line[0].isspace():
            if not entries:
                raise InputError("continuation line before any key", lineno, 1)
            key, value, first = entries[-1]
            entries[-1] = (key, value + " " + line.strip(), first)
            continue
        if ":" not in line:
            raise InputError(f"expected 'key: value', got {line!r}", lineno, 1)
        key, value = line.split(":", 1)
        key = key.strip()
        if key not in _KEYS:
            raise InputError(f"unknown key {key!r}", lineno, 1)
        if any(k == key for k, _, _ in entries):
            raise InputError(f"duplicate key {key!r}", lineno, 1)
        entries.append((key, value.strip(), lineno))
    return entries


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """The integer an ASCII ``[+-]?[0-9]+`` spells; ValueError for anything
    else, where ``int`` would also take other Unicode digits, underscores
    and surrounding spaces, which the term grammar rejects."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _int_option(value: str, key: str) -> int:
    try:
        return parse_int(value)
    except ValueError:
        raise InputError(f"{key} must be an integer, got {value!r}") from None


def parse_problem(text: str) -> ProblemFile:
    entries = _collect_entries(text)
    values = {k: (v, lineno) for k, v, lineno in entries}
    if "vars" not in values:
        raise InputError("problem file must declare 'vars'")
    names = [n.strip() for n in values["vars"][0].split(",") if n.strip()]
    table = VarTable(names)
    pf = ProblemFile(table=table)
    for key, (value, lineno) in values.items():
        if key == "vars":
            continue
        try:
            if key == "ode":
                pf.ode = parse_ode(value, table)
            elif key == "polynomial":
                pf.polynomial = parse_term(value, table)
            elif key == "polynomials":
                pf.polynomials = [parse_term(part, table)
                                  for part in value.split(",") if part.strip()]
            elif key == "candidate":
                pf.candidate = parse_formula(value, table)
            elif key == "domain":
                pf.domain = parse_formula(value, table)
            elif key == "program":
                pf.program = parse_program(value, table)
            elif key == "post":
                pf.post = parse_formula(value, table)
            elif key == "seed":
                pf.seed = _int_option(value, key)
            elif key == "samples":
                pf.samples = _int_option(value, key)
            elif key == "cap":
                pf.cap = _int_option(value, key)
            elif key == "deg_bound":
                pf.deg_bound = _int_option(value, key)
            elif key == "order":
                pf.order = order_by_name(value)
            elif key == "solver":
                pf.solver = value
            elif key == "solver_args":
                pf.solver_args = tuple(value.split())
            elif key == "solver_timeout":
                try:
                    seconds = float(value)
                except ValueError:
                    raise InputError(f"not a number: {value!r}") from None
                pf.solver_timeout = check_timeout(seconds)
        except InputError as exc:
            if exc.line is None:
                raise InputError(f"in {key!r}: {exc}", lineno, 1) from None
            raise InputError(f"in {key!r} (line {lineno}): {exc}") from None
    return pf
