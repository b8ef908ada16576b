"""Independent exact arithmetic for the benchmark's output oracles.

Polynomials are dicts mapping exponent tuples to Fractions.  Nothing here
imports odecert: the oracles re-check the program's text output with code
that shares no arithmetic, parser or evaluator with it, so an optimisation
of odecert cannot make a wrong answer agree with itself.

Text follows odecert's surface syntax: terms with + - * ^ and parentheses,
rational constants, division by constants; formulas with = != >= > <= <,
the connectives ! & | -> and the constants true / false.
"""

from __future__ import annotations

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(->|!=|>=|<=|[-+*/^()=<>!&|]))")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize {text[pos:pos + 20]!r}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


# -- polynomial arithmetic ----------------------------------------------------

def const(n: int, c) -> dict:
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def var(n: int, i: int) -> dict:
    return {tuple(1 if j == i else 0 for j in range(n)): Fraction(1)}


def add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + sign * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def scale(a: dict, c) -> dict:
    c = Fraction(c)
    return {m: v * c for m, v in a.items()} if c else {}


def power(a: dict, k: int, n: int) -> dict:
    out = const(n, 1)
    for _ in range(k):
        out = mul(out, a)
    return out


def lie(p: dict, field: list[dict]) -> dict:
    """Lie derivative of p along the vector field (one rhs per variable)."""
    out: dict = {}
    for m, c in p.items():
        for i, e in enumerate(m):
            if e and field[i]:
                dm = m[:i] + (e - 1,) + m[i + 1:]
                out = add(out, mul({dm: c * e}, field[i]))
    return out


def evaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        v = c
        for x, e in zip(point, m):
            if e:
                v *= x ** e
        total += v
    return total


# -- parsing --------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, names: list[str]):
        self.toks = _tokens(text)
        self.pos = 0
        self.names = names
        self.n = len(names)

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def done(self):
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.peek()!r}")

    # terms
    def term(self) -> dict:
        acc = self.product()
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            acc = add(acc, self.product(), sign)
        return acc

    def product(self) -> dict:
        acc = self.unary()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                acc = mul(acc, self.unary())
            else:
                d = self.unary()
                if any(any(m) for m in d) or not d:
                    raise ValueError("division by a non-constant")
                acc = scale(acc, 1 / d[(0,) * self.n])
        return acc

    def unary(self) -> dict:
        if self.peek() == "-":
            self.take()
            return scale(self.unary(), -1)
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> dict:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            return power(base, int(self.take()), self.n)
        return base

    def atom(self) -> dict:
        tok = self.take()
        if tok == "(":
            inner = self.term()
            self.take(")")
            return inner
        if tok.isdigit():
            return const(self.n, int(tok))
        if tok in self.names:
            return var(self.n, self.names.index(tok))
        raise ValueError(f"unexpected {tok!r} in a term")

    # formulas: ("atom", op, poly) | ("not", f) | ("and"/"or", [f]) | ("implies", f, g) | bool
    def formula(self):
        lhs = self.disjunction()
        if self.peek() == "->":
            self.take()
            return ("implies", lhs, self.formula())
        return lhs

    def disjunction(self):
        args = [self.conjunction()]
        while self.peek() == "|":
            self.take()
            args.append(self.conjunction())
        return args[0] if len(args) == 1 else ("or", args)

    def conjunction(self):
        args = [self.negation()]
        while self.peek() == "&":
            self.take()
            args.append(self.negation())
        return args[0] if len(args) == 1 else ("and", args)

    def negation(self):
        if self.peek() == "!":
            self.take()
            return ("not", self.negation())
        return self.formula_atom()

    def formula_atom(self):
        tok = self.peek()
        if tok in ("true", "false"):
            self.take()
            return tok == "true"
        if tok == "(":
            save = self.pos
            self.take()
            try:
                inner = self.formula()
                self.take(")")
                if self.peek() not in ("=", "!=", ">=", ">", "<=", "<", "+", "-", "*", "/", "^"):
                    return inner
            except ValueError:
                pass
            self.pos = save
        lhs = self.term()
        op = self.take()
        if op not in ("=", "!=", ">=", ">", "<=", "<"):
            raise ValueError(f"expected a comparison, got {op!r}")
        return ("atom", op, add(lhs, self.term(), -1))


def parse_term(text: str, names: list[str]) -> dict:
    p = _Parser(text, names)
    out = p.term()
    p.done()
    return out


def parse_formula(text: str, names: list[str]):
    p = _Parser(text, names)
    out = p.formula()
    p.done()
    return out


_SIGN = {"=": lambda v: v == 0, "!=": lambda v: v != 0, ">=": lambda v: v >= 0,
         ">": lambda v: v > 0, "<=": lambda v: v <= 0, "<": lambda v: v < 0}


def holds(f, point) -> bool:
    """Truth of a parsed formula at a rational point."""
    if isinstance(f, bool):
        return f
    kind = f[0]
    if kind == "atom":
        return _SIGN[f[1]](evaluate(f[2], point))
    if kind == "not":
        return not holds(f[1], point)
    if kind == "and":
        return all(holds(g, point) for g in f[1])
    if kind == "or":
        return any(holds(g, point) for g in f[1])
    return (not holds(f[1], point)) or holds(f[2], point)
