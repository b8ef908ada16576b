"""Recursive-descent parsing of terms, formulas, ODE systems, and programs.

Grammar summary (standard precedence):
  term     : sum of products of powers; ^ over * / over unary - over + -
             division only by constant terms (anything else is rejected)
  formula  : comparisons  = != >= > <= <  over terms, connectives ! & | ->
  ode      : x' = term, y' = term, ...
  program  : x := e | ? r != 0 | { ode [& r != 0] } | a ; b | a ++ b | { a }*

Text is split into tokens by one compiled regular expression.  Numbers are
ASCII digits ``[0-9]+``; an identifier is a letter or ``_`` followed by
letters, digits or ``_`` (any Unicode ones, as ``str.isalnum`` says).  Any
other character outside a comment (``#`` to end of line), including a
non-ASCII digit, is an input error.

Terms are built in integers.  A product whose factors are numbers and
powers of variables stays one term ``(num, den, exponents)`` with den > 0;
a ``Polynomial`` is built only for a parenthesised sum and for a product
that has one as a factor.  A sum adds all its products into one integer
map over their common denominator, with one gcd pass at the end.  An
exponent past ``polyarith.MAX_DEGREE``, or a power whose degree passes it,
is a resource error, whatever the base.

Errors carry 1-based line/column positions.  Nesting (parentheses, unary
minus, ``!`` and program braces) deeper than ``MAX_NESTING`` levels is an
input error, so parsing cannot exhaust the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add

from .errors import InputError, NonPolynomialError
from .hpreduce import (Assign, Choice, HybridProgram, Ode, Seq, Star, Test)
from .odecore import OdeSystem
from .polyarith import Polynomial, VarTable, check_power
from .semalg import (FALSE, TRUE, And, Atom, Formula, Implies, Not, Or)

# deepest nesting accepted; each level costs at most six parser frames
MAX_NESTING = 100

# two-character symbols come first, so that "++" is not read as "+" "+"
_TOKEN = re.compile(r"(?P<skip>\s+)|(?P<comment>#[^\n]*)|(?P<num>[0-9]+)|(?P<ident>\w+)"
                    r"|(?P<sym>\+\+|:=|->|!=|>=|<=|[-'(){},;?+*/^&|!=><])|(?P<bad>.)")


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of ``text[offset]``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """Kinds ("num", "ident", "sym", "eof"), texts and start offsets of the
    tokens of ``text``.  The last token is "eof" with text ""; a symbol's
    text is never a number's or an identifier's, so a text alone tells a
    symbol apart."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    end = len(text)
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "skip":
            continue
        if kind == "comment":
            if match.end() == len(text):
                end = match.start()  # input that ends in a comment ends where it starts
            continue
        word = match.group()
        if kind == "bad" or (kind == "ident" and not (word[0].isalpha() or word[0] == "_")):
            raise InputError(f"unexpected character {word[0]!r}",
                             *_position(text, match.start()))
        kinds.append(kind)
        texts.append(word)
        starts.append(match.start())
    kinds.append("eof")
    texts.append("")
    starts.append(end)
    return kinds, texts, starts


def _negate(node):
    if type(node) is tuple:
        return (-node[0], node[1], node[2])
    return -node


class _Parser:
    def __init__(self, text: str, table: VarTable):
        self.text = text
        self.kinds, self.texts, self.starts = _tokenize(text)
        self.pos = 0
        self.table = table
        self.depth = 0
        self.zero = (0,) * len(table)
        self.units = {name: self.zero[:i] + (1,) + self.zero[i + 1:]
                      for i, name in enumerate(table.names)}

    # -- token plumbing ----------------------------------------------------

    def next(self) -> str:
        """The current token's text; moves past it."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def at_sym(self, *texts: str) -> bool:
        return self.texts[self.pos] in texts

    def at_ident(self, name: str | None = None) -> bool:
        return self.kinds[self.pos] == "ident" and name in (None, self.texts[self.pos])

    def where(self) -> tuple[int, int]:
        """(line, column) of the current token."""
        return _position(self.text, self.starts[self.pos])

    def eat_sym(self, text: str) -> None:
        if self.texts[self.pos] != text:
            found = self.texts[self.pos] or "end of input"
            raise InputError(f"expected {text!r}, found {found!r}", *self.where())
        self.pos += 1

    def expect_eof(self) -> None:
        if self.kinds[self.pos] != "eof":
            raise InputError(f"unexpected trailing input {self.texts[self.pos]!r}",
                             *self.where())

    def fail(self, message: str):
        raise InputError(message, *self.where())

    def variable(self) -> str:
        """The current identifier, which must be a declared variable."""
        name = self.texts[self.pos]
        if name not in self.units:
            raise InputError(f"undeclared variable {name!r}", *self.where())
        self.pos += 1
        return name

    def nested(self, parse):
        """``parse()`` one nesting level deeper."""
        if self.depth >= MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    # -- terms ---------------------------------------------------------------
    # A node is a single term (num, den, exponents) with den > 0, or a
    # Polynomial.

    def term(self) -> Polynomial:
        texts = self.texts
        parts = [self.product()]
        while texts[self.pos] in ("+", "-"):
            minus = self.next() == "-"
            node = self.product()
            parts.append(_negate(node) if minus else node)
        if len(parts) == 1 and type(parts[0]) is Polynomial:
            return parts[0]
        den = lcm(*(p[1] if type(p) is tuple else p.den for p in parts))
        acc: dict = {}
        get = acc.get
        for p in parts:
            if type(p) is tuple:
                num, d, m = p
                acc[m] = get(m, 0) + num * (den // d)
            else:
                f = den // p.den
                for m, v in p.nums.items():
                    acc[m] = get(m, 0) + v * f
        return Polynomial.from_ints(self.table, {m: v for m, v in acc.items() if v}, den)

    def polynomial(self, node) -> Polynomial:
        if type(node) is tuple:
            num, den, m = node
            return Polynomial.from_ints(self.table, {m: num} if num else {}, den)
        return node

    def product(self):
        texts = self.texts
        node = self.unary()
        while texts[self.pos] in ("*", "/"):
            divide = self.next() == "/"
            rhs = self.unary()
            if divide:
                node = self.divide(node, rhs)
            elif type(node) is tuple and type(rhs) is tuple:
                node = (node[0] * rhs[0], node[1] * rhs[1],
                        tuple(map(add, node[2], rhs[2])))
            else:
                node = self.polynomial(node) * self.polynomial(rhs)
        return node

    def divide(self, node, rhs):
        if type(rhs) is tuple:
            num, den, m = rhs
            if num and any(m):
                raise InputError("non-polynomial: division by a non-constant")
        else:
            if not rhs.is_constant():
                raise InputError("non-polynomial: division by a non-constant")
            c = rhs.constant_value()
            num, den = c.numerator, c.denominator
        if num == 0:
            raise InputError("division by zero")
        if num < 0:
            num, den = -num, -den
        if type(node) is tuple:
            return (node[0] * den, node[1] * num, node[2])
        return node.scale(Fraction(den, num))

    def unary(self):
        while self.texts[self.pos] == "+":
            self.pos += 1
        if self.texts[self.pos] == "-":
            self.pos += 1
            return _negate(self.nested(self.unary))
        return self.power()

    def power(self):
        base = self.term_atom()
        if self.texts[self.pos] != "^":
            return base
        self.pos += 1
        if self.texts[self.pos] == "-":
            raise NonPolynomialError("non-polynomial: negative exponent")
        if self.kinds[self.pos] != "num":
            self.fail("expected a non-negative integer exponent")
        k = int(self.next())
        if type(base) is not tuple:
            return base ** k
        num, den, m = base
        check_power(sum(m) if num else -1, k)
        return (num ** k, den ** k, tuple(e * k for e in m))

    def term_atom(self):
        kind = self.kinds[self.pos]
        if kind == "num":
            return (int(self.next()), 1, self.zero)
        if kind == "ident":
            return (1, 1, self.units[self.variable()])
        if self.at_sym("("):
            self.pos += 1
            node = self.nested(self.term)
            self.eat_sym(")")
            return node
        self.fail("expected a term")

    # -- formulas --------------------------------------------------------------

    def formula(self) -> Formula:
        node = self.disjunction()
        if self.at_sym("->"):
            self.pos += 1
            return Implies(node, self.formula())
        return node

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.at_sym("|"):
            self.pos += 1
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.negation()]
        while self.at_sym("&"):
            self.pos += 1
            parts.append(self.negation())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def negation(self) -> Formula:
        if self.at_sym("!"):
            self.pos += 1
            return Not(self.nested(self.negation))
        return self.formula_atom()

    def formula_atom(self) -> Formula:
        if self.at_ident("true"):
            self.pos += 1
            return TRUE
        if self.at_ident("false"):
            self.pos += 1
            return FALSE
        if self.at_sym("("):
            # either a parenthesized term starting a comparison, or a
            # parenthesized formula; backtrack on failure
            save = self.pos
            try:
                return self.comparison()
            except InputError:
                self.pos = save
            self.pos += 1
            node = self.nested(self.formula)
            self.eat_sym(")")
            return node
        return self.comparison()

    def comparison(self) -> Formula:
        lhs = self.term()
        if not self.at_sym("=", "!=", ">=", ">", "<=", "<"):
            self.fail("expected a comparison operator")
        op = self.next()
        rhs = self.term()
        return Atom(op, lhs - rhs)

    # -- ODE systems -------------------------------------------------------------

    def ode_system(self) -> OdeSystem:
        pairs: list[tuple[str, Polynomial]] = []
        while True:
            if not self.at_ident():
                self.fail("expected a variable name")
            name = self.variable()
            self.eat_sym("'")
            self.eat_sym("=")
            pairs.append((name, self.term()))
            if self.at_sym(","):
                self.pos += 1
                continue
            break
        return OdeSystem.from_pairs(self.table, pairs)

    # -- programs -------------------------------------------------------------------

    def program(self) -> HybridProgram:
        node = self.seq_program()
        while self.at_sym("++"):
            self.pos += 1
            node = Choice(node, self.seq_program())
        return node

    def seq_program(self) -> HybridProgram:
        node = self.primary_program()
        while self.at_sym(";"):
            self.pos += 1
            node = Seq(node, self.primary_program())
        return node

    def primary_program(self) -> HybridProgram:
        if self.at_sym("?"):
            self.pos += 1
            return Test(self.disequation())
        if self.at_sym("{"):
            self.pos += 1
            # an ODE block starts with ident followed by a prime
            if self.at_ident() and self.texts[self.pos + 1] == "'":
                sys = self.ode_system()
                r = None
                if self.at_sym("&"):
                    self.pos += 1
                    r = self.disequation()
                self.eat_sym("}")
                return Ode(sys, r)
            inner = self.nested(self.program)
            self.eat_sym("}")
            if self.at_sym("*"):
                self.pos += 1
                return Star(inner)
            return inner
        if self.at_ident():
            name = self.variable()
            self.eat_sym(":=")
            return Assign(self.table.index(name), self.term())
        self.fail("expected a program")

    def disequation(self) -> Polynomial:
        lhs = self.term()
        self.eat_sym("!=")
        rhs = self.term()
        return lhs - rhs


def parse_term(text: str, table: VarTable) -> Polynomial:
    p = _Parser(text, table)
    node = p.term()
    p.expect_eof()
    return node


def parse_formula(text: str, table: VarTable) -> Formula:
    p = _Parser(text, table)
    node = p.formula()
    p.expect_eof()
    return node


def parse_ode(text: str, table: VarTable) -> OdeSystem:
    p = _Parser(text, table)
    node = p.ode_system()
    p.expect_eof()
    return node


def parse_program(text: str, table: VarTable) -> HybridProgram:
    p = _Parser(text, table)
    node = p.program()
    p.expect_eof()
    return node
