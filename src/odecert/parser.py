"""Recursive-descent parsing of terms, formulas, ODE systems, and programs.

Grammar summary (standard precedence):
  term     : sum of products of powers; ^ over * / over unary - over + -
             division only by constant terms (anything else is rejected)
  formula  : comparisons  = != >= > <= <  over terms, connectives ! & | ->
  ode      : x' = term, y' = term, ...
  program  : x := e | ? r != 0 | { ode [& r != 0] } | a ; b | a ++ b | { a }*
Errors carry 1-based line/column positions.  Nesting (parentheses, unary
minus, ``!`` and program braces) deeper than ``MAX_NESTING`` levels is an
input error, so parsing cannot exhaust the interpreter's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, NonPolynomialError
from .hpreduce import (Assign, Choice, HybridProgram, Ode, Seq, Star, Test)
from .odecore import OdeSystem
from .polyarith import Polynomial, VarTable
from .semalg import (FALSE, TRUE, And, Atom, Formula, Implies, Not, Or)

# deepest nesting accepted; each level costs at most six parser frames
MAX_NESTING = 100

_SYMBOLS = ("++", ":=", "->", "!=", ">=", "<=", "'", "(", ")", "{", "}", ",",
            ";", "?", "+", "-", "*", "/", "^", "&", "|", "!", "=", ">", "<")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "sym" | "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise InputError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, table: VarTable):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.table = table
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_sym(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text in texts

    def eat_sym(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != text:
            raise InputError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return self.next()

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise InputError(f"unexpected trailing input {tok.text!r}",
                             tok.line, tok.column)

    def fail(self, message: str):
        tok = self.peek()
        raise InputError(message, tok.line, tok.column)

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

    def term(self) -> Polynomial:
        node = self.product()
        while self.at_sym("+", "-"):
            op = self.next().text
            rhs = self.product()
            node = node + rhs if op == "+" else node - rhs
        return node

    def product(self) -> Polynomial:
        node = self.unary()
        while self.at_sym("*", "/"):
            op = self.next().text
            rhs = self.unary()
            if op == "*":
                node = node * rhs
            else:
                if not rhs.is_constant():
                    raise InputError("non-polynomial: division by a non-constant")
                c = rhs.constant_value()
                if c == 0:
                    raise InputError("division by zero")
                node = node.scale(Fraction(1) / c)
        return node

    def unary(self) -> Polynomial:
        if self.at_sym("-"):
            self.next()
            return -self.nested(self.unary)
        if self.at_sym("+"):
            self.next()
            return self.unary()
        return self.power()

    def power(self) -> Polynomial:
        base = self.term_atom()
        if self.at_sym("^"):
            self.next()
            if self.at_sym("-"):
                raise NonPolynomialError("non-polynomial: negative exponent")
            tok = self.peek()
            if tok.kind != "num":
                self.fail("expected a non-negative integer exponent")
            self.next()
            return base ** int(tok.text)
        return base

    def term_atom(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Polynomial.constant(self.table, int(tok.text))
        if tok.kind == "ident":
            if tok.text not in self.table:
                raise InputError(f"undeclared variable {tok.text!r}",
                                 tok.line, tok.column)
            self.next()
            return Polynomial.variable(self.table, tok.text)
        if self.at_sym("("):
            self.next()
            node = self.nested(self.term)
            self.eat_sym(")")
            return node
        self.fail("expected a term")

    # -- formulas --------------------------------------------------------------

    def formula(self) -> Formula:
        node = self.disjunction()
        if self.at_sym("->"):
            self.next()
            return Implies(node, self.formula())
        return node

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.at_sym("|"):
            self.next()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.negation()]
        while self.at_sym("&"):
            self.next()
            parts.append(self.negation())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def negation(self) -> Formula:
        if self.at_sym("!"):
            self.next()
            return Not(self.nested(self.negation))
        return self.formula_atom()

    def formula_atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "true":
            self.next()
            return TRUE
        if tok.kind == "ident" and tok.text == "false":
            self.next()
            return FALSE
        if self.at_sym("("):
            # either a parenthesized term starting a comparison, or a
            # parenthesized formula; backtrack on failure
            save = self.pos
            try:
                return self.comparison()
            except InputError:
                self.pos = save
            self.next()
            node = self.nested(self.formula)
            self.eat_sym(")")
            return node
        return self.comparison()

    def comparison(self) -> Formula:
        lhs = self.term()
        tok = self.peek()
        if tok.kind != "sym" or tok.text not in ("=", "!=", ">=", ">", "<=", "<"):
            self.fail("expected a comparison operator")
        self.next()
        rhs = self.term()
        return Atom(tok.text, lhs - rhs)

    # -- ODE systems -------------------------------------------------------------

    def ode_system(self) -> OdeSystem:
        pairs: list[tuple[str, Polynomial]] = []
        while True:
            tok = self.peek()
            if tok.kind != "ident":
                self.fail("expected a variable name")
            name = self.next().text
            if name not in self.table:
                raise InputError(f"undeclared variable {name!r}", tok.line, tok.column)
            self.eat_sym("'")
            self.eat_sym("=")
            pairs.append((name, self.term()))
            if self.at_sym(","):
                self.next()
                continue
            break
        return OdeSystem.from_pairs(self.table, pairs)

    # -- programs -------------------------------------------------------------------

    def program(self) -> HybridProgram:
        node = self.seq_program()
        while self.at_sym("++"):
            self.next()
            node = Choice(node, self.seq_program())
        return node

    def seq_program(self) -> HybridProgram:
        node = self.primary_program()
        while self.at_sym(";"):
            self.next()
            node = Seq(node, self.primary_program())
        return node

    def primary_program(self) -> HybridProgram:
        tok = self.peek()
        if self.at_sym("?"):
            self.next()
            r = self.disequation()
            return Test(r)
        if self.at_sym("{"):
            self.next()
            # an ODE block starts with ident followed by a prime
            if (self.peek().kind == "ident"
                    and self.tokens[self.pos + 1].kind == "sym"
                    and self.tokens[self.pos + 1].text == "'"):
                sys = self.ode_system()
                r = None
                if self.at_sym("&"):
                    self.next()
                    r = self.disequation()
                self.eat_sym("}")
                return Ode(sys, r)
            inner = self.nested(self.program)
            self.eat_sym("}")
            if self.at_sym("*"):
                self.next()
                return Star(inner)
            return inner
        if tok.kind == "ident":
            name = self.next().text
            if name not in self.table:
                raise InputError(f"undeclared variable {name!r}", tok.line, tok.column)
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
