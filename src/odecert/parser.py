"""Recursive-descent parsing of terms, formulas, ODE systems, and programs.

Grammar summary (standard precedence):
  term     : sum of products of powers; ^ over * / over unary - over + -
             division only by constant terms (anything else is rejected)
  formula  : comparisons  = != >= > <= <  over terms, connectives ! & | ->
  ode      : x' = term, y' = term, ...
  program  : x := e | ? r != 0 | { ode [& r != 0] } | a ; b | a ++ b | { a }*

The token texts come from one ``findall`` of one compiled regular
expression, which skips whitespace and comments (``#`` to end of line);
a token's kind is read off its text.  Numbers are ASCII digits ``[0-9]+``;
an identifier is a letter or ``_`` followed by letters, digits or ``_``
(any Unicode ones, as ``str.isalnum`` says).  Any other character,
including a non-ASCII digit, is an input error, and so is a number of more
than ``polyarith.MAX_DIGITS`` digits.

Terms are built in integers.  A product whose factors are numbers and
powers of variables stays one term ``(num, den, exponents)`` with den > 0;
a ``Polynomial`` is built only for a parenthesised sum and for a product
that has one as a factor.  A sum adds all its products into one integer
map over their common denominator, with one gcd pass at the end.  An
exponent past ``polyarith.MAX_DEGREE``, or a power whose degree passes it,
is a resource error, whatever the base.

Errors carry 1-based line/column positions, found by scanning the text
again only for an error that a ``parse_*`` function reports; the parser
itself tracks token indices.  Nesting (parentheses, unary
minus, ``!``, program braces and each ``->`` of a chain, which nests to
the right) deeper than ``MAX_NESTING`` levels is an input error, so
parsing cannot exhaust the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from operator import add

from .errors import InputError, NonPolynomialError
from .hpreduce import (Assign, Choice, HybridProgram, Ode, Seq, Star, Test)
from .odecore import OdeSystem
from .polyarith import MAX_DIGITS, Polynomial, VarTable, check_power
from .semalg import (FALSE, TRUE, And, Atom, Formula, Implies, Not, Or)

# deepest nesting accepted; each level costs at most six parser frames
MAX_NESTING = 100

# whitespace and comments, then one token: a number, an identifier, a
# symbol (two-character ones first, so that "++" is not read as "+" "+"),
# any other character (an error), or "" at the end of input
_TOKEN = re.compile(r"(?:\s+|#.*)*([0-9]+|\w+|\+\+|:=|->|!=|>=|<=|.|\Z)")
_SYMBOLS = frozenset(["", "++", ":=", "->", "!=", ">=", "<=", *"-'(){},;?+*/^&|!=><"])


class _Syntax(InputError):
    """An input error at token ``index``; the public ``parse_*`` functions
    give it the token's line and column."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _position(text: str, index: int) -> tuple[int, int]:
    """1-based (line, column) of token ``index`` of ``text``; the end of
    input that ends in a comment is where the comment starts."""
    for i, match in enumerate(_TOKEN.finditer(text)):
        if i == index:
            break
    offset = match.start(1)
    if not match.group(1):
        comment = text.find("#", text.rfind("\n") + 1)
        offset = comment if comment >= 0 else offset
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str, units) -> list[str]:
    """The token texts of ``text``, the last one "".  A text tells its kind:
    a symbol, a number (ASCII digits, at most ``MAX_DIGITS``) or an
    identifier (such as the names in ``units``); any other token is an
    input error."""
    tokens = _TOKEN.findall(text)
    bad = {w for w in set(tokens).difference(_SYMBOLS, units)
           if not (w[0].isalpha() or w[0] == "_" or ("0" <= w[0] <= "9" and len(w) <= MAX_DIGITS))}
    if bad:
        index = next(i for i, w in enumerate(tokens) if w in bad)
        word = tokens[index]
        if "0" <= word[0] <= "9":
            raise _Syntax(f"integer literal longer than {MAX_DIGITS} digits", index)
        raise _Syntax(f"unexpected character {word[0]!r}", index)
    return tokens


class _Parser:
    def __init__(self, text: str, table: VarTable):
        self.table = table
        self.depth = self.pos = 0
        self.zero = (0,) * len(table)
        # the names a token can spell, with their exponent vectors
        self.units = {name: self.zero[:i] + (1,) + self.zero[i + 1:]
                      for i, name in enumerate(table.names)
                      if name[:1].isalpha() or name[:1] == "_"}
        self.texts = _tokenize(text, self.units)

    # -- token plumbing ----------------------------------------------------

    def at_sym(self, *texts: str) -> bool:
        return self.texts[self.pos] in texts

    def accept(self, text: str) -> bool:
        """Whether the current token is ``text``; if so, moves past it."""
        if self.texts[self.pos] != text:
            return False
        self.pos += 1
        return True

    def at_ident(self) -> bool:
        first = self.texts[self.pos][:1]
        return first.isalpha() or first == "_"

    def eat_sym(self, text: str) -> None:
        if self.texts[self.pos] != text:
            found = self.texts[self.pos] or "end of input"
            self.fail(f"expected {text!r}, found {found!r}")
        self.pos += 1

    def expect_eof(self) -> None:
        if self.texts[self.pos]:
            self.fail(f"unexpected trailing input {self.texts[self.pos]!r}")

    def fail(self, message: str):
        raise _Syntax(message, self.pos)

    def variable(self) -> str:
        """The current identifier, which must be a declared variable."""
        name = self.texts[self.pos]
        if name not in self.units:
            self.fail(f"undeclared variable {name!r}")
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
        """A sum of products, added into one integer map over the lcm of
        their denominators, with one gcd pass at the end."""
        texts = self.texts
        node = self.product()
        if texts[self.pos] != "+" and texts[self.pos] != "-":
            return self.polynomial(node)
        acc: dict = {}
        get = acc.get
        den = sign = 1
        while True:
            if type(node) is tuple:
                d, items = node[1], ((node[2], node[0]),)
            else:
                d, items = node.den, node.nums.items()
            if den % d:
                f = d // gcd(den, d)
                acc = {m: v * f for m, v in acc.items()}
                get = acc.get
                den *= f
            f = den // d * sign
            for m, v in items:
                acc[m] = get(m, 0) + v * f
            word = texts[self.pos]
            if word != "+" and word != "-":
                return Polynomial.from_ints(self.table, {m: v for m, v in acc.items() if v},
                                            den)
            sign = 1 if word == "+" else -1
            self.pos += 1
            node = self.product()

    def polynomial(self, node) -> Polynomial:
        if type(node) is tuple:
            num, den, m = node
            return Polynomial.from_ints(self.table, {m: num} if num else {}, den)
        return node

    def product(self):
        texts = self.texts
        node = self.factor()
        while texts[self.pos] in ("*", "/"):
            divide = texts[self.pos] == "/"
            self.pos += 1
            rhs = self.factor()
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

    def factor(self):
        """Signs, then a variable, a number or a parenthesised term, then
        an optional ``^`` and exponent; a minus negates all that follows."""
        texts = self.texts
        pos = self.pos
        word = texts[pos]
        while word == "+":
            pos += 1
            word = texts[pos]
        self.pos = pos + 1
        unit = self.units.get(word)
        if unit is not None:
            node = (1, 1, unit)
        elif word.isdigit():  # ASCII digits, as _tokenize checked
            node = (int(word), 1, self.zero)
        elif word == "-":
            node = self.nested(self.factor)
            return (-node[0], node[1], node[2]) if type(node) is tuple else -node
        elif word == "(":
            node = self.nested(self.term)
            self.eat_sym(")")
        else:
            self.pos = pos
            self.fail(f"undeclared variable {word!r}" if self.at_ident() else "expected a term")
        pos = self.pos
        if texts[pos] != "^":
            return node
        self.pos = pos = pos + 1
        if texts[pos] == "-":
            raise NonPolynomialError("non-polynomial: negative exponent")
        if not texts[pos].isdigit():
            self.fail("expected a non-negative integer exponent")
        self.pos = pos + 1
        k = int(texts[pos])
        if type(node) is not tuple:
            return node ** k
        num, den, m = node
        check_power(sum(m) if num else -1, k)
        return (num ** k, den ** k, tuple(e * k for e in m))

    # -- formulas --------------------------------------------------------------

    def formula(self) -> Formula:
        node = self.disjunction()
        if self.accept("->"):
            return Implies(node, self.nested(self.formula))
        return node

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.accept("|"):
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.negation()]
        while self.accept("&"):
            parts.append(self.negation())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def negation(self) -> Formula:
        if self.accept("!"):
            return Not(self.nested(self.negation))
        return self.formula_atom()

    def formula_atom(self) -> Formula:
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
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
        op = self.texts[self.pos]
        self.pos += 1
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
            if not self.accept(","):
                return OdeSystem.from_pairs(self.table, pairs)

    # -- programs -------------------------------------------------------------------

    def program(self) -> HybridProgram:
        node = self.seq_program()
        while self.accept("++"):
            node = Choice(node, self.seq_program())
        return node

    def seq_program(self) -> HybridProgram:
        node = self.primary_program()
        while self.accept(";"):
            node = Seq(node, self.primary_program())
        return node

    def primary_program(self) -> HybridProgram:
        if self.accept("?"):
            return Test(self.disequation())
        if self.accept("{"):
            # an ODE block starts with ident followed by a prime
            if self.at_ident() and self.texts[self.pos + 1] == "'":
                sys = self.ode_system()
                r = self.disequation() if self.accept("&") else None
                self.eat_sym("}")
                return Ode(sys, r)
            inner = self.nested(self.program)
            self.eat_sym("}")
            return Star(inner) if self.accept("*") else inner
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


def _parse(text: str, table: VarTable, rule):
    """``rule`` of ``_Parser`` over all of ``text``; a syntax error gets
    its line and column here, the one place that reports it."""
    try:
        p = _Parser(text, table)
        node = rule(p)
        p.expect_eof()
    except _Syntax as exc:
        raise InputError(str(exc), *_position(text, exc.index)) from None
    return node


def parse_term(text: str, table: VarTable) -> Polynomial:
    return _parse(text, table, _Parser.term)


def parse_formula(text: str, table: VarTable) -> Formula:
    return _parse(text, table, _Parser.formula)


def parse_ode(text: str, table: VarTable) -> OdeSystem:
    return _parse(text, table, _Parser.ode_system)


def parse_program(text: str, table: VarTable) -> HybridProgram:
    return _parse(text, table, _Parser.program)
