"""Exact real algebra over Q: Sturm sequences and sign-definite literals.

A univariate polynomial comes in as its integer coefficients, lowest
degree first; a polynomial over Q is one over Z times a positive rational,
which has the same real roots and the same signs.  The Sturm sequence is built
from primitive pseudo-remainders (Sturm 1829; Basu, Pollack & Roy,
*Algorithms in Real Algebraic Geometry*, ch. 2): each remainder is scaled
by a positive integer and divided by its positive content, so every
member keeps the sign of the true Euclidean one and integer sizes stay
bounded by those of the subresultants.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .polyarith import Polynomial

# ``definite`` runs the Sturm sequence only for polynomials of at most this
# size, counted as degree times (coefficient bits + degree), about the bits
# of the sequence's largest integers; a larger one is not decided here.  At
# the limit, a dense random polynomial takes under 10 ms (CPython 3.11 on
# one core); at 3000 it takes up to 40 ms
STURM_SIZE_LIMIT = 2000


def _primitive(c: list[int]) -> list[int]:
    g = gcd(*c)
    return c if g == 1 else [v // g for v in c]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of the remainder of a by b, both
    highest degree first with nonzero leading coefficients; [] for zero."""
    lb = b[0]
    sign, lb = (1, lb) if lb > 0 else (-1, -lb)
    nb = len(b)
    while a and len(a) >= nb:
        f = sign * a[0]
        a = [lb * x - f * y for x, y in zip(a[1:nb], b[1:])] + [lb * x for x in a[nb:]]
        while a and a[0] == 0:
            del a[0]
    return a


def sturm_sequence(coeffs: Sequence[int]) -> list[list[int]]:
    """The Sturm sequence p, p', -rem(p, p'), ... of p = sum coeffs[e] x^e,
    each member primitive, highest degree first; [] for the zero
    polynomial."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return []
    p = _primitive(c[::-1])
    n = len(p) - 1
    if n == 0:
        return [p]
    seq = [p, _primitive([(n - i) * v for i, v in enumerate(p[:-1])])]
    while len(seq[-1]) > 1:
        r = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append(_primitive([-v for v in r]))
    return seq


def _sign_changes(signs: list[int]) -> int:
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def real_root_count(coeffs: Sequence[int]) -> int:
    """The number of distinct real roots of the nonzero p = sum coeffs[e] x^e
    (Sturm's theorem: sign changes of the sequence at -inf minus those at
    +inf; no member vanishes there)."""
    seq = sturm_sequence(coeffs)
    if not seq:
        raise ValueError("the zero polynomial has infinitely many roots")
    at_pos = [1 if q[0] > 0 else -1 for q in seq]
    at_neg = [s if len(q) % 2 else -s for s, q in zip(at_pos, seq)]
    return _sign_changes(at_neg) - _sign_changes(at_pos)


def definite(p: Polynomial, strict: bool) -> bool:
    """p > 0 (strict) or p >= 0 holds at every real point, decided exactly
    for a constant p and for a p in one variable; False for every other p.

    A p in one variable with no real root keeps one sign, that of p(0).
    False also past ``STURM_SIZE_LIMIT``."""
    if p.is_constant():
        v = sum(p.nums.values())
        return v > 0 if strict else v >= 0
    variables = p.sorted_variables()
    if len(variables) != 1:
        return False
    i = variables[0]
    by_exp = {m[i]: v for m, v in p.nums.items()}
    deg = max(by_exp)
    if deg % 2 or by_exp.get(0, 0) <= 0:
        return False  # a root at 0, a negative value there, or odd degree
    bits = max(abs(v).bit_length() for v in by_exp.values())
    if deg * (bits + deg) > STURM_SIZE_LIMIT:
        return False
    return real_root_count([by_exp.get(e, 0) for e in range(deg + 1)]) == 0
