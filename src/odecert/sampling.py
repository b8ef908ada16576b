"""Seeded rational counterexample sampling, in integers.

Coordinates are drawn as n/d with |n| <= 100 and 1 <= d <= 10, and a point
is kept as a :class:`~odecert.polyarith.ScaledPoint`: integer numerators
over one positive common denominator.  Half of the samples take one exact
correction step toward a hypothesis boundary: pick a boundary atom,
substitute the sampled values into all but one variable, and replace that
coordinate by an exact rational root of the resulting univariate
polynomial (the linear case is plain coordinate solving).  The univariate
polynomial has integer coefficients (a positive multiple of the
restriction, from :meth:`~odecert.polyarith.Polynomial.restrict_to_variable`)
and its roots come out as reduced integer pairs, so no ``Fraction`` is built
here.  Points that the projection cannot fix stay as drawn.  Every
candidate is used only through exact evaluation, so emitted witnesses are
sound by construction.

Every random int comes from one draw, ``_below``: ``getrandbits`` of the
bound's bit length, repeated until below the bound, which is the loop that
``randint``, ``randrange`` and ``shuffle`` run on CPython 3.10 to 3.13; so
a seed's points rest only on ``getrandbits`` and are the points those gave.
``random_point`` runs the same loops written out, the same draws in the
same order.  A boundary atom keeps its sorted variable tuple and, per
variable, the table its restrictions are summed from, both built on the
first projection onto it.  An atom in one variable restricts to a positive
multiple of itself at every point, so its rational roots are found once,
on the first projection onto it, and kept on the atom; a projection onto
it draws no shuffle and only picks a root.  No code is generated: each
restriction and each value is summed from the cached tables.
"""

from __future__ import annotations

import random
from functools import cmp_to_key
from math import gcd, isqrt, lcm
from typing import Iterator, Optional, Sequence

from .polyarith import Polynomial, ScaledPoint

NUM_RANGE = 100
DEN_RANGE = 10
_DIVISOR_CAP = 10 ** 12
_MAX_DIVISORS = 128

Root = tuple[int, int]  # num/den in lowest terms, den > 0
_QUADRATIC = frozenset((0, 1, 2))


def _below(rng: random.Random, n: int) -> int:
    """A uniform int in [0, n) for n >= 1: getrandbits(n.bit_length())
    drawn until below n."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


_NUM_SPAN = 2 * NUM_RANGE + 1
_NUM_BITS = _NUM_SPAN.bit_length()
_DEN_BITS = DEN_RANGE.bit_length()


def random_point(rng: random.Random, nvars: int) -> ScaledPoint:
    """Per coordinate, the draws ``_below(rng, 2 * NUM_RANGE + 1)`` for the
    numerator and ``_below(rng, DEN_RANGE)`` for the denominator, in that
    order, with the loops written out."""
    bits = rng.getrandbits
    nums, dens = [], []
    for _ in range(nvars):
        n = bits(_NUM_BITS)
        while n >= _NUM_SPAN:
            n = bits(_NUM_BITS)
        d = bits(_DEN_BITS)
        while d >= DEN_RANGE:
            d = bits(_DEN_BITS)
        nums.append(n - NUM_RANGE)
        dens.append(d + 1)
    den = lcm(*dens)
    return ScaledPoint([n * (den // d) for n, d in zip(nums, dens)], den)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0 or n > _DIVISOR_CAP:
        return []
    small, large = [], []
    d = 1
    while d * d <= n and len(small) < _MAX_DIVISORS:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _root(num: int, den: int) -> Root:
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _compare(a: Root, b: Root) -> int:
    return a[0] * b[1] - b[0] * a[1]


def univariate_rational_roots(coeffs: dict[int, int]) -> list[Root]:
    """All rational roots of sum coeffs[e] * x^e, exactly, as reduced
    (num, den) pairs with den > 0, in increasing order.

    Degenerate cases: the zero polynomial and constants return no roots
    (callers treat that as "no projection found").  Root candidates beyond the
    divisor cap are skipped, so the list may be incomplete for huge
    coefficients; every returned value is verified by exact evaluation.
    """
    if coeffs.keys() <= _QUADRATIC:  # direct paths, no dict rebuilt
        c0, c1, c2 = coeffs.get(0, 0), coeffs.get(1, 0), coeffs.get(2, 0)
        if c2 and c0:
            return _quadratic_roots(c2, c1, c0)
        if c1 and not c2:
            return [_root(-c0, c1)]
    coeffs = {e: c for e, c in coeffs.items() if c != 0}
    if not coeffs:
        return []
    roots: list[Root] = []
    min_exp = min(coeffs)
    if min_exp > 0:
        roots.append((0, 1))
        coeffs = {e - min_exp: c for e, c in coeffs.items()}
    deg = max(coeffs)
    if deg == 0:
        return roots
    if deg <= 2:  # a direct path, now that the constant coefficient is nonzero
        return _sorted(roots + univariate_rational_roots(coeffs))
    # rational root theorem on the primitive part: a root num/den in lowest
    # terms makes den*x - num a factor over Z (Gauss's lemma), so den - num
    # divides p(1) and den + num divides p(-1)
    g = 0
    for v in coeffs.values():
        g = gcd(g, v)
    iofs = {e: v // g for e, v in coeffs.items()}
    at_one = sum(iofs.values())
    at_minus_one = sum(-v if e % 2 else v for e, v in iofs.items())
    dens = _divisors(iofs[deg])
    seen: set[Root] = set()
    for num in _divisors(iofs[0]):  # nonzero: x was factored out above
        for den in dens:
            g = gcd(num, den)
            n, d = pair = num // g, den // g
            if pair in seen:
                continue
            seen.add(pair)
            # candidates n/d and -n/d; b > 0, and a = 0 only for 1/1, which
            # _vanishes alone decides
            a, b = d - n, d + n
            if at_minus_one % b == 0 and (not a or at_one % a == 0) and \
                    _vanishes(iofs, deg, n, d):
                roots.append(pair)
            if at_one % b == 0 and (not a or at_minus_one % a == 0) and \
                    _vanishes(iofs, deg, -n, d):
                roots.append((-n, d))
    return _sorted(roots)


def _quadratic_roots(a: int, b: int, c: int) -> list[Root]:
    """The rational roots of a*x^2 + b*x + c for a != 0, increasing."""
    disc = b * b - 4 * a * c
    sq = isqrt(disc) if disc >= 0 else -1
    if sq < 0 or sq * sq != disc:
        return []
    lo, hi = _root(-b - sq, 2 * a), _root(-b + sq, 2 * a)
    if a < 0:
        lo, hi = hi, lo
    return [lo, hi] if sq else [lo]


def _sorted(roots: list[Root]) -> list[Root]:
    return sorted(roots, key=cmp_to_key(_compare))


def _vanishes(coeffs: dict[int, int], deg: int, num: int, den: int) -> bool:
    """Whether sum coeffs[e] * (num/den)^e is zero, from the integer
    den^deg times it."""
    return sum(c * num ** e * den ** (deg - e) for e, c in coeffs.items()) == 0


def _own_roots(atom: Polynomial, var: int) -> list[Root]:
    """The rational roots of an atom in the one variable x_var, found on
    first use and kept on the atom as ``_roots``: each of its restrictions
    is a positive multiple of its own numerators, so all have these roots."""
    try:
        return atom._roots
    except AttributeError:
        atom._roots = univariate_rational_roots({m[var]: c for m, c in atom.nums.items()})
        return atom._roots


def project_to_boundary(point: ScaledPoint, atom: Polynomial,
                        rng: random.Random) -> Optional[ScaledPoint]:
    """One exact correction step: replaces one coordinate of ``point`` so
    that ``atom`` vanishes, when a rational root exists."""
    variables = atom.sorted_variables()
    if len(variables) == 1:  # no shuffle to draw, and the roots are the atom's own
        var = variables[0]
        roots = _own_roots(atom, var)
        if not roots:
            return None
        num, den = roots[_below(rng, len(roots))]
        return point.with_coordinate(var, num, den)
    candidates = list(variables)
    for i in range(len(candidates) - 1, 0, -1):  # Fisher-Yates shuffle
        j = _below(rng, i + 1)
        candidates[i], candidates[j] = candidates[j], candidates[i]
    for var in candidates:
        roots = univariate_rational_roots(atom.restrict_to_variable(var, point))
        if roots:
            num, den = roots[_below(rng, len(roots))]
            return point.with_coordinate(var, num, den)
    return None


def sample_points(rng: random.Random, nvars: int, count: int,
                  boundary_atoms: Sequence[Polynomial]) -> Iterator[ScaledPoint]:
    """Yield ``count`` candidate points, alternating uniform draws with
    boundary-projected draws when boundary atoms are available."""
    for k in range(count):
        point = random_point(rng, nvars)
        if boundary_atoms and k % 2 == 1:
            atom = boundary_atoms[_below(rng, len(boundary_atoms))]
            projected = project_to_boundary(point, atom, rng)
            if projected is not None:
                point = projected
        yield point
