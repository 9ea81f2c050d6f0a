"""Exact sparse polynomials over the rationals.

A Poly is a dict mapping exponent tuples (one slot per variable) to nonzero
Fraction coefficients; the empty dict is zero.  All arithmetic is exact.  The
kernel (add, sub, mul, scale, diff) returns canonical dicts, with no zero
coefficient ever stored; everything else is defined here on top of it.  The
kernel runs in its coefficients' own arithmetic, so an IntPoly, the same
dict with int coefficients, stays one under it: clear_denominators writes
polynomials as IntPolys over one denominator, and over reads one back.

JSON form of a Poly:

    {"nvars": n, "terms": [{"exps": [e1, ..., en], "num": "3", "den": "2"}]}

Numerators and denominators are decimal strings so arbitrary precision
survives any JSON reader.  Terms are sorted by exponent tuple, so equal
polynomials serialize to identical bytes.  Reading JSON enforces fixed size
caps, checked once where the file is read: MAX_NVARS variables, MAX_TERMS
terms and total degree MAX_DEGREE per term.
"""

from __future__ import annotations

import operator
import random
import re
import sys
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

Exponent = Tuple[int, ...]
Poly = Dict[Exponent, Fraction]
IntPoly = Dict[Exponent, int]


def add(p: Poly, q: Poly) -> Poly:
    """Sum of two polynomials."""
    out = dict(p)
    for e, c in q.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def sub(p: Poly, q: Poly) -> Poly:
    """Difference p - q."""
    out = dict(p)
    for e, c in q.items():
        s = out.get(e)
        if s is None:
            out[e] = -c
        else:
            s = s - c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def mul(p: Poly, q: Poly) -> Poly:
    """Product of two polynomials."""
    if not p or not q:
        return {}
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(operator.add, e1, e2))
            c = c1 * c2
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def scale(p: Poly, c: Fraction) -> Poly:
    """Product of a polynomial with a constant."""
    if not c:
        return {}
    return {e: c * v for e, v in p.items()}


def diff(p: Poly, i: int) -> Poly:
    """Partial derivative with respect to variable i."""
    out: Poly = {}
    for e, c in p.items():
        k = e[i]
        if k:
            e2 = e[:i] + (k - 1,) + e[i + 1:]
            out[e2] = c * k
    return out


def const(c, nvars: int) -> Poly:
    """Constant polynomial in nvars variables."""
    c = Fraction(c)
    if not c:
        return {}
    return {(0,) * nvars: c}


def var(i: int, nvars: int) -> Poly:
    """The coordinate monomial x_i."""
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): Fraction(1)}


def clear_denominators(ps: Sequence[Poly]) -> Tuple[int, List[IntPoly]]:
    """(D, nums) with ps[k] = nums[k] / D, D the lcm of the denominators of
    every coefficient; coefficients may be ints already."""
    den = lcm(*{c.denominator for p in ps for c in p.values()})
    return den, [{e: c.numerator * (den // c.denominator)
                  for e, c in p.items()} for p in ps]


def over(p: IntPoly, den: int) -> Poly:
    """The Poly p / den, one Fraction per coefficient."""
    return {e: Fraction(c, den) for e, c in p.items()}


def neg(p: Poly) -> Poly:
    return {e: -c for e, c in p.items()}


def is_constant(p: Poly) -> bool:
    return not p or (len(p) == 1 and not any(next(iter(p))))


def constant_value(p: Poly) -> Fraction:
    """Value of a constant polynomial."""
    if not p:
        return Fraction(0)
    if not is_constant(p):
        raise ValueError("polynomial is not constant")
    return next(iter(p.values()))


def weighted_degree(p: Poly, weights: Sequence[int]) -> int:
    """Max weighted degree of the terms; -1 for zero."""
    if not p:
        return -1
    return max(sum(w * k for w, k in zip(weights, e)) for e in p)


def is_weighted_homogeneous(p: Poly, weights: Sequence[int]) -> bool:
    degs = {sum(w * k for w, k in zip(weights, e)) for e in p}
    return len(degs) <= 1


def pdiv_exact(p: Poly, q: Poly) -> Poly:
    """Exact division p / q; raises if q does not divide p.

    Division is by the lex-leading term of q, as in the single-divisor case
    of multivariate reduction.  When p is a multiple of q this terminates
    with zero remainder; a nonzero remainder raises ValueError.
    """
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    if not p:
        return {}
    lead = max(q)
    lc = q[lead]
    rem = dict(p)
    quot: Poly = {}
    while rem:
        e = max(rem)
        d = tuple(a - b for a, b in zip(e, lead))
        if any(k < 0 for k in d):
            raise ValueError("inexact polynomial division")
        c = rem[e] / lc
        quot[d] = c
        rem = sub(rem, mul({d: c}, q))
    return quot


def poly_to_json(p: Poly, nvars: int) -> dict:
    terms = []
    for e in sorted(p):
        c = p[e]
        terms.append({"exps": list(e), "num": str(c.numerator),
                      "den": str(c.denominator)})
    return {"nvars": nvars, "terms": terms}


# Size caps on JSON input, fixed rather than configurable.  Cells have
# 2^nvars monomials in all, so a model past MAX_NVARS could not be paged in
# reasonable time (the builtins have at most 7 variables).  MAX_TERMS and
# MAX_DEGREE bound the work one JSON polynomial or form can ask for; degree
# 64 keeps exponents far below Jets.SHIFT, where a jet's derivative orders
# begin, and keeps small the factors e_i that each derivative brings down.
MAX_NVARS = 10
MAX_TERMS = 1 << 16
MAX_DEGREE = 64


_DECIMAL = re.compile("-?[0-9]+")


def json_int(x: object, what: str) -> int:
    """An integer from JSON: an int or an ASCII decimal string, -?[0-9]+,
    never a float."""
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, str) and _DECIMAL.fullmatch(x):
        try:
            return int(x)
        except ValueError:  # only past Python's digit limit
            raise ValueError("%s has more than %d digits, Python's limit for "
                             "str to int conversion"
                             % (what, sys.get_int_max_str_digits()))
    raise ValueError("%s must be an integer, got %.40r" % (what, x))


def json_nvars(x: object) -> int:
    """A variable count from JSON, in 0..MAX_NVARS."""
    n = json_int(x, "nvars")
    if not 0 <= n <= MAX_NVARS:
        raise ValueError("nvars %d is outside 0..%d" % (n, MAX_NVARS))
    return n


def json_term_count(terms: object, what: str) -> None:
    """Reject a terms list longer than MAX_TERMS before reading it."""
    if isinstance(terms, list) and len(terms) > MAX_TERMS:
        raise ValueError("a %s may have at most %d terms, got %d"
                         % (what, MAX_TERMS, len(terms)))


def poly_from_json(obj: dict, nvars: Optional[int] = None) -> Poly:
    """Parse a Poly, checking every field; nvars, if given, must match."""
    return nvars_poly_from_json(obj, nvars)[1]


def nvars_poly_from_json(obj: dict,
                         nvars: Optional[int] = None) -> Tuple[int, Poly]:
    """poly_from_json, with the variable count the polynomial declares."""
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise ValueError("a polynomial must be an object with a terms list, "
                         "got %.40r" % (obj,))
    n = json_nvars(obj.get("nvars"))
    if nvars is not None and n != nvars:
        raise ValueError("polynomial has %d variables, expected %d"
                         % (n, nvars))
    json_term_count(obj["terms"], "polynomial")
    out: Poly = {}
    for t in obj["terms"]:
        if not isinstance(t, dict) or not isinstance(t.get("exps"), list):
            raise ValueError("a term must be an object with an exps list")
        e = t["exps"]
        if all(type(k) is int for k in e):
            e = tuple(e)
        else:
            e = tuple(json_int(k, "exponent") for k in e)
        if len(e) != n or (e and min(e) < 0):
            raise ValueError("exponents %r do not fit nvars %d" % (e, n))
        if sum(e) > MAX_DEGREE:
            raise ValueError("a term may have degree at most %d, got %d"
                             % (MAX_DEGREE, sum(e)))
        den = json_int(t.get("den"), "denominator")
        if not den:
            raise ValueError("zero denominator")
        c = Fraction(json_int(t.get("num"), "numerator"), den)
        s = out.get(e)
        if s is not None:
            c += s
        if c:
            out[e] = c
        elif s is not None:
            del out[e]
    return n, out


class Jets:
    """Symbolic jets of one unknown function u of nvars variables.

    A jet is a Poly over the same nvars variables in which the exponent of
    x_i packs two numbers, b_i + a_i * SHIFT: the term c x^(b + a SHIFT)
    stands for c x^b d^a u, so a jet is a linear differential expression
    in u.  Functions of x multiply jets as they are (their exponents have
    no a part, and x exponents never reach SHIFT), and every Q-linear step
    that works monomial by monomial works on jets unchanged.  Only
    derivatives differ: they must be the total derivatives of partials,
    D_m(c d^a u) = (d_m c) d^a u + c d^(a + e_m) u, since diff would read a
    packed exponent as a power.
    """

    SHIFT = 1 << 32

    def __init__(self, nvars: int):
        self.nvars = nvars
        # u itself, with an int coefficient: a jet's scale is 1, and the
        # cascade runs on integer numerators (operators._LcpRun)
        self.unknown: IntPoly = {(0,) * nvars: 1}
        self._units = [(m, tuple(int(i == m) for i in range(nvars)),
                        tuple(self.SHIFT * int(i == m) for i in range(nvars)))
                       for m in range(nvars)]

    def partials(self, p: Poly) -> List[Poly]:
        """The total derivatives D_0 p, ..., D_{nvars-1} p."""
        out = []
        mask = self.SHIFT - 1
        for m, x_m, xi_m in self._units:
            down = {tuple(map(operator.sub, e, x_m)): c * (e[m] & mask)
                    for e, c in p.items() if e[m] & mask}
            up = {tuple(map(operator.add, e, xi_m)): c for e, c in p.items()}
            out.append(add(down, up))
        return out

    def split(self, p: Poly) -> Dict[Exponent, Poly]:
        """alpha -> c_alpha(x) with p = sum c_alpha d^alpha u."""
        out: Dict[Exponent, Poly] = {}
        for e, c in p.items():
            alpha, b = zip(*(divmod(k, self.SHIFT) for k in e))
            out.setdefault(alpha, {})[b] = c
        return out


def random_poly(rng: random.Random, nvars: int, max_degree: int,
                terms: int) -> Poly:
    """Seeded random polynomial with small rational coefficients.

    Each term draws num/den with den in 1..3, so the sum is kept in
    integer sixths and one Fraction is built per surviving monomial.
    """
    sixths: Dict[Exponent, int] = {}
    for _ in range(terms):
        d = rng.randint(0, max_degree)
        e = [0] * nvars
        for _ in range(d):
            e[rng.randrange(nvars)] += 1
        num = rng.randint(-5, 5)
        den = rng.randint(1, 3)
        if not num:
            continue
        t = tuple(e)
        s = sixths.get(t, 0) + num * (6 // den)
        if s:
            sixths[t] = s
        else:
            sixths.pop(t, None)
    return {e: Fraction(n, 6) for e, n in sixths.items()}
