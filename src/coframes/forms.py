"""Exterior calculus with exact polynomial coefficients.

A Form of degree p stores a dict mapping strictly increasing index tuples
(0-based internally, 1-based in JSON) to Poly coefficients.  The basis tag
records whether the indices refer to the coordinate covectors dx_i or to the
coframe of a named model; the exterior derivative is only defined here in the
coordinate basis, and change_basis moves forms between the two.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import ratpoly as rp

Index = Tuple[int, ...]

COORD = "coordinate"


def sort_sign(seq: Sequence[int]) -> Tuple[Optional[Index], int]:
    """Sort indices, returning the permutation sign; duplicates give (None, 0)."""
    prev = -1
    for i in seq:  # indices are >= 0; strictly increasing is the common case
        if i <= prev:
            break
        prev = i
    else:
        return tuple(seq), 1
    lst = list(seq)
    if len(set(lst)) != len(lst):
        return None, 0
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return tuple(lst), sign


class Form:
    """Exterior form with Poly coefficients."""

    __slots__ = ("nvars", "degree", "basis", "terms")

    def __init__(self, nvars: int, degree: int, basis: str = COORD,
                 terms: Optional[Dict[Index, rp.Poly]] = None):
        self.nvars = nvars
        self.degree = degree
        self.basis = basis
        self.terms: Dict[Index, rp.Poly] = {}
        if terms:
            for idx, p in terms.items():
                if p:
                    self.terms[tuple(idx)] = p

    def copy(self) -> "Form":
        return Form(self.nvars, self.degree, self.basis,
                    {i: dict(p) for i, p in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, idx: Index, p: rp.Poly) -> None:
        """Accumulate p * basis monomial idx (idx need not be sorted)."""
        if not p:
            return
        sidx, sign = sort_sign(idx)
        if sidx is None:
            return
        if sign < 0:
            p = rp.neg(p)
        cur = self.terms.get(sidx)
        if cur is None:
            self.terms[sidx] = p
        else:
            s = rp.add(cur, p)
            if s:
                self.terms[sidx] = s
            else:
                del self.terms[sidx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (self.nvars == other.nvars and self.degree == other.degree
                and self.basis == other.basis and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("Form is mutable, not hashable")

    def __repr__(self) -> str:
        return "Form(%d-form, %s, %d terms)" % (self.degree, self.basis,
                                                len(self.terms))


def form_zero(nvars: int, degree: int, basis: str = COORD) -> Form:
    return Form(nvars, degree, basis)


def form_monomial(nvars: int, idx: Sequence[int], coeff,
                  basis: str = COORD) -> Form:
    """coeff * e_idx, where coeff is a Poly or a rational constant."""
    p = coeff if isinstance(coeff, dict) else rp.const(coeff, nvars)
    f = Form(nvars, len(idx), basis)
    f.add_term(tuple(idx), p)
    return f


def one_form(nvars: int, i: int, basis: str = COORD) -> Form:
    return form_monomial(nvars, (i,), 1, basis)


def form_add(a: Form, b: Form) -> Form:
    _check_compat(a, b)
    out = a.copy()
    for idx, p in b.terms.items():
        out.add_term(idx, p)
    return out


def form_sub(a: Form, b: Form) -> Form:
    _check_compat(a, b)
    out = a.copy()
    for idx, p in b.terms.items():
        out.add_term(idx, rp.neg(p))
    return out


def clear_denominators(forms: Sequence[Form]) -> Tuple[int, List[Form]]:
    """(D, [D f for f in forms]), D the lcm of the denominators of every
    coefficient, so each D f has int coefficients (ratpoly.IntPoly)."""
    den, nums = rp.clear_denominators([p for f in forms
                                       for p in f.terms.values()])
    it = iter(nums)
    return den, [Form(f.nvars, f.degree, f.basis,
                      {idx: next(it) for idx in f.terms}) for f in forms]


def form_scale(a: Form, c) -> Form:
    c = Fraction(c)
    return Form(a.nvars, a.degree, a.basis,
                {i: rp.scale(p, c) for i, p in a.terms.items()})


def form_pmul(a: Form, q: rp.Poly) -> Form:
    """Multiply a form by a polynomial function."""
    return Form(a.nvars, a.degree, a.basis,
                {i: rp.mul(p, q) for i, p in a.terms.items()})


def wedge(a: Form, b: Form) -> Form:
    if a.basis != b.basis or a.nvars != b.nvars:
        raise ValueError("wedge needs forms over one basis")
    out = Form(a.nvars, a.degree + b.degree, a.basis)
    for ia, pa in a.terms.items():
        for ib, pb in b.terms.items():
            idx, sign = sort_sign(ia + ib)
            if idx is None:
                continue
            c = rp.mul(pa, pb)
            if sign < 0:
                c = rp.neg(c)
            out.add_term(idx, c)
    return out


def exterior_d(a: Form) -> Form:
    """Exterior derivative; defined on the coordinate basis only."""
    if a.basis != COORD:
        raise ValueError(
            "exterior_d works in the coordinate basis; change_basis first")
    out = Form(a.nvars, a.degree + 1, COORD)
    for idx, p in a.terms.items():
        for m in range(a.nvars):
            dp = rp.diff(p, m)
            if dp:
                out.add_term((m,) + idx, dp)
    return out


def interior(a: Form, k: int) -> Form:
    """Contraction with the frame vector dual to basis covector k."""
    out = Form(a.nvars, a.degree - 1, a.basis)
    for idx, p in a.terms.items():
        if k in idx:
            pos = idx.index(k)
            rest = idx[:pos] + idx[pos + 1:]
            out.add_term(rest, p if pos % 2 == 0 else rp.neg(p))
    return out


def contract(a: Form, b: Form) -> Form:
    """Full double contraction with the bivector whose coefficients are
    those of the 2-form b: b's coefficient on e_k ^ e_l, k < l, pairs
    e_k ^ e_l against dx_k ^ dx_l with +1.  ValueError for any other
    degree of b."""
    if b.degree != 2:
        raise ValueError("contract reads a 2-form as the bivector; got a "
                         "%d-form" % b.degree)
    if a.nvars != b.nvars:
        raise ValueError("variable count mismatch")
    out = Form(a.nvars, a.degree - 2, a.basis)
    for (k, l), q in b.terms.items():
        inner = interior(interior(a, k), l)
        for idx, p in inner.terms.items():
            out.add_term(idx, rp.mul(p, q))
    return out


def substitute_covectors(a: Form, table: List[List[Tuple[int, rp.Poly]]],
                         new_basis: str) -> Form:
    """Rewrite each basis covector j as a combination table[j] in a new basis."""
    out = Form(a.nvars, a.degree, new_basis)
    for idx, p in a.terms.items():
        partial: Dict[Index, rp.Poly] = {(): p}
        for j in idx:
            nxt: Dict[Index, rp.Poly] = {}
            for pidx, q in partial.items():
                for i, c in table[j]:
                    if i in pidx:
                        continue
                    # wedge on the right: move i past the larger entries
                    after = sum(1 for t in pidx if t > i)
                    coeff = rp.mul(q, c)
                    if after % 2:
                        coeff = rp.neg(coeff)
                    nidx = tuple(sorted(pidx + (i,)))
                    cur = nxt.get(nidx)
                    nxt[nidx] = rp.add(cur, coeff) if cur else coeff
            partial = {k: v for k, v in nxt.items() if v}
        for nidx, q in partial.items():
            out.add_term(nidx, q)
    return out


def change_basis(a: Form, model, to: str) -> Form:
    """Move a form between the coordinate basis and a model's coframe basis.

    to is "coframe" or "coordinate".  The model supplies the coframe matrix
    (rows express coframe covectors in coordinate covectors) and its exact
    inverse.
    """
    tag = "coframe:%s" % model.name
    if to == "coframe":
        if a.basis == tag:
            return a.copy()
        if a.basis != COORD:
            raise ValueError("form is in a different model's coframe")
        # dx_j = sum_i Binv[j][i] omega_i
        table = [[(i, model.coframe_inv[j][i])
                  for i in range(model.nvars) if model.coframe_inv[j][i]]
                 for j in range(model.nvars)]
        return substitute_covectors(a, table, tag)
    if to == "coordinate":
        if a.basis == COORD:
            return a.copy()
        if a.basis != tag:
            raise ValueError("form is in a different model's coframe")
        # omega_i = sum_j A[i][j] dx_j
        table = [[(j, model.coframe[i][j])
                  for j in range(model.nvars) if model.coframe[i][j]]
                 for i in range(model.nvars)]
        return substitute_covectors(a, table, COORD)
    raise ValueError("target basis must be 'coframe' or 'coordinate'")


def form_to_json(a: Form) -> dict:
    terms = []
    for idx in sorted(a.terms):
        terms.append({"indices": [i + 1 for i in idx],
                      "coeff": rp.poly_to_json(a.terms[idx], a.nvars)})
    return {"nvars": a.nvars, "degree": a.degree, "basis": a.basis,
            "terms": terms}


def form_from_json(obj: dict) -> Form:
    """Parse a form; each term has degree 1-based indices in 1..nvars and a
    coefficient in nvars variables, nvars and the term count are capped as
    in ratpoly, or ValueError is raised."""
    n = rp.json_nvars(obj["nvars"])
    f = Form(n, rp.json_int(obj["degree"], "form degree"),
             obj.get("basis", COORD))
    rp.json_term_count(obj["terms"], "form")
    for t in obj["terms"]:
        idx = [rp.json_int(i, "form index") - 1 for i in t["indices"]]
        if len(idx) != f.degree or not all(0 <= i < n for i in idx):
            raise ValueError("form term indices %.40r do not fit a %d-form "
                             "in %d variables" % (t["indices"], f.degree, n))
        f.add_term(tuple(idx), rp.poly_from_json(t["coeff"], n))
    return f


def _check_compat(a: Form, b: Form) -> None:
    if a.nvars != b.nvars or a.degree != b.degree or a.basis != b.basis:
        raise ValueError("incompatible forms: %r vs %r" % (a, b))
