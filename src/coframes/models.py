"""Coordinate models of filtered geometric structures.

A GeometryModel carries a global coframe on R^n: row i of the coframe matrix
expresses the covector omega_i in coordinate covectors, with exact
determinant one, so the inverse matrix is polynomial as well.  The builtin
models are additionally normalized to unit diagonal; derived models (row
changes, splitting shifts) need not be.
Each covector has a positive integer weight; declared congruences record the
structure equations d(omega_i) = rhs modulo a set of coframe covectors, and
verify_structure checks all of them exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg, ratpoly as rp
from .forms import (COORD, Bivector, Form, change_basis, exterior_d,
                    form_from_json, form_to_json, form_zero)

PolyMatrix = List[List[rp.Poly]]


def _pmat_identity(n: int, nvars: int) -> PolyMatrix:
    return [[rp.const(1 if i == j else 0, nvars) for j in range(n)]
            for i in range(n)]


def _pmat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    n = len(a)
    m = len(b[0])
    k = len(b)
    out: PolyMatrix = [[{} for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc: rp.Poly = {}
            for t in range(k):
                if a[i][t] and b[t][j]:
                    acc = rp.add(acc, rp.mul(a[i][t], b[t][j]))
            out[i][j] = acc
    return out


def _pmat_sub(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return [[rp.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _pmat_is_zero(a: PolyMatrix) -> bool:
    return all(not e for row in a for e in row)


def _pmat_inverse_unimodular(a: PolyMatrix, nvars: int) -> PolyMatrix:
    """Inverse of a matrix with det 1.

    Tries the Neumann series for I - a first, then falls back to the
    adjugate.  The series is finite whenever a - I is nilpotent: every
    builtin coframe, and every row change E that change_rows inverts (a
    splitting shift has (E - I)^2 = 0).  A shifted coframe E @ A is not
    such a matrix, which is why change_rows inverts E alone.
    """
    n = len(a)
    ident = _pmat_identity(n, nvars)
    nil = _pmat_sub(a, ident)
    out = [row[:] for row in ident]
    power = [row[:] for row in ident]
    sign = 1
    for _ in range(n):
        power = _pmat_mul(power, nil)
        if _pmat_is_zero(power):
            return out
        sign = -sign
        out = [[rp.add(o, rp.scale(p, Fraction(sign))) for o, p in
                zip(orow, prow)] for orow, prow in zip(out, power)]
    adj = linalg.poly_adjugate(a)
    return adj


@dataclass
class Congruence:
    """d(omega_index) = rhs modulo the covectors listed in mod."""
    index: int
    rhs: Form
    mod: Tuple[int, ...] = ()


@dataclass
class StructureReport:
    model: str
    diag_ok: bool
    det_ok: bool
    inverse_ok: bool
    weights_ok: bool
    weight_homogeneous: bool
    congruences: List[dict]
    elapsed: float

    @property
    def ok(self) -> bool:
        return (self.diag_ok and self.det_ok and self.inverse_ok
                and self.weights_ok
                and all(c["holds"] for c in self.congruences))


class GeometryModel:
    """Global coframe on R^n with weights and declared structure equations.

    coframe_inv, when given, must be the exact inverse of coframe; it is
    not recomputed, and verify_structure checks it.
    """

    def __init__(self, name: str, nvars: int, weights: Sequence[int],
                 coframe: PolyMatrix,
                 congruences: Sequence[Congruence] = (),
                 selectors: Optional[Dict[str, Tuple[int, ...]]] = None,
                 extra: Optional[dict] = None, *,
                 coframe_inv: Optional[PolyMatrix] = None):
        self.name = name
        self.nvars = nvars
        self.weights = tuple(int(w) for w in weights)
        self.coframe = coframe
        self.congruences = list(congruences)
        self.extra = dict(extra or {})
        if len(self.weights) != nvars or len(coframe) != nvars:
            raise ValueError("weights and coframe must both have length nvars")
        det = linalg.poly_det_bareiss(coframe)
        if det != rp.const(1, nvars):
            raise ValueError("coframe determinant must be exactly 1")
        self.coframe_inv = (coframe_inv if coframe_inv is not None
                            else _pmat_inverse_unimodular(coframe, nvars))
        self.selectors: Dict[str, Tuple[int, ...]] = {
            "horizontal": tuple(i for i, w in enumerate(self.weights) if w == 1),
            "vertical": tuple(i for i, w in enumerate(self.weights) if w >= 2),
            "depth2": tuple(i for i, w in enumerate(self.weights) if w == 2),
        }
        if selectors:
            self.selectors.update(selectors)
        self._dcoframe: Optional[List[Form]] = None

    @property
    def basis_tag(self) -> str:
        return "coframe:%s" % self.name

    def coframe_form(self, i: int) -> Form:
        """omega_i as a coordinate-basis 1-form."""
        f = Form(self.nvars, 1, COORD)
        for j in range(self.nvars):
            if self.coframe[i][j]:
                f.add_term((j,), self.coframe[i][j])
        return f

    def dcoframe(self, i: int) -> Form:
        """d(omega_i) in the coframe basis, cached."""
        if self._dcoframe is None:
            out = []
            for k in range(self.nvars):
                dk = exterior_d(self.coframe_form(k))
                out.append(change_basis(dk, self, "coframe"))
            self._dcoframe = out
        return self._dcoframe[i]

    def weight_of(self, idx: Sequence[int]) -> int:
        return sum(self.weights[i] for i in idx)

    def is_weight_homogeneous(self) -> bool:
        for i in range(self.nvars):
            for j in range(self.nvars):
                p = self.coframe[i][j]
                if not p:
                    continue
                want = self.weights[i] - self.weights[j]
                if not rp.is_weighted_homogeneous(p, self.weights):
                    return False
                if rp.weighted_degree(p, self.weights) != want:
                    return False
        return True

    def __repr__(self) -> str:
        return "GeometryModel(%s, n=%d)" % (self.name, self.nvars)


def frame_derivatives(model: GeometryModel, p: rp.Poly,
                      partials=None) -> List[rp.Poly]:
    """Components of df along the frame dual to the coframe; partials as
    in forms.exterior_d."""
    binv = model.coframe_inv
    dp = (partials(p) if partials is not None
          else [rp.diff(p, m) for m in range(model.nvars)])
    out = []
    for i in range(model.nvars):
        acc: rp.Poly = {}
        for m, dm in enumerate(dp):
            if dm and binv[m][i]:
                acc = rp.add(acc, rp.mul(binv[m][i], dm))
        out.append(acc)
    return out


def coframe_d(model: GeometryModel, a: Form, partials=None) -> Form:
    """Exterior derivative of a coframe-basis form, staying in that basis;
    partials as in forms.exterior_d."""
    if a.basis != model.basis_tag:
        raise ValueError("form is not in this model's coframe basis")
    out = Form(model.nvars, a.degree + 1, a.basis)
    for idx, p in a.terms.items():
        xp = frame_derivatives(model, p, partials)
        for i in range(model.nvars):
            if xp[i]:
                out.add_term((i,) + idx, xp[i])
        for k, ik in enumerate(idx):
            dk = model.dcoframe(ik)
            for (u, v), c in dk.terms.items():
                coeff = rp.mul(p, c)
                if k % 2:
                    coeff = rp.neg(coeff)
                out.add_term(idx[:k] + (u, v) + idx[k + 1:], coeff)
    return out


def split_by_cell_weight(model: GeometryModel, a: Form) -> Dict[int, Form]:
    """Split a coframe-basis form by total index weight."""
    parts: Dict[int, Form] = {}
    for idx, p in a.terms.items():
        w = model.weight_of(idx)
        f = parts.get(w)
        if f is None:
            f = Form(model.nvars, a.degree, a.basis)
            parts[w] = f
        f.add_term(idx, p)
    return parts


def verify_structure(model: GeometryModel) -> StructureReport:
    """Check unit diagonal, unimodularity, exact inverse, weights, congruences."""
    t0 = time.monotonic()
    n = model.nvars
    one = rp.const(1, n)
    diag_ok = all(model.coframe[i][i] == one for i in range(n))
    det_ok = linalg.poly_det_bareiss(model.coframe) == one
    prod = _pmat_mul(model.coframe, model.coframe_inv)
    inverse_ok = prod == _pmat_identity(n, n)
    weights_ok = all(w >= 1 for w in model.weights)
    congs = []
    for cg in model.congruences:
        d = model.dcoframe(cg.index)
        resid = d.copy()
        for idx, p in cg.rhs.terms.items():
            resid.add_term(idx, rp.neg(p))
        exact = resid.is_zero()
        in_mod = exact or all(any(i in cg.mod for i in idx)
                              for idx in resid.terms)
        congs.append({
            "index": cg.index,
            "exact": exact,
            "holds": in_mod,
            "residual_terms": sorted(resid.terms),
        })
    return StructureReport(
        model=model.name, diag_ok=diag_ok, det_ok=det_ok,
        inverse_ok=inverse_ok, weights_ok=weights_ok,
        weight_homogeneous=model.is_weight_homogeneous(),
        congruences=congs, elapsed=time.monotonic() - t0)


# #### Levi pairing ########################################################

@dataclass
class LeviReport:
    model: str
    vertical: Tuple[int, ...]
    horizontal: Tuple[int, ...]
    matrices: Dict[int, List[List[rp.Poly]]]
    constant: bool
    injective: bool


def levi_apply(model: GeometryModel, a: Form) -> Form:
    """Weight-2 graded part of d on a vertical 1-form.

    This is the pairing as a bundle map: the output only sees the pointwise
    value of the section, never its derivatives.
    """
    if a.degree != 1:
        raise ValueError("levi_apply expects a 1-form")
    d = coframe_d(model, a)
    return split_by_cell_weight(model, d).get(2, form_zero(model.nvars, 2,
                                                           a.basis))


def levi_form(model: GeometryModel) -> LeviReport:
    vert = model.selectors["depth2"]
    horiz = model.selectors["horizontal"]
    hpos = {h: k for k, h in enumerate(horiz)}
    mats: Dict[int, List[List[rp.Poly]]] = {}
    constant = True
    for a in vert:
        m: List[List[rp.Poly]] = [[{} for _ in horiz] for _ in horiz]
        w2 = split_by_cell_weight(model, model.dcoframe(a)).get(2)
        if w2 is not None:
            for (u, v), p in w2.terms.items():
                if u in hpos and v in hpos:
                    m[hpos[u]][hpos[v]] = p
                    m[hpos[v]][hpos[u]] = rp.neg(p)
                    if not rp.is_constant(p):
                        constant = False
                else:
                    constant = constant and True
        mats[a] = m
    if constant:
        rows = [[rp.constant_value(e) for row in mats[a] for e in row]
                for a in vert]
        injective = linalg.rank(rows) == len(vert) if vert else True
    else:
        # evaluate at a handful of fixed rational points
        pts = _sample_points(model.nvars)
        injective = False
        for pt in pts:
            rows = [[rp.evaluate(e, pt) for row in mats[a] for e in row]
                    for a in vert]
            if linalg.rank(rows) == len(vert):
                injective = True
                break
    return LeviReport(model=model.name, vertical=vert, horizontal=horiz,
                      matrices=mats, constant=constant, injective=injective)


def _sample_points(nvars: int) -> List[List[Fraction]]:
    base = [Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(-3, 5),
            Fraction(1, 7), Fraction(5, 4), Fraction(-2, 7)]
    pts = []
    for shift in range(3):
        pts.append([base[(i + shift) % len(base)] for i in range(nvars)])
    return pts


# #### Orbit classification ################################################

@dataclass
class OrbitReport:
    model: str
    kind: str
    gram: List[List[rp.Poly]]
    gram_constant: bool
    inertia: Tuple[int, int, int]
    levi_injective: bool


def _pfaffian4_poly(b: List[List[rp.Poly]]) -> rp.Poly:
    return rp.add(rp.sub(rp.mul(b[0][1], b[2][3]),
                         rp.mul(b[0][2], b[1][3])),
                  rp.mul(b[0][3], b[1][2]))


def orbit_invariant(model: GeometryModel) -> OrbitReport:
    """Classify a 3-in-7 structure by the inertia of its Pfaffian form."""
    levi = levi_form(model)
    vert, horiz = levi.vertical, levi.horizontal
    if len(vert) != 3 or len(horiz) != 4:
        raise ValueError(
            "orbit classification needs 3 depth-2 covectors over a 4-dim "
            "horizontal space; got %d and %d" % (len(vert), len(horiz)))
    mats = [levi.matrices[a] for a in vert]

    def pf_of(combo: List[List[rp.Poly]]) -> rp.Poly:
        return _pfaffian4_poly(combo)

    def madd(x, y):
        return [[rp.add(a, b) for a, b in zip(rx, ry)]
                for rx, ry in zip(x, y)]

    gram: List[List[rp.Poly]] = [[{} for _ in range(3)] for _ in range(3)]
    pf_single = [pf_of(m) for m in mats]
    for a in range(3):
        gram[a][a] = pf_single[a]
    for a in range(3):
        for b in range(a + 1, 3):
            cross = rp.sub(rp.sub(pf_of(madd(mats[a], mats[b])),
                                  pf_single[a]), pf_single[b])
            half = rp.scale(cross, Fraction(1, 2))
            gram[a][b] = half
            gram[b][a] = half
    gram_constant = all(rp.is_constant(e) for row in gram for e in row)
    if gram_constant:
        g = [[rp.constant_value(e) for e in row] for row in gram]
        inert = linalg.inertia(g)
        kinds = {_classify_inertia(inert)}
    else:
        kinds = set()
        inert = (0, 0, 0)
        for pt in _sample_points(model.nvars):
            g = [[rp.evaluate(e, pt) for e in row] for row in gram]
            inert = linalg.inertia(g)
            kinds.add(_classify_inertia(inert))
    kind = kinds.pop() if len(kinds) == 1 else "degenerate"
    return OrbitReport(model=model.name, kind=kind, gram=gram,
                       gram_constant=gram_constant, inertia=inert,
                       levi_injective=levi.injective)


def _classify_inertia(inert: Tuple[int, int, int]) -> str:
    pos, negv, zero = inert
    if zero:
        return "degenerate"
    if pos == 3 or negv == 3:
        return "elliptic"
    return "hyperbolic"


# #### Coframe changes #####################################################

def change_rows(model: GeometryModel, emat: PolyMatrix, name: str,
                keep_congruences: bool = False) -> GeometryModel:
    """New model with coframe E @ A; E must have det 1.

    The inverse is A^-1 @ E^-1: inverting E alone keeps the Neumann series
    finite for unipotent E, where E @ A - I is in general not nilpotent.
    The constructor's determinant check still rejects E with det != 1.
    """
    new_a = _pmat_mul(emat, model.coframe)
    new_inv = _pmat_mul(model.coframe_inv,
                        _pmat_inverse_unimodular(emat, model.nvars))
    congs = list(model.congruences) if keep_congruences else []
    return GeometryModel(name, model.nvars, model.weights, new_a,
                         congruences=congs, selectors=dict(model.selectors),
                         extra=dict(model.extra), coframe_inv=new_inv)


def splitting_shift(model: GeometryModel, shifts: Dict[Tuple[int, int], rp.Poly],
                    name: Optional[str] = None) -> GeometryModel:
    """Add vertical covectors into horizontal ones: omega_j += t * omega_a.

    shifts maps (j, a) with j horizontal, a vertical to the coefficient t.
    The structure congruences survive with their right sides unchanged,
    but only modulo the full vertical ideal: rewriting the right side in
    the shifted coframe adds terms with a vertical leg.  The carried-over
    congruences widen mod accordingly.
    """
    n = model.nvars
    emat = _pmat_identity(n, n)
    for (j, a), t in shifts.items():
        if model.weights[j] != 1 or model.weights[a] < 2:
            raise ValueError("shift must add a vertical row to a horizontal")
        emat[j][a] = t
    out = change_rows(model, emat, name or (model.name + "_shifted"))
    vert = model.selectors["vertical"]
    out.congruences = [
        Congruence(index=cg.index, rhs=cg.rhs,
                   mod=tuple(sorted(set(cg.mod) | set(vert))))
        for cg in model.congruences]
    return out


# #### Builtin models ######################################################

def _rowset(n: int, entries: Dict[Tuple[int, int], rp.Poly]) -> PolyMatrix:
    mat = _pmat_identity(n, n)
    for (i, j), p in entries.items():
        mat[i][j] = p
    return mat


def _cong(model_nvars: int, tag: str, index: int,
          rhs_terms: Dict[Tuple[int, ...], int],
          mod: Tuple[int, ...] = ()) -> Congruence:
    f = Form(model_nvars, 2, tag)
    for idx, c in rhs_terms.items():
        f.add_term(idx, rp.const(c, model_nvars))
    return Congruence(index=index, rhs=f, mod=mod)


def builtin_names() -> List[str]:
    return ["contact5", "engel4", "g2_5", "dist3in6", "dl_5",
            "elliptic7", "hyperbolic7"]


def builtin_model(name: str) -> GeometryModel:
    n: int
    if name == "contact5":
        n = 5
        x = lambda i: rp.var(i, n)
        mat = _rowset(n, {(0, 2): x(1), (0, 4): x(3)})
        m = GeometryModel(name, n, (2, 1, 1, 1, 1), mat)
        m.congruences = [_cong(n, m.basis_tag, 0, {(1, 2): 1, (3, 4): 1})]
        return m
    if name == "engel4":
        n = 4
        x = lambda i: rp.var(i, n)
        mat = _rowset(n, {(0, 2): x(1), (1, 2): rp.neg(x(3))})
        m = GeometryModel(name, n, (3, 2, 1, 1), mat)
        m.congruences = [_cong(n, m.basis_tag, 0, {(1, 2): 1}),
                         _cong(n, m.basis_tag, 1, {(2, 3): 1})]
        return m
    if name == "g2_5":
        n = 5
        x = lambda i: rp.var(i, n)
        half_sq = rp.scale(rp.mul(rp.var(3, n), rp.var(3, n)),
                           Fraction(-1, 2))
        mat = _rowset(n, {(0, 3): x(2), (0, 4): half_sq,
                          (1, 4): x(2), (2, 4): x(3)})
        m = GeometryModel(name, n, (3, 3, 2, 1, 1), mat,
                          selectors={"top": (0, 1)})
        m.congruences = [_cong(n, m.basis_tag, 0, {(2, 3): 1}),
                         _cong(n, m.basis_tag, 1, {(2, 4): 1}),
                         _cong(n, m.basis_tag, 2, {(3, 4): 1})]
        return m
    if name == "dist3in6":
        n = 6
        x = lambda i: rp.var(i, n)
        mat = _rowset(n, {(0, 5): x(4), (1, 3): x(5), (2, 4): x(3)})
        m = GeometryModel(name, n, (2, 2, 2, 1, 1, 1), mat,
                          extra={"omega_pairs": ((0, 3), (1, 4), (2, 5))})
        m.congruences = [_cong(n, m.basis_tag, 0, {(4, 5): 1}),
                         _cong(n, m.basis_tag, 1, {(3, 5): -1}),
                         _cong(n, m.basis_tag, 2, {(3, 4): 1})]
        return m
    if name == "dl_5":
        n = 5
        x = lambda i: rp.var(i, n)
        mat = _rowset(n, {(0, 3): x(2), (1, 4): x(2)})
        m = GeometryModel(name, n, (2, 2, 1, 1, 1), mat)
        m.congruences = [_cong(n, m.basis_tag, 0, {(2, 3): 1}),
                         _cong(n, m.basis_tag, 1, {(2, 4): 1})]
        return m
    if name in ("elliptic7", "hyperbolic7"):
        n = 7
        eps = 1 if name == "elliptic7" else -1
        x = lambda i: rp.var(i, n)
        mat = _rowset(n, {
            (0, 4): x(3), (0, 6): rp.scale(x(5), Fraction(eps)),
            (1, 5): x(3), (1, 6): rp.scale(x(4), Fraction(-eps)),
            (2, 6): x(3), (2, 5): x(4),
        })
        m = GeometryModel(name, n, (2, 2, 2, 1, 1, 1, 1), mat,
                          extra={"epsilon": eps})
        m.congruences = [
            _cong(n, m.basis_tag, 0, {(3, 4): 1, (5, 6): eps}),
            _cong(n, m.basis_tag, 1, {(3, 5): 1, (4, 6): -eps}),
            _cong(n, m.basis_tag, 2, {(3, 6): 1, (4, 5): 1}),
        ]
        return m
    raise KeyError("unknown model %r" % name)


def symplectic_data(half_dim: int) -> dict:
    """Flat symplectic R^{2n}: model, symplectic form, dual bivector, primitive."""
    n = 2 * half_dim
    model = GeometryModel("symplectic%d" % n, n, (1,) * n,
                          _pmat_identity(n, n))
    jf = Form(n, 2, COORD)
    alpha = Form(n, 1, COORD)
    bt: Dict[Tuple[int, int], rp.Poly] = {}
    for i in range(half_dim):
        jf.add_term((2 * i, 2 * i + 1), rp.const(1, n))
        alpha.add_term((2 * i + 1,), rp.var(2 * i, n))
        bt[(2 * i, 2 * i + 1)] = rp.const(1, n)
    dual = Bivector(n, bt)
    return {"model": model, "J": jf, "J_dual": dual, "alpha": alpha}


# #### JSON ################################################################

def model_to_json(model: GeometryModel) -> dict:
    n = model.nvars
    return {
        "name": model.name,
        "nvars": n,
        "weights": list(model.weights),
        "coframe": [[rp.poly_to_json(model.coframe[i][j], n)
                     for j in range(n)] for i in range(n)],
        "congruences": [{
            "index": cg.index + 1,
            "rhs": form_to_json(cg.rhs),
            "mod": [i + 1 for i in cg.mod],
        } for cg in model.congruences],
        "selectors": {k: [i + 1 for i in v]
                      for k, v in sorted(model.selectors.items())},
        "extra": _extra_to_json(model.extra),
    }


def model_from_json(obj: dict) -> GeometryModel:
    """Parse a model; malformed fields or shapes raise ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("a model must be a JSON object")
    n = rp.json_int(obj["nvars"], "nvars")
    rows = obj["coframe"]
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == n for r in rows)):
        raise ValueError("coframe must be %d rows of %d polynomials" % (n, n))
    mat = [[rp.poly_from_json(e, n) for e in row] for row in rows]
    for key in ("selectors", "extra"):
        if not isinstance(obj.get(key, {}), dict):
            raise ValueError("%s must be a JSON object" % key)
    selectors = {k: tuple(i - 1 for i in _json_ints(v, "selector index"))
                 for k, v in obj.get("selectors", {}).items()}
    model = GeometryModel(obj["name"], n, _json_ints(obj["weights"], "weight"),
                          mat, selectors=selectors,
                          extra=_extra_from_json(obj.get("extra", {})))
    for cg in obj.get("congruences", []):
        rhs = form_from_json(cg["rhs"])
        rhs.basis = model.basis_tag
        model.congruences.append(Congruence(
            index=rp.json_int(cg["index"], "congruence index") - 1, rhs=rhs,
            mod=tuple(i - 1 for i in _json_ints(cg.get("mod", []),
                                                "congruence index"))))
    return model


def _json_ints(v: object, what: str) -> List[int]:
    if not isinstance(v, list):
        raise ValueError("%s list expected, got %.40r" % (what, v))
    return [rp.json_int(x, what) for x in v]


def _extra_to_json(extra: dict) -> dict:
    out = {}
    for k, v in extra.items():
        if k == "omega_pairs":
            out[k] = [[a + 1, b + 1] for a, b in v]
        else:
            out[k] = v
    return out


def _extra_from_json(extra: dict) -> dict:
    out = {}
    for k, v in extra.items():
        if k == "omega_pairs":
            out[k] = tuple((a - 1, b - 1) for a, b in v)
        else:
            out[k] = v
    return out
