"""Coordinate models of filtered geometric structures.

A GeometryModel carries a global coframe on R^n: row i of the coframe matrix
expresses the covector omega_i in coordinate covectors, with exact
determinant one, so the inverse matrix is polynomial as well.  The builtin
models are additionally normalized to unit diagonal; derived models (row
changes, splitting shifts) need not be.  One function inverts every det-1
polynomial matrix (_pmat_inverse_unimodular): by substitution when the
matrix is unit triangular in some order of the covectors, which proves
det 1 by its shape, and by the adjugate otherwise.
Each covector has a positive integer weight, and the weights alone select
the horizontal (weight 1), vertical (weight 2 or more) and depth-2 (weight
2) covectors.  Declared congruences record the structure equations
d(omega_i) = rhs modulo a set of coframe covectors, and verify_structure
checks all of them exactly.  Nothing else reads them: the Levi bracket is
derived from the coframe (levi_form), so the declarations stay an
independent check of it.  A model holds only its name, weights, coframe
and congruences; splitting derives the rest from weights and Levi bracket.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import linalg, ratpoly as rp
from .forms import (COORD, Form, change_basis, exterior_d,
                    form_from_json, form_to_json, form_zero)

if TYPE_CHECKING:
    from .pages import Page1

PolyMatrix = List[List[rp.Poly]]


def _pmat_identity(n: int, nvars: int) -> PolyMatrix:
    one = rp.const(1, nvars)
    return [[dict(one) if i == j else {} for j in range(n)]
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


def _det_one_order(a: PolyMatrix, nvars: int) -> Optional[List[int]]:
    """Prove det a == 1, or raise ValueError.  Constant 1 on the diagonal
    and an acyclic off-diagonal pattern (i before j wherever a[i][j] != 0)
    make a unit upper triangular in a topological order, det 1 by shape:
    that order is returned.  Otherwise the fraction-free determinant must
    be 1, and None is returned."""
    n = len(a)
    one = rp.const(1, nvars)
    order: List[int] = []
    if all(a[i][i] == one for i in range(n)):
        preds = [{k for k in range(n) if k != j and a[k][j]}
                 for j in range(n)]
        while len(order) < n:
            ready = [j for j in range(n)
                     if j not in order and preds[j].issubset(order)]
            if not ready:
                break
            order.append(ready[0])
    if len(order) == n:
        return order
    if linalg.poly_det_bareiss(a) != one:
        raise ValueError("coframe determinant must be exactly 1")
    return None


def _pmat_inverse_unimodular(a: PolyMatrix, nvars: int) -> PolyMatrix:
    """Inverse of a matrix with det 1; ValueError for any other matrix.

    Det 1 by shape (every matrix the program builds and inverts: builtin
    coframes, splitting shifts) inverts by substitution, row i of the
    inverse being e_i - sum_k a[i][k] row k over the k after i in the
    order, so it vanishes before i; any other matrix gets its adjugate.
    """
    order = _det_one_order(a, nvars)
    if order is None:
        return linalg.poly_adjugate(a)
    n = len(a)
    inv = _pmat_identity(n, nvars)
    for pos in range(n - 1, -1, -1):
        i = order[pos]
        later = [k for k in order[pos + 1:] if a[i][k]]
        for j in order[pos + 1:]:
            acc: rp.Poly = {}
            for k in later:
                if inv[k][j]:
                    acc = rp.sub(acc, rp.mul(a[i][k], inv[k][j]))
            inv[i][j] = acc
    return inv


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


@dataclass
class Frame:
    """The data frame_d reads, scaled by den to integer numerators: inv
    is den coframe_inv, and structure[i] lists (u, v, c) with den d(omega_i)
    = sum c omega_u ^ omega_v.  den is the lcm of the denominators of both,
    1 on every builtin but g2_5, whose coframe_inv holds halves."""
    den: int
    inv: List[List[rp.IntPoly]]
    structure: List[List[Tuple[int, int, rp.IntPoly]]]


class GeometryModel:
    """Global coframe on R^n with weights and declared structure equations.

    The coframe must have determinant exactly 1, proved by its shape or
    by its polynomial determinant (see _pmat_inverse_unimodular).
    coframe_inv, when given, must be the exact inverse of coframe; it is
    not recomputed, and verify_structure checks it.
    """

    def __init__(self, name: str, nvars: int, weights: Sequence[int],
                 coframe: PolyMatrix, *,
                 coframe_inv: Optional[PolyMatrix] = None):
        self.name = name
        self.nvars = nvars
        self.weights = tuple(int(w) for w in weights)
        self.coframe = coframe
        self.congruences: List[Congruence] = []
        if len(self.weights) != nvars or len(coframe) != nvars:
            raise ValueError("weights and coframe must both have length nvars")
        if coframe_inv is None:
            coframe_inv = _pmat_inverse_unimodular(coframe, nvars)
        else:
            _det_one_order(coframe, nvars)
        self.coframe_inv = coframe_inv
        self._structure_forms: Optional[List[Form]] = None
        self._frame: Optional[Frame] = None
        self._page1: Optional[Page1] = None

    @property
    def basis_tag(self) -> str:
        return "coframe:%s" % self.name

    @property
    def horizontal(self) -> Tuple[int, ...]:
        """The covectors of weight 1."""
        return tuple(i for i, w in enumerate(self.weights) if w == 1)

    @property
    def vertical(self) -> Tuple[int, ...]:
        """The covectors of weight 2 or more."""
        return tuple(i for i, w in enumerate(self.weights) if w >= 2)

    @property
    def depth2(self) -> Tuple[int, ...]:
        """The covectors of weight 2."""
        return tuple(i for i, w in enumerate(self.weights) if w == 2)

    def coframe_form(self, i: int) -> Form:
        """omega_i as a coordinate-basis 1-form."""
        f = Form(self.nvars, 1, COORD)
        for j in range(self.nvars):
            if self.coframe[i][j]:
                f.add_term((j,), self.coframe[i][j])
        return f

    def structure_forms(self) -> List[Form]:
        """d(omega_i) in the coframe basis for every i, computed once."""
        if self._structure_forms is None:
            out = []
            for k in range(self.nvars):
                dk = exterior_d(self.coframe_form(k))
                out.append(change_basis(dk, self, "coframe"))
            self._structure_forms = out
        return self._structure_forms

    def frame(self) -> Frame:
        """coframe_inv and the structure forms over one denominator, for
        frame_d, derived on first call."""
        if self._frame is None:
            dforms = self.structure_forms()
            den, nums = rp.clear_denominators(
                [p for row in self.coframe_inv for p in row]
                + [p for f in dforms for p in f.terms.values()])
            it = iter(nums)
            self._frame = Frame(
                den, [[next(it) for _ in row] for row in self.coframe_inv],
                [[(u, v, next(it)) for u, v in f.terms] for f in dforms])
        return self._frame

    def page1(self) -> Page1:
        """The model's one graded first page, built on first call.  It keeps
        no reference back, so no cycle outlives the model."""
        if self._page1 is None:
            from .pages import Page1
            self._page1 = Page1(self)
        return self._page1

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


def frame_d(model: GeometryModel, a: Form,
            jets: Optional[rp.Jets] = None) -> Tuple[int, Form]:
    """(f, f d(a)) for a coframe-basis form a, f the denominator of the
    model's Frame; with jets, a's coefficients are jets in it and d
    differentiates them totally (ratpoly.Jets.partials).

    d(p omega_I) = sum_i (X_i p) omega_i ^ omega_I + p d(omega_I), X_i the
    frame dual to the coframe, X_i p = sum_m coframe_inv[m][i] d_m p, and
    d(omega_I) the Leibniz sum over the structure forms.  The loop reads
    them as the model's Frame, integer numerators over f, and runs in the
    arithmetic of a's coefficients: a form with int coefficients gets an
    int f d(a).
    """
    if a.basis != model.basis_tag:
        raise ValueError("form is not in this model's coframe basis")
    n = model.nvars
    frame = model.frame()
    out = Form(n, a.degree + 1, a.basis)
    for idx, p in a.terms.items():
        dp = (jets.partials(p) if jets is not None
              else [rp.diff(p, m) for m in range(n)])
        for i in range(n):
            acc: rp.Poly = {}
            for m, dm in enumerate(dp):
                # a's coefficient first: a Fraction times an int numerator
                # takes Fraction's fast path
                if dm and frame.inv[m][i]:
                    acc = rp.add(acc, rp.mul(dm, frame.inv[m][i]))
            if acc:
                out.add_term((i,) + idx, acc)
        for k, ik in enumerate(idx):
            for u, v, c in frame.structure[ik]:
                coeff = rp.mul(p, c)
                if k % 2:
                    coeff = rp.neg(coeff)
                out.add_term(idx[:k] + (u, v) + idx[k + 1:], coeff)
    return frame.den, out


def coframe_d(model: GeometryModel, a: Form) -> Form:
    """Exterior derivative of a coframe-basis form, staying in that basis:
    frame_d divided by its denominator where that is not 1."""
    f, out = frame_d(model, a)
    if f != 1:
        inv_den = Fraction(1, f)
        out.terms = {idx: rp.scale(p, inv_den)
                     for idx, p in out.terms.items()}
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
        d = model.structure_forms()[cg.index]
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


# #### Levi bracket ########################################################

@dataclass
class LeviReport:
    """The Levi bracket of a model, for each depth-2 covector a (in the
    order of vertical): the weight-2 part of d(omega_a), a constant 2-form
    on the horizontal covectors (forms), read as a bivector where paired."""
    model: str
    vertical: Tuple[int, ...]
    horizontal: Tuple[int, ...]
    forms: List[Form]
    injective: bool


def _pair_coeffs(f: Form, horiz: Sequence[int]) -> List[Fraction]:
    """The constant coefficients of f on the pairs u < v of horiz."""
    return [rp.constant_value(f.terms.get(uv, {}))
            for uv in combinations(horiz, 2)]


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
    """The one derivation of the Levi bracket, from the structure forms.

    A term of weight 2 pairs two horizontal covectors.  ValueError when an
    entry is not constant, as on a curved model; injective when the
    brackets of the depth-2 covectors are independent, by exact rank.
    """
    vert, horiz = model.depth2, model.horizontal
    forms: List[Form] = []
    for a in vert:
        parts = split_by_cell_weight(model, model.structure_forms()[a])
        f = parts[2] if 2 in parts else form_zero(model.nvars, 2,
                                                  model.basis_tag)
        for (u, v), p in f.terms.items():
            if not rp.is_constant(p):
                raise ValueError(
                    "the Levi bracket of %s is not constant: d(omega_%d) "
                    "has a nonconstant omega_%d ^ omega_%d coefficient"
                    % (model.name, a + 1, u + 1, v + 1))
        forms.append(f)
    rank = linalg.rank([_pair_coeffs(f, horiz) for f in forms]) if vert else 0
    return LeviReport(model=model.name, vertical=vert, horizontal=horiz,
                      forms=forms, injective=rank == len(vert))


# #### Orbit classification ################################################

@dataclass
class OrbitReport:
    model: str
    kind: str
    gram: linalg.Matrix
    inertia: Tuple[int, int, int]
    levi_injective: bool


def _pfaffian_pairing(x: List[Fraction], y: List[Fraction]) -> Fraction:
    """The polarized Pfaffian of two 2-forms over four covectors, given by
    their _pair_coeffs (x01, x02, x03, x12, x13, x23): Pf(x) = x01 x23 -
    x02 x13 + x03 x12 at y = x."""
    return (x[0] * y[5] + y[0] * x[5] - x[1] * y[4] - y[1] * x[4]
            + x[2] * y[3] + y[2] * x[3]) / 2


def pfaffian_gram(levi: LeviReport) -> linalg.Matrix:
    """The Pfaffian form on the brackets of a 3-in-7 structure: its
    polarization on the three depth-2 2-forms."""
    vert, horiz = levi.vertical, levi.horizontal
    if len(vert) != 3 or len(horiz) != 4:
        raise ValueError(
            "orbit classification needs 3 depth-2 covectors over a 4-dim "
            "horizontal space; got %d and %d" % (len(vert), len(horiz)))
    coeffs = [_pair_coeffs(f, horiz) for f in levi.forms]
    return [[_pfaffian_pairing(x, y) for y in coeffs] for x in coeffs]


def orbit_invariant(model: GeometryModel) -> OrbitReport:
    """Classify a 3-in-7 structure by the inertia of its Pfaffian form.
    ValueError on any other shape and on a nonconstant Levi bracket."""
    levi = levi_form(model)
    gram = pfaffian_gram(levi)
    inert = linalg.inertia(gram)
    return OrbitReport(model=model.name, kind=_classify_inertia(inert),
                       gram=gram, inertia=inert,
                       levi_injective=levi.injective)


def _classify_inertia(inert: Tuple[int, int, int]) -> str:
    pos, negv, zero = inert
    if zero:
        return "degenerate"
    if pos == 3 or negv == 3:
        return "elliptic"
    return "hyperbolic"


# #### Coframe changes #####################################################

def change_rows(model: GeometryModel, emat: PolyMatrix,
                name: str) -> GeometryModel:
    """New model with coframe E @ A; E must have det 1.  It declares no
    congruences: they do not survive a general row change.

    The inverse is A^-1 @ E^-1: E is triangular in some order when E @ A
    in general is not, so E^-1 is a substitution where (E @ A)^-1 would be
    an adjugate.  Inverting E rejects E with det != 1.
    """
    new_a = _pmat_mul(emat, model.coframe)
    new_inv = _pmat_mul(model.coframe_inv,
                        _pmat_inverse_unimodular(emat, model.nvars))
    return GeometryModel(name, model.nvars, model.weights, new_a,
                         coframe_inv=new_inv)


def splitting_shift(model: GeometryModel, shifts: Dict[Tuple[int, int], rp.Poly],
                    name: Optional[str] = None) -> GeometryModel:
    """Add vertical covectors into horizontal ones: omega_j += t * omega_a.

    shifts maps (j, a) with j horizontal, a vertical to the coefficient t.
    The structure congruences survive with their right sides unchanged
    (copies, tagged with the shifted basis), but only modulo the full
    vertical ideal: rewriting the right side in the shifted coframe adds
    terms with a vertical leg.  The carried-over congruences widen mod
    accordingly.
    """
    n = model.nvars
    emat = _pmat_identity(n, n)
    for (j, a), t in shifts.items():
        if model.weights[j] != 1 or model.weights[a] < 2:
            raise ValueError("shift must add a vertical row to a horizontal")
        emat[j][a] = t
    out = change_rows(model, emat, name or (model.name + "_shifted"))
    vert = model.vertical
    out.congruences = []
    for cg in model.congruences:
        rhs = cg.rhs.copy()
        rhs.basis = out.basis_tag
        out.congruences.append(Congruence(
            index=cg.index, rhs=rhs,
            mod=tuple(sorted(set(cg.mod) | set(vert)))))
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
        m = GeometryModel(name, n, (3, 3, 2, 1, 1), mat)
        m.congruences = [_cong(n, m.basis_tag, 0, {(2, 3): 1}),
                         _cong(n, m.basis_tag, 1, {(2, 4): 1}),
                         _cong(n, m.basis_tag, 2, {(3, 4): 1})]
        return m
    if name == "dist3in6":
        n = 6
        x = lambda i: rp.var(i, n)
        mat = _rowset(n, {(0, 5): x(4), (1, 3): x(5), (2, 4): x(3)})
        m = GeometryModel(name, n, (2, 2, 2, 1, 1, 1), mat)
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
        m = GeometryModel(name, n, (2, 2, 2, 1, 1, 1, 1), mat)
        m.congruences = [
            _cong(n, m.basis_tag, 0, {(3, 4): 1, (5, 6): eps}),
            _cong(n, m.basis_tag, 1, {(3, 5): 1, (4, 6): -eps}),
            _cong(n, m.basis_tag, 2, {(3, 6): 1, (4, 5): 1}),
        ]
        return m
    raise KeyError("unknown model %r" % name)


def symplectic_data(half_dim: int) -> dict:
    """Flat symplectic R^{2n}: the model, the symplectic form J (contract
    reads it as the bivector of the J-trace) and the Liouville form alpha,
    sum of x_{2i} dx_{2i+1}, with d(alpha) = J."""
    n = 2 * half_dim
    model = GeometryModel("symplectic%d" % n, n, (1,) * n,
                          _pmat_identity(n, n))
    jf = Form(n, 2, COORD)
    alpha = Form(n, 1, COORD)
    for i in range(half_dim):
        jf.add_term((2 * i, 2 * i + 1), rp.const(1, n))
        alpha.add_term((2 * i + 1,), rp.var(2 * i, n))
    return {"model": model, "J": jf, "alpha": alpha}


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
    }


def model_from_json(obj: dict) -> GeometryModel:
    """Parse a model; malformed fields or shapes raise ValueError, and so
    do nvars and term counts past the caps of ratpoly.  Other keys, such
    as the "selectors" and "extra" of older files, are not read."""
    if not isinstance(obj, dict):
        raise ValueError("a model must be a JSON object")
    n = rp.json_nvars(obj["nvars"])
    rows = obj["coframe"]
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == n for r in rows)):
        raise ValueError("coframe must be %d rows of %d polynomials" % (n, n))
    mat = [[rp.poly_from_json(e, n) for e in row] for row in rows]
    if not isinstance(obj["name"], str):
        raise ValueError("name must be a string, got %.40r" % (obj["name"],))
    weights = _json_ints(obj["weights"], "weight")
    if not all(w >= 1 for w in weights):
        raise ValueError("weights must be positive, got %.40r" % (weights,))
    model = GeometryModel(obj["name"], n, weights, mat)
    for cg in obj.get("congruences", []):
        rhs = form_from_json(cg["rhs"])
        if (rhs.nvars, rhs.degree) != (n, 2):
            raise ValueError("a congruence right side must be a 2-form in "
                             "%d variables" % n)
        rhs.basis = model.basis_tag
        model.congruences.append(Congruence(
            index=_json_index(cg["index"], n, "congruence index"), rhs=rhs,
            mod=_json_indices(cg.get("mod", []), n, "congruence index")))
    return model


def _json_ints(v: object, what: str) -> List[int]:
    if not isinstance(v, list):
        raise ValueError("%s list expected, got %.40r" % (what, v))
    return [rp.json_int(x, what) for x in v]


def _json_index(x: object, n: int, what: str) -> int:
    """A 1-based covector index, which must lie in 1..n, made 0-based."""
    i = rp.json_int(x, what)
    if not 1 <= i <= n:
        raise ValueError("%s %d is outside 1..%d" % (what, i, n))
    return i - 1


def _json_indices(v: object, n: int, what: str) -> Tuple[int, ...]:
    return tuple(_json_index(x, n, what) for x in _json_ints(v, what))
