"""Splitting normalization for the six and seven variable geometries.

A coframe realizing the structure congruences still leaves a choice: how the
horizontal covectors sit inside all 1-forms.  Changing that choice adds
vertical covectors into horizontal ones.  Part of an associated component of
d, computed here as an explicit obstruction, is moved affinely by such
shifts; driving it to zero pins down the preferred splittings.  For the
six-variable geometry the obstruction is the symmetric part of a 3 by 3
matrix and dies completely.  For the seven-variable geometries the shift
action has rank 8 on a 20-dimensional target, and only the image component
can be removed; whatever survives is reported as torsion (zero on the flat
builtin models).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import linalg, ratpoly as rp
from .forms import Bivector, Form, contract, form_zero, wedge
from .models import (GeometryModel, coframe_d, orbit_invariant,
                     split_by_cell_weight, splitting_shift)

PolyMat = List[List[rp.Poly]]


def _coframe_mono(model: GeometryModel, idx: Tuple[int, ...],
                  degree: int) -> Form:
    f = Form(model.nvars, degree, model.basis_tag)
    f.add_term(idx, rp.const(1, model.nvars))
    return f


def _levi_forms(model: GeometryModel) -> List[Form]:
    """Congruence right-hand sides, one constant 2-form per vertical row."""
    vert = model.selectors["vertical"]
    by_index = {c.index: c.rhs for c in model.congruences}
    return [by_index[a] for a in vert]


def _dual_bivector(a: Form) -> Bivector:
    for p in a.terms.values():
        if not rp.is_constant(p):
            raise ValueError("congruence right side is not constant")
    return Bivector(a.nvars, dict(a.terms))


def _pairing_matrix(levis: List[Form]) -> linalg.Matrix:
    duals = [_dual_bivector(f) for f in levis]
    out = []
    for f in levis:
        row = []
        for b in duals:
            c = contract(f, b).terms.get((), {})
            row.append(rp.constant_value(c) if c else Fraction(0))
        out.append(row)
    return out


def _vertical_sigma(model: GeometryModel, part: Form) -> List[Form]:
    """Split a pure-weight piece as sum over vertical a of omega^a ^ sigma_a.

    Relies on vertical indices sorting before horizontal ones, which holds
    for every builtin model.
    """
    vert = model.selectors["vertical"]
    pos = {a: i for i, a in enumerate(vert)}
    out = [Form(model.nvars, part.degree - 1, model.basis_tag)
           for _ in vert]
    for idx, p in part.terms.items():
        a = idx[0]
        if a not in pos or any(i in pos for i in idx[1:]):
            raise ValueError("piece is not vertical wedge horizontal")
        out[pos[a]].add_term(idx[1:], p)
    return out


@dataclass
class ObstructionReport:
    model: str
    kind: str
    matrices: List[PolyMat]

    @property
    def is_zero(self) -> bool:
        return all(not p for mat in self.matrices for row in mat for p in row)

    def flatten(self) -> List[rp.Poly]:
        out = []
        for mat in self.matrices:
            k = len(mat)
            for a in range(k):
                for b in range(a, k):
                    out.append(mat[a][b])
        return out


def _sym(mat: PolyMat) -> PolyMat:
    k = len(mat)
    half = Fraction(1, 2)
    return [[rp.scale(rp.add(mat[a][b], mat[b][a]), half)
             for b in range(k)] for a in range(k)]


def _levi_project(model: GeometryModel, levis: List[Form],
                  pinv: linalg.Matrix, dpart: Optional[Form]) -> PolyMat:
    """Symmetric Levi component of a weight-4 3-form piece."""
    duals = [_dual_bivector(f) for f in levis]
    k = len(levis)
    mat: PolyMat = [[{} for _ in range(k)] for _ in range(k)]
    if dpart is not None:
        sigmas = _vertical_sigma(model, dpart)
        for a in range(k):
            raw = [contract(sigmas[a], duals[c]).terms.get((), {})
                   for c in range(k)]
            for b in range(k):
                acc: rp.Poly = {}
                for c in range(k):
                    if raw[c] and pinv[c][b]:
                        acc = rp.add(acc, rp.scale(raw[c], pinv[c][b]))
                mat[a][b] = acc
    return _sym(mat)


def _six_input(model: GeometryModel) -> Form:
    """The distinguished 2-form sum of omega^a ^ omega^j over omega_pairs."""
    omega = form_zero(model.nvars, 2, model.basis_tag)
    for a, j in model.extra["omega_pairs"]:
        omega.add_term((a, j), rp.const(1, model.nvars))
    return omega


def _six_obstruction(model: GeometryModel) -> ObstructionReport:
    dpart = split_by_cell_weight(
        model, coframe_d(model, _six_input(model))).get(4)
    levis = _levi_forms(model)
    pinv = linalg.inverse(_pairing_matrix(levis))
    return ObstructionReport(model=model.name, kind="six",
                             matrices=[_levi_project(model, levis, pinv,
                                                     dpart)])


def _seven_inputs(model: GeometryModel) -> List[Form]:
    """Basis of the distinguished rank-4 piece inside vertical wedge
    horizontal 2-forms: contract each Levi dual into a horizontal 3-form
    and reattach the matching vertical covector."""
    horiz = model.selectors["horizontal"]
    vert = model.selectors["vertical"]
    levis = _levi_forms(model)
    duals = [_dual_bivector(f) for f in levis]
    from itertools import combinations
    out = []
    for trip in combinations(horiz, 3):
        xi = _coframe_mono(model, trip, 3)
        beta = form_zero(model.nvars, 2, model.basis_tag)
        for a, b in zip(vert, duals):
            eta = contract(xi, b)
            if eta.is_zero():
                continue
            piece = wedge(_coframe_mono(model, (a,), 1), eta)
            for idx, p in piece.terms.items():
                beta.add_term(idx, p)
        if beta.is_zero():
            raise AssertionError("distinguished 2-form basis degenerated")
        out.append(beta)
    return out


def _seven_project(model: GeometryModel, levis: List[Form],
                   pinv: linalg.Matrix, ginv: linalg.Matrix,
                   gmat: linalg.Matrix, dpart: Optional[Form]) -> PolyMat:
    """Trace-free symmetric Levi component of a weight-4 3-form piece."""
    k = len(levis)
    sym = _levi_project(model, levis, pinv, dpart)
    trace: rp.Poly = {}
    for a in range(k):
        for b in range(k):
            if ginv[a][b] and sym[b][a]:
                trace = rp.add(trace, rp.scale(sym[b][a], ginv[a][b]))
    third = Fraction(1, 3)
    for a in range(k):
        for b in range(k):
            if gmat[a][b] and trace:
                sym[a][b] = rp.sub(
                    sym[a][b], rp.scale(trace, third * gmat[a][b]))
    return sym


def _seven_metric(model: GeometryModel) -> Tuple[linalg.Matrix, linalg.Matrix]:
    orb = orbit_invariant(model)
    if not orb.gram_constant:
        raise ValueError("orbit invariant is not constant")
    gmat = [[rp.constant_value(p) if p else Fraction(0) for p in row]
            for row in orb.gram]
    return gmat, linalg.inverse(gmat)


def _seven_obstruction(model: GeometryModel) -> ObstructionReport:
    levis = _levi_forms(model)
    pinv = linalg.inverse(_pairing_matrix(levis))
    gmat, ginv = _seven_metric(model)
    mats = []
    for beta in _seven_inputs(model):
        dpart = split_by_cell_weight(model, coframe_d(model, beta)).get(4)
        mats.append(_seven_project(model, levis, pinv, ginv, gmat, dpart))
    return ObstructionReport(model=model.name, kind="seven", matrices=mats)


def obstruction(model: GeometryModel) -> ObstructionReport:
    """The splitting obstruction of a model, as symmetric matrices."""
    nvert = len(model.selectors["vertical"])
    nhor = len(model.selectors["horizontal"])
    if (nvert, nhor) == (3, 3):
        return _six_obstruction(model)
    if (nvert, nhor) == (3, 4):
        return _seven_obstruction(model)
    raise KeyError("no splitting obstruction for model %s" % model.name)


def obstruction_hom(model: GeometryModel):
    """The obstruction as a bundle map on forms, plus a basis of inputs.

    Returns (map_fn, inputs) suitable for function-linearity checks: the
    map embeds the symmetric matrices back into weight-4 3-forms.
    """
    nvert = len(model.selectors["vertical"])
    nhor = len(model.selectors["horizontal"])
    levis = _levi_forms(model)
    pinv = linalg.inverse(_pairing_matrix(levis))
    vert = model.selectors["vertical"]

    def embed(sym: PolyMat) -> Form:
        out = form_zero(model.nvars, 3, model.basis_tag)
        for a in range(len(vert)):
            for b in range(len(vert)):
                if not sym[a][b]:
                    continue
                piece = wedge(_coframe_mono(model, (vert[a],), 1), levis[b])
                for idx, p in piece.terms.items():
                    out.add_term(idx, rp.mul(p, sym[a][b]))
        return out

    if (nvert, nhor) == (3, 3):
        def map_fn(a: Form) -> Form:
            dpart = split_by_cell_weight(model, coframe_d(model, a)).get(4)
            return embed(_levi_project(model, levis, pinv, dpart))
        return map_fn, [_six_input(model)]
    if (nvert, nhor) == (3, 4):
        gmat, ginv = _seven_metric(model)

        def map_fn(a: Form) -> Form:
            dpart = split_by_cell_weight(model, coframe_d(model, a)).get(4)
            return embed(_seven_project(model, levis, pinv, ginv, gmat,
                                        dpart))
        return map_fn, _seven_inputs(model)
    raise KeyError("no splitting obstruction for model %s" % model.name)


# #### normalization #######################################################

@dataclass
class NormalizeReport:
    model: str
    iterations: int
    shifts: List[Dict[Tuple[int, int], rp.Poly]]
    obstruction_zero: bool
    action_rank: int
    residual: Optional[ObstructionReport]
    normalized: GeometryModel


def _shift_pairs(model: GeometryModel) -> List[Tuple[int, int]]:
    return [(j, a) for j in model.selectors["horizontal"]
            for a in model.selectors["vertical"]]


def _action_matrix(model: GeometryModel,
                   base: ObstructionReport) -> Tuple[linalg.Matrix, int]:
    """Columns: change of the flattened obstruction per unit shift."""
    base_flat = base.flatten()
    pairs = _shift_pairs(model)
    cols = []
    one = rp.const(1, model.nvars)
    for j, a in pairs:
        shifted = splitting_shift(model, {(j, a): one})
        flat = obstruction(shifted).flatten()
        col = []
        for p, q in zip(flat, base_flat):
            diff = rp.sub(p, q)
            if not rp.is_constant(diff):
                raise AssertionError("shift action is not constant")
            col.append(rp.constant_value(diff) if diff else Fraction(0))
        cols.append(col)
    rows = [[cols[c][r] for c in range(len(cols))]
            for r in range(len(base_flat))]
    return rows, linalg.rank([list(r) for r in rows])


def shift_action_rank(model: GeometryModel) -> int:
    """Rank of the affine shift action on the flattened obstruction."""
    return _action_matrix(model, obstruction(model))[1]


def normalize_splitting(model: GeometryModel,
                        max_iter: int = 8) -> NormalizeReport:
    """Shift the splitting until the movable obstruction part is gone.

    Polynomial shift coefficients feed back through their derivatives, so
    the affine solve is iterated; each pass lowers the coefficient degree
    of what remains and the loop terminates.  An unsolvable component is
    genuine torsion and is returned rather than forced.
    """
    base = model
    applied: List[Dict[Tuple[int, int], rp.Poly]] = []
    rank = 0
    rep = obstruction(base)
    for it in range(max_iter):
        if rep.is_zero:
            return NormalizeReport(
                model=model.name, iterations=it, shifts=applied,
                obstruction_zero=True, action_rank=rank, residual=None,
                normalized=base)
        amat, rank = _action_matrix(base, rep)
        flat = rep.flatten()
        pairs = _shift_pairs(base)
        monos = sorted({e for p in flat for e in p})
        shifts: Dict[Tuple[int, int], rp.Poly] = {}
        for e in monos:
            vec = [-p.get(e, Fraction(0)) for p in flat]
            sol = linalg.solve([list(r) for r in amat], vec)
            if sol is None:
                return NormalizeReport(
                    model=model.name, iterations=it, shifts=applied,
                    obstruction_zero=False, action_rank=rank, residual=rep,
                    normalized=base)
            for pi, c in enumerate(sol):
                if c:
                    shifts.setdefault(pairs[pi], {})[e] = c
        if not shifts:
            break
        base = splitting_shift(base, shifts, model.name + "_normalized")
        applied.append(shifts)
        rep = obstruction(base)
    return NormalizeReport(
        model=model.name, iterations=max_iter, shifts=applied,
        obstruction_zero=rep.is_zero, action_rank=rank,
        residual=None if rep.is_zero else rep, normalized=base)


# #### certification and perturbation ######################################

@dataclass
class TwoAdaptedReport:
    model: str
    weight3_ok: bool
    correction_1form: List[rp.Poly]
    residual_zero: bool

    @property
    def ok(self) -> bool:
        return self.weight3_ok and self.residual_zero


def certify_two_adapted(model: GeometryModel) -> TwoAdaptedReport:
    """Check the refined congruence on the distinguished 2-form.

    Its differential must be three times the horizontal volume plus a
    1-form wedged into the distinguished 2-form, modulo terms with two
    vertical legs.  Exact arithmetic throughout; the 1-form is solved for,
    not assumed.
    """
    horiz = model.selectors["horizontal"]
    omega = _six_input(model)
    dom = coframe_d(model, omega)
    parts = split_by_cell_weight(model, dom)
    vol = _coframe_mono(model, tuple(sorted(horiz)), 3)
    w3 = parts.get(3, form_zero(model.nvars, 3, model.basis_tag))
    from .forms import form_scale, form_sub
    weight3_ok = form_sub(w3, form_scale(vol, Fraction(3))).is_zero()
    w4 = parts.get(4, form_zero(model.nvars, 3, model.basis_tag))
    cols = []
    nu_basis = []
    for j in horiz:
        cand = wedge(_coframe_mono(model, (j,), 1), omega)
        piece = split_by_cell_weight(model, cand).get(4)
        cols.append(piece if piece is not None
                    else form_zero(model.nvars, 3, model.basis_tag))
        nu_basis.append(j)
    monos = sorted({idx for f in cols + [w4] for idx in f.terms})
    pos = {m: i for i, m in enumerate(monos)}
    colvecs = []
    for f in cols:
        v = [Fraction(0)] * len(monos)
        for idx, p in f.terms.items():
            v[pos[idx]] = rp.constant_value(p)
        colvecs.append(v)
    target_monos = sorted({e for f in (w4,) for p in f.terms.values()
                           for e in p})
    nu: List[rp.Poly] = [{} for _ in horiz]
    resid_zero = True
    for e in (target_monos or [()]):
        vec = [Fraction(0)] * len(monos)
        for idx, p in w4.terms.items():
            c = p.get(e)
            if c:
                vec[pos[idx]] = c
        dense = [[colvecs[c][r] for c in range(len(colvecs))]
                 for r in range(len(monos))]
        sol = linalg.solve(dense, vec)
        if sol is None:
            resid_zero = False
            break
        for ji, c in enumerate(sol):
            if c:
                nu[ji][e] = c
    higher_ok = True
    vert = set(model.selectors["vertical"])
    for w, piece in parts.items():
        if w <= 4:
            continue
        for idx in piece.terms:
            if sum(1 for i in idx if i in vert) < 2:
                higher_ok = False
    return TwoAdaptedReport(model=model.name, weight3_ok=weight3_ok,
                            correction_1form=nu,
                            residual_zero=resid_zero and higher_ok)


def perturb(model: GeometryModel, rng: random.Random,
            max_degree: int = 1,
            npairs: int = 3) -> Tuple[GeometryModel,
                                      Dict[Tuple[int, int], rp.Poly]]:
    """Inject a random splitting shift, for round-trip tests."""
    pairs = _shift_pairs(model)
    rng.shuffle(pairs)
    shifts: Dict[Tuple[int, int], rp.Poly] = {}
    for j, a in pairs[:npairs]:
        shifts[(j, a)] = rp.random_poly(rng, model.nvars, max_degree,
                                        terms=2)
    shifted = splitting_shift(model, shifts, model.name + "_perturbed")
    return shifted, shifts
