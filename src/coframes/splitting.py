"""Splitting normalization for the six and seven variable geometries.

A coframe with a given Levi bracket still leaves a choice: how the
horizontal covectors sit inside all 1-forms.  Changing that choice adds
vertical covectors into horizontal ones.  Part of an associated component of
d, computed here as an explicit obstruction, is moved affinely by such
shifts; driving it to zero pins down the preferred splittings.  For the
six-variable geometry the obstruction is the symmetric part of a 3 by 3
matrix and dies completely.  For the seven-variable geometries the shift
action has rank 8 on a 20-dimensional target, and only the image component
can be removed; whatever survives is reported as torsion (zero on the flat
builtin models).

Three facts let the shift action be read off the model's own structure
forms C_i = d(omega_i), with no shifted model built:

- The obstruction is linear in the structure forms.  Its inputs have
  constant coefficients, and for p omega_I with p constant, d(p omega_I) is
  p d(omega_I), a Leibniz sum whose k-th term puts C_{I_k} in place of
  omega_{I_k}.  The weight-4 part, the Levi projection through the inverse
  pairing and the trace removal through the metric are linear maps once
  the inputs, the pairing and the metric are fixed.  The obstruction is
  the Levi component of the weight-4 part and reads no other weight, so
  only that part is built: the k-th term keeps the pieces of C_{I_k} of
  pair weight 4 - wt(I) + wt(I_k).  The inputs are built from the
  weights and the Levi bracket alone (models.levi_form, the weight-2 part
  of C_a for the depth-2 rows a): each horizontal 3-form, with each Levi
  2-form contracted into it, gives one, so six variables have one input,
  the distinguished 2-form, and seven have four.  A shift carries both over
  unchanged: see the third fact.
- A unit shift is a constant substitution.  omega'_j = omega_j + omega_a
  is a constant row change, so d(omega'_j) = C_j + C_a with no term from a
  differentiated coefficient, and every other row keeps its C_k.  Written
  in the shifted coframe through omega_j = omega'_j - omega'_a, each term
  p omega_I with j in I gains -p omega_I', I' being I with j replaced by a.
  The difference dC of the shifted and the original structure forms is
  row j's C_a plus those terms, and the obstruction moves by O(dC).
- The Levi bracket, and with it the metric, does not move.  Both are
  built from the horizontal-horizontal (weight 2) part of C_a for the
  depth-2 rows a.  A shift, even with a polynomial coefficient t, leaves
  those rows alone, and rewriting their C_a through omega_j = omega'_j -
  t omega'_a turns a horizontal-horizontal term into itself plus terms
  with a vertical leg, of weight at least 3.

The map runs on integer numerators over one denominator, as the operator
cascade does (_Obstruction lists the constants it holds as ints, and where
the 1/2 and 1/3 go): a report clears the structure forms' denominators
once and builds one Fraction per output coefficient, and the shift action
clears the model's once for all its unit shifts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg, ratpoly as rp
from .forms import (Form, clear_denominators, contract, form_add,
                    form_monomial, form_scale, form_sub, form_zero, wedge)
from .models import (GeometryModel, coframe_d, levi_form, pfaffian_gram,
                     split_by_cell_weight, splitting_shift)
from .operators import SpanSolver

PolyMat = List[List[rp.Poly]]


def _pair(sigma: Form, b: Form) -> rp.Poly:
    """contract(sigma, b) for two 2-forms, as a dot product: the sum over
    k < l of sigma[(k, l)] b[(k, l)], as both key pairs sorted."""
    acc: rp.Poly = {}
    for kl, q in b.terms.items():
        p = sigma.terms.get(kl)
        if p:
            acc = rp.add(acc, rp.mul(p, q))
    return acc


def _pairing_matrix(levis: List[Form]) -> linalg.Matrix:
    return [[rp.constant_value(_pair(f, g)) for g in levis] for f in levis]


def _vertical_sigma(model: GeometryModel, part: Form) -> List[Form]:
    """Split a piece as sum over vertical a of omega^a ^ sigma_a.

    Each term must have exactly one leg in model.vertical, found by weight;
    moving it to the front past k legs gives the sign (-1)^k.
    """
    pos = {a: i for i, a in enumerate(model.vertical)}
    out = [Form(model.nvars, part.degree - 1, model.basis_tag) for _ in pos]
    for idx, p in part.terms.items():
        legs = [k for k, i in enumerate(idx) if i in pos]
        if len(legs) != 1:
            raise ValueError("piece is not vertical wedge horizontal")
        k = legs[0]
        out[pos[idx[k]]].add_term(idx[:k] + idx[k + 1:],
                                  rp.neg(p) if k % 2 else p)
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
        return _upper(self.matrices)


def _upper(matrices: Sequence[PolyMat]) -> List[rp.Poly]:
    """The entries on and above the diagonal of each matrix, row by row."""
    return [mat[a][b] for mat in matrices for a in range(len(mat))
            for b in range(a, len(mat))]


def _inputs(model: GeometryModel, levis: List[Form]) -> List[Form]:
    """Basis of the distinguished piece inside vertical wedge horizontal
    2-forms, read off the weights and the Levi bracket alone: each
    horizontal 3-form xi gives the sum over depth-2 a of omega^a ^
    contract(xi, L_a), L_a the bracket 2-form of omega_a.  Six
    variables have one horizontal 3-form, the horizontal volume, and so one
    input, the distinguished 2-form (on dist3in6 omega^1 ^ omega^4 +
    omega^2 ^ omega^5 + omega^3 ^ omega^6); seven variables have four."""
    out = []
    for trip in combinations(model.horizontal, 3):
        xi = form_monomial(model.nvars, trip, 1, model.basis_tag)
        beta = form_zero(model.nvars, 2, model.basis_tag)
        for a, lf in zip(model.depth2, levis):
            beta = form_add(beta, wedge(form_monomial(
                model.nvars, (a,), 1, model.basis_tag), contract(xi, lf)))
        if beta.is_zero():
            raise AssertionError("distinguished 2-form basis degenerated")
        out.append(beta)
    return out


class _Obstruction:
    """The obstruction of one model as a linear map of structure forms.

    Holds what does not depend on them, all read off the weights and the
    Levi bracket (the 2-forms L_b of one models.levi_form report): the
    constant-coefficient inputs (_inputs: the one horizontal 3-form of six
    variables gives the distinguished 2-form, the four of seven a basis)
    and the map's constants, as integer numerators:

    - terms: (index, 4 - its weight, numerator) per input term, over
      den_in, the inputs' denominator;
    - levi_proj: the Levi coefficients of a 2-form sigma, the inverse of
      the bracket's pairing times (_pair(sigma, L_b))_b, as one matrix on
      sigma's coefficients at keys;
    - trace_free, seven variables only: the trace removal by the Pfaffian
      metric, I - (1/3) gmat (x) ginv^T on the flattened matrix.

    The projection's denominator, den, is the product of levi_proj's, of
    trace_free's, which holds the 1/3, and of 2 for the symmetrization's
    1/2, which is then a plain sum; a report is over den_in den.  kind
    decides only the trace removal.  The bracket is defined on the
    depth-2 covectors, so the model's vertical covectors must be exactly
    those.  A splitting shift carries all of these over unchanged (see the
    module docstring), so one instance serves the model and every shift of
    it.  report(dforms, name) is the obstruction with d(omega_i) =
    dforms[i]; _matrices builds d of each input in weight 4 only, the one
    weight the Levi projection reads, and runs the map in ints.
    """

    def __init__(self, model: GeometryModel):
        shape = (len(model.vertical), len(model.horizontal))
        if shape not in ((3, 3), (3, 4)) or model.vertical != model.depth2:
            raise KeyError("no splitting obstruction for model %s"
                           % model.name)
        self.model = model
        self.kind = "six" if shape == (3, 3) else "seven"
        levi = levi_form(model)
        self.levis = levi.forms
        self.inputs = _inputs(model, self.levis)
        den_in, nums = clear_denominators(self.inputs)
        self.terms = [[(idx, 4 - model.weight_of(idx), rp.constant_value(p))
                       for idx, p in f.terms.items()] for f in nums]
        # [pairing | bracket coefficients] reduces to [I | levi_proj / den]:
        # the pairing is symmetric, so its inverse is pinv_t
        k = len(self.levis)
        self.keys = sorted({kl for f in self.levis for kl in f.terms})
        den_levi, red, pivots = linalg.integer_rref(
            [row + [rp.constant_value(f.terms.get(kl, {})) for kl in self.keys]
             for row, f in zip(_pairing_matrix(self.levis), self.levis)])
        if pivots != list(range(k)):
            raise ValueError("the Levi bracket's pairing is singular")
        self.levi_proj = [row[k:] for row in red]
        den_trace, self.trace_free = 1, None
        if self.kind == "seven":
            # I - (1/3) gmat (x) ginv^T: subtracts a third of the trace
            # sum_ab ginv[a][b] sym[b][a] times gmat
            gmat = pfaffian_gram(levi)
            ginv = linalg.inverse(gmat)
            pairs = [(a, b) for a in range(k) for b in range(k)]
            den_trace, self.trace_free = linalg.integral([
                [int(ab == cd) - Fraction(1, 3) * gmat[ab[0]][ab[1]]
                 * ginv[cd[1]][cd[0]] for cd in pairs] for ab in pairs])
        self.den_in, self.den = den_in, den_levi * 2 * den_trace

    def _project4(self, part: Form) -> PolyMat:
        """Symmetric Levi component of a weight-4 3-form with int
        coefficients, made trace-free by the metric for seven variables:
        int polys over den times part's denominator."""
        k = len(self.levis)
        m = [linalg.poly_matvec(self.levi_proj,
                                [sigma.terms.get(kl, {}) for kl in self.keys])
             for sigma in _vertical_sigma(self.model, part)]
        sym = [[rp.add(m[a][b], m[b][a]) for b in range(k)] for a in range(k)]
        if self.trace_free is None:
            return sym
        flat = linalg.poly_matvec(self.trace_free,
                                  [p for row in sym for p in row])
        return [flat[a * k:(a + 1) * k] for a in range(k)]

    def _matrices(self, nums: Sequence[Form]) -> List[PolyMat]:
        """The obstruction with d(omega_i) = nums[i] / D, nums holding int
        coefficients: int polys over den_in den D.  Put in place of
        omega_{I_k} in omega_I, a term (u, v) of C_{I_k} lands in weight
        wt(I) - wt(I_k) + wt(u) + wt(v), so each nums[i] is bucketed by
        pair weight once and position k reads only the bucket of weight
        4 - wt(I) + wt(I_k)."""
        weights = self.model.weights
        buckets: Dict[Tuple[int, int], list] = {}
        for i, c in enumerate(nums):
            for uv, q in c.terms.items():
                buckets.setdefault((i, weights[uv[0]] + weights[uv[1]]),
                                   []).append((uv, q))
        matrices = []
        for terms in self.terms:
            part = Form(self.model.nvars, 3, self.model.basis_tag)
            for idx, rest, c in terms:
                for k, ik in enumerate(idx):
                    sign = -c if k % 2 else c
                    bucket = buckets.get((ik, rest + weights[ik]), ())
                    for (u, v), q in bucket:
                        part.add_term(idx[:k] + (u, v) + idx[k + 1:],
                                      rp.scale(q, sign))
            matrices.append(self._project4(part))
        return matrices

    def project(self, d3: Form) -> PolyMat:
        """The projection of the weight-4 part of any 3-form."""
        den, (part,) = clear_denominators([split_by_cell_weight(
            self.model, d3).get(4, form_zero(self.model.nvars, 3,
                                             self.model.basis_tag))])
        big = den * self.den
        return [[rp.over(p, big) for p in row]
                for row in self._project4(part)]

    def report(self, dforms: Sequence[Form], name: str) -> ObstructionReport:
        """The obstruction with d(omega_i) = dforms[i]."""
        den, nums = clear_denominators(dforms)
        big = den * self.den_in * self.den
        return ObstructionReport(
            model=name, kind=self.kind,
            matrices=[[[rp.over(p, big) for p in row] for row in mat]
                      for mat in self._matrices(nums)])


def obstruction(model: GeometryModel) -> ObstructionReport:
    """The splitting obstruction of a model, as symmetric matrices."""
    return _Obstruction(model).report(model.structure_forms(), model.name)


def obstruction_hom(model: GeometryModel):
    """The obstruction as a bundle map on forms, plus a basis of inputs.

    Returns (map_fn, inputs) suitable for function-linearity checks: the
    map embeds the symmetric matrices back into weight-4 3-forms.
    """
    ob = _Obstruction(model)
    vert = model.vertical

    def map_fn(a: Form) -> Form:
        sym = ob.project(coframe_d(model, a))
        out = form_zero(model.nvars, 3, model.basis_tag)
        for i in range(len(vert)):
            for b in range(len(vert)):
                if not sym[i][b]:
                    continue
                piece = wedge(form_monomial(model.nvars, (vert[i],), 1,
                                            model.basis_tag), ob.levis[b])
                for idx, p in piece.terms.items():
                    out.add_term(idx, rp.mul(p, sym[i][b]))
        return out
    return map_fn, ob.inputs


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
    return [(j, a) for j in model.horizontal for a in model.vertical]


def _unit_shift_delta(dforms: Sequence[Form], j: int, a: int) -> List[Form]:
    """Structure forms of omega_j += omega_a minus the given ones, in the
    shifted coframe: row j gains d(omega_a), then omega_j = omega'_j -
    omega'_a moves each term p omega_I with j in I by -p omega_(I, j->a)."""
    out = []
    for k, c in enumerate(dforms):
        if k == j:
            new, delta = form_add(c, dforms[a]), dforms[a].copy()
        else:
            new, delta = c, Form(c.nvars, c.degree, c.basis)
        for idx, p in new.terms.items():
            if j in idx:
                delta.add_term(tuple(a if i == j else i for i in idx),
                               rp.neg(p))
        out.append(delta)
    return out


def _action_matrix(ob: _Obstruction, model: GeometryModel) -> linalg.Matrix:
    """Columns: change of the flattened obstruction per unit shift of
    model, ob being the obstruction of model or of a model it is a
    splitting shift of.

    The column of omega_j += omega_a is O(dC), with no shifted model built
    and, as in every report, d of each input built in weight 4 alone (the
    module docstring gives each argument in full):

    - the obstruction O is linear in the structure forms C once its
      constant-coefficient inputs, pairing and metric are fixed, as d of a
      constant-coefficient form reads only C;
    - the unit shift is a constant substitution, so the shifted model's
      structure forms are C + dC, dC from _unit_shift_delta;
    - the shifted model has this model's metric: the shift leaves the
      depth-2 rows alone, and rewriting their C adds only terms with a
      vertical leg, of weight 3 or more, so their weight-2 part stays.
    """
    den, nums = clear_denominators(model.structure_forms())
    big = den * ob.den_in * ob.den
    cols = []
    for j, a in _shift_pairs(model):
        col = []
        for p in _upper(ob._matrices(_unit_shift_delta(nums, j, a))):
            if not rp.is_constant(p):
                raise AssertionError("shift action is not constant")
            # p holds its constant term alone, if any
            col.append(Fraction(sum(p.values()), big))
        cols.append(col)
    return linalg.transpose(cols)


def shift_action_rank(model: GeometryModel) -> int:
    """Rank of the affine shift action on the flattened obstruction."""
    return linalg.rank(_action_matrix(_Obstruction(model), model))


# passes of normalize_splitting before it stops with what remains
MAX_ITER = 8


def normalize_splitting(model: GeometryModel) -> NormalizeReport:
    """Shift the splitting until the movable obstruction part is gone.

    Polynomial shift coefficients feed back through their derivatives, so
    the affine solve is iterated; each pass lowers the coefficient degree
    of what remains and the loop terminates.  An unsolvable component is
    genuine torsion and is returned rather than forced.

    Each pass solves for every monomial at once: one reduced row echelon
    form of the action matrix beside one right-hand column per monomial.
    The action columns are reduced exactly as beside one right-hand column,
    and a pivot changes only its own and later columns, so a pivot among
    the right-hand columns marks an unsolvable monomial, and otherwise each
    right-hand column holds the particular solution (free shifts zero) that
    solving for its monomial alone gives.  One _Obstruction of the given
    model serves every pass, as a shift carries its inputs, pairing and
    metric over unchanged.
    """
    ob = _Obstruction(model)
    base = model
    applied: List[Dict[Tuple[int, int], rp.Poly]] = []
    rank = 0
    rep = ob.report(base.structure_forms(), base.name)
    for it in range(MAX_ITER):
        if rep.is_zero:
            return NormalizeReport(
                model=model.name, iterations=it, shifts=applied,
                obstruction_zero=True, action_rank=rank, residual=None,
                normalized=base)
        flat = rep.flatten()
        pairs = _shift_pairs(base)
        monos = sorted({e for p in flat for e in p})
        red, pivots = linalg.rref(
            [row + [-p.get(e, Fraction(0)) for e in monos]
             for row, p in zip(_action_matrix(ob, base), flat)])
        # pivots among the action columns: the action matrix's rank
        rank = sum(1 for pi in pivots if pi < len(pairs))
        if pivots and pivots[-1] >= len(pairs):
            return NormalizeReport(
                model=model.name, iterations=it, shifts=applied,
                obstruction_zero=False, action_rank=rank, residual=rep,
                normalized=base)
        shifts: Dict[Tuple[int, int], rp.Poly] = {}
        for k, e in enumerate(monos):
            for r, pi in enumerate(pivots):
                c = red[r][len(pairs) + k]
                if c:
                    shifts.setdefault(pairs[pi], {})[e] = c
        if not shifts:
            break
        base = splitting_shift(base, shifts, model.name + "_normalized")
        applied.append(shifts)
        rep = ob.report(base.structure_forms(), base.name)
    return NormalizeReport(
        model=model.name, iterations=MAX_ITER, shifts=applied,
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
    """Check the refined congruence on the distinguished 2-form, the one
    input of the six-variable obstruction (_inputs).

    Its differential must be three times the horizontal volume plus a
    1-form wedged into the distinguished 2-form, modulo terms with two
    vertical legs.  Exact arithmetic throughout; the 1-form is solved for,
    not assumed.
    """
    ob = _Obstruction(model)
    if ob.kind != "six":
        raise KeyError("no two-adapted certificate for model %s" % model.name)
    (omega,) = ob.inputs
    horiz = model.horizontal
    dom = coframe_d(model, omega)
    parts = split_by_cell_weight(model, dom)
    vol = form_monomial(model.nvars, sorted(horiz), 1, model.basis_tag)
    zero = form_zero(model.nvars, 3, model.basis_tag)
    weight3_ok = form_sub(parts.get(3, zero),
                          form_scale(vol, Fraction(3))).is_zero()
    span = SpanSolver([split_by_cell_weight(
        model, wedge(form_monomial(model.nvars, (j,), 1, model.basis_tag),
                     omega)).get(4, zero)
        for j in horiz])
    try:
        nu = [rp.scale(p, Fraction(1, span.den))
              for p in span.express(parts.get(4, zero))]
        resid_zero = True
    except ValueError:
        nu, resid_zero = [{} for _ in horiz], False
    higher_ok = True
    vert = set(model.vertical)
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
