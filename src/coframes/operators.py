"""Derived operators between page-1 nodes and their complexes.

A graded operator is produced by one mechanism: lift a class to a form,
apply d, and correct the graded pieces below the target by solving
constant page-0 systems (GradedOperator.image); the target node then reads
the coordinates of what is left (Node.coordinates), projecting it on its
classes or expressing it in its span.  A whole complex derives each of its
nodes and operators on first read (OnDemand) off its model's one page
(GeometryModel.page1).  Every operator supplies one integer map,
image(lift, jets=None), the form it sends a lift to, and OperatorHandle
writes its two readers, apply and normal_form, on it once.

The operator classes:

  GradedOperator    lift, correct at weights fixed at construction, and
                    hand the form to the target node: with no weight to
                    correct at, the coframe d (the flat d on symplectic4)
  RsProjD, RsMiddle the two symplectic maps that are not plain d: d then
                    removal of the J-trace, and the second-order middle
                    map -d gamma with J ^ gamma = d beta

The sweep (_LcpRun) keeps one form, d(lift) minus all of d(gamma) for
each correction gamma: the weight-w part of d(gamma) is E0 gamma, the image
that gamma was solved for, so no separate product by page-0 columns is due.

Each step but d is Q-linear monomial by monomial: a constant matrix
applied to a vector of polynomials (linalg.poly_matvec), whether it solves
for span coordinates, for a correction's coefficients, or projects on the
classes (CellData.extract, once per target cell).  Every such matrix, and
the frame data d reads (models.Frame), is held as integer numerators over
one denominator, so an operator's image runs in ints: OperatorHandle
clears the section's denominators once (clear_denominators, on the lift),
and the image carries one running denominator that grows only where a
frame or matrix denominator is not 1.  apply, the one Fraction boundary,
builds one Fraction per output coefficient.  The same image of a symbolic
jet u (ratpoly.Jets), with d acting as the total derivative, is the
operator's normal form sum_alpha c_alpha(x) d^alpha, one per pair of
source and target slots: OperatorHandle.normal_form reads its numerators
straight into slots on first use.  Its order is exact, the largest |alpha|
with a nonzero coefficient.  A normal form is data with two readers, both
in the exactness certificate: the slice columns, which read its
PackedKernel (NormalForm.kernel) alpha first, every exponent packed into
one integer in a base above every component it can meet, so a term's
target is one integer add and no tuple is built; and the proof that two
forms compose to zero on every section, by the Leibniz rule
(NormalForm.composes_to_zero).  A concrete section has one evaluator, the
cascade: OperatorHandle.apply runs the image with plain derivatives (no
jets), for `coframes apply`, verify's composition sample and the
witnesses, so the sample tests the path the proof on the compiled forms
does not reach.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations
from math import comb, gcd, lcm, perm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg, ratpoly as rp
from .forms import (Form, change_basis, clear_denominators, contract,
                    form_monomial, form_sub, one_form, wedge)
from .models import GeometryModel, frame_d, symplectic_data
from .pages import CellKey, Page1

PolyVec = List[rp.Poly]
# (den_t, n_t) for each target slot t: an operator's image n_t / den_t
Image = List[Tuple[int, rp.IntPoly]]


# #### nodes ###############################################################

@dataclass
class Node:
    """A term of a complex, realized by explicit constant-coefficient forms.

    A graded node (graded_node) keeps the page its cells are on, and each
    cell's slots, lo:hi; any other node reads forms in the span of its
    own."""
    label: str
    degree: int
    forms: List[Form]
    weights: List[int]
    cells: List[Tuple[CellKey, int, int]] = field(default_factory=list)
    page1: Optional[Page1] = field(default=None, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.forms)

    @cached_property
    def span(self) -> SpanSolver:
        """The solver of the span of the node's forms, built on first read."""
        return SpanSolver(self.forms)

    def coordinates(self, form: Form) -> Image:
        """A form of the node's degree with int coefficients, as (den_t,
        n_t) for each slot t.  A graded node projects each of its cells on
        the classes (CellData.extract) and reads no term outside them; any
        other node expresses the form in its span, which refuses a form
        outside it."""
        if self.page1 is None:
            return [(self.span.den, p) for p in self.span.express(form)]
        out: Image = []
        for key, _, _ in self.cells:
            data = self.page1.cell_data(key)
            out += [(data.den, p) for p in data.extract(
                [form.terms.get(m, {}) for m in data.cell.basis])]
        return out


def graded_node(model: GeometryModel, degree: int,
                cells: Optional[Sequence[CellKey]] = None,
                label: Optional[str] = None) -> Node:
    """Node made of the page-1 survivors of one degree (or chosen cells)."""
    page1 = model.page1()
    keys = list(cells) if cells is not None else page1.surviving_cells(degree)
    forms: List[Form] = []
    weights: List[int] = []
    ranges: List[Tuple[CellKey, int, int]] = []
    for key in keys:
        data = page1.cell_data(key)
        lo = len(forms)
        for rep in data.reps:
            f = Form(model.nvars, degree, model.basis_tag)
            for j, mono in enumerate(data.cell.basis):
                if rep[j]:
                    f.add_term(mono, rp.const(rep[j], model.nvars))
            forms.append(f)
            weights.append(data.cell.weight)
        ranges.append((key, lo, len(forms)))
    return Node(label=label or ("node%d" % degree), degree=degree,
                forms=forms, weights=weights, cells=ranges, page1=page1)


class SpanSolver:
    """Expresses forms in the span of independent constant forms.

    One rref of [C | I], C holding the forms' coefficient columns, pivots
    on every C column first, so its I block R has R C = [I; 0]: the first
    rank entries of R v are v's coordinates in the forms, and v lies in
    their span exactly when the other entries vanish.  R is kept as
    integer numerators over den, and express returns den times the
    coordinates (den is 1 on every span of the named complexes).
    """

    def __init__(self, forms: Sequence[Form]):
        self.rank = len(forms)
        monos = sorted({idx for f in forms for idx in f.terms})
        self.pos = {m: i for i, m in enumerate(monos)}
        self.den, red, pivots = linalg.integer_rref(
            [[rp.constant_value(f.terms.get(m, {})) for f in forms]
             + linalg.unit_vector(i, len(monos))
             for i, m in enumerate(monos)])
        if pivots[:self.rank] != list(range(self.rank)):
            raise ValueError("span forms are not independent")
        self._r = [row[self.rank:] for row in red]

    def express(self, a: Form) -> PolyVec:
        vec: PolyVec = [{} for _ in self.pos]
        for idx, p in a.terms.items():
            if idx not in self.pos:
                raise ValueError("form leaves the span at %s" % (idx,))
            vec[self.pos[idx]] = p
        out = linalg.poly_matvec(self._r, vec)
        if any(out[self.rank:]):
            raise ValueError("form is not in the span")
        return out[:self.rank]


def realize(node: Node, coeffs: Sequence[rp.Poly]) -> Form:
    """The form sum(coeffs[k] * basis form k); coeffs may be jets."""
    if len(coeffs) != node.rank:
        raise ValueError("expected %d coefficients, got %d"
                         % (node.rank, len(coeffs)))
    first = node.forms[0] if node.forms else None
    if first is None:
        raise ValueError("empty node")
    out = Form(first.nvars, node.degree, first.basis)
    for f, u in zip(node.forms, coeffs):
        if not u:
            continue
        for idx, p in f.terms.items():
            out.add_term(idx, rp.mul(p, u))
    return out


# #### correction machinery ################################################

class _LcpRun:
    """One lift-correct sweep of d over ascending weights.

    The sweep keeps one form, eta = d(lift) - sum d(gamma) over the
    corrections gamma made so far.  Cell (p, w - p) lists exactly the
    degree-p monomials of weight w, so eta's weight-w part in cell
    coordinates is read straight off its terms (vector).  Each correction
    subtracts all of d(gamma): derivative terms raise the weight, and the
    weight-w part is E0 gamma, the Leibniz sum over the same structure
    forms that defines the page-0 columns (pages.e0_columns).

    The lift arrives with int coefficients (OperatorHandle clears the
    section's denominators), so eta is kept as int coefficients over one
    running denominator, den: it starts as the frame's (models.frame_d)
    and is multiplied by each cell's and the frame's denominator that is
    not 1, as a correction meets it.  With jets, the lift has jet
    coefficients and d differentiates them totally.
    """

    def __init__(self, model: GeometryModel, lift: Form, out_degree: int,
                 jets: Optional[rp.Jets] = None):
        self.model = model
        self.jets = jets
        self.page1 = model.page1()
        self.degree = out_degree
        self.den, self.eta = frame_d(model, lift, jets)

    def vector(self, w: int) -> List[rp.IntPoly]:
        """The weight-w part of eta in its cell's coordinates, over den."""
        cell = self.page1.page0.cells[(self.degree, w - self.degree)]
        return [self.eta.terms.get(m, {}) for m in cell.basis]

    def correct_at(self, w: int) -> None:
        """Remove the reachable part of weight w using the page-0 image.

        The image block of the cell's sinv gives the coefficients in the
        source cell's pivot coordinates (see CellData), so the preimage
        gamma lies in the complement of the source kernel.  gamma comes
        over den times the cell's denominator, and d(gamma) over that
        times the frame's, which den then takes on.
        """
        data = self.page1.cell_data((self.degree, w - self.degree))
        acoeffs = linalg.poly_matvec(data.sinv[:data.rank_in], self.vector(w))
        if not any(acoeffs):
            return
        src_key = data.source_cell
        src_cell = self.page1.page0.cells[src_key]
        src_pivots = self.page1.cell_data(src_key).out_pivots
        gamma = Form(self.model.nvars, src_key[0], self.model.basis_tag)
        for i, p in enumerate(acoeffs):
            if p:
                gamma.add_term(src_cell.basis[src_pivots[i]], p)
        f, dg = frame_d(self.model, gamma, self.jets)
        scale = data.den * f
        if scale != 1:
            self.den *= scale
            self.eta.terms = {idx: rp.scale(p, scale)
                              for idx, p in self.eta.terms.items()}
        for idx, p in dg.terms.items():
            if self.model.weight_of(idx) < w:
                raise AssertionError("correction reached below its weight")
            self.eta.add_term(idx, rp.neg(p))


# #### operator handles ####################################################

# (target slot t, x exponent b, numerator): the term num/den x^b d^alpha
NormalTerm = Tuple[int, rp.Exponent, int]


class PackedKernel:
    """A NormalForm's terms with every exponent packed into one integer.

    For the base B = 2**bits, pack(e) = sum_i e_i * B**(n - 1 - i) and
    key(t, e) = t * B**n + pack(e), n the number of variables, which the
    NormalForm passes in so that slots stay apart with no term.  A kernel
    serves monomials whose components are at most reach = B - 1 - max b_i,
    so no component of an exponent it meets, source or target, reaches B:
    no digit carries into its neighbour, and a key names one (t, e).  A
    term (t, b, num) of alpha then sends x^(alpha + r) to the key
    key(t, r + b) = pack(r) + key(t, b), one integer add.  The kernel for
    top takes the smallest B with B > top + max b_i, so its reach is at
    least top.

    slots[s] lists, for each alpha of source slot s, (wt(alpha),
    pack(alpha), support, offs): wt(alpha) its degree under the
    coefficient weights, by which the list is stably sorted, support the
    nonzero (i, alpha_i), offs the (key(t, b), num) of its terms in order.
    """

    def __init__(self, slots, top: int, nvars: int,
                 weights: Tuple[int, ...]):
        max_b = max((x for _, groups in slots for _, terms in groups
                     for _, b, _ in terms for x in b), default=0)
        self.bits = (top + max_b).bit_length()
        self.reach = (1 << self.bits) - 1 - max_b
        self.shift = nvars * self.bits
        shared: Dict[tuple, tuple] = {}     # interned, as in _normal_slot

        def intern(x: tuple) -> tuple:
            return shared.setdefault(x, x)
        self.weights = weights
        self.slots = [sorted([(sum(w * a for w, a in zip(weights, alpha)),
                               self.pack(alpha),
                               intern(tuple((i, a) for i, a
                                            in enumerate(alpha) if a)),
                               [intern((self.key(t, b), num))
                                for t, b, num in terms])
                              for alpha, terms in groups],
                             key=lambda entry: entry[0])
                      for _, groups in slots]

    def pack(self, e: rp.Exponent) -> int:
        p = 0
        for x in e:
            p = (p << self.bits) + x
        return p

    def key(self, t: int, e: rp.Exponent) -> int:
        return (t << self.shift) + self.pack(e)


class NormalForm:
    """A linear differential operator as sum_alpha c_alpha(x) d^alpha.

    slots[s] = (den, groups) for source slot s, where den is the common
    denominator of the slot's coefficients and groups lists (alpha, terms),
    one entry per derivative multi-index alpha with a nonzero coefficient:
    u in slot s goes to the sum of num/den x^b d^alpha u over the terms
    (t, b, num), each into target slot t.  targets is the number of target
    slots, nvars that of the variables.  The slice columns read a
    PackedKernel of these slots (kernel), derived when first asked for and
    again for a larger base or other weights.
    """

    def __init__(self, targets: int,
                 slots: List[Tuple[int, List[Tuple[rp.Exponent,
                                                   List[NormalTerm]]]]],
                 nvars: int):
        self.targets = targets
        self.slots = slots
        self.nvars = nvars
        self._kernel: Optional[PackedKernel] = None
        self._composed: Dict[NormalForm, bool] = {}

    @property
    def order(self) -> int:
        """The largest |alpha| with a nonzero coefficient (0 if none)."""
        return max((sum(alpha) for _, groups in self.slots
                    for alpha, _ in groups), default=0)

    def kernel(self, top: int, weights: Tuple[int, ...]) -> PackedKernel:
        """A packed kernel for monomials with no component above top, its
        alphas sorted under the coefficient weights: the last one derived
        if its reach covers top under the same weights, else one derived
        afresh."""
        if (self._kernel is None or self._kernel.reach < top
                or self._kernel.weights != weights):
            self._kernel = PackedKernel(self.slots, top, self.nvars, weights)
        return self._kernel

    def composes_to_zero(self, after: NormalForm) -> bool:
        """Whether after o self is the zero operator, on every section.

        after's slot t reads num2/den_t x^c d^beta; a term num/den x^b
        d^alpha of self into slot t composes with it by Leibniz,
        d^beta(x^b d^alpha u) = sum over gamma <= beta, b of C(beta, gamma)
        b!/(b - gamma)! x^(b - gamma) d^(beta - gamma + alpha) u.  For each
        source slot, the coefficients of x^(c + b - gamma) d^(alpha + beta -
        gamma) u in each target slot, times self's slot denominator and L =
        lcm(den_t), are integers, keyed by their two exponents packed side
        by side in one base above every component; after o self is zero
        exactly when each vanishes.  The answer is kept for after, so a
        pair of compiled forms pays for it once.
        """
        hit = self._composed.get(after)
        if hit is None:
            hit = self._composed[after] = self._compose_zero(after)
        return hit

    def _compose_zero(self, after: NormalForm) -> bool:
        top = max((x for nf in (self, after) for _, groups in nf.slots
                   for alpha, terms in groups
                   for e in [alpha] + [b for _, b, _ in terms] for x in e),
                  default=0)
        bits = (2 * top).bit_length()
        half = self.nvars * bits

        def pack(e: rp.Exponent) -> int:
            p = 0
            for x in e:
                p = (p << bits) + x
            return p
        big = lcm(*(den for den, _ in after.slots))
        # per slot t of after: (beta, pack(beta), [(key of t2 and
        # x^c, num2 * L / den_t)])
        seconds = [[(beta, pack(beta),
                     [(((t2 << half) + pack(c)) << half,
                       num * (big // den)) for t2, c, num in terms])
                    for beta, terms in groups] for den, groups in after.slots]
        leibniz: Dict[Tuple[rp.Exponent, rp.Exponent],
                      List[Tuple[int, int]]] = {}

        def gammas(b: rp.Exponent, beta: rp.Exponent, pbeta: int
                   ) -> List[Tuple[int, int]]:
            """(pack(beta) - pack(gamma) (B**n + 1), C(beta, gamma)
            b!/(b - gamma)!) over every gamma <= beta, b."""
            out = leibniz.get((b, beta))
            if out is None:
                out = [(pbeta, 1)]
                for i, (bi, ai) in enumerate(zip(b, beta)):
                    if not bi or not ai:
                        continue    # the only gamma_i is 0
                    step = ((1 << half) + 1) << (bits * (self.nvars - 1 - i))
                    out = [(d - g * step, f * comb(ai, g) * perm(bi, g))
                           for d, f in out for g in range(min(bi, ai) + 1)]
                leibniz[(b, beta)] = out
            return out

        for _, groups in self.slots:
            acc: Dict[int, int] = {}
            for alpha, terms in groups:
                palpha = pack(alpha)
                for t, b, num in terms:
                    pb = (pack(b) << half) + palpha
                    for beta, pbeta, offs in seconds[t]:
                        for delta, f in gammas(b, beta, pbeta):
                            k0 = pb + delta
                            f *= num
                            for key, num2 in offs:
                                k = k0 + key
                                acc[k] = acc.get(k, 0) + f * num2
            if any(acc.values()):
                return False
        return True


def _normal_slot(jets: rp.Jets, image: Image, shared: Dict[tuple, tuple]):
    """One source slot of a NormalForm from the jet numerators n_t over
    den_t in each target slot t, over the least common denominator: the
    lcm over t of den_t / gcd(den_t, coefficients of n_t).  shared interns
    tuples: most terms of a compiled operator repeat, and sharing them
    keeps it small."""
    den = lcm(*(d // gcd(d, *p.values()) for d, p in image))
    groups: Dict[rp.Exponent, List[NormalTerm]] = {}
    for t, (d, p) in enumerate(image):
        for alpha, c_alpha in jets.split(p).items():
            for b, c in c_alpha.items():
                groups.setdefault(alpha, []).append((t, b, c * den // d))

    def intern(x: tuple) -> tuple:
        return shared.setdefault(x, x)
    return den, [(intern(alpha),
                  [intern((t, intern(b), num)) for t, b, num in sorted(terms)])
                 for alpha, terms in sorted(groups.items())]


class OperatorHandle:
    """A derived operator between two nodes, with its normal form.

    A subclass supplies one integer map, image(lift, jets): the image of a
    form of the source degree with int coefficients, as (den, form), a
    form of the target degree with int coefficients over den; with jets,
    the lift's coefficients are jets in it and d is the total derivative.
    apply and normal_form are written once on it: each realizes a section
    and clears its denominators once, and the target node reads the
    image's coordinates (_image); then apply builds one Fraction per output
    coefficient and normal_form reads the jet numerators straight into
    slots."""

    def __init__(self, source: Node, target: Node):
        self.source = source
        self.target = target
        self._normal_form: Optional[NormalForm] = None

    def image(self, lift: Form,
              jets: Optional[rp.Jets] = None) -> Tuple[int, Form]:
        raise NotImplementedError

    def _image(self, coeffs: Sequence[rp.Poly],
               jets: Optional[rp.Jets] = None) -> Image:
        den, (lift,) = clear_denominators([realize(self.source, coeffs)])
        f, form = self.image(lift, jets)
        return [(den * f * d, p) for d, p in self.target.coordinates(form)]

    def apply(self, coeffs: Sequence[rp.Poly]) -> PolyVec:
        """The image of a section, one Fraction per coefficient."""
        return [rp.over(p, d) for d, p in self._image(coeffs)]

    def normal_form(self) -> NormalForm:
        """Compiled on first use: the image of a jet in each source slot."""
        if self._normal_form is None:
            jets = rp.Jets(self.source.forms[0].nvars)
            shared: Dict[tuple, tuple] = {}
            slots = []
            for slot in range(self.source.rank):
                coeffs: PolyVec = [{} for _ in range(self.source.rank)]
                coeffs[slot] = jets.unknown
                slots.append(_normal_slot(jets, self._image(coeffs, jets),
                                          shared))
            self._normal_form = NormalForm(self.target.rank, slots,
                                           jets.nvars)
        return self._normal_form

    @property
    def order(self) -> int:
        return self.normal_form().order


class GradedOperator(OperatorHandle):
    """d of a lift, corrected at weights fixed at construction.

    A graded target is corrected at every weight of its degree from one
    above the source's lowest up to its top cell's.  A span target must
    hold each cell of its degree whole or not at all, and is corrected at
    the weights of that range below its lowest cell: those cells lie
    outside the span, so express refuses whatever a correction leaves
    there.  With no weight to correct at, the image is the coframe d.
    """

    def __init__(self, model: GeometryModel, source: Node, target: Node):
        super().__init__(source, target)
        self.model = model
        degree = source.degree + 1
        cells = {cell.weight: cell
                 for key, cell in model.page1().page0.cells.items()
                 if key[0] == degree}
        if target.page1 is not None:
            top = max(target.page1.page0.cells[key].weight
                      for key, _, _ in target.cells)
        else:
            support = set(target.span.pos)
            inside: Dict[int, bool] = {}    # cell weight: the cell is in it
            for w, cell in cells.items():
                flags = {m in support for m in cell.basis}
                if len(flags) > 1:
                    raise ValueError("target span splits a cell")
                inside[w] = flags.pop()
            if not any(inside.values()):
                raise ValueError("target span has no cells")
            top = min(w for w, flag in inside.items() if flag) - 1
        low = min(source.weights) + 1 if source.weights else 1
        self.correct_weights = [w for w in range(low, top + 1) if w in cells]

    def image(self, lift: Form,
              jets: Optional[rp.Jets] = None) -> Tuple[int, Form]:
        """d(lift) corrected weight by weight.  The lift is any form of the
        source degree; its components in cells above the source's top
        weight do not reach the target's coordinates."""
        run = _LcpRun(self.model, lift, self.source.degree + 1, jets)
        for w in self.correct_weights:
            run.correct_at(w)
        return run.den, run.eta


# #### symplectic replacement complex ######################################

class RsProjD(OperatorHandle):
    """d followed by the pointwise projection killing the J-trace.

    With J = Jn / jden, Jn integral, and half_dim half the model's
    dimension, the projection is beta - tr(beta) J / half_dim for
    tr(beta) = contract(beta, J), and scale = half_dim jden^2 times it is
    scale beta - contract(beta, Jn) Jn, integral on an integral beta."""

    def __init__(self, model: GeometryModel, source: Node, target: Node,
                 jform: Form):
        super().__init__(source, target)
        self.model = model
        jden, (self.jform,) = clear_denominators([jform])
        self.scale = model.nvars // 2 * jden ** 2

    def image(self, lift: Form,
              jets: Optional[rp.Jets] = None) -> Tuple[int, Form]:
        f, beta = frame_d(self.model, lift, jets)
        trace = contract(beta, self.jform).terms.get((), {})
        out = Form(beta.nvars, beta.degree, beta.basis,
                   {idx: rp.scale(p, self.scale)
                    for idx, p in beta.terms.items()})
        for idx, p in self.jform.terms.items():
            out.add_term(idx, rp.neg(rp.mul(p, trace)))
        return f * self.scale, out


class RsMiddle(OperatorHandle):
    """Second-order middle map: solve J ^ gamma = d beta, emit -d gamma."""

    def __init__(self, model: GeometryModel, source: Node, target: Node,
                 jform: Form):
        super().__init__(source, target)
        self.model = model
        self.jspan = SpanSolver([wedge(jform, one_form(model.nvars, i,
                                                       model.basis_tag))
                                 for i in range(model.nvars)])

    def image(self, lift: Form,
              jets: Optional[rp.Jets] = None) -> Tuple[int, Form]:
        f, beta = frame_d(self.model, lift, jets)
        # -gamma, over f jspan.den
        gamma = Form(beta.nvars, 1, beta.basis)
        for i, p in enumerate(self.jspan.express(beta)):
            if p:
                gamma.add_term((i,), rp.neg(p))
        g, dgamma = frame_d(self.model, gamma, jets)
        return f * self.jspan.den * g, dgamma


# #### complexes ###########################################################

class OnDemand(Sequence):
    """A complex's nodes or operators, each derived by its thunk on first
    read and kept.  It reads as a list does: len, indexing, slicing (which
    gives a plain list) and iteration."""

    def __init__(self, thunks: Sequence[Callable[[], object]]):
        self._thunks = list(thunks)
        self._items: Dict[int, object] = {}

    def __len__(self) -> int:
        return len(self._thunks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]     # from the end if negative; IndexError
        if i not in self._items:
            self._items[i] = self._thunks[i]()
        return self._items[i]


@dataclass
class Resolution:
    name: str
    variant: str
    nodes: Sequence[Node]
    operators: Sequence[OperatorHandle]
    model: Optional[GeometryModel] = None
    nvars: int = 0
    coeff_weights: Tuple[int, ...] = ()

    def ranks(self) -> List[int]:
        return [n.rank for n in self.nodes]

    def orders(self) -> List[int]:
        """Exact operator orders, read off the normal forms."""
        return [h.order for h in self.operators]

    def homology(self) -> List[int]:
        """Ranks of the cohomology the complex resolves: the constants,
        and for the symplectic complex also the Liouville class in degree
        1 (verify.rs_h1_witness)."""
        out = [1] + [0] * (len(self.nodes) - 1)
        if self.variant == "rs":
            out[1] = 1
        return out


def derive_operator(model: GeometryModel, source: CellKey,
                    target: CellKey) -> GradedOperator:
    """The derived operator from one page-1 cell to one of the next degree."""
    if target[0] != source[0] + 1:
        raise ValueError("target cell %s is not of degree %d"
                         % (target, source[0] + 1))
    degree = source[0]
    return GradedOperator(model, graded_node(model, degree, [source]),
                          graded_node(model, degree + 1, [target]))


def named_complex(model: GeometryModel, variant: str = "bgg") -> Resolution:
    """Assemble a named resolution for a builtin model; its nodes and
    operators, and the page-1 cells they read, are derived on first read."""
    if variant == "bgg":
        # the highest degree with a survivor, found from the top down so
        # that only its cells are derived
        top = next(p for p in range(model.nvars, -1, -1)
                   if model.page1().surviving_cells(p))
        nodes = OnDemand([partial(graded_node, model, p)
                          for p in range(top + 1)])
        ops = OnDemand([
            lambda p=p: GradedOperator(model, nodes[p], nodes[p + 1])
            for p in range(top)])
        return Resolution(name=model.name, variant=variant, nodes=nodes,
                          operators=ops, model=model, nvars=model.nvars,
                          coeff_weights=model.weights)
    if model.name == "g2_5" and variant in ("ambient", "basic"):
        return _g2_complex(model, variant)
    raise KeyError("unknown complex variant %r for model %s"
                   % (variant, model.name))


def _g2_complex(model: GeometryModel, variant: str) -> Resolution:
    n = model.nvars
    tag = model.basis_tag

    def cform(monos: Sequence[Tuple[Tuple[int, ...], int]],
              degree: int) -> Form:
        f = Form(n, degree, tag)
        for idx, c in monos:
            f.add_term(idx, rp.const(c, n))
        return f

    def monomials(label: str, degree: int,
                  idxs: Sequence[Tuple[int, ...]]) -> Node:
        return Node(label, degree, [cform([(t, 1)], degree) for t in idxs],
                    [model.weight_of(t) for t in idxs])

    def node2() -> Node:
        if variant == "ambient":
            return monomials("vertical_wedge_1forms", 2,
                             [(0, 3), (0, 4), (1, 3), (1, 4), (0, 2),
                              (1, 2), (0, 1)])
        combos2: List[List[Tuple[Tuple[int, ...], int]]] = [
            [((0, 3), 1)], [((0, 4), 1), ((1, 3), 1)], [((1, 4), 1)],
            [((0, 2), 1)], [((1, 2), 1)], [((0, 1), 1)]]
        return Node("B2", 2, [cform(c, 2) for c in combos2],
                    [model.weight_of(c[0][0]) for c in combos2])

    def node3() -> Node:
        triples = list(combinations(range(n), 3))
        if variant == "ambient":
            return monomials("all3forms", 3, triples)
        return monomials("B3", 3, [t for t in triples if t != (2, 3, 4)])

    nodes = OnDemand([
        lambda: graded_node(model, 0, label="functions"),
        lambda: graded_node(model, 1, label="horizontal1"),
        node2, node3,
        lambda: monomials("all4forms", 4, list(combinations(range(n), 4))),
        lambda: monomials("volume", 5, [tuple(range(n))])])
    ops = OnDemand([lambda k=k: GradedOperator(model, nodes[k], nodes[k + 1])
                    for k in range(5)])
    return Resolution(name=model.name, variant=variant, nodes=nodes,
                      operators=ops, model=model, nvars=n,
                      coeff_weights=model.weights)


def build_rs_complex(half_dim: int) -> Resolution:
    """The symplectic replacement complex on R^{2 half_dim}, its forms in
    the basis of the flat coframe of models.symplectic_data; its nodes and
    operators are derived on first read."""
    if half_dim != 2:
        raise ValueError("only the 4-dimensional case is built in")
    data = symplectic_data(half_dim)
    model: GeometryModel = data["model"]
    n, tag = model.nvars, model.basis_tag
    jform = change_basis(data["J"], model, "coframe")

    def monomial(idx: Tuple[int, ...]) -> Form:
        return form_monomial(n, idx, 1, tag)

    def primitive2() -> List[Form]:
        perp = [monomial(pair) for pair in combinations(range(n), 2)
                if not contract(monomial(pair), jform).terms]
        return perp + [form_sub(monomial((0, 1)), monomial((2, 3)))]

    def node(label: str, degree: int, forms: List[Form], weight: int):
        return Node(label, degree, forms, [weight] * len(forms))

    nodes = OnDemand([
        lambda: node("functions", 0, [monomial(())], 0),
        lambda: node("one_forms", 1, [monomial((i,)) for i in range(n)], 1),
        lambda: node("primitive2", 2, primitive2(), 2),
        lambda: node("coeffective2", 2, primitive2(), 4),
        lambda: node("three_forms", 3, [monomial(t) for t in
                                        combinations(range(n), 3)], 5),
        lambda: node("volume", 4, [monomial(tuple(range(n)))], 6)])
    ops = OnDemand([
        lambda: GradedOperator(model, nodes[0], nodes[1]),
        lambda: RsProjD(model, nodes[1], nodes[2], jform),
        lambda: RsMiddle(model, nodes[2], nodes[3], jform),
        lambda: GradedOperator(model, nodes[3], nodes[4]),
        lambda: GradedOperator(model, nodes[4], nodes[5])])
    return Resolution(name=model.name, variant="rs", nodes=nodes,
                      operators=ops, model=model, nvars=n,
                      coeff_weights=model.weights)


# #### sections ############################################################

# A node has at most as many components as there are coframe monomials of
# its degree: C(10, 5) = 252 within ratpoly.MAX_NVARS = 10 variables.
MAX_SECTION_COMPONENTS = comb(rp.MAX_NVARS, rp.MAX_NVARS // 2)


@dataclass
class GradedSection:
    resolution: str
    variant: str
    node: int
    coeffs: PolyVec
    nvars: Optional[int] = None     # as declared by the JSON coefficients

    def to_json(self, nvars: int) -> dict:
        return {"model": self.resolution, "variant": self.variant,
                "cell": self.node,
                "coeffs": [rp.poly_to_json(p, nvars) for p in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "GradedSection":
        """Parse a section: string model and variant, an integer node
        ("cell", or "node"), and at most MAX_SECTION_COMPONENTS
        coefficients that agree on nvars; anything else is a ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("a section must be a JSON object")
        model, variant = obj["model"], obj.get("variant", "bgg")
        if not (isinstance(model, str) and isinstance(variant, str)):
            raise ValueError("section model and variant must be strings")
        node = rp.json_int(obj["cell"] if "cell" in obj else obj["node"],
                           "cell")
        raw = obj["coeffs"]
        if not isinstance(raw, list) or len(raw) > MAX_SECTION_COMPONENTS:
            raise ValueError("coeffs must be a list of at most %d "
                             "polynomials" % MAX_SECTION_COMPONENTS)
        declared, coeffs = set(), []
        for t in raw:
            n, p = rp.nvars_poly_from_json(t)
            declared.add(n)
            coeffs.append(p)
        if len(declared) > 1:
            raise ValueError("coefficients disagree on nvars: %s"
                             % sorted(declared))
        return GradedSection(resolution=model, variant=variant, node=node,
                             coeffs=coeffs,
                             nvars=declared.pop() if declared else None)


def random_section(node: Node, rng: random.Random,
                   max_degree: int = 3) -> PolyVec:
    nvars = node.forms[0].nvars
    return [rp.random_poly(rng, nvars, max_degree, terms=3)
            for _ in range(node.rank)]
