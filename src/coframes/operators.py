"""Derived operators between page-1 nodes and their complexes.

A graded operator is produced by one mechanism: lift a class to a form,
apply d, correct the graded pieces below the target weight by solving
constant page-0 systems, and project at the target.  The correction steps are
recorded as a trace, and whole complexes are assembled node by node.

The operator classes:

  GradedOperator         lift, correct, project between page-1 nodes
  DeepCorrectedOperator  correct below a span node, express the rest in it
  SpanDOperator          d, then express in the target span (the coframe d
                         of a model, or the flat exterior d without one)
  RsProjD, RsMiddle      the two symplectic maps that are not plain d: d
                         then removal of the J-trace, and the second-order
                         middle map -d gamma with J ^ gamma = d beta

Each step but d is Q-linear monomial by monomial, so the same cascade run on
a symbolic jet u (ratpoly.Jets), with d acting as the total derivative,
yields the operator's normal form sum_alpha c_alpha(x) d^alpha, one per
pair of source and target slots.  OperatorHandle.normal_form compiles it
on first use; its order is exact, the largest |alpha| with a nonzero
coefficient.  apply on a concrete section still runs the cascade, which is
cheaper than a compile for a single section.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import linalg, ratpoly as rp
from .forms import (COORD, Bivector, Form, contract, exterior_d, form_pmul,
                    form_scale, form_sub, form_zero, one_form, wedge)
from .models import GeometryModel, coframe_d, split_by_cell_weight, symplectic_data
from .pages import CellKey, Page1

PolyVec = List[rp.Poly]


# #### nodes ###############################################################

@dataclass
class Node:
    """A term of a complex, realized by explicit constant-coefficient forms."""
    label: str
    degree: int
    forms: List[Form]
    weights: List[int]
    cells: List[Tuple[CellKey, int, int]] = field(default_factory=list)

    @property
    def rank(self) -> int:
        return len(self.forms)


def graded_node(model: GeometryModel, page1: Page1, degree: int,
                cells: Optional[Sequence[CellKey]] = None,
                label: Optional[str] = None) -> Node:
    """Node made of the page-1 survivors of one degree (or chosen cells)."""
    keys = list(cells) if cells is not None else page1.surviving_cells(degree)
    forms: List[Form] = []
    weights: List[int] = []
    ranges: List[Tuple[CellKey, int, int]] = []
    for key in keys:
        data = page1.data[key]
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
                forms=forms, weights=weights, cells=ranges)


class SpanSolver:
    """Expresses forms in the span of independent constant forms."""

    def __init__(self, forms: Sequence[Form]):
        self.rank = len(forms)
        monos = sorted({idx for f in forms for idx in f.terms})
        self.pos = {m: i for i, m in enumerate(monos)}
        cols = []
        for f in forms:
            v = [Fraction(0)] * len(monos)
            for idx, p in f.terms.items():
                v[self.pos[idx]] = rp.constant_value(p)
            cols.append(v)
        self.solver = linalg.ColumnSpaceSolver(cols, len(monos))

    def express(self, a: Form) -> PolyVec:
        out: PolyVec = [{} for _ in range(self.rank)]
        monos: Dict[Tuple[int, ...], None] = {}
        for idx, p in a.terms.items():
            if idx not in self.pos:
                raise ValueError("form leaves the span at %s" % (idx,))
            for e in p:
                monos[e] = None
        for e in sorted(monos):
            v = [Fraction(0)] * len(self.pos)
            for idx, p in a.terms.items():
                c = p.get(e)
                if c:
                    v[self.pos[idx]] = c
            x, rest = self.solver.reduce(v)
            if any(rest):
                raise ValueError("form is not in the span")
            for j, c in enumerate(x):
                if c:
                    out[j][e] = c
        return out


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

@dataclass
class CorrectionStep:
    weight: int
    cell: CellKey
    via_cell: CellKey
    killed: List[Tuple[int, ...]]
    solved: Dict[Tuple[int, ...], rp.Poly]


def _partials(jets: Optional[rp.Jets]):
    return jets.partials if jets is not None else None


class _LcpRun:
    """One lift-correct sweep of d over ascending weights.

    With jets, the lift has jet coefficients and d differentiates them
    totally.
    """

    def __init__(self, model: GeometryModel, page1: Page1, lift: Form,
                 out_degree: int, jets: Optional[rp.Jets] = None):
        self.model = model
        self.partials = _partials(jets)
        self.page1 = page1
        self.degree = out_degree
        eta = coframe_d(model, lift, self.partials)
        self.parts: Dict[int, PolyVec] = {}
        for w, piece in split_by_cell_weight(model, eta).items():
            cell = page1.page0.cells.get((out_degree, w - out_degree))
            if cell is None:
                raise AssertionError("derivative left the cell table")
            vec: PolyVec = [{} for _ in cell.basis]
            pos = {m: i for i, m in enumerate(cell.basis)}
            for idx, p in piece.terms.items():
                vec[pos[idx]] = p
            self.parts[w] = vec
        self.trace: List[CorrectionStep] = []

    def correct_at(self, w: int) -> None:
        """Remove the reachable part of weight w using the page-0 image.

        The image block of the cell's sinv gives the coefficients in the
        source cell's pivot coordinates (see CellData), so the preimage
        gamma lies in the complement of the source kernel.
        """
        key = (self.degree, w - self.degree)
        vec = self.parts.get(w)
        if vec is None or not any(vec):
            return
        data = self.page1.data[key]
        if not data.rank_in:
            return
        dim = data.cell.dim
        zero = Fraction(0)
        monos = sorted({e for p in vec for e in p})
        acoeffs: PolyVec = [{} for _ in range(data.rank_in)]
        newvec: PolyVec = [dict(p) for p in vec]
        touched = False
        for e in monos:
            nz = [(r, p[e]) for r, p in enumerate(vec) if p.get(e)]
            for i in range(data.rank_in):
                row = data.sinv[i]
                a = sum((row[r] * x for r, x in nz if row[r]), zero)
                if not a:
                    continue
                touched = True
                acoeffs[i][e] = a
                col = data.bcols[i]
                for r in range(dim):
                    if col[r]:
                        slot = newvec[r]
                        nv = slot.get(e, zero) - a * col[r]
                        if nv:
                            slot[e] = nv
                        elif e in slot:
                            del slot[e]
        if not touched:
            return
        src_key = data.source_cell
        src_cell = self.page1.page0.cells[src_key]
        src_pivots = self.page1.data[src_key].out_pivots
        gamma = Form(self.model.nvars, src_key[0], self.model.basis_tag)
        solved: Dict[Tuple[int, ...], rp.Poly] = {}
        for i, p in enumerate(acoeffs):
            if p:
                mono = src_cell.basis[src_pivots[i]]
                gamma.add_term(mono, p)
                solved[mono] = p
        killed = [data.cell.basis[r] for r in range(dim)
                  if vec[r] and not newvec[r]]
        self.parts[w] = newvec
        dg = coframe_d(self.model, gamma, self.partials)
        for w2, piece in split_by_cell_weight(self.model, dg).items():
            if w2 == w:
                continue
            if w2 < w:
                raise AssertionError("correction reached below its weight")
            cell2 = self.page1.page0.cells[(self.degree, w2 - self.degree)]
            vec2 = self.parts.setdefault(w2, [{} for _ in cell2.basis])
            pos2 = {m: i for i, m in enumerate(cell2.basis)}
            for idx, p in piece.terms.items():
                vec2[pos2[idx]] = rp.sub(vec2[pos2[idx]], p)
        self.trace.append(CorrectionStep(
            weight=w, cell=key, via_cell=src_key, killed=killed,
            solved=solved))

    def part_form(self, w: int) -> Form:
        cell = self.page1.page0.cells.get((self.degree, w - self.degree))
        out = form_zero(self.model.nvars, self.degree, self.model.basis_tag)
        vec = self.parts.get(w)
        if cell is not None and vec is not None:
            for i, p in enumerate(vec):
                if p:
                    out.add_term(cell.basis[i], p)
        return out

    def remaining_form(self, min_w: int) -> Form:
        out = form_zero(self.model.nvars, self.degree,
                        self.model.basis_tag)
        for w in sorted(self.parts):
            if w < min_w:
                continue
            piece = self.part_form(w)
            for idx, p in piece.terms.items():
                out.add_term(idx, p)
        return out


# #### operator handles ####################################################

# (target slot t, x exponent b, numerator): the term num/den x^b d^alpha
NormalTerm = Tuple[int, rp.Exponent, int]


class NormalForm:
    """A linear differential operator as sum_alpha c_alpha(x) d^alpha.

    slots[s] = (den, groups) for source slot s, where den is the common
    denominator of the slot's coefficients and groups lists (alpha, terms),
    one entry per derivative multi-index alpha with a nonzero coefficient:
    u in slot s goes to the sum of num/den x^b d^alpha u over the terms
    (t, b, num), each into target slot t.  targets is the number of target
    slots.
    """

    def __init__(self, targets: int,
                 slots: List[Tuple[int, List[Tuple[rp.Exponent,
                                                   List[NormalTerm]]]]]):
        self.targets = targets
        self.slots = slots

    @property
    def order(self) -> int:
        """The largest |alpha| with a nonzero coefficient (0 if none)."""
        return max((sum(alpha) for _, groups in self.slots
                    for alpha, _ in groups), default=0)


def _normal_slot(jets: rp.Jets, image: PolyVec, shared: Dict[tuple, tuple]):
    """One source slot of a NormalForm from the jets image[t] in each
    target slot t.  shared interns tuples: most terms of a compiled
    operator repeat, and sharing them keeps it small."""
    den = 1
    groups: Dict[rp.Exponent, List[Tuple[int, rp.Exponent, Fraction]]] = {}
    for t, p in enumerate(image):
        for alpha, c_alpha in jets.split(p).items():
            for b, c in c_alpha.items():
                groups.setdefault(alpha, []).append((t, b, c))
                den = lcm(den, c.denominator)

    def intern(x: tuple) -> tuple:
        return shared.setdefault(x, x)
    return den, [(intern(alpha),
                  [intern((t, intern(b), c.numerator * (den // c.denominator)))
                   for t, b, c in sorted(terms)])
                 for alpha, terms in sorted(groups.items())]


class OperatorHandle:
    """A derived operator with its trace and its normal form."""

    def __init__(self, source: Node, target: Node):
        self.source = source
        self.target = target
        self.trace: List[CorrectionStep] = []
        self._normal_form: Optional[NormalForm] = None

    def apply(self, coeffs: Sequence[rp.Poly], record_trace: bool = False,
              jets: Optional[rp.Jets] = None) -> PolyVec:
        """The image of a section; with jets, coeffs are jets in it."""
        raise NotImplementedError

    def normal_form(self) -> NormalForm:
        """Compiled on first use: apply once per source slot on a jet."""
        if self._normal_form is None:
            jets = rp.Jets(self.source.forms[0].nvars)
            shared: Dict[tuple, tuple] = {}
            slots = []
            for slot in range(self.source.rank):
                coeffs: PolyVec = [{} for _ in range(self.source.rank)]
                coeffs[slot] = jets.unknown
                slots.append(_normal_slot(jets, self.apply(coeffs, jets=jets),
                                          shared))
            self._normal_form = NormalForm(self.target.rank, slots)
        return self._normal_form

    @property
    def order(self) -> int:
        return self.normal_form().order


class GradedOperator(OperatorHandle):
    """Class-to-class operator via lift, correction, and cell projection."""

    def __init__(self, model: GeometryModel, page1: Page1,
                 source: Node, target: Node):
        super().__init__(source, target)
        self.model = model
        self.page1 = page1
        if not target.cells:
            raise ValueError("graded operator needs a graded target node")
        self.target_cells = {key: (lo, hi) for key, lo, hi in target.cells}
        self.max_weight = max(self.page1.page0.cells[k].weight
                              for k in self.target_cells)

    def apply(self, coeffs: Sequence[rp.Poly],
              record_trace: bool = False,
              lift_extra: Optional[Form] = None,
              jets: Optional[rp.Jets] = None) -> PolyVec:
        lift = realize(self.source, coeffs)
        if lift_extra is not None:
            if lift_extra.degree != lift.degree \
                    or lift_extra.basis != lift.basis:
                raise ValueError("lift perturbation must match the lift")
            for idx, p in lift_extra.terms.items():
                lift.add_term(idx, p)
        run = _LcpRun(self.model, self.page1, lift, self.source.degree + 1,
                      jets)
        out: PolyVec = [{} for _ in range(self.target.rank)]
        zero = Fraction(0)
        min_w = min(self.source.weights) + 1 if self.source.weights else 1
        for w in range(min_w, self.max_weight + 1):
            key = (self.source.degree + 1, w - self.source.degree - 1)
            if key not in self.page1.page0.cells:
                continue
            run.correct_at(w)
            if key in self.target_cells:
                lo, hi = self.target_cells[key]
                data = self.page1.data[key]
                vec = run.parts.get(w)
                if vec is None:
                    continue
                monos = sorted({e for p in vec for e in p})
                for e in monos:
                    v = [p.get(e, zero) for p in vec]
                    cls = data.extract(v)
                    for j, c in enumerate(cls):
                        if c:
                            slot = out[lo + j]
                            cur = slot.get(e)
                            s = (cur + c) if cur is not None else c
                            if s:
                                slot[e] = s
                            else:
                                del slot[e]
        if record_trace:
            self.trace = run.trace
        return out


class DeepCorrectedOperator(OperatorHandle):
    """Correct everything below the target span; keep the honest form."""

    def __init__(self, model: GeometryModel, page1: Page1,
                 source: Node, target: Node):
        super().__init__(source, target)
        self.model = model
        self.page1 = page1
        self.span = SpanSolver(target.forms)
        support = set(self.span.pos)
        self.correct_weights: List[int] = []
        self.keep_min: Optional[int] = None
        degree = source.degree + 1
        for key, cell in sorted(page1.page0.cells.items(),
                                key=lambda kv: kv[1].weight):
            if key[0] != degree:
                continue
            inside = [m in support for m in cell.basis]
            if all(inside):
                if self.keep_min is None or cell.weight < self.keep_min:
                    self.keep_min = cell.weight
            elif any(inside):
                raise ValueError("target span splits a cell")
            else:
                self.correct_weights.append(cell.weight)
        if self.keep_min is None:
            raise ValueError("target span has no cells")
        self.correct_weights = [w for w in self.correct_weights
                                if w < self.keep_min]

    def apply(self, coeffs: Sequence[rp.Poly], record_trace: bool = False,
              jets: Optional[rp.Jets] = None) -> PolyVec:
        lift = realize(self.source, coeffs)
        run = _LcpRun(self.model, self.page1, lift, self.source.degree + 1,
                      jets)
        for w in self.correct_weights:
            run.correct_at(w)
            if any(p for p in run.parts.get(w, ())):
                raise ValueError("weight %d is not fully correctable" % w)
        remaining = run.remaining_form(self.keep_min)
        if record_trace:
            self.trace = run.trace
        return self.span.express(remaining)


class SpanDOperator(OperatorHandle):
    """Plain d between span nodes: the model's coframe d, or the exterior d
    of the flat coordinate forms when there is no model."""

    def __init__(self, model: Optional[GeometryModel], source: Node,
                 target: Node):
        super().__init__(source, target)
        self.model = model
        self.span = SpanSolver(target.forms)

    def apply(self, coeffs: Sequence[rp.Poly], record_trace: bool = False,
              jets: Optional[rp.Jets] = None) -> PolyVec:
        form = realize(self.source, coeffs)
        partials = _partials(jets)
        if self.model is None:
            return self.span.express(exterior_d(form, partials))
        return self.span.express(coframe_d(self.model, form, partials))


# #### symplectic replacement complex ######################################

class RsProjD(OperatorHandle):
    """d followed by the pointwise projection killing the J-trace."""

    def __init__(self, source: Node, target: Node, jform: Form,
                 jdual: Bivector, half_dim: int):
        super().__init__(source, target)
        self.span = SpanSolver(target.forms)
        self.jform = jform
        self.jdual = jdual
        self.half_dim = half_dim

    def apply(self, coeffs, record_trace=False, jets=None):
        beta = exterior_d(realize(self.source, coeffs), _partials(jets))
        trace = contract(beta, self.jdual)
        c = trace.terms.get((), {})
        corr = form_pmul(self.jform, rp.scale(c, Fraction(1, self.half_dim)))
        return self.span.express(form_sub(beta, corr))


class RsMiddle(OperatorHandle):
    """Second-order middle map: solve J ^ gamma = d beta, emit -d gamma."""

    def __init__(self, source: Node, target: Node, jform: Form, nvars: int):
        super().__init__(source, target)
        self.span = SpanSolver(target.forms)
        self.nvars = nvars
        self.jspan = SpanSolver([wedge(jform, one_form(nvars, i))
                                 for i in range(nvars)])

    def apply(self, coeffs, record_trace=False, jets=None):
        beta = realize(self.source, coeffs)
        x = self.jspan.express(exterior_d(beta, _partials(jets)))
        gamma = Form(self.nvars, 1, COORD)
        for i, p in enumerate(x):
            if p:
                gamma.add_term((i,), p)
        return self.span.express(form_scale(exterior_d(gamma, _partials(jets)),
                                            Fraction(-1)))


# #### complexes ###########################################################

@dataclass
class Resolution:
    name: str
    variant: str
    nodes: List[Node]
    operators: List[OperatorHandle]
    model: Optional[GeometryModel] = None
    nvars: int = 0
    coeff_weights: Tuple[int, ...] = ()

    def ranks(self) -> List[int]:
        return [n.rank for n in self.nodes]

    def orders(self) -> List[int]:
        """Exact operator orders, read off the normal forms."""
        return [h.order for h in self.operators]


def derive_operator(model: GeometryModel,
                    source: Union[int, CellKey, Sequence[CellKey]],
                    target: Union[None, CellKey, Sequence[CellKey]] = None,
                    page1: Optional[Page1] = None) -> OperatorHandle:
    """The derived operator leaving a cell (or a degree's survivors)."""
    page1 = page1 or Page1(model)
    if isinstance(source, int):
        src_cells = page1.surviving_cells(source)
        degree = source
    elif source and isinstance(source[0], int):
        src_cells = [source]  # type: ignore[list-item]
        degree = source[0]
    else:
        src_cells = list(source)  # type: ignore[arg-type]
        degree = src_cells[0][0]
    if target is None:
        tgt_cells = page1.surviving_cells(degree + 1)
    elif target and isinstance(target[0], int):
        tgt_cells = [target]  # type: ignore[list-item]
    else:
        tgt_cells = list(target)  # type: ignore[arg-type]
    src = graded_node(model, page1, degree, src_cells)
    tgt = graded_node(model, page1, degree + 1, tgt_cells)
    return GradedOperator(model, page1, src, tgt)


def named_complex(model: GeometryModel, variant: str = "bgg") -> Resolution:
    """Assemble a named resolution for a builtin model."""
    page1 = Page1(model)
    if variant == "bgg":
        top = max(p for (p, _) in page1.dims())
        nodes = [graded_node(model, page1, p) for p in range(top + 1)]
        ops: List[OperatorHandle] = [
            GradedOperator(model, page1, nodes[p], nodes[p + 1])
            for p in range(top)]
        return Resolution(name=model.name, variant=variant, nodes=nodes,
                          operators=ops, model=model, nvars=model.nvars,
                          coeff_weights=model.weights)
    if model.name == "g2_5" and variant in ("ambient", "basic"):
        return _g2_complex(model, page1, variant)
    raise KeyError("unknown complex variant %r for model %s"
                   % (variant, model.name))


def _g2_complex(model: GeometryModel, page1: Page1,
                variant: str) -> Resolution:
    n = model.nvars
    tag = model.basis_tag

    def cform(monos: Sequence[Tuple[Tuple[int, ...], int]],
              degree: int) -> Form:
        f = Form(n, degree, tag)
        for idx, c in monos:
            f.add_term(idx, rp.const(c, n))
        return f

    node0 = graded_node(model, page1, 0, label="functions")
    node1 = graded_node(model, page1, 1, label="horizontal1")
    if variant == "ambient":
        pairs = [(0, 3), (0, 4), (1, 3), (1, 4), (0, 2), (1, 2), (0, 1)]
        basis2 = [cform([(p, 1)], 2) for p in pairs]
        w2 = [model.weight_of(p) for p in pairs]
        node2 = Node("vertical_wedge_1forms", 2, basis2, w2)
    else:
        combos2: List[List[Tuple[Tuple[int, ...], int]]] = [
            [((0, 3), 1)], [((0, 4), 1), ((1, 3), 1)], [((1, 4), 1)],
            [((0, 2), 1)], [((1, 2), 1)], [((0, 1), 1)]]
        basis2 = [cform(c, 2) for c in combos2]
        w2 = [model.weight_of(c[0][0]) for c in combos2]
        node2 = Node("B2", 2, basis2, w2)
    if variant == "ambient":
        triples = sorted(combinations(range(n), 3))
        label3 = "all3forms"
    else:
        triples = [t for t in combinations(range(n), 3) if t != (2, 3, 4)]
        label3 = "B3"
    basis3 = [cform([(t, 1)], 3) for t in sorted(triples)]
    node3 = Node(label3, 3, basis3,
                 [model.weight_of(t) for t in sorted(triples)])
    quads = sorted(combinations(range(n), 4))
    node4 = Node("all4forms", 4, [cform([(qd, 1)], 4) for qd in quads],
                 [model.weight_of(qd) for qd in quads])
    node5 = Node("volume", 5, [cform([(tuple(range(n)), 1)], 5)],
                 [model.weight_of(tuple(range(n)))])
    nodes = [node0, node1, node2, node3, node4, node5]
    ops: List[OperatorHandle] = [
        GradedOperator(model, page1, node0, node1),
        DeepCorrectedOperator(model, page1, node1, node2),
        SpanDOperator(model, node2, node3),
        SpanDOperator(model, node3, node4),
        SpanDOperator(model, node4, node5),
    ]
    return Resolution(name=model.name, variant=variant, nodes=nodes,
                      operators=ops, model=model, nvars=n,
                      coeff_weights=model.weights)


def build_rs_complex(half_dim: int) -> Resolution:
    """The symplectic replacement complex on R^{2 half_dim}."""
    if half_dim != 2:
        raise ValueError("only the 4-dimensional case is built in")
    data = symplectic_data(half_dim)
    n = 2 * half_dim
    jform: Form = data["J"]
    jdual: Bivector = data["J_dual"]

    def cmono(idx: Tuple[int, ...], degree: int, c: int = 1) -> Form:
        f = Form(n, degree, COORD)
        f.add_term(idx, rp.const(c, n))
        return f

    node0 = Node("functions", 0, [cmono((), 0)], [0])
    node1 = Node("one_forms", 1, [cmono((i,), 1) for i in range(n)], [1] * n)
    perp: List[Form] = []
    for pair in sorted(combinations(range(n), 2)):
        f = cmono(pair, 2)
        tr = contract(f, jdual).terms.get((), {})
        if not tr:
            perp.append(f)
    mixed = form_sub(cmono((0, 1), 2), cmono((2, 3), 2))
    perp.append(mixed)
    node2 = Node("primitive2", 2, perp, [2] * len(perp))
    coef = [f.copy() for f in perp]
    node3 = Node("coeffective2", 2, coef, [4] * len(coef))
    node4 = Node("three_forms", 3,
                 [cmono(t, 3) for t in sorted(combinations(range(n), 3))],
                 [5] * 4)
    node5 = Node("volume", 4, [cmono(tuple(range(n)), 4)], [6])
    nodes = [node0, node1, node2, node3, node4, node5]
    ops: List[OperatorHandle] = [
        SpanDOperator(None, node0, node1),
        RsProjD(node1, node2, jform, jdual, half_dim),
        RsMiddle(node2, node3, jform, n),
        SpanDOperator(None, node3, node4),
        SpanDOperator(None, node4, node5),
    ]
    return Resolution(name="symplectic%d" % n, variant="rs", nodes=nodes,
                      operators=ops, model=None, nvars=n,
                      coeff_weights=(1,) * n)


# #### sections ############################################################

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
        """Parse a section; its coefficients must agree on nvars."""
        sel = obj["cell"] if "cell" in obj else obj["node"]
        declared = {int(t["nvars"]) for t in obj["coeffs"]}
        if len(declared) > 1:
            raise ValueError("coefficients disagree on nvars: %s"
                             % sorted(declared))
        return GradedSection(
            resolution=obj["model"], variant=obj.get("variant", "bgg"),
            node=int(sel),
            coeffs=[rp.poly_from_json(t) for t in obj["coeffs"]],
            nvars=declared.pop() if declared else None)


def random_section(node: Node, rng: random.Random,
                   max_degree: int = 3) -> PolyVec:
    nvars = node.forms[0].nvars
    return [rp.random_poly(rng, nvars, max_degree, terms=3)
            for _ in range(node.rank)]
