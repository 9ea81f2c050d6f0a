"""Weight bigrading of coframe monomials and the first two pages.

A cell (p, q) holds the degree-p coframe monomials of total index weight
p + q.  The page-0 differential is the weight-preserving part of d, which on
a weight-homogeneous model has constant coefficients.  Page 1 derives one
exact decomposition per cell, R^dim = im(E0_in) + span(reps) + span(units
at the outgoing pivots), with the inverse of its basis matrix; class
extraction and the operator corrections both read that one decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg, ratpoly as rp
from .forms import Form, form_zero
from .models import GeometryModel, coframe_d, split_by_cell_weight

CellKey = Tuple[int, int]


@dataclass
class Cell:
    key: CellKey
    weight: int
    basis: List[Tuple[int, ...]]

    @property
    def dim(self) -> int:
        return len(self.basis)


class Page0:
    """All cells of a model, keyed by (degree, weight - degree)."""

    def __init__(self, model: GeometryModel):
        self.model = model
        self.cells: Dict[CellKey, Cell] = {}
        n = model.nvars
        for p in range(n + 1):
            buckets: Dict[int, List[Tuple[int, ...]]] = {}
            for combo in combinations(range(n), p):
                w = model.weight_of(combo)
                buckets.setdefault(w, []).append(combo)
            for w, basis in sorted(buckets.items()):
                key = (p, w - p)
                self.cells[key] = Cell(key=key, weight=w, basis=sorted(basis))

    def cell(self, key: CellKey) -> Optional[Cell]:
        return self.cells.get(key)

    def dims(self) -> Dict[CellKey, int]:
        return {k: c.dim for k, c in sorted(self.cells.items())}

    def degree_dims(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for (p, _), c in self.cells.items():
            out[p] = out.get(p, 0) + c.dim
        return out


def filtration_degree(model: GeometryModel, a: Form) -> Optional[int]:
    """Least total index weight among the terms; None for the zero form."""
    if a.basis != model.basis_tag:
        raise ValueError("filtration degree needs a coframe-basis form")
    if not a.terms:
        return None
    return min(model.weight_of(idx) for idx in a.terms)


def e0_apply(model: GeometryModel, a: Form) -> Form:
    """Weight-preserving part of d: each graded piece keeps its index weight."""
    out = Form(model.nvars, a.degree + 1, a.basis)
    for w, part in split_by_cell_weight(model, a).items():
        d = coframe_d(model, part)
        piece = split_by_cell_weight(model, d).get(w)
        if piece is not None:
            for idx, p in piece.terms.items():
                out.add_term(idx, p)
    return out


def e0_columns(model: GeometryModel, page: Page0,
               src: CellKey) -> Tuple[Optional[CellKey], List[linalg.Vector]]:
    """Matrix columns of the page-0 differential leaving a cell.

    Returns the target key and one column per source basis monomial, as
    coordinates in the target cell basis.  Requires constant entries, which
    weight homogeneity guarantees.
    """
    cell = page.cells[src]
    p, q = src
    tgt = (p + 1, q - 1)
    target = page.cells.get(tgt)
    if target is None:
        return None, [[] for _ in cell.basis]
    pos = {idx: i for i, idx in enumerate(target.basis)}
    cols: List[linalg.Vector] = []
    for mono in cell.basis:
        f = Form(model.nvars, p, model.basis_tag)
        f.add_term(mono, rp.const(1, model.nvars))
        d = coframe_d(model, f)
        piece = split_by_cell_weight(model, d).get(cell.weight)
        col = [Fraction(0)] * target.dim
        if piece is not None:
            for idx, poly in piece.terms.items():
                if not rp.is_constant(poly):
                    raise ValueError(
                        "page-0 differential has a nonconstant entry; "
                        "the model is not weight homogeneous")
                col[pos[idx]] = rp.constant_value(poly)
        cols.append(col)
    return tgt, cols


@dataclass
class CellData:
    """One cell's page-0 maps and its page-1 decomposition.

    The cell splits as R^dim = im(E0_in) + span(reps) + span(e_c for c in
    out_pivots): the image of the incoming page-0 map, the chosen class
    representatives, and the unit vectors at the pivot columns of the
    outgoing map, which complement its kernel.  S = [bcols | reps | units]
    is the basis matrix of that splitting and sinv its inverse, the one
    inverse each cell needs.

    bcols are the incoming columns at the source cell's out_pivots, so the
    image block of sinv expresses a vector of the image in the source's
    pivot coordinates; operator corrections take their preimages there,
    in the complement of the source kernel.  That consistency between
    corrections and class extraction is what makes derived operators
    compose to zero on the nose instead of up to lower-order junk.

    extract applies rows rank_in:rank_in + dim1 of sinv: the projection
    onto span(reps) along the other two summands.  It depends only on the
    three subspaces, so any basis of the image gives the same classes.
    """
    cell: Cell
    rank_in: int
    rank_out: int
    dim1: int
    reps: List[linalg.Vector]           # class representatives, cell coords
    extract: Callable[[Sequence[Fraction]], linalg.Vector]
    source_cell: Optional[CellKey]      # cell the incoming differential leaves
    out_pivots: List[int]               # pivot columns of the outgoing map
    bcols: List[linalg.Vector]          # incoming columns at source pivots
    sinv: linalg.Matrix                 # inverse of [bcols | reps | units]


class Page1:
    """Kernels, images, survivors, and projections of the page-0 complex.

    Each cell's decomposition is derived once, here: one rref of the
    outgoing map gives its pivots and kernel, representatives are picked
    greedily from that kernel basis, and one inverse gives both extract
    and the operator corrections.
    """

    def __init__(self, model: GeometryModel):
        self.model = model
        self.page0 = Page0(model)
        self.data: Dict[CellKey, CellData] = {}
        outgoing = {key: e0_columns(model, self.page0, key)
                    for key in self.page0.cells}
        pivots: Dict[CellKey, List[int]] = {}
        kernels: Dict[CellKey, List[linalg.Vector]] = {}
        for key, cell in self.page0.cells.items():
            tgt, cols = outgoing[key]
            red, piv = (linalg.rref(linalg.transpose(cols))
                        if tgt is not None and cols and cols[0] else ([], []))
            pivots[key] = piv
            kernels[key] = linalg.nullspace(red, piv, cell.dim)
        for key, cell in self.page0.cells.items():
            p, q = key
            dim = cell.dim
            src: Optional[CellKey] = (p - 1, q + 1)
            if outgoing.get(src, (None,))[0] == key:
                bcols = [list(outgoing[src][1][j]) for j in pivots[src]]
            else:
                src, bcols = None, []
            reps = _extend_greedily(bcols, kernels[key], dim)
            cols = bcols + reps + \
                [linalg.unit_vector(c, dim) for c in pivots[key]]
            if len(cols) != dim:
                raise AssertionError("cell decomposition is not square")
            sinv = linalg.inverse(linalg.transpose(cols))
            rank_in, rank_out = len(bcols), len(pivots[key])

            def make_extract(rows=sinv[rank_in:rank_in + len(reps)]):
                def extract(v: Sequence[Fraction]) -> linalg.Vector:
                    return linalg.matvec(rows, list(v))
                return extract

            self.data[key] = CellData(
                cell=cell, rank_in=rank_in, rank_out=rank_out,
                dim1=dim - rank_out - rank_in, reps=reps,
                extract=make_extract(), source_cell=src,
                out_pivots=pivots[key], bcols=bcols, sinv=sinv)
            if self.data[key].dim1 != len(reps):
                raise AssertionError("page-1 dimension bookkeeping is off")

    def dims(self) -> Dict[CellKey, int]:
        return {k: d.dim1 for k, d in sorted(self.data.items()) if d.dim1}

    def ladder(self) -> List[int]:
        out: Dict[int, int] = {}
        for (p, _), d in self.data.items():
            out[p] = out.get(p, 0) + d.dim1
        top = max(out) if out else 0
        return [out.get(p, 0) for p in range(top + 1)]

    def surviving_cells(self, degree: int) -> List[CellKey]:
        keys = [k for k, d in self.data.items()
                if k[0] == degree and d.dim1 > 0]
        return sorted(keys, key=lambda k: k[1])


def _extend_greedily(image: List[linalg.Vector],
                     candidates: List[linalg.Vector],
                     dim: int) -> List[linalg.Vector]:
    """The candidates, in order, that leave the span of image and of the
    candidates already taken.

    One incremental echelon basis, stored sparsely as (pivot row, nonzero
    entries), answers every membership test.
    """
    ech: List[Tuple[int, List[Tuple[int, Fraction]]]] = []

    def enters(v: linalg.Vector) -> bool:
        v = list(v)
        for pr, entries in ech:
            f = v[pr]
            if f:
                for i, x in entries:
                    v[i] -= f * x
        pr = next((i for i in range(dim) if v[i]), None)
        if pr is None:
            return False
        pv = v[pr]
        ech.append((pr, [(i, x / pv) for i, x in enumerate(v) if x]))
        return True

    for col in image:
        enters(col)
    return [v for v in candidates if enters(v)]


def check_function_linear(map_fn: Callable[[Form], Form],
                          sections: Sequence[Form],
                          multipliers: Sequence[rp.Poly]):
    """Does map(f * s) equal f * map(s) for the given sections and functions?

    Returns (ok, failures); each failure names the section index and the
    multiplier that broke linearity.  A genuine differential operator fails
    this, a bundle map passes.
    """
    from .forms import form_pmul, form_sub
    failures = []
    for si, s in enumerate(sections):
        base = map_fn(s)
        for mi, f in enumerate(multipliers):
            lhs = map_fn(form_pmul(s, f))
            rhs = form_pmul(base, f)
            if not form_sub(lhs, rhs).is_zero():
                failures.append({"section": si, "multiplier": mi})
    return not failures, failures
