"""Weight bigrading of coframe monomials and the first two pages.

A cell (p, q) holds the degree-p coframe monomials of total index weight
p + q.  The page-0 differential is the weight-preserving part of d, which on
a weight-homogeneous model has constant coefficients.  It is read once per
model off the structure forms (e0_table): d of a unit monomial
differentiates no coefficient, and a derivative term never keeps the index
weight, so the weight-preserving terms omega_u ^ omega_v of each
d(omega_i) determine every cell's columns by Leibniz (e0_columns).
On every builtin those constants are small integers; the table and the
columns keep them as ints, so the page-1 eliminations below run in integer
arithmetic (see linalg.rref).  e0_apply stays on coframe_d as the
independent definition.

Page 1 derives one exact decomposition per cell on the cell's first read
(Page1.cell_data), R^dim = im(E0_in) + span(reps) + span(units at the
outgoing pivots P), with basis matrix S = [bcols | reps | units], and
keeps rows 0:rank_in + dim1 of S^-1, as integer numerators over one
denominator.  One rref of [B_N | I_N], B_N the incoming columns on the
free coordinates N, gives the reps and those rows together:
- the outgoing kernel basis is the identity on N, so restricting to N is
  injective on the kernel;
- e0 o e0 = 0 puts bcols in the kernel, so that rref picks the reps the
  greedy choice over the whole cell picks, and its I_N block is the inverse
  of M = S[N, :rank_in + dim1];
- the rows of S^-1 at P are never read, and the kept ones are M^-1 on N and
  zero on P, since the units vanish off P.
CellData keeps only that data, its ranks being lengths; CellData.extract
applies the class rows of S^-1 to a polynomial vector, once per cell.  The
rows come from linalg.integer_rref, so they are ints from the elimination
itself: the denominator is 1 on every cell of the builtins but one cell of
elliptic7 and hyperbolic7, where it is 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from numbers import Rational
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg, ratpoly as rp
from .forms import Form, sort_sign
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

    def dims(self) -> Dict[CellKey, int]:
        return {k: c.dim for k, c in sorted(self.cells.items())}


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


E0Table = List[List[Tuple[int, int, Rational]]]
Column = List[Rational]


def e0_table(model: GeometryModel) -> E0Table:
    """The page-0 part of each d(omega_i): its terms (u, v, c), meaning
    c omega_u ^ omega_v, with w_u + w_v = w_i.

    Each must be constant, which weight homogeneity guarantees; a
    nonconstant one would also be an entry of omega_i's degree-1 column.
    An integral c is kept as an int.
    """
    table: E0Table = []
    for i, dform in enumerate(model.structure_forms()):
        row = []
        for (u, v), poly in dform.terms.items():
            if model.weights[u] + model.weights[v] != model.weights[i]:
                continue
            if not rp.is_constant(poly):
                raise ValueError(
                    "page-0 differential has a nonconstant entry; "
                    "the model is not weight homogeneous")
            c = rp.constant_value(poly)
            row.append((u, v, c.numerator if c.denominator == 1 else c))
        table.append(row)
    return table


def e0_columns(page: Page0, table: E0Table,
               src: CellKey) -> Tuple[Optional[CellKey], List[Column]]:
    """Matrix columns of the page-0 differential leaving a cell.

    Returns the target key and one column per source basis monomial, as
    coordinates in the target cell basis: d of the unit monomial by
    Leibniz, each d(omega_mono[k]) taken from the table.  The columns
    hold ints where the table does.
    """
    cell = page.cells[src]
    p, q = src
    tgt = (p + 1, q - 1)
    target = page.cells.get(tgt)
    if target is None:
        return None, [[] for _ in cell.basis]
    pos = {idx: i for i, idx in enumerate(target.basis)}
    cols: List[Column] = []
    for mono in cell.basis:
        col = [0] * target.dim
        for k, ik in enumerate(mono):
            for u, v, c in table[ik]:
                idx, sign = sort_sign(mono[:k] + (u, v) + mono[k + 1:])
                if idx is not None:
                    col[pos[idx]] += -sign * c if k % 2 else sign * c
        cols.append(col)
    return tgt, cols


@dataclass
class CellData:
    """One cell's page-0 maps and its page-1 decomposition.

    The cell splits as R^dim = im(E0_in) + span(reps) + span(e_c for c in
    out_pivots): the image of the incoming page-0 map, the chosen class
    representatives, and the unit vectors at the pivot columns of the
    outgoing map, which complement its kernel.  S = [bcols | reps | units]
    is the basis matrix of that splitting.  sinv holds rows
    0:rank_in + dim1 of S^-1, the coordinates along bcols and reps, as
    integer numerators over den: S^-1 = sinv / den on those rows.  They
    vanish on the out_pivots coordinates.  One rref on the free
    coordinates gives them (see the module docstring): the outgoing kernel
    basis is the identity there, e0 o e0 = 0 puts bcols in that kernel,
    and the rows for the units are never read.

    bcols are the incoming columns at the source cell's out_pivots (the
    source's out_cols), so the image block of sinv expresses a vector of
    the image in the source's pivot coordinates; operator corrections take
    their preimages there, in the complement of the source kernel.  That
    consistency between corrections and class extraction is what makes
    derived operators compose to zero on the nose instead of up to
    lower-order junk.  bcols define S, so sinv, and rank_in; a correction
    does not read them, as it subtracts all of d of its preimage, whose
    weight-preserving part is the image it solved for (operators._LcpRun).

    extract applies rows rank_in:rank_in + dim1 of sinv: the projection
    onto span(reps) along the other two summands, times den.  It depends
    only on the three subspaces, so any basis of the image gives the same
    classes.  The sweep (operators._LcpRun) applies sinv to integer
    numerators and folds den into its own denominator.
    """
    cell: Cell
    reps: List[linalg.Vector]           # class representatives, cell coords
    source_cell: Optional[CellKey]      # cell the incoming differential leaves
    out_pivots: List[int]               # pivot columns of the outgoing map
    out_cols: List[Column]              # outgoing columns at out_pivots
    bcols: List[Column]                 # incoming columns at source pivots
    sinv: List[List[int]]               # den * rows 0:rank_in + dim1 of S^-1
    den: int                            # sinv's denominator

    @property
    def rank_in(self) -> int:
        return len(self.bcols)

    @property
    def rank_out(self) -> int:
        return len(self.out_pivots)

    @property
    def dim1(self) -> int:
        return len(self.reps)

    def extract(self, vec: Sequence[rp.Poly]) -> List[rp.Poly]:
        """The class coordinates of a vector of polynomials in cell
        coordinates, its coefficients along the reps, times den."""
        return linalg.poly_matvec(self.sinv[self.rank_in:], vec)


class Page1:
    """Kernels, images, survivors, and projections of the page-0 complex.

    Each cell's decomposition is derived on the cell's first read
    (cell_data) and kept, so a request, reading its model's one page
    (GeometryModel.page1), derives each cell it reads once.  It
    comes from two rrefs: one of the outgoing map, for its pivots and
    kernel, and one of [B_N | I_N], which pivots first on every B column,
    then on the reps in kernel order, and whose I_N block, placed on the
    free columns N, is sinv (see the module docstring).  B is the source
    cell's out_cols; when the source is not derived yet, its columns and
    one rref for their pivots give B, so no cell derives another.
    """

    def __init__(self, model: GeometryModel):
        self.page0 = Page0(model)
        self.table = e0_table(model)
        self.data: Dict[CellKey, CellData] = {}

    def cell_data(self, key: CellKey) -> CellData:
        """The decomposition of one cell, derived on first read."""
        data = self.data.get(key)
        if data is None:
            data = self.data[key] = self._derive(key)
        return data

    def _derive(self, key: CellKey) -> CellData:
        cell = self.page0.cells[key]
        p, q = key
        dim = cell.dim
        tgt, cols = e0_columns(self.page0, self.table, key)
        red, pivots = (linalg.rref(linalg.transpose(cols))
                       if tgt is not None else ([], []))
        src: Optional[CellKey] = (p - 1, q + 1)
        if src in self.data:
            bcols = self.data[src].out_cols
        elif src in self.page0.cells:
            scols = e0_columns(self.page0, self.table, src)[1]
            bcols = [scols[j] for j in linalg.rref(linalg.transpose(scols))[1]]
        else:
            src, bcols = None, []
        rank_in = len(bcols)
        pivot_set = set(pivots)
        free = [c for c in range(dim) if c not in pivot_set]
        nfree = len(free)
        rows = []
        for a, f in enumerate(free):
            row = [b[f] for b in bcols] + [0] * nfree
            row[rank_in + a] = 1
            rows.append(row)
        den, ech, chosen = linalg.integer_rref(rows)
        if chosen[:rank_in] != list(range(rank_in)):
            raise AssertionError("incoming image is not independent "
                                 "on the free coordinates")
        kernel = linalg.nullspace(red, pivots, dim)
        reps = [kernel[j - rank_in] for j in chosen[rank_in:]]
        sinv = []
        for row in ech:
            full = [0] * dim
            for a, f in enumerate(free):
                full[f] = row[rank_in + a]
            sinv.append(full)
        return CellData(cell=cell, reps=reps, source_cell=src,
                        out_pivots=pivots, out_cols=[cols[j] for j in pivots],
                        bcols=bcols, sinv=sinv, den=den)

    def dims(self) -> Dict[CellKey, int]:
        out = {k: self.cell_data(k).dim1 for k in sorted(self.page0.cells)}
        return {k: d for k, d in out.items() if d}

    def ladder(self) -> List[int]:
        out: Dict[int, int] = {}
        for key in self.page0.cells:
            out[key[0]] = out.get(key[0], 0) + self.cell_data(key).dim1
        top = max(out) if out else 0
        return [out.get(p, 0) for p in range(top + 1)]

    def surviving_cells(self, degree: int) -> List[CellKey]:
        keys = [k for k in self.page0.cells
                if k[0] == degree and self.cell_data(k).dim1 > 0]
        return sorted(keys, key=lambda k: k[1])


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
