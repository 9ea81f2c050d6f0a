"""Exact linear algebra helpers.

Dense matrices are lists of row lists, and one exact elimination reduces
them: it takes int or Fraction entries and eliminates in ints while the
pivots are +-1.  rref returns its result over Fraction, for rank,
nullspace and inverse; integer_rref returns it as integer numerators over
one denominator, for the constant maps of the operator layer (the page
decompositions and operators.SpanSolver).  poly_matvec applies a constant
matrix to a vector of polynomials, the one such product of that layer.
Polynomial matrices (entries are Poly dicts) get fraction-free
determinants and adjugates.  A sparse elimination over a prime field
supports the rank certificates used by the exactness checker.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Collection, Dict, List, Sequence, Tuple

from . import ratpoly as rp

Matrix = List[List[Fraction]]
Vector = List[Fraction]

# Fractions are immutable, so one zero and one one serve every vector.
ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n: int) -> Matrix:
    return [unit_vector(i, n) for i in range(n)]


def transpose(m: Matrix) -> Matrix:
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def poly_matvec(m: Sequence[Sequence[Rational]],
                vec: Sequence[rp.Poly]) -> List[rp.Poly]:
    """The product of a constant matrix and a vector of polynomials.

    Entries of m and coefficients of vec may be ints or Fractions; int
    numerators times IntPolys give IntPolys.  The product is taken one
    x-monomial at a time, in sorted order, so each output polynomial has
    sorted monomials; a coefficient that sums to zero is not stored.
    """
    out: List[rp.Poly] = [{} for _ in m]
    for e in sorted({e for p in vec for e in p}):
        col = [(j, p[e]) for j, p in enumerate(vec) if e in p]
        for row, p in zip(m, out):
            # coefficient times entry, so a Fraction coefficient meets an
            # int entry on its own fast path; summing from the first
            # product saves adding 0
            terms = [x * row[j] for j, x in col if row[j]]
            if terms:
                c = sum(terms[1:], terms[0])
                if c:
                    p[e] = c
    return out


def _eliminate(m: Sequence[Sequence[Rational]]
               ) -> Tuple[List[List[Rational]], List[int]]:
    """Reduced row echelon form and its pivot columns, entries as they
    come out: ints and Fractions.

    Each elimination step touches only the nonzero entries of the pivot
    row; the page-0 matrices this serves are mostly zeros, with small
    integer entries and pivots +-1, so their arithmetic stays in ints.  A
    pivot of any other value divides its row into Fractions.  The reduced
    form is unique, so it is the same whatever the entry types.
    """
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[c]
        if pv == 1:
            nz = [(j, prow[j]) for j in range(c, ncols) if prow[j]]
        else:
            if pv == -1:
                nz = [(j, -prow[j]) for j in range(c, ncols) if prow[j]]
            else:
                pv = Fraction(pv)
                nz = [(j, prow[j] / pv) for j in range(c, ncols) if prow[j]]
            for j, x in nz:
                prow[j] = x
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if i != r and f:
                for j, y in nz:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref(m: Sequence[Sequence[Rational]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form over Fraction and its pivot columns; the
    entries of m may be ints or Fractions."""
    rows, pivots = _eliminate(m)
    # each distinct int becomes one Fraction; most are 0 and +-1
    fracs: Dict[int, Fraction] = {0: ZERO, 1: ONE}
    return [[x if type(x) is Fraction else fracs[x] if x in fracs
             else fracs.setdefault(x, Fraction(x)) for x in row]
            for row in rows], pivots


def integral(m: Sequence[Sequence[Rational]]) -> Tuple[int, List[List[int]]]:
    """(den, rows): m is rows / den, rows holding ints and den the lcm of
    m's denominators; a matrix of ints gives den 1 and its own entries."""
    den = lcm(*{x.denominator for row in m for x in row})
    return den, [[x.numerator * (den // x.denominator) for x in row]
                 for row in m]


def integer_rref(m: Sequence[Sequence[Rational]]
                 ) -> Tuple[int, List[List[int]], List[int]]:
    """(den, rows, pivots): rref(m) is rows / den, as integral gives it."""
    rows, pivots = _eliminate(m)
    return integral(rows) + (pivots,)


def rank(m: Matrix) -> int:
    if not m:
        return 0
    return len(rref(m)[1])


def nullspace(red: Matrix, pivots: Sequence[int],
              ncols: int) -> List[Vector]:
    """Basis of the right kernel, read off a matrix's rref (red, pivots).

    One vector per free column, in ascending order.
    """
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = unit_vector(f, ncols)
        for r, c in enumerate(pivots):
            x = red[r][f]
            if x:
                v[c] = -x
        basis.append(v)
    return basis


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    aug = [list(row) + unit for row, unit in zip(m, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def unit_vector(j: int, n: int) -> Vector:
    v = [ZERO] * n
    v[j] = ONE
    return v


def inertia(sym: Matrix) -> Tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric matrix.

    Exact, from the coefficients of det(x I - sym), which Faddeev-LeVerrier
    gives in Fractions: sym's eigenvalues are real, so Descartes' rule of
    signs counts them exactly.  The positive ones are the sign changes of
    p(x), the negative ones those of p(-x), and zero's multiplicity is the
    number of trailing zero coefficients.
    """
    n = len(sym)
    coeffs = [ONE]      # c_0, ..., c_n of x^n, ..., x^0
    prod = [[ZERO] * n for _ in range(n)]     # sym M_(k-1), M_0 = 0
    for k in range(1, n + 1):
        m = [[v + coeffs[-1] * (i == j) for j, v in enumerate(row)]
             for i, row in enumerate(prod)]
        prod = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)]
                for row in sym]
        coeffs.append(Fraction(-sum(prod[i][i] for i in range(n)), k))

    def changes(cs) -> int:
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    zero = n - max(k for k, c in enumerate(coeffs) if c)
    return (changes(coeffs),
            changes(c * (-1) ** k for k, c in enumerate(coeffs)), zero)


def poly_det_bareiss(m: List[List[rp.Poly]]) -> rp.Poly:
    """Fraction-free determinant of a polynomial matrix."""
    n = len(m)
    if n == 0:
        return {(): Fraction(1)}
    a = [[dict(e) for e in row] for row in m]
    sign = 1
    prev: rp.Poly = None  # type: ignore[assignment]
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return {}
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rp.sub(rp.mul(a[k][k], a[i][j]),
                             rp.mul(a[i][k], a[k][j]))
                a[i][j] = rp.pdiv_exact(num, prev) if prev is not None else num
            a[i][k] = {}
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return rp.scale(det, Fraction(sign))


def poly_adjugate(m: List[List[rp.Poly]]) -> List[List[rp.Poly]]:
    """Adjugate of a polynomial matrix: adj(m) @ m = det(m) * id."""
    n = len(m)
    out: List[List[rp.Poly]] = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            d = poly_det_bareiss(minor)
            out[j][i] = rp.scale(d, Fraction((-1) ** (i + j)))
    return out


def rank_mod_p(rows: List[Dict[int, int]], p: int,
               skip: Collection[int] = ()) -> List[int]:
    """Pivot rows of a sparse integer matrix modulo a prime, with the
    columns in skip left out: the indices of rows that are independent
    mod p, as many as the rank, in the order they were chosen.

    rows map column index to an integer, reduced mod p here.  Pivoting
    prefers short rows to keep fill-in down: the next pivot row is the
    shortest live row, ties going to the lowest row index.  A heap of
    (length, row index) entries serves that choice; an entry is pushed
    whenever a row changes length, and entries whose length no longer
    matches their row are skipped when popped, so each choice costs a
    logarithmic heap operation instead of a scan of all live rows.  Each
    popped row, reduced by the pivots before it, is nonzero and is zero
    at their pivot columns, so the chosen rows are independent.  Input
    rows are left unchanged.
    """
    live: Dict[int, Dict[int, int]] = {}
    col_index: Dict[int, set] = {}
    for ri, row in enumerate(rows):
        clean = {}
        for c, v in row.items():
            v %= p
            if v and c not in skip:
                clean[c] = v
                if c in col_index:
                    col_index[c].add(ri)
                else:
                    col_index[c] = {ri}
        if clean:
            live[ri] = clean
    queue = [(len(row), ri) for ri, row in live.items()]
    heapq.heapify(queue)
    pivots: List[int] = []
    while live:
        n, ri = heapq.heappop(queue)
        row = live.get(ri)
        if row is None or len(row) != n:
            continue
        del live[ri]
        for c in row:
            col_index[c].discard(ri)
        # pivot on the column with fewest other occupants; every one of
        # them loses it, and no row gains it again
        pc = min(row, key=lambda c: len(col_index[c]))
        inv = pow(row.pop(pc), p - 2, p)
        row = [(c, v * inv % p) for c, v in row.items()]
        pivots.append(ri)
        for rj in col_index.pop(pc):
            other = live[rj]
            before = len(other)
            f = other.pop(pc)
            for c, v in row:
                nv = (other.get(c, 0) - f * v) % p
                if nv:
                    if c not in other:
                        col_index[c].add(rj)
                    other[c] = nv
                elif c in other:
                    del other[c]
                    col_index[c].discard(rj)
            if not other:
                del live[rj]
            elif len(other) != before:
                heapq.heappush(queue, (len(other), rj))
    return pivots


def sparse_rank_exact(rows: List[Dict[int, Fraction]]) -> int:
    """Exact rank of a sparse Fraction matrix (row dicts)."""
    live = [dict(r) for r in rows if r]
    rank_count = 0
    while live:
        live.sort(key=len)
        row = live.pop(0)
        pc = min(row, key=lambda c: abs(row[c].numerator) + row[c].denominator)
        pv = row[pc]
        row = {c: v / pv for c, v in row.items()}
        rank_count += 1
        nxt = []
        for other in live:
            f = other.get(pc)
            if f:
                newr = dict(other)
                for c, v in row.items():
                    nv = newr.get(c, Fraction(0)) - f * v
                    if nv:
                        newr[c] = nv
                    else:
                        newr.pop(c, None)
                if newr:
                    nxt.append(newr)
            else:
                nxt.append(other)
        live = nxt
    return rank_count
