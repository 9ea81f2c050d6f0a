"""Exact linear algebra helpers.

Dense matrices over Fraction are lists of row lists.  Polynomial matrices
(entries are Poly dicts) get fraction-free determinants and adjugates.  A
sparse elimination over a prime field supports the rank certificates used by
the exactness checker.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import ratpoly as rp

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def identity(n: int) -> Matrix:
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def transpose(m: Matrix) -> Matrix:
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def matvec(m: Matrix, v: Sequence[Fraction]) -> Vector:
    nz = [(j, x) for j, x in enumerate(v) if x]
    zero = Fraction(0)
    return [sum((r[j] * x for j, x in nz if r[j]), zero) for r in m]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0))
             for col in bt] for row in a]


def rref(m: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and its pivot columns.

    Each elimination step touches only the nonzero entries of the pivot
    row; the page-0 matrices this serves are mostly zeros.
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
        nz = [(j, prow[j] / pv if pv != 1 else prow[j])
              for j in range(c, ncols) if prow[j]]
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
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def solve(m: Matrix, rhs: Sequence[Fraction]) -> Optional[Vector]:
    """A particular solution of m x = rhs, or None if inconsistent."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    aug = [list(m[i]) + [Fraction(rhs[i])] for i in range(nrows)]
    red, pivots = rref(aug) if aug else ([], [])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    aug = [list(row) + unit for row, unit in zip(m, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def unit_vector(j: int, n: int) -> Vector:
    v = [Fraction(0)] * n
    v[j] = Fraction(1)
    return v


class ColumnSpaceSolver:
    """Reduction against the column space of a matrix, with preimages.

    Built from a list of columns.  reduce(y) returns (x, rest) with
    columns @ x = y - rest and rest supported away from the echelon pivot
    rows, so rest == 0 exactly when y lies in the column span.
    """

    def __init__(self, columns: List[Vector], nrows: int):
        self.nrows = nrows
        self.ncols = len(columns)
        self.pivot_rows: List[int] = []
        self._ech: List[Vector] = []     # echelon column vectors
        self._coef: List[Vector] = []    # expression in original columns
        for j, col in enumerate(columns):
            v = list(col)
            t = unit_vector(j, self.ncols)
            v, t = self._reduce_against(v, t)
            pr = next((i for i in range(nrows) if v[i]), None)
            if pr is None:
                continue
            pv = v[pr]
            v = [x / pv for x in v]
            t = [x / pv for x in t]
            self._ech.append(v)
            self._coef.append(t)
            self.pivot_rows.append(pr)

    def _reduce_against(self, v: Vector, t: Vector) -> Tuple[Vector, Vector]:
        for k, pr in enumerate(self.pivot_rows):
            f = v[pr]
            if f:
                ev, et = self._ech[k], self._coef[k]
                v = [a - f * b for a, b in zip(v, ev)]
                t = [a - f * b for a, b in zip(t, et)]
        return v, t

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, y: Sequence[Fraction]) -> Tuple[Vector, Vector]:
        v = list(y)
        x = [Fraction(0)] * self.ncols
        for k, pr in enumerate(self.pivot_rows):
            f = v[pr]
            if f:
                ev, et = self._ech[k], self._coef[k]
                v = [a - f * b for a, b in zip(v, ev)]
                x = [a + f * b for a, b in zip(x, et)]
        return x, v

    def contains(self, y: Sequence[Fraction]) -> bool:
        _, rest = self.reduce(y)
        return not any(rest)


def inertia(sym: Matrix) -> Tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric matrix.

    Congruence diagonalization over the rationals; exact.
    """
    a = [list(r) for r in sym]
    n = len(a)
    pos = neg = zero = 0
    idx = list(range(n))
    for step in range(n):
        k = None
        for i in range(step, n):
            if a[i][i]:
                k = i
                break
        if k is None:
            # look for an off-diagonal entry and fold it onto the diagonal
            found = None
            for i in range(step, n):
                for j in range(i + 1, n):
                    if a[i][j]:
                        found = (i, j)
                        break
                if found:
                    break
            if found is None:
                zero += n - step
                break
            i, j = found
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            k = i
        if k != step:
            a[step], a[k] = a[k], a[step]
            for r in range(n):
                a[r][step], a[r][k] = a[r][k], a[r][step]
        d = a[step][step]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(step + 1, n):
            f = a[i][step] / d
            if f:
                for c in range(n):
                    a[i][c] -= f * a[step][c]
                for r in range(n):
                    a[r][i] -= f * a[r][step]
    return pos, neg, zero


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


def rank_mod_p(rows: List[Dict[int, int]], p: int) -> int:
    """Rank of a sparse integer matrix modulo a prime.

    rows map column index to an integer, reduced mod p here.  Pivoting
    prefers short rows to keep fill-in down: the next pivot row is the
    shortest live row, ties going to the lowest row index.  A heap of
    (length, row index) entries serves that choice; an entry is pushed
    whenever a row changes length, and entries whose length no longer
    matches their row are skipped when popped, so each choice costs a
    logarithmic heap operation instead of a scan of all live rows.  Input
    rows are left unchanged.
    """
    live: Dict[int, Dict[int, int]] = {}
    col_index: Dict[int, set] = {}
    for ri, row in enumerate(rows):
        clean = {c: v % p for c, v in row.items() if v % p}
        if clean:
            live[ri] = clean
            for c in clean:
                col_index.setdefault(c, set()).add(ri)
    queue = [(len(row), ri) for ri, row in live.items()]
    heapq.heapify(queue)
    rank_count = 0
    while live:
        n, ri = heapq.heappop(queue)
        row = live.get(ri)
        if row is None or len(row) != n:
            continue
        del live[ri]
        for c in row:
            col_index[c].discard(ri)
        # pivot on the column with fewest other occupants
        pc = min(row, key=lambda c: len(col_index.get(c, ())))
        inv = pow(row[pc], p - 2, p)
        row = {c: (v * inv) % p for c, v in row.items()}
        rank_count += 1
        for rj in list(col_index.get(pc, ())):
            other = live[rj]
            f = other.get(pc, 0)
            if not f:
                continue
            before = len(other)
            for c, v in row.items():
                nv = (other.get(c, 0) - f * v) % p
                if nv:
                    if c not in other:
                        col_index.setdefault(c, set()).add(rj)
                    other[c] = nv
                elif c in other:
                    del other[c]
                    col_index[c].discard(rj)
            if not other:
                del live[rj]
            elif len(other) != before:
                heapq.heappush(queue, (len(other), rj))
    return rank_count


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
