"""Graded pages: cell tables, frozen page-1 goldens, bundle-map checks."""

import math
import random

import pytest

from coframes import ratpoly as rp
from coframes.forms import exterior_d, form_zero
from coframes.models import builtin_model, change_rows
from coframes.pages import (Page0, Page1, check_function_linear, e0_apply,
                            e0_columns, e0_table)
from coframes.verify import cross_check_dims, schur_dim

from conftest import model, page1, random_unipotent

# Page-1 ladders across all builtin models.  The first three are the
# published tables; the rest were computed once by this engine and frozen.
LADDERS = {
    "contact5": [1, 4, 5, 5, 4, 1],
    "engel4": [1, 2, 2, 2, 1],
    "g2_5": [1, 2, 3, 3, 2, 1],
    "dist3in6": [1, 3, 8, 12, 8, 3, 1],
    "dl_5": [1, 3, 6, 6, 3, 1],
    "elliptic7": [1, 4, 11, 14, 14, 11, 4, 1],
    "hyperbolic7": [1, 4, 11, 14, 14, 11, 4, 1],
}

E1_CELLS = {
    "contact5": {(0, 0): 1, (1, 0): 4, (2, 0): 5,
                 (3, 1): 5, (4, 1): 4, (5, 1): 1},
    "engel4": {(0, 0): 1, (1, 0): 2, (2, 1): 1,
               (2, 2): 1, (3, 3): 2, (4, 3): 1},
    "g2_5": {(0, 0): 1, (1, 0): 2, (2, 2): 3,
             (3, 3): 3, (4, 5): 2, (5, 5): 1},
}


def test_page0_column_sums_binomial(each_model):
    m = each_model
    page = Page0(m)
    totals = {}
    for (p, _), dim in page.dims().items():
        totals[p] = totals.get(p, 0) + dim
    for p, total in totals.items():
        assert total == math.comb(m.nvars, p)


def test_page1_ladders_frozen(each_model):
    assert page1(each_model.name).ladder() == LADDERS[each_model.name]


@pytest.mark.parametrize("name", sorted(E1_CELLS))
def test_page1_cells_match_published_grids(name):
    dims = {k: v for k, v in page1(name).dims().items() if v}
    assert dims == E1_CELLS[name]


def test_page1_dims_cross_checked_against_schur():
    for name in ("g2_5", "dist3in6"):
        rep = cross_check_dims(model(name))
        assert rep.ok
        assert rep.palindrome_ok


def test_schur_dim_formulas():
    assert schur_dim((0, 0)) == 1
    assert schur_dim((4, 5)) == 2
    assert schur_dim((1, 3)) == 3
    assert schur_dim((0, 0, 0)) == 1
    assert schur_dim((0, 1, 2)) == 8
    assert schur_dim((1, 2, 3)) == 8
    assert schur_dim((1, 1, 3)) == 6
    assert schur_dim((0, 0, 0, 1)) == 4
    assert schur_dim((0, 0, 1, 1)) == 6
    with pytest.raises(ValueError):
        schur_dim((2, 1))


def test_e0_is_function_linear(each_model):
    m = each_model
    secs = []
    for i in range(m.nvars):
        f = form_zero(m.nvars, 1, m.basis_tag)
        f.add_term((i,), rp.const(1, m.nvars))
        secs.append(f)
    mults = [rp.var(0, m.nvars), rp.var(m.nvars - 1, m.nvars)]
    ok, failures = check_function_linear(
        lambda a: e0_apply(m, a), secs, mults)
    assert ok, failures


def test_exterior_d_on_functions_fails_linearity():
    m = model("engel4")
    const = form_zero(m.nvars, 0, "coordinate")
    const.add_term((), rp.const(1, m.nvars))
    ok, failures = check_function_linear(
        exterior_d, [const], [rp.var(0, m.nvars)])
    assert not ok
    assert failures


def test_e0_squares_to_zero(each_model):
    m = each_model
    rng = random.Random(9)
    for _ in range(5):
        f = form_zero(m.nvars, 1, m.basis_tag)
        for i in range(m.nvars):
            f.add_term((i,), rp.random_poly(rng, m.nvars, 2, terms=2))
        assert e0_apply(m, e0_apply(m, f)).is_zero()


def test_surviving_cells_weights_are_distinct_per_degree(each_model):
    pg = page1(each_model.name)
    for deg in range(each_model.nvars + 1):
        cells = pg.surviving_cells(deg)
        assert len(cells) == len(set(cells))
        for (p, q) in cells:
            assert p == deg


def _reference_columns(m, page0, key):
    """The page-0 map leaving a cell, independently of pages.e0_columns:
    the target key and the target-cell coordinates of e0_apply, which runs
    coframe_d, on each unit monomial of the cell."""
    from fractions import Fraction
    cell = page0.cells[key]
    tgt = (key[0] + 1, key[1] - 1)
    target = page0.cells.get(tgt)
    if target is None:
        return None, [[] for _ in cell.basis]
    cols = []
    for mono in cell.basis:
        f = form_zero(m.nvars, key[0], m.basis_tag)
        f.add_term(mono, rp.const(1, m.nvars))
        image = e0_apply(m, f)
        col = [Fraction(0)] * target.dim
        for idx, poly in image.terms.items():
            col[target.basis.index(idx)] = rp.constant_value(poly)
        cols.append(col)
    return tgt, cols


def test_e0_columns_match_e0_apply(each_model):
    """On each builtin, and on a constant filtration-preserving row change
    of it, whose structure forms also have terms above the index weight."""
    changed = change_rows(
        each_model, random_unipotent(each_model, random.Random(5)),
        each_model.name + "_changed")
    for m in (each_model, changed):
        page0 = Page0(m)
        table = e0_table(m)
        for key in page0.cells:
            assert e0_columns(page0, table, key) == \
                _reference_columns(m, page0, key), (m.name, key)


def test_a_model_and_its_page_form_no_cycle():
    """The model keeps its page and the page keeps no reference back, so
    the last reference to a model frees both without the cycle collector."""
    import gc
    import weakref
    gc.disable()
    try:
        m = builtin_model("engel4")
        m.page1().ladder()
        refs = [weakref.ref(m), weakref.ref(m.page1())]
        del m
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_page1_rejects_a_model_that_is_not_weight_homogeneous():
    from coframes.models import GeometryModel
    n = 3
    one = rp.const(1, n)
    # omega_0 = dx_0 + x_1^2 dx_2: d(omega_0) = 2 x_1 omega_1 ^ omega_2 keeps
    # the weight of omega_0 with a nonconstant coefficient
    coframe = [[one, {}, rp.mul(rp.var(1, n), rp.var(1, n))],
               [{}, one, {}], [{}, {}, one]]
    m = GeometryModel("nonhomogeneous3", n, (2, 1, 1), coframe)
    with pytest.raises(ValueError, match="not weight homogeneous"):
        Page1(m)


def _reference_cell(m, pg, key):
    """A cell's page-1 data derived the slow, independent way: page-0
    columns from e0_apply, an echelon of the whole incoming image, greedy
    reps kept when a rank test puts them outside the span found so far,
    and the inverse of [echelon | reps | units].  Every elimination is the
    test-local _dense_rref."""
    from fractions import Fraction
    from coframes import linalg
    page0 = pg.page0
    cell = page0.cells[key]
    dim = cell.dim
    p, q = key
    src = (p - 1, q + 1)
    in_cols, source_cell = [], None
    if src in page0.cells:
        tgt, cols = _reference_columns(m, page0, src)
        if tgt == key:
            in_cols, source_cell = cols, src
    red, pivots = _dense_rref(in_cols)
    ech = red[:len(pivots)]
    tgt, out_cols = _reference_columns(m, page0, key)
    out_rows = ([[out_cols[j][r] for j in range(dim)]
                 for r in range(len(out_cols[0]))]
                if tgt is not None and dim and out_cols[0] else [])
    if out_rows:
        red, pivots = _dense_rref(out_rows)
        kernel = linalg.nullspace(red, pivots, dim)
    else:
        pivots = []
        kernel = [linalg.unit_vector(j, dim) for j in range(dim)]
    reps = []
    for v in kernel:
        if len(_dense_rref(ech + reps + [v])[1]) > len(ech) + len(reps):
            reps.append(v)
    cols = ech + reps + [linalg.unit_vector(c, dim) for c in pivots]
    sinv = linalg.inverse([[c[r] for c in cols] for r in range(dim)])
    lo, hi = len(ech), len(ech) + len(reps)
    extract = [[sum((row[r] * u[r] for r in range(dim)), Fraction(0))
                for row in sinv[lo:hi]]
               for u in (linalg.unit_vector(j, dim) for j in range(dim))]
    return dict(rank_in=len(ech), rank_out=len(pivots),
                dim1=dim - len(pivots) - len(ech), reps=reps,
                source_cell=source_cell, extract=extract)


def test_page1_matches_reference(each_model):
    from fractions import Fraction
    from coframes import linalg
    pg = Page1(each_model)
    checked = 0
    for key in pg.page0.cells:
        data = pg.cell_data(key)
        dim = data.cell.dim
        ref = _reference_cell(each_model, pg, key)
        assert data.rank_in == ref["rank_in"], key
        assert data.rank_out == ref["rank_out"], key
        assert data.dim1 == ref["dim1"], key
        assert data.reps == ref["reps"], key
        assert all(type(x) is Fraction for v in data.reps for x in v), key
        # sinv is integer numerators over one denominator, of the rows
        # of S^-1 that the cell keeps, S = [bcols | reps | out units]
        assert type(data.den) is int and data.den >= 1, key
        assert all(type(x) is int for v in data.sinv for x in v), key
        s_cols = data.bcols + ref["reps"] + \
            [linalg.unit_vector(c, dim) for c in data.out_pivots]
        ref_sinv = linalg.inverse([[c[r] for c in s_cols]
                                   for r in range(dim)])
        assert [[Fraction(x, data.den) for x in row] for row in data.sinv] \
            == ref_sinv[:data.rank_in + data.dim1], key
        assert data.source_cell == ref["source_cell"], key
        n = each_model.nvars
        units = [[rp.const(int(i == j), n) for i in range(dim)]
                 for j in range(dim)]
        assert [data.extract(u) for u in units] == \
            [[rp.const(c, n) for c in row] for row in ref["extract"]], key
        if data.rank_in:
            cols = data.bcols + data.reps + \
                [linalg.unit_vector(c, dim) for c in data.out_pivots]
            kept = data.rank_in + data.dim1
            assert len(data.sinv) == kept, key
            assert [_matvec(cols, row) for row in data.sinv] == \
                [[data.den * x for x in row]
                 for row in linalg.identity(dim)[:kept]], key
        checked += 1
    assert checked == len(pg.page0.cells)


def _matvec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def test_poly_matvec_matches_numeric_product_per_monomial():
    from fractions import Fraction
    from coframes import linalg
    rng = random.Random(22)
    for trial in range(40):
        nrows, ncols, nvars = rng.randint(1, 6), rng.randint(1, 6), 3
        m = [[rng.choice((0, 0, 1, -1, 2)) if trial % 2 else
              Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(ncols)] for _ in range(nrows)]
        vec = [rp.random_poly(rng, nvars, 2, terms=3) if rng.random() < 0.8
               else {} for _ in range(ncols)]
        # a row that cancels on a shared monomial
        e = (1, 0, 0)
        if ncols >= 2 and nrows >= 2:
            m[-1] = [1, 1] + [0] * (ncols - 2)
            vec[0] = {**vec[0], e: Fraction(3)}
            vec[1] = {**vec[1], e: Fraction(-3)}
        out = linalg.poly_matvec(m, vec)
        assert len(out) == nrows, trial
        monos = sorted({x for p in vec for x in p})
        want = [{} for _ in range(nrows)]
        for x in monos:
            for i, c in enumerate(_matvec(m, [p.get(x, 0) for p in vec])):
                if c:
                    want[i][x] = c
        assert out == want, trial
        for p in out:
            assert list(p) == sorted(p) and all(p.values()), trial
        if ncols >= 2 and nrows >= 2:
            assert e not in out[-1], trial


def _dense_rref(m):
    """Textbook Gauss-Jordan over Fraction, whole rows at a time."""
    from fractions import Fraction
    rows = [[Fraction(x) for x in r] for r in m]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                rows[i] = [x - rows[i][c] * y
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def test_rref_matches_dense_reference():
    from fractions import Fraction
    from coframes import linalg
    rng = random.Random(20)
    for trial in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
              if rng.random() < 0.4 else Fraction(0)
              for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 2:
            m[rng.randrange(nrows)] = [Fraction(0)] * ncols
            a, b = rng.sample(range(nrows), 2)
            k = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            m[a] = [x + k * y for x, y in zip(m[a], m[b])]
        red, pivots = linalg.rref(m)
        assert (red, pivots) == _dense_rref(m), trial
        for v in linalg.nullspace(red, pivots, ncols):
            assert _matvec(m, v) == [0] * nrows
        assert len(linalg.nullspace(red, pivots, ncols)) == \
            ncols - len(pivots)


def test_rref_of_integer_entries_matches_dense_reference():
    """Int and mixed int/Fraction input, with non-unit pivots and dependent
    rows, reduces to the same Fractions as the reference."""
    from fractions import Fraction
    from coframes import linalg
    rng = random.Random(21)
    for trial in range(80):
        nrows, ncols = rng.randint(2, 7), rng.randint(2, 8)
        m = [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3)) for _ in range(ncols)]
             for _ in range(nrows)]
        m[0][0] = rng.choice((2, -2, 3))
        a = rng.randrange(1, nrows)
        b = rng.choice([i for i in range(nrows) if i != a])
        k = rng.choice((-2, 1, 3))
        m[a] = [k * y for y in m[b]]
        if trial % 2:
            c = rng.randrange(1, nrows)
            m[c] = [Fraction(x, 2) for x in m[c]]
            m = [[Fraction(x) if rng.random() < 0.3 else x for x in row]
                 for row in m]
        red, pivots = linalg.rref(m)
        assert (red, pivots) == _dense_rref(m), trial
        assert len(pivots) < nrows, trial
        assert all(type(x) is Fraction for row in red for x in row), trial
        for v in linalg.nullspace(red, pivots, ncols):
            assert _matvec(m, v) == [0] * nrows
