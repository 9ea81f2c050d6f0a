"""Randomized invariants, driven by hypothesis with seeded generators.

Each property runs a couple hundred cases.  The generators stay small on
purpose: two-term coefficients and low polynomial degree keep a single
case in the millisecond range while still exercising every code path.
"""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

import coframes.ratpoly as rp
from coframes.forms import (change_basis, clear_denominators, exterior_d,
                            form_scale, form_sub, form_zero, wedge)
from coframes.models import builtin_model, change_rows
from coframes.operators import named_complex, random_section, realize
from coframes.pages import Page0

from conftest import model, random_unipotent

SMALL = ["engel4", "contact5", "dl_5", "g2_5"]
WIDE = SMALL + ["dist3in6"]

PROP = settings(max_examples=200, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def rand_form(rng, nvars, degree, terms=2, deg=2):
    f = form_zero(nvars, degree)
    idxs = list(itertools.combinations(range(nvars), degree))
    for _ in range(terms):
        idx = idxs[rng.randrange(len(idxs))]
        f.add_term(idx, rp.random_poly(rng, nvars, deg, terms=2))
    return f


@PROP
@given(st.integers(0, len(WIDE) - 1), st.integers(0, 10 ** 6))
def test_d_squared_zero(which, seed):
    m = model(WIDE[which])
    rng = random.Random(seed)
    p = rng.randrange(0, m.nvars - 1)
    a = rand_form(rng, m.nvars, p, deg=3)
    assert exterior_d(exterior_d(a)).is_zero()


@PROP
@given(st.integers(0, len(SMALL) - 1), st.integers(0, 10 ** 6))
def test_d_leibniz(which, seed):
    m = model(SMALL[which])
    rng = random.Random(seed)
    p = rng.randrange(0, m.nvars - 1)
    q = rng.randrange(0, m.nvars - p)
    a = rand_form(rng, m.nvars, p)
    b = rand_form(rng, m.nvars, q)
    lhs = exterior_d(wedge(a, b))
    rhs = form_sub(wedge(exterior_d(a), b),
                   form_scale(wedge(a, exterior_d(b)), (-1) ** (p + 1)))
    assert form_sub(lhs, rhs).is_zero()


@PROP
@given(st.integers(0, len(WIDE) - 1), st.integers(0, 10 ** 6))
def test_basis_round_trip(which, seed):
    m = model(WIDE[which])
    rng = random.Random(seed)
    p = rng.randrange(0, m.nvars + 1)
    a = rand_form(rng, m.nvars, p)
    back = change_basis(change_basis(a, m, "coframe"), m, "coordinate")
    assert form_sub(back, a).is_zero()


@PROP
@given(st.integers(0, len(SMALL) - 1), st.integers(0, 10 ** 6))
def test_cell_column_sums_binomial(which, seed):
    base = builtin_model(SMALL[which])
    rng = random.Random(seed)
    m = change_rows(base, random_unipotent(base, rng), "changed")
    page = Page0(m)
    totals = {}
    for (p, _), dim in page.dims().items():
        totals[p] = totals.get(p, 0) + dim
    for p, total in totals.items():
        assert total == math.comb(m.nvars, p)
    assert page.dims() == Page0(base).dims()


class _LiftSetup:
    handle = None
    deeper = None

    @classmethod
    def get(cls):
        if cls.handle is None:
            res = named_complex(builtin_model("engel4"), "bgg")
            h = res.operators[1]
            page0 = h.model.page1().page0
            cls.handle = h
            cls.deeper = [key for key, c in page0.cells.items()
                          if key[0] == h.source.degree
                          and c.weight > max(h.source.weights)
                          + h.source.degree]
        return cls.handle, cls.deeper


@PROP
@given(st.integers(0, 10 ** 6))
def test_lift_independence(seed):
    h, deeper = _LiftSetup.get()
    m = model("engel4")
    rng = random.Random(seed)
    coeffs = [rp.random_poly(rng, m.nvars, 2, terms=2)
              for _ in range(h.source.rank)]
    key = deeper[rng.randrange(len(deeper))]
    cell = h.model.page1().page0.cells[key]
    lift = realize(h.source, coeffs)
    lift.add_term(cell.basis[rng.randrange(len(cell.basis))],
                  rp.random_poly(rng, m.nvars, 2, terms=2))
    den, (lift,) = clear_denominators([lift])
    f, form = h.image(lift)
    assert [rp.over(p, den * f * d) for d, p in h.target.coordinates(form)
            ] == h.apply(coeffs)


LINEAR = [("contact5", "bgg"), ("g2_5", "bgg"), ("g2_5", "ambient"),
          ("elliptic7", "bgg")]
_LINEAR_COMPLEXES = {}


def _linear_complex(which):
    if which not in _LINEAR_COMPLEXES:
        name, variant = LINEAR[which]
        _LINEAR_COMPLEXES[which] = named_complex(model(name), variant)
    return _LINEAR_COMPLEXES[which]


RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@PROP
@given(st.integers(0, len(LINEAR) - 1), st.integers(0, 10 ** 6),
       RATIONALS, RATIONALS)
def test_apply_is_linear(which, seed, a, b):
    """apply(a s + b t) = a apply(s) + b apply(t), every output coefficient
    a Fraction: each apply clears its own section's denominators, so the
    three runs carry different running denominators."""
    res = _linear_complex(which)
    rng = random.Random(seed)
    h = res.operators[rng.randrange(len(res.operators))]
    s = random_section(h.source, rng, 2)
    t = random_section(h.source, rng, 2)
    outs = [h.apply([rp.add(rp.scale(p, a), rp.scale(q, b))
                     for p, q in zip(s, t)]), h.apply(s), h.apply(t)]
    assert outs[0] == [rp.add(rp.scale(p, a), rp.scale(q, b))
                       for p, q in zip(outs[1], outs[2])]
    assert all(type(c) is Fraction
               for out in outs for p in out for c in p.values())
