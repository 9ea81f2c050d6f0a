"""Derived operators: ladders, orders, traces, normal forms, named
constructions."""

import itertools
import random
from fractions import Fraction

import pytest

from coframes import ratpoly as rp
from coframes.forms import form_zero
from coframes.operators import (GradedSection, build_rs_complex,
                                derive_operator, named_complex,
                                random_section)
from coframes.verify import _SliceCache

from conftest import model, page1

_COMPLEXES = {}

# Ranks and exact orders of every named complex, frozen from this engine;
# the contact5, g2_5, and symplectic entries are also published tables.
# dl_5's operator 2 has a constant-coefficient second derivative, so its
# order is 2.
GOLDEN = {
    ("contact5", "bgg"): ([1, 4, 5, 5, 4, 1], [1, 1, 2, 1, 1]),
    ("engel4", "bgg"): ([1, 2, 2, 2, 1], [1, 3, 3, 1]),
    ("g2_5", "bgg"): ([1, 2, 3, 3, 2, 1], [1, 3, 2, 3, 1]),
    ("g2_5", "ambient"): ([1, 2, 7, 10, 5, 1], [1, 3, 1, 1, 1]),
    ("g2_5", "basic"): ([1, 2, 6, 9, 5, 1], [1, 3, 1, 1, 1]),
    ("dl_5", "bgg"): ([1, 3, 6, 6, 3, 1], [1, 2, 2, 2, 1]),
    ("dist3in6", "bgg"): ([1, 3, 8, 12, 8, 3, 1], [1, 2, 2, 2, 2, 1]),
    ("elliptic7", "bgg"): ([1, 4, 11, 14, 14, 11, 4, 1],
                           [1, 2, 2, 2, 2, 2, 1]),
    ("hyperbolic7", "bgg"): ([1, 4, 11, 14, 14, 11, 4, 1],
                             [1, 2, 2, 2, 2, 2, 1]),
    ("symplectic4", "rs"): ([1, 4, 5, 5, 4, 1], [1, 1, 2, 1, 1]),
}


def complex_for(name, variant):
    key = (name, variant)
    if key not in _COMPLEXES:
        if name == "symplectic4":
            _COMPLEXES[key] = build_rs_complex(2)
        else:
            _COMPLEXES[key] = named_complex(model(name), variant)
    return _COMPLEXES[key]


@pytest.mark.parametrize("name,variant", sorted(GOLDEN))
def test_ranks_and_orders_frozen(name, variant):
    res = complex_for(name, variant)
    ranks, orders = GOLDEN[(name, variant)]
    assert res.ranks() == ranks
    assert res.orders() == orders


def _evaluate(nf, coeffs):
    """A normal form on a section: differentiate, multiply, add up."""
    out = [{} for _ in range(nf.targets)]
    for u, (den, groups) in zip(coeffs, nf.slots):
        for alpha, terms in groups:
            du = u
            for m, k in enumerate(alpha):
                for _ in range(k):
                    du = rp.diff(du, m)
            for t, b, num in terms:
                out[t] = rp.add(out[t], rp.mul({b: Fraction(num, den)}, du))
    return out


def _dense_poly(rng, nvars, degree):
    """Every monomial of degree <= degree, with a seeded nonzero coefficient,
    so each d^alpha with |alpha| <= degree sends it to a nonzero polynomial
    and a wrong normal-form term cannot go unseen."""
    return {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                        rng.randint(1, 3))
            for e in itertools.product(range(degree + 1), repeat=nvars)
            if sum(e) <= degree}


@pytest.mark.parametrize("name,variant", sorted(GOLDEN))
def test_normal_form_matches_apply(name, variant):
    res = complex_for(name, variant)
    rng = random.Random(41)
    for h in res.operators:
        sec = [_dense_poly(rng, res.nvars, 3) for _ in range(h.source.rank)]
        assert _evaluate(h.normal_form(), sec) == h.apply(sec), (name, variant)


def _columns_by_apply(res, op_idx, s, cache):
    """Slice columns the slow way: the cascade on every basis monomial."""
    src = res.nodes[op_idx]
    pos = {bk: i for i, bk in enumerate(cache.basis(op_idx + 1, s))}
    cols = []
    for slot, e in cache.basis(op_idx, s):
        coeffs = [{} for _ in range(src.rank)]
        coeffs[slot] = {e: Fraction(1)}
        out = res.operators[op_idx].apply(coeffs)
        cols.append({pos[(t, e2)]: c for t, p in enumerate(out)
                     for e2, c in p.items()})
    return cols


# g2_5's slot denominators are 2, 4 and 8, and symplectic4's operator 1
# has denominator 2: a dropped denominator shows on these two
@pytest.mark.parametrize("name", ["engel4", "contact5", "dl_5", "g2_5",
                                  "symplectic4"])
def test_slice_columns_match_apply(name):
    res = complex_for(name, "rs" if name == "symplectic4" else "bgg")
    cache = _SliceCache(res)
    checked = 0
    for k in range(len(res.operators)):
        lo = min(res.nodes[k].weights)
        for s in range(lo, lo + 5):
            ints, dens = cache.columns(k, s)
            cols = [{r: Fraction(v, den) for r, v in col.items()}
                    for col, den in zip(ints, dens)]
            assert cols == _columns_by_apply(res, k, s, cache), (k, s)
            checked += sum(1 for c in cols if c)
    assert checked > 50


def test_g2_basic_bundle_ranks():
    res = complex_for("g2_5", "basic")
    assert res.nodes[2].rank == 6
    assert res.nodes[3].rank == 9


def test_rumin_middle_operator_order_two():
    res = complex_for("contact5", "bgg")
    h = res.operators[2]
    assert h.order == 2


def test_engel_p_order_and_trace_recipe():
    m = model("engel4")
    p1 = page1("engel4")
    P = derive_operator(m, (1, 0), (2, 1), page1=p1)
    rng = random.Random(3)
    gen = [rp.random_poly(rng, 4, 2, terms=4) for _ in range(P.source.rank)]
    P.apply(gen, record_trace=True)
    killed = [(s.via_cell, s.killed) for s in P.trace]
    # first correction removes the omega2^omega3 component, the second the
    # omega1^omega2 component (0-based pairs (2,3) then (1,2))
    assert killed[0] == ((1, 1), [(2, 3)])
    assert killed[1] == ((1, 2), [(1, 2)])
    assert P.order == 2


def test_engel_s_order_three():
    m = model("engel4")
    S = derive_operator(m, (2, 1), (3, 3), page1=page1("engel4"))
    assert S.order == 3


def test_five_var_e_order_three():
    res = complex_for("g2_5", "bgg")
    assert res.operators[1].order == 3


def test_order_equals_weight_gap_on_six_and_seven_var():
    for name in ("dist3in6", "elliptic7"):
        res = complex_for(name, "bgg")
        for h in res.operators:
            # node weights are total coframe weights; the measured order is
            # the largest jump any component realizes
            gap = max(h.target.weights) - min(h.source.weights)
            assert h.order == gap


def test_composition_zero_quick(each_model):
    res = complex_for(each_model.name, "bgg")
    rng = random.Random(23)
    for k in range(len(res.operators) - 1):
        sec = random_section(res.nodes[k], rng, max_degree=2)
        mid = res.operators[k].apply(sec)
        out = res.operators[k + 1].apply(mid)
        assert all(not p for p in out)


def test_lift_independence():
    res = complex_for("g2_5", "bgg")
    h = res.operators[1]
    m = model("g2_5")
    page0 = h.page1.page0
    rng = random.Random(5)
    deeper = [key for key, c in page0.cells.items()
              if key[0] == h.source.degree
              and c.weight > max(h.source.weights) + h.source.degree]
    for _ in range(10):
        coeffs = [rp.random_poly(rng, m.nvars, 3, terms=3)
                  for _ in range(h.source.rank)]
        base = h.apply(coeffs)
        key = deeper[rng.randrange(len(deeper))]
        cell = page0.cells[key]
        extra = form_zero(m.nvars, h.source.degree, m.basis_tag)
        extra.add_term(cell.basis[rng.randrange(len(cell.basis))],
                       rp.random_poly(rng, m.nvars, 2, terms=2))
        assert h.apply(coeffs, lift_extra=extra) == base


def test_constants_are_killed_by_first_operator(each_model):
    res = complex_for(each_model.name, "bgg")
    out = res.operators[0].apply([rp.const(5, each_model.nvars)])
    assert all(not p for p in out)


def test_rs_complex_shape():
    res = complex_for("symplectic4", "rs")
    assert [n.rank for n in res.nodes] == [1, 4, 5, 5, 4, 1]
    rng = random.Random(3)
    for k in range(len(res.operators) - 1):
        sec = random_section(res.nodes[k], rng, max_degree=2)
        out = res.operators[k + 1].apply(res.operators[k].apply(sec))
        assert all(not p for p in out)


def test_graded_section_json_roundtrip():
    rng = random.Random(31)
    res = complex_for("engel4", "bgg")
    sec = GradedSection("engel4", "bgg", 1,
                        random_section(res.nodes[1], rng))
    blob = sec.to_json(4)
    assert blob["cell"] == 1
    back = GradedSection.from_json(blob)
    assert back.node == sec.node
    assert back.coeffs == sec.coeffs


def test_derive_operator_between_named_cells():
    m = model("engel4")
    T = derive_operator(m, (2, 2), (3, 3), page1=page1("engel4"))
    # x4^2 goes to the constant 2: T differentiates twice along x4
    assert T.apply([{(0, 0, 0, 2): Fraction(1)}]) == [{}, {(0,) * 4: 2}]
    assert T.order == 2
