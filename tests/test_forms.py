"""Form layer: wedge algebra, exterior derivative, basis changes."""

import random
from fractions import Fraction

import pytest

from coframes import ratpoly as rp
from coframes.forms import (change_basis, contract, exterior_d, form_add,
                            form_from_json, form_monomial, form_pmul,
                            form_scale, form_sub, form_to_json, form_zero,
                            interior, one_form, sort_sign, wedge)

from conftest import model


def rand_form(rng, nvars, degree, terms=4, deg=3):
    f = form_zero(nvars, degree)
    import itertools
    idxs = list(itertools.combinations(range(nvars), degree))
    for _ in range(terms):
        idx = idxs[rng.randrange(len(idxs))]
        f.add_term(idx, rp.random_poly(rng, nvars, deg, terms=3))
    return f


def test_sort_sign():
    assert sort_sign((0, 1, 2)) == ((0, 1, 2), 1)
    assert sort_sign((1, 0)) == ((0, 1), -1)
    assert sort_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_sign((0, 0)) == (None, 0)


def test_add_term_normalizes_order():
    f = form_zero(4, 2)
    f.add_term((3, 1), rp.const(1, 4))
    assert f.terms == {(1, 3): {(0, 0, 0, 0): Fraction(-1)}}


def test_wedge_antisymmetry_and_associativity():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = rand_form(rng, n, 1)
        b = rand_form(rng, n, 1)
        c = rand_form(rng, n, rng.randint(0, n - 2))
        assert wedge(a, b) == form_scale(wedge(b, a), -1)
        assert wedge(a, a).is_zero()
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        assert lhs == rhs


def test_exterior_d_squares_to_zero():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 6)
        p = rng.randint(0, n - 1)
        a = rand_form(rng, n, p)
        assert exterior_d(exterior_d(a)).is_zero()


def test_exterior_d_leibniz():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 5)
        p = rng.randint(0, min(2, n - 1))
        q = rng.randint(0, n - p - 1)
        a = rand_form(rng, n, p)
        b = rand_form(rng, n, q)
        lhs = exterior_d(wedge(a, b))
        rhs = form_add(wedge(exterior_d(a), b),
                       form_scale(wedge(a, exterior_d(b)),
                                  (-1) ** p))
        assert lhs == rhs


def test_interior_antiderivation():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = rand_form(rng, n, 1)
        b = rand_form(rng, n, 1)
        k = rng.randrange(n)
        lhs = interior(wedge(a, b), k)
        rhs = form_sub(wedge(interior(a, k), b),
                       wedge(a, interior(b, k)))
        assert lhs == rhs


def test_contract_pairs_matching_monomial():
    n = 4
    a = form_monomial(n, (1, 2), 1)
    out = contract(a, form_monomial(n, (1, 2), 1))
    assert out.terms == {(): {(0,) * n: Fraction(1)}}
    # the 2-form keys its pair sorted, so (2, 1) reads as -(1, 2)
    assert contract(a, form_monomial(n, (2, 1), 1)).terms == {
        (): {(0,) * n: Fraction(-1)}}
    assert contract(a, form_monomial(n, (0, 3), 1)).is_zero()


@pytest.mark.parametrize("degree", [1, 3])
def test_contract_refuses_a_b_not_of_degree_two(degree):
    n = 4
    a = form_monomial(n, (0, 1, 2), 1)
    with pytest.raises(ValueError, match="2-form"):
        contract(a, form_monomial(n, tuple(range(degree)), 1))


def test_change_basis_roundtrip():
    rng = random.Random(11)
    for name in ("contact5", "engel4", "g2_5", "dist3in6"):
        m = model(name)
        for _ in range(10):
            p = rng.randint(0, m.nvars - 1)
            a = rand_form(rng, m.nvars, p)
            over = change_basis(a, m, "coframe")
            back = change_basis(over, m, "coordinate")
            assert back == a


def test_coordinate_d_matches_coframe_d_after_basis_change():
    from coframes.models import coframe_d
    rng = random.Random(13)
    m = model("engel4")
    for _ in range(10):
        a = rand_form(rng, m.nvars, rng.randint(0, 2))
        da = exterior_d(a)
        over = change_basis(a, m, "coframe")
        dover = coframe_d(m, over)
        assert change_basis(dover, m, "coordinate") == da


def test_form_json_roundtrip():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 5)
        a = rand_form(rng, n, rng.randint(0, n - 1))
        assert form_from_json(form_to_json(a)) == a


def test_form_pmul_one_form():
    n = 3
    a = one_form(n, 1)
    q = rp.var(0, n)
    out = form_pmul(a, q)
    assert out.terms == {(1,): {(1, 0, 0): Fraction(1)}}
