"""Polynomial layer: exact arithmetic, grading helpers, serialization."""

import json
import random
from fractions import Fraction

import pytest

import coframes
from coframes import ratpoly as rp


def rand_poly(rng, nvars, terms=8, deg=4):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(nvars))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if not c:
            continue
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def test_ring_axioms():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 6)
        p, q, r = (rand_poly(rng, n) for _ in range(3))
        assert rp.add(p, q) == rp.add(q, p)
        assert rp.mul(p, q) == rp.mul(q, p)
        assert rp.add(rp.add(p, q), r) == rp.add(p, rp.add(q, r))
        assert rp.mul(rp.mul(p, q), r) == rp.mul(p, rp.mul(q, r))
        left = rp.mul(p, rp.add(q, r))
        right = rp.add(rp.mul(p, q), rp.mul(p, r))
        assert left == right
        assert rp.sub(p, p) == {}
        assert rp.add(p, rp.sub(q, q)) == p


def test_canonical_no_zeros():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        p = rand_poly(rng, n)
        q = rp.scale(p, Fraction(-1))
        assert rp.add(p, q) == {}
        for out in (rp.add(p, q), rp.mul(p, q), rp.sub(p, q)):
            assert all(c for c in out.values())


def test_diff_leibniz():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        p, q = rand_poly(rng, n), rand_poly(rng, n)
        i = rng.randrange(n)
        lhs = rp.diff(rp.mul(p, q), i)
        rhs = rp.add(rp.mul(rp.diff(p, i), q), rp.mul(p, rp.diff(q, i)))
        assert lhs == rhs


def test_degrees_and_weighted_parts():
    n = 3
    p = rp.add(rp.mul(rp.var(0, n), rp.var(1, n)), rp.const(4, n))
    w = (2, 3, 1)
    assert rp.weighted_degree(p, w) == 5
    assert rp.weighted_degree({}, w) == -1
    assert rp.is_weighted_homogeneous(rp.var(2, n), w)
    assert not rp.is_weighted_homogeneous(p, w)


def test_pdiv_exact_roundtrip():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 4)
        p = rand_poly(rng, n, terms=4, deg=3)
        q = rand_poly(rng, n, terms=3, deg=2)
        if not q:
            continue
        prod_pq = rp.mul(p, q)
        assert rp.pdiv_exact(prod_pq, q) == p


def test_json_roundtrip_and_stability():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        p = rand_poly(rng, n)
        blob = rp.poly_to_json(p, n)
        assert rp.poly_from_json(blob) == p
        spelled = [dict(t, exps=[str(k) for k in t["exps"]])
                   for t in blob["terms"]]
        assert rp.poly_from_json(dict(blob, terms=spelled)) == p
        again = rp.poly_to_json(rp.poly_from_json(blob), n)
        assert json.dumps(blob, sort_keys=True) == \
            json.dumps(again, sort_keys=True)


@pytest.mark.parametrize("terms,want", [
    ([{"exps": ["1", "0"], "num": "3", "den": "2"}],
     {(1, 0): Fraction(3, 2)}),
    ([{"exps": [1, 0], "num": "1", "den": "2"},
      {"exps": ["1", 0], "num": "1", "den": "3"}],
     {(1, 0): Fraction(5, 6)}),
    ([{"exps": [1, 0], "num": "3", "den": "2"},
      {"exps": [1, 0], "num": "-3", "den": "2"},
      {"exps": [0, 2], "num": "1", "den": "1"}],
     {(0, 2): Fraction(1)}),
    ([{"exps": [1, 0], "num": "1", "den": "1"},
      {"exps": [1, 0], "num": "-1", "den": "1"},
      {"exps": [1, 0], "num": "0", "den": "5"},
      {"exps": [1, 0], "num": "2", "den": "1"}],
     {(1, 0): Fraction(2)})],
    ids=["string-exps", "repeat-sums", "repeat-cancels", "cancel-then-add"])
def test_json_reads_string_exponents_and_sums_repeats(terms, want):
    assert rp.poly_from_json({"nvars": 2, "terms": terms}) == want


@pytest.mark.parametrize("terms,nvars", [
    ([{"exps": [" 1 ", 0], "num": "1", "den": "1"}], 2),
    ([{"exps": [1, "\u0663"], "num": "1", "den": "1"}], 2),
    ([{"exps": [1, 0], "num": "1_000", "den": "1"}], 2),
    ([{"exps": [1, 0], "num": "1", "den": "+7"}], 2),
    ([{"exps": [1, 0], "num": "1", "den": "7\n"}], 2),
    ([], "\uff12")],
    ids=["spaces", "arabic-indic", "underscore", "plus", "newline",
         "full-width-nvars"])
def test_json_reads_only_ascii_decimal_strings(terms, nvars):
    with pytest.raises(ValueError, match="must be an integer"):
        rp.poly_from_json({"nvars": nvars, "terms": terms})


def test_json_preserves_big_fractions():
    n = 2
    huge = Fraction(10 ** 40 + 1, 10 ** 39 + 7)
    p = {(1, 0): huge}
    assert rp.poly_from_json(rp.poly_to_json(p, n)) == p


def test_public_names_resolve():
    assert [n for n in coframes.__all__ if not hasattr(coframes, n)] == []


def _random_poly_by_fractions(rng, nvars, max_degree, terms):
    """random_poly as a plain sum of Fractions, drawing the same numbers."""
    out = {}
    for _ in range(terms):
        d = rng.randint(0, max_degree)
        e = [0] * nvars
        for _ in range(d):
            e[rng.randrange(nvars)] += 1
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if not c:
            continue
        t = tuple(e)
        s = out.get(t, Fraction(0)) + c
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    return out


def test_random_poly_matches_fraction_sum():
    for seed in range(200):
        nvars = 1 + seed % 10
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        for max_degree in range(4):
            for terms in range(1, 7):
                got = rp.random_poly(got_rng, nvars, max_degree, terms)
                ref = _random_poly_by_fractions(ref_rng, nvars, max_degree,
                                                terms)
                assert got == ref, (seed, nvars, max_degree, terms)
                assert list(got) == list(ref)
                assert all(6 % c.denominator == 0 for c in got.values())
        assert got_rng.getstate() == ref_rng.getstate()


def test_random_poly_drops_a_cancelled_term():
    # seed 71 draws the constants 3/3 and -1/1, which cancel
    rng = random.Random(71)
    draws = [(rng.randint(0, 0), Fraction(rng.randint(-5, 5),
                                          rng.randint(1, 3)))
             for _ in range(2)]
    assert draws == [(0, Fraction(1)), (0, Fraction(-1))]
    assert rp.random_poly(random.Random(71), 1, 0, 2) == {}
    assert _random_poly_by_fractions(random.Random(71), 1, 0, 2) == {}
