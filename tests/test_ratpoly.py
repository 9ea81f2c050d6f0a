"""Polynomial layer: exact arithmetic, grading helpers, serialization."""

import json
import random
from fractions import Fraction

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


def test_evaluate_matches_substitution():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        p = rand_poly(rng, n, terms=5, deg=3)
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(n)]
        direct = sum((c * prod(pt, e) for e, c in p.items()),
                     Fraction(0))
        assert rp.evaluate(p, pt) == direct


def prod(pt, exps):
    out = Fraction(1)
    for v, e in zip(pt, exps):
        out *= v ** e
    return out


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
        again = rp.poly_to_json(rp.poly_from_json(blob), n)
        assert json.dumps(blob, sort_keys=True) == \
            json.dumps(again, sort_keys=True)


def test_json_preserves_big_fractions():
    n = 2
    huge = Fraction(10 ** 40 + 1, 10 ** 39 + 7)
    p = {(1, 0): huge}
    assert rp.poly_from_json(rp.poly_to_json(p, n)) == p


def test_public_names_resolve():
    assert [n for n in coframes.__all__ if not hasattr(coframes, n)] == []
