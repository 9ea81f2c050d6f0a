"""Complex verification: exactness certificates, composition, witnesses."""

import random
from fractions import Fraction as F
from math import lcm

import pytest

from coframes import linalg, verify
from coframes.operators import (NormalForm, OperatorHandle, Resolution,
                                SpanDOperator, build_rs_complex,
                                named_complex)
from coframes.verify import (_SliceCache, _compose_is_zero,
                             composition_check, cross_check_dims,
                             exactness_check, rs_h1_witness)

from conftest import model


@pytest.mark.parametrize("name", ["contact5", "engel4", "g2_5", "dl_5"])
def test_exactness_small_models_degree_two(name):
    res = named_complex(model(name), "bgg")
    rep = exactness_check(res, max_degree=2)
    assert rep.composition_ok
    assert not rep.guard_hit
    assert rep.totals == [1] + [0] * (len(res.nodes) - 1)
    assert rep.ok


def test_exactness_g2_variants():
    for variant in ("ambient", "basic"):
        res = named_complex(model("g2_5"), variant)
        rep = exactness_check(res, max_degree=2)
        assert rep.ok, rep.summary()


def test_exactness_detects_failure_on_truncated_complex():
    res = named_complex(model("engel4"), "bgg")
    import coframes.operators as ops
    cut = ops.Resolution(name=res.name, variant="cut",
                         nodes=res.nodes[1:], operators=res.operators[1:],
                         model=res.model, nvars=res.nvars,
                         coeff_weights=res.coeff_weights)
    rep = exactness_check(cut, max_degree=2)
    assert not rep.ok


def test_rs_cohomology_dims():
    res = build_rs_complex(2)
    rep = exactness_check(res, max_degree=3)
    assert rep.ok, rep.summary()
    assert rep.totals == [1, 1, 0, 0, 0, 0]
    node1 = rep.nodes[1]
    assert node1.homology_slices == {2: 1}


@pytest.mark.parametrize("name", ["contact5", "engel4"])
def test_small_prime_falls_back_to_exact_ranks(monkeypatch, name):
    # mod 2 many slices come up short; the exact fallback must restore the
    # certificate the real prime gives
    res = named_complex(model(name), "bgg")
    want = exactness_check(res, max_degree=2)
    monkeypatch.setattr(verify, "PRIME", 2)
    rep = exactness_check(named_complex(model(name), "bgg"), max_degree=2)
    assert rep.ok, rep.summary()
    assert rep.totals == want.totals
    assert sum(n.methods.get("exact", 0) for n in rep.nodes) > 0


def test_guard_skips_large_slices_and_fails(monkeypatch):
    monkeypatch.setattr(verify, "GUARD", 40)
    rep = exactness_check(named_complex(model("engel4"), "bgg"),
                          max_degree=2)
    assert rep.guard_hit
    assert not rep.ok


def _needed_pairs(res, degree):
    """The (operator, slice) maps exactness_check(res, degree) reads: at
    every nonempty slice s node k checks, the maps into and out of it."""
    cache = _SliceCache(res)
    top = max(res.coeff_weights) * degree + 1
    pairs = set()
    for k, node in enumerate(res.nodes):
        for s in range(min(node.weights), max(node.weights) + top + 1):
            if cache.basis(k, s):
                pairs |= {(op, s) for op in (k - 1, k)
                          if 0 <= op < len(res.operators)}
    return pairs


@pytest.mark.parametrize("name,variant", [("g2_5", "ambient"),
                                          ("symplectic4", "rs")])
def test_certificate_builds_each_slice_map_once(monkeypatch, name, variant):
    res = (build_rs_complex(2) if variant == "rs"
           else named_complex(model(name), variant))
    built = []
    columns = _SliceCache.columns

    def counted(cache, op_idx, s):
        built.append((op_idx, s))
        return columns(cache, op_idx, s)
    monkeypatch.setattr(_SliceCache, "columns", counted)
    assert exactness_check(res, max_degree=1).ok
    assert len(built) == len(set(built))
    assert set(built) == _needed_pairs(res, 1)


@pytest.mark.parametrize("name", ["engel4", "symplectic4"])
def test_certificate_counts_slices_without_building_bases(monkeypatch,
                                                          name):
    res = (build_rs_complex(2) if name == "symplectic4"
           else named_complex(model(name), "bgg"))

    def refused(cache, node_idx, s):
        raise AssertionError("basis(%d, %d) built" % (node_idx, s))
    monkeypatch.setattr(_SliceCache, "basis", refused)
    assert exactness_check(res, max_degree=2).ok


class _ZeroOperator(OperatorHandle):
    def apply(self, coeffs, jets=None):
        return [{} for _ in range(self.target.rank)]


def test_zero_operator_keeps_its_slots_apart():
    # a normal form with no terms still packs each source slot apart, so
    # every basis monomial of a multi-slot source keeps its own column
    rs = build_rs_complex(2)
    n1, n2 = rs.nodes[1], rs.nodes[2]
    assert n1.rank > 1
    res = Resolution(name=rs.name, variant="zero", nodes=[n1, n2],
                     operators=[_ZeroOperator(n1, n2)], nvars=rs.nvars,
                     coeff_weights=rs.coeff_weights)
    cache = _SliceCache(res)
    for s in range(min(n1.weights), min(n1.weights) + 4):
        cols, dens = cache.columns(0, s)
        assert len(cols) == len(dens) == len(cache.basis(0, s)), s
        assert not any(cols)
    rep = exactness_check(res, max_degree=1)
    assert rep.composition_ok and not rep.guard_hit
    for k, node in enumerate(rep.nodes):
        assert node.slices_checked
        assert node.homology_slices == {s: len(cache.basis(k, s))
                                        for s in node.slices_checked}
        assert node.homology_total == node.dim_total


def test_homology_comes_from_the_resolution():
    assert build_rs_complex(2).homology() == [1, 1, 0, 0, 0, 0]
    res = named_complex(model("engel4"), "bgg")
    assert res.homology() == [1] + [0] * (len(res.nodes) - 1)
    assert exactness_check(res, max_degree=1).expected == res.homology()


def test_rs_h1_witness_is_the_tautological_class():
    assert rs_h1_witness(build_rs_complex(2))


def test_composition_check_all_bgg(each_model):
    res = named_complex(each_model, "bgg")
    rep = composition_check(res, random.Random(3), sections=4,
                            max_degree=2)
    assert rep.ok, rep.summary()
    assert rep.pairs == len(res.operators) - 1


def test_cross_check_dims_reports_rows():
    rep = cross_check_dims(model("g2_5"))
    assert rep.ok
    assert len(rep.rows) == 6
    for key, dim, label, want in rep.rows:
        assert dim == want


def _integer_columns(cols):
    """Fraction columns as (integer numerators, one denominator each)."""
    dens = [lcm(*(c.denominator for c in col.values())) for col in cols]
    ints = [{r: int(c * d) for r, c in col.items()}
            for col, d in zip(cols, dens)]
    return ints, dens


def _compose(cols_in, cols_out):
    ints_out, dens_out = _integer_columns(cols_out)
    return _compose_is_zero(_integer_columns(cols_in)[0], ints_out, dens_out)


def test_compose_is_zero_scales_each_column():
    # col1 is col0 / 2; the two columns clear to the same integer vector
    # with different denominators (6 and 12)
    cols_out = [{0: F(1, 2), 1: F(1, 3)}, {0: F(1, 4), 1: F(1, 6)}, {}]
    ints_out, dens_out = _integer_columns(cols_out)
    assert ints_out == [{0: 3, 1: 2}, {0: 3, 1: 2}, {}]
    assert dens_out == [6, 12, 1]
    assert _compose([{0: F(1), 1: F(-2)}], cols_out)
    assert _compose([{0: F(1, 5), 1: F(-2, 5), 2: F(7)}], cols_out)
    assert _compose([{0: F(1, 2), 1: F(-1)}, {}], cols_out)
    # zero only if both columns were scaled by one common factor
    assert not _compose([{0: F(1), 1: F(-1)}], cols_out)
    assert not _compose([{0: F(1), 1: F(-2)},
                         {0: F(1, 3), 1: F(-1, 3)}], cols_out)
    # the input's own denominators play no part
    assert _compose_is_zero([{0: 1, 1: -2}], ints_out, dens_out)
    assert not _compose_is_zero([{0: 1, 1: -1}], ints_out, dens_out)


def test_compose_is_zero_matches_fraction_product():
    rng = random.Random(11)
    for _ in range(200):
        nmid, nout = rng.randint(1, 5), rng.randint(1, 5)

        def entry():
            return F(rng.randint(-4, 4), rng.randint(1, 6))
        cols_out = [{r: entry() for r in range(nout) if rng.random() < 0.6}
                    for _ in range(nmid)]
        cols_in = [{j: entry() for j in range(nmid) if rng.random() < 0.5}
                   for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            # make the product vanish: move a kernel combination into cols_in
            cols_out.append({r: -c for r, c in cols_out[0].items()})
            cols_in.append({0: F(3, 7), nmid: F(3, 7)})
        want = all(not any(sum((c * cols_out[j].get(r, F(0))
                                for j, c in col.items()), F(0))
                           for r in range(nout))
                   for col in cols_in)
        assert _compose(cols_in, cols_out) == want


def test_bumped_normal_form_breaks_composition():
    # one integer coefficient of operator 2 off by one: the slice products
    # with operators 1 and 3 stop vanishing
    res = named_complex(model("contact5"), "bgg")
    _, groups = res.operators[2].normal_form().slots[0]
    _, terms = groups[0]
    t, b, num = terms[0]
    terms[0] = (t, b, num + 1)
    rep = exactness_check(res, max_degree=1)
    assert not rep.composition_ok
    assert not rep.ok
    # the composition sample evaluates the same compiled forms; a
    # second-order term needs more than a few sections to show
    assert not composition_check(res, random.Random(7), sections=20).ok


def _with_term(nf, slot, where, term):
    """A copy of nf whose term at where = (alpha index, term index) of the
    slot is replaced by term."""
    slots = [(den, [(alpha, list(terms)) for alpha, terms in groups])
             for den, groups in nf.slots]
    g, j = where
    slots[slot][1][g][1][j] = term
    return NormalForm(nf.targets, slots, nf.nvars)


def test_off_weight_term_fails_the_slice_columns():
    # a term moved off weight, b - x_i + B x_(i+1) for the packing base B
    # of the slice, packs in base B exactly as b does; the kernel's base
    # must grow with it so that the key does not alias a row of the slice
    res = named_complex(model("contact5"), "bgg")
    k = 2
    nf = res.operators[k].normal_form()
    nvars = len(res.coeff_weights)
    slot, g, j, i = next(
        (slot, g, j, i) for slot, (_, groups) in enumerate(nf.slots)
        for g, (_, terms) in enumerate(groups)
        for j, (_, b, _) in enumerate(terms)
        for i in range(nvars - 1) if b[i])
    alpha, terms = nf.slots[slot][1][g]
    t, b, num = terms[j]
    # the lowest slice holding the column of x^alpha in the slot
    s = res.nodes[k].weights[slot] + sum(
        a * w for a, w in zip(alpha, res.coeff_weights))
    assert _SliceCache(res).columns(k, s)[0]
    kern = nf.kernel(0)
    big = 1 << kern.bits
    moved = tuple(x - (m == i) + big * (m == i + 1) for m, x in enumerate(b))
    assert kern.pack(moved) == kern.pack(b)
    for term in ((t, moved, num), (nf.targets, b, num)):
        res.operators[k]._normal_form = _with_term(nf, slot, (g, j), term)
        with pytest.raises(AssertionError, match="not weight-homogeneous"):
            _SliceCache(res).columns(k, s)


def test_composition_check_reports_a_nonzero_pair():
    # d after the trace-free projection of d is not zero, d(da - cJ/2) =
    # -dc ^ J/2, so the sample must fail at pair 1 and only there
    res = build_rs_complex(2)
    n0, n1, n2, _, n4, _ = res.nodes
    ops = [res.operators[0], res.operators[1], SpanDOperator(None, n2, n4)]
    bad = Resolution(name=res.name, variant="broken",
                     nodes=[n0, n1, n2, n4], operators=ops, nvars=res.nvars,
                     coeff_weights=res.coeff_weights)
    rep = composition_check(bad, random.Random(3), sections=6)
    assert not rep.ok
    assert {k for k, _ in rep.failures} == {1}


def test_rank_mod_p_matches_exact_rank():
    rng = random.Random(5)
    p = 1000003
    for _ in range(60):
        ncols = rng.randint(1, 12)
        rows = [{c: rng.randint(-3, 3) for c in range(ncols)
                 if rng.random() < 0.3} for _ in range(rng.randint(1, 14))]
        rows = [{c: v for c, v in r.items() if v} for r in rows]
        base = [r for r in rows if r]
        for _ in range(rng.randint(0, 4)):
            if not base:
                break
            a, b = rng.choice(base), rng.choice(base)
            k = rng.randint(-2, 2)
            # duplicates, and combinations that empty out during elimination
            rows.append(dict(a))
            comb = dict(a)
            for c, v in b.items():
                comb[c] = comb.get(c, 0) + k * v
            rows.append({c: v for c, v in comb.items() if v})
        rng.shuffle(rows)
        exact = linalg.sparse_rank_exact([{c: F(v) for c, v in r.items()}
                                          for r in rows])
        assert linalg.rank_mod_p([dict(r) for r in rows], p) == exact
