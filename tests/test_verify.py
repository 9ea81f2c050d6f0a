"""Complex verification: exactness certificates, composition, witnesses."""

import dataclasses
import heapq
import random
from fractions import Fraction as F
from math import lcm, perm

import pytest

from coframes import builtin_names, linalg, ratpoly as rp, verify
from coframes.forms import form_zero
from coframes.operators import (GradedOperator, NormalForm, OperatorHandle,
                                Resolution, build_rs_complex, named_complex)
from coframes.verify import (_SliceCache, composition_check,
                             cross_check_dims, exactness_check,
                             rs_h1_witness)

from conftest import model
from test_operators import _evaluate

NAMED = ([(name, "bgg") for name in builtin_names()]
         + [("g2_5", "ambient"), ("g2_5", "basic"), ("symplectic4", "rs")])


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
        assert rep.ok, rep


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
    assert rep.ok, rep
    assert rep.totals == [1, 1, 0, 0, 0, 0]
    node1 = rep.nodes[1]
    assert node1.homology_slices == {2: 1}


@pytest.mark.parametrize("name", ["contact5", "engel4"])
def test_small_prime_falls_back_to_exact_ranks(monkeypatch, name):
    # mod 2 many slices come up short, the restricted ranks among them;
    # the exact ranks on full columns must restore the certificate
    monkeypatch.setattr(verify, "PRIME", 2)
    res = named_complex(model(name), "bgg")
    rep = exactness_check(res, max_degree=2)
    assert rep.ok, rep
    assert rep.totals == [1] + [0] * (len(res.nodes) - 1)
    fallbacks = sum(n.methods.get("exact", 0) for n in rep.nodes)
    assert fallbacks == {"contact5": 20, "engel4": 26}[name]


@pytest.mark.parametrize("name,variant", NAMED)
def test_prime_keeps_every_slot_scale(name, variant):
    # the incoming map ranked on the rows the outgoing map's pivots leave
    # free has its full rank mod p when the integer columns' product,
    # scaled by lcm(d) / d_j on output column j, is zero mod p and no
    # scale vanishes mod p, so the modular tallies match full ranks
    res = (build_rs_complex(2) if variant == "rs"
           else named_complex(model(name), variant))
    for op in res.operators:
        dens = [den for den, _ in op.normal_form().slots]
        big = lcm(*dens)
        assert all(big // d % verify.PRIME for d in dens), (name, dens)


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


def _columns_every_alpha(cache, op_idx, s):
    """cache.columns(op_idx, s) by a walk over every alpha of every slot,
    in the normal form's order, none skipped: an alpha heavier than the
    slice leaves a negative weight, which no monomial has."""
    res = cache.res
    nf = res.operators[op_idx].normal_form()
    src = res.nodes[op_idx]
    low = min(min(src.weights), min(res.nodes[op_idx + 1].weights))
    kern = nf.kernel(max(0, (s - low) // min(cache.weights)), cache.weights)
    out_pos = cache._positions(op_idx + 1, s, kern)
    col_pos = cache._positions(op_idx, s, kern)
    cols = [{} for _ in col_pos]
    for slot, wslot in enumerate(src.weights):
        for _, palpha, support, offs in kern.slots[slot]:
            w = s - wslot - sum(cache.weights[i] * a for i, a in support)
            for r, pr in cache._packed(w, kern):
                f = 1
                for i, a in support:
                    f *= perm(r[i] + a, a)
                col = cols[col_pos[(slot << kern.shift) + palpha + pr]]
                for off, num in offs:
                    row = out_pos[pr + off]
                    col[row] = col.get(row, 0) + f * num
    dens = [nf.slots[slot][0] for slot, _ in cache.basis(op_idx, s)]
    return [{r: v for r, v in col.items() if v} for col in cols], dens


@pytest.mark.parametrize("name,variant", NAMED)
def test_slice_columns_stop_at_the_slice_weight(name, variant):
    """The walk that stops at the first alpha heavier than the slice gives
    the columns of the walk over every alpha, on every slice a degree-2
    certificate reads, one cache serving each base the slices need."""
    res = (build_rs_complex(2) if variant == "rs"
           else named_complex(model(name), variant))
    cache = _SliceCache(res)
    for op_idx, s in sorted(_needed_pairs(res, 2), key=lambda p: p[::-1]):
        assert cache.columns(op_idx, s) == _columns_every_alpha(
            cache, op_idx, s), (op_idx, s)


def test_slice_columns_of_all_zero_maps():
    # elliptic7's operator 3 has no alpha light enough for these slices
    res = named_complex(model("elliptic7"), "bgg")
    cache = _SliceCache(res)
    for s, width in ((4, 14), (5, 56)):
        cols, dens = cache.columns(3, s)
        assert (cols, dens) == _columns_every_alpha(cache, 3, s)
        assert len(cols) == len(dens) == width
        assert not any(cols)


class _ZeroOperator(OperatorHandle):
    def image(self, lift, jets=None):
        return 1, form_zero(lift.nvars, self.target.degree, lift.basis)


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
    assert rep.ok, rep
    assert rep.pairs == len(res.operators) - 1


def test_cross_check_dims_reports_rows():
    rep = cross_check_dims(model("g2_5"))
    assert rep.ok
    assert len(rep.rows) == 6
    for key, dim, label, want in rep.rows:
        assert dim == want


def _one_variable(targets, slots):
    """A NormalForm in x = x_0 from (den, {alpha: [(t, b, num)]}) slots."""
    return NormalForm(targets, [
        (den, [((a,), [(t, (b,), num) for t, b, num in terms])
               for a, terms in sorted(groups.items())])
        for den, groups in slots], 1)


def _d1():
    """D1 u = (du, x du)."""
    return _one_variable(2, [(1, {1: [(0, 0, 1), (1, 1, 1)]})])


@pytest.mark.parametrize("den1", [1, 2])
def test_composition_identity_needs_the_leibniz_term(den1):
    # D2 (v0, v1) = x dv0 + v0 - dv1, with v1's slot over den1: the
    # composite x d^2 u + du - d(x du) vanishes only through the
    # gamma = 1 term of d(x du) = du + x d^2 u
    d1 = _d1()
    d2 = _one_variable(1, [(1, {0: [(0, 0, 1)], 1: [(0, 1, 1)]}),
                           (den1, {1: [(0, 0, -den1)]})])
    assert d1.composes_to_zero(d2)
    assert d1._composed == {d2: True}
    # the same numerators over a wrong slot denominator: -dv1 / 2
    if den1 > 1:
        half = _one_variable(1, [(1, {0: [(0, 0, 1)], 1: [(0, 1, 1)]}),
                                 (den1, {1: [(0, 0, -1)]})])
        assert not d1.composes_to_zero(half)


def test_composition_identity_fails_without_the_zeroth_term():
    # D2 (v0, v1) = x dv0 - dv1 leaves the composite -du
    d2 = _one_variable(1, [(1, {1: [(0, 1, 1)]}), (1, {1: [(0, 0, -1)]})])
    d1 = _d1()
    assert not d1.composes_to_zero(d2)
    assert _evaluate(d2, _evaluate(d1, [{(2,): F(1)}])) == [{(1,): F(-2)}]


def test_bumped_normal_form_breaks_composition():
    # one integer coefficient of operator 2 off by one: its compositions
    # with operators 1 and 3 stop vanishing, and only those
    res = named_complex(model("contact5"), "bgg")
    _, groups = res.operators[2].normal_form().slots[0]
    _, terms = groups[0]
    t, b, num = terms[0]
    terms[0] = (t, b, num + 1)
    rep = exactness_check(res, max_degree=1)
    assert not rep.composition_ok
    forms = [op.normal_form() for op in res.operators]
    assert [a.composes_to_zero(b) for a, b in zip(forms, forms[1:])] == [
        True, False, False, True]
    assert not rep.ok
    # the composition sample runs the cascade, which the bump leaves alone
    rep = composition_check(res, random.Random(7), sections=20)
    assert rep.failures == []


def test_corrupted_cascade_fails_the_sample_not_the_proof(monkeypatch):
    # operator 2's cascade also copies its input's slot 0 to its output's
    # slot 0 after its normal form is compiled: the sample fails the pairs
    # on either side of it (not on every section, since operator 3 kills
    # some of them), while the compiled forms still compose to zero
    res = named_complex(model("contact5"), "bgg")
    forms = [op.normal_form() for op in res.operators]
    handle = res.operators[2]
    cascade = handle.apply

    def corrupted(coeffs):
        out = cascade(coeffs)
        out[0] = rp.add(out[0], coeffs[0])
        return out
    monkeypatch.setattr(handle, "apply", corrupted)
    rep = composition_check(res, random.Random(7), sections=4)
    assert {k for k, _ in rep.failures} == {1, 2}
    assert all(a.composes_to_zero(b) for a, b in zip(forms, forms[1:]))
    assert exactness_check(res, max_degree=1).composition_ok


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
    kern = nf.kernel(0, tuple(res.coeff_weights))
    big = 1 << kern.bits
    moved = tuple(x - (m == i) + big * (m == i + 1) for m, x in enumerate(b))
    assert kern.pack(moved) == kern.pack(b)
    for term in ((t, moved, num), (nf.targets, b, num)):
        res.operators[k]._normal_form = _with_term(nf, slot, (g, j), term)
        with pytest.raises(AssertionError, match="not weight-homogeneous"):
            _SliceCache(res).columns(k, s)


def _broken_rs():
    """symplectic4 with the flat d after the trace-free projection of d:
    d(da - cJ/2) = -dc ^ J/2, so pair 1 does not compose to zero.  The
    3-form node is given weight 3, so that d is weight-homogeneous."""
    res = build_rs_complex(2)
    n0, n1, n2, _, n4, _ = res.nodes
    n4 = dataclasses.replace(n4, weights=[3] * n4.rank)
    ops = [res.operators[0], res.operators[1],
           GradedOperator(res.model, n2, n4)]
    return Resolution(name=res.name, variant="broken",
                      nodes=[n0, n1, n2, n4], operators=ops, model=res.model,
                      nvars=res.nvars, coeff_weights=res.coeff_weights)


def test_composition_check_reports_a_nonzero_pair():
    # the sample must fail at pair 1 and only there, on every section
    rep = composition_check(_broken_rs(), random.Random(3), sections=6)
    assert rep.failures == [(1, t) for t in range(6)]


def test_exactness_reports_a_nonzero_pair():
    rep = exactness_check(_broken_rs(), max_degree=2)
    assert not rep.composition_ok
    assert not rep.ok


def _kernel_columns(cols, nmid, rng):
    """Integer combinations of a kernel basis of the map whose column j
    is cols[j], j < nmid: columns of a map that cols composes to zero."""
    nout = 1 + max((r for c in cols for r in c), default=0)
    dense = [[F(cols[j].get(r, 0)) for j in range(nmid)]
             for r in range(nout)]
    red, piv = linalg.rref(dense)
    basis = linalg.nullspace(red, piv, nmid)
    out = []
    for _ in range(rng.randint(1, len(basis) + 2)):
        v = [F(0)] * nmid
        for b in basis:
            k = rng.randint(-2, 2)
            v = [x + k * y for x, y in zip(v, b)]
        den = lcm(*(x.denominator for x in v))
        out.append({j: int(x * den) for j, x in enumerate(v) if x})
    return out


def test_exact_rank_of_large_int_rows():
    # [[N + 1, N], [N, N - 1]] has determinant -1; in floats (N + 1) / N
    # rounds to 1 at N = 3**40, and the second row cancels to zero
    n = 3 ** 40
    for rows in ([{0: n + 1, 1: n}, {0: n, 1: n - 1}],
                 [{0: n, 1: n - 1}, {0: n + 1, 1: n}, {1: 2 * n, 2: 1}]):
        assert linalg.sparse_rank_exact(rows) == len(rows)
        assert linalg.sparse_rank_exact(
            [{c: F(v) for c, v in r.items()} for r in rows]) == len(rows)
    assert linalg.rank([[n + 1, n], [n, n - 1]]) == 2


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
        assert linalg.sparse_rank_exact(rows) == exact
        pivots = linalg.rank_mod_p([dict(r) for r in rows], p)
        assert len(pivots) == exact
        assert linalg.sparse_rank_exact(
            [{c: F(v) for c, v in rows[i].items()} for i in pivots]) == exact
    # D_k's pivots Q are middle coordinates on which D_k is injective; an
    # image of D_(k-1) lies in ker D_k, so it meets them only in zero and
    # D_(k-1) keeps its rank on the rows outside Q
    for _ in range(60):
        nmid = rng.randint(1, 10)
        out = [{r: rng.randint(-3, 3) for r in range(rng.randint(1, 8))
                if rng.random() < 0.4} for _ in range(nmid)]
        out = [{r: v for r, v in c.items() if v} for c in out]
        into = _kernel_columns(out, nmid, rng)
        assert not any(sum(v * out[j].get(r, 0) for j, v in c.items())
                       for c in into for r in range(8))
        full = linalg.sparse_rank_exact([{j: F(v) for j, v in c.items()}
                                         for c in into])
        assert linalg.sparse_rank_exact(into) == full
        assert len(linalg.rank_mod_p(into, p,
                                     set(linalg.rank_mod_p(out, p)))) == full


def _one_heap_rank_mod_p(rows, p, skip=(), chosen=None):
    """The reference for linalg.rank_mod_p: every live row in one heap of
    (length, row index) entries, each pivot scaled by its inverse and
    eliminated from the rows holding its column.  Each chosen row's
    length, then and at the start, is appended to chosen, if given."""
    live, col_index = {}, {}
    for ri, row in enumerate(rows):
        clean = {c: v % p for c, v in row.items() if v % p and c not in skip}
        for c in clean:
            col_index.setdefault(c, set()).add(ri)
        if clean:
            live[ri] = clean
    queue = [(len(row), ri) for ri, row in live.items()]
    start = dict((ri, n) for n, ri in queue)
    heapq.heapify(queue)
    pivots = []
    while live:
        n, ri = heapq.heappop(queue)
        row = live.get(ri)
        if row is None or len(row) != n:
            continue
        if chosen is not None:
            chosen.append((n, start[ri]))
        del live[ri]
        for c in row:
            col_index[c].discard(ri)
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


def _cascade_rows(rng, p):
    """Sparse integer rows with singletons that empty other rows down to
    one entry, longer rows whose pivots fill in, entries that are
    multiples of p, and duplicate rows, shuffled."""
    ncols = rng.randint(1, 14)
    rows = [{c: rng.randint(-4, 4)
             for c in rng.sample(range(ncols), min(ncols, rng.randint(1, 4)))}
            for _ in range(rng.randint(1, 16))]
    # chains c, c + 1, ...: a singleton at one end clears them one by one
    start = rng.randrange(ncols)
    rows.append({start: rng.randint(1, 3)})
    rows += [{c: rng.randint(1, 3), c + 1: rng.randint(-3, -1)}
             for c in range(start, min(ncols - 1, start + rng.randint(0, 5)))]
    for row in rng.sample(rows, min(len(rows), 3)):
        row[rng.randrange(ncols)] = p * rng.randint(-2, 2)
    rows += [dict(r) for r in rng.sample(rows, rng.randint(0, 2))]
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    rng.shuffle(rows)
    return rows


def test_rank_mod_p_pivots_as_one_heap():
    # the same pivots in the same order as the one-heap elimination: each
    # map's pivots are the next map's skip set, so the order is an output
    rng = random.Random(11)
    chosen = []
    for p in (2, 3, 7, 1000003):
        for _ in range(150):
            rows = _cascade_rows(rng, p)
            cols = {c for r in rows for c in r}
            skip = set(rng.sample(sorted(cols),
                                  rng.randint(0, len(cols) // 3)))
            for s in ((), skip):
                expected = _one_heap_rank_mod_p(rows, p, s, chosen)
                snapshot = [dict(r) for r in rows]
                assert linalg.rank_mod_p(rows, p, s) == expected
                assert rows == snapshot
    # the inputs reach singletons cut down from longer rows, and pivots
    # on rows that are still long when chosen
    assert any(n == 1 < m for n, m in chosen)
    assert any(n > 1 for n, m in chosen)


@pytest.mark.parametrize("name,variant", [("contact5", "bgg"),
                                          ("g2_5", "ambient")])
def test_rank_mod_p_pivots_of_the_certificate(monkeypatch, name, variant):
    calls = []
    rank_mod_p = linalg.rank_mod_p

    def record(rows, p, skip=()):
        pivots = rank_mod_p(rows, p, skip)
        calls.append((rows, p, set(skip), pivots))
        return pivots
    monkeypatch.setattr(linalg, "rank_mod_p", record)
    assert exactness_check(named_complex(model(name), variant), 1).ok
    monkeypatch.undo()
    assert calls and any(skip for _, _, skip, _ in calls)
    for rows, p, skip, pivots in calls:
        assert pivots == _one_heap_rank_mod_p(rows, p, skip)
