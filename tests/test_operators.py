"""Derived operators: ladders, orders, lift independence, normal forms,
span solvers, named constructions."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from coframes import linalg, ratpoly as rp
from coframes.forms import (Form, change_basis, contract, form_pmul,
                            form_scale, form_sub, form_zero, one_form, wedge)
from coframes.models import builtin_model, symplectic_data
from coframes.operators import (GradedOperator, GradedSection, Node,
                                NormalForm, OperatorHandle, RsMiddle, RsProjD,
                                SpanSolver, _LcpRun, build_rs_complex,
                                derive_operator, named_complex,
                                random_section, realize)
from coframes.verify import _SliceCache

from conftest import model

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
    # the normal form evaluated by repeated rp.diff against the cascade
    res = complex_for(name, variant)
    rng = random.Random(41)
    for h in res.operators:
        sec = [_dense_poly(rng, res.nvars, 3) for _ in range(h.source.rank)]
        want = h.apply(sec)
        assert _evaluate(h.normal_form(), sec) == want, (name, variant)


@pytest.mark.parametrize("name,variant", [("contact5", "bgg"),
                                          ("g2_5", "bgg"),
                                          ("symplectic4", "rs")])
def test_normal_form_apply_over_other_denominators(name, variant):
    # coefficients over 4 and 7, which neither the slot denominators nor
    # random sections hold, with every other slot empty (all of them for a
    # one-slot source on the even pass): the normal form's slot
    # denominators and the section's must combine as the cascade's do
    res = complex_for(name, variant)
    rng = random.Random(43)
    nonzero = 0
    for h in res.operators:
        nf = h.normal_form()
        for parity in (0, 1):
            sec = [{} if j % 2 == parity else
                   {e: c * Fraction(rng.randint(1, 5), rng.choice((4, 7)))
                    for e, c in _dense_poly(rng, res.nvars, 2).items()}
                   for j in range(h.source.rank)]
            got = h.apply(sec)
            assert got == _evaluate(nf, sec), (name, variant, parity)
            nonzero += any(got)
    assert nonzero > len(res.operators)


class _SixthOperator(OperatorHandle):
    """u dx_0 + v dx_1 goes to 4 u / 6 dx_0: slot 0 reduces to 2/3, and
    nothing reaches from slot 1."""

    def image(self, lift, jets=None):
        u = lift.terms.get((0,), {})
        return 6, Form(2, 1, terms={(0,): rp.scale(u, 4)})


def test_normal_form_slots_take_their_least_denominators():
    dx = [one_form(2, i) for i in range(2)]
    h = _SixthOperator(Node("s", 1, dx, [1, 1]), Node("t", 1, dx, [2, 2]))
    assert h.normal_form().slots == [(3, [((0, 0), [(0, (0, 0), 2)])]),
                                     (1, [])]
    assert h.apply([{(1, 0): Fraction(1, 2)}, {(0, 1): Fraction(1)}]) == [
        {(1, 0): Fraction(1, 3)}, {}]


@pytest.mark.parametrize("name,variant", sorted(GOLDEN))
def test_normal_form_slots_are_in_lowest_terms(name, variant):
    for h in complex_for(name, variant).operators:
        for den, groups in h.normal_form().slots:
            assert math.gcd(den, *(num for _, terms in groups
                                   for _, _, num in terms)) == 1


def test_normal_form_compiles_without_apply_or_over(monkeypatch):
    def refuse(*args):
        raise AssertionError("a normal form compiled through a Fraction")
    monkeypatch.setattr(OperatorHandle, "apply", refuse)
    monkeypatch.setattr(rp, "over", refuse)
    # every operator class and both kinds of target: graded and span
    # targets on g2_5, whose frame is over 2, and the flat d and both
    # symplectic maps on symplectic4
    for res in (named_complex(model("g2_5"), "ambient"), build_rs_complex(2)):
        assert [h.order for h in res.operators] == GOLDEN[
            (res.name, res.variant)][1]


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


def _columns_by_evaluate(nf, op_idx, s, cache):
    """Slice columns from the normal form evaluated by repeated rp.diff
    (_evaluate) on every basis monomial, and the slot denominators."""
    pos = {bk: i for i, bk in enumerate(cache.basis(op_idx + 1, s))}
    cols, dens = [], []
    for slot, e in cache.basis(op_idx, s):
        # the monomial's own slot alone: the others send 0 to 0
        out = _evaluate(NormalForm(nf.targets, [nf.slots[slot]], nf.nvars),
                        [{e: Fraction(1)}])
        cols.append({pos[(t, x)]: c for t, p in enumerate(out)
                     for x, c in p.items()})
        dens.append(nf.slots[slot][0])
    return cols, dens


def _assert_columns_match_evaluate(res, op_idx, s, cache):
    ints, dens = cache.columns(op_idx, s)
    ref, ref_dens = _columns_by_evaluate(res.operators[op_idx].normal_form(),
                                         op_idx, s, cache)
    assert dens == ref_dens, (op_idx, s)
    assert ints == [{r: c * d for r, c in col.items()}
                    for col, d in zip(ref, dens)], (op_idx, s)
    return sum(map(len, ints))


# elliptic7's operator 3 has denominator 2 and weighted order 4, so it
# reaches all its alphas at slice lo + 4; g2_5's slot denominators are 2, 4
# and 8: the first five slices of every operator
@pytest.mark.parametrize("name,variant", sorted(GOLDEN))
def test_slice_columns_match_evaluate(name, variant):
    res = complex_for(name, variant)
    cache = _SliceCache(res)
    entries = 0
    for k in range(len(res.operators)):
        lo = min(res.nodes[k].weights)
        for s in range(lo, lo + 5):
            entries += _assert_columns_match_evaluate(res, k, s, cache)
    assert entries > 0


def test_slice_columns_after_a_larger_base():
    # a fresh complex reads a small slice, then one whose exponents need a
    # larger packing base, then the small one again under that base
    res = named_complex(model("contact5"), "bgg")
    nf = res.operators[2].normal_form()
    lo = min(res.nodes[2].weights)
    first = _SliceCache(res).columns(2, lo)
    weights = tuple(res.coeff_weights)
    small = nf.kernel(0, weights)
    assert _assert_columns_match_evaluate(res, 2, lo + 5,
                                          _SliceCache(res)) > 0
    assert nf.kernel(0, weights).bits > small.bits
    assert _SliceCache(res).columns(2, lo) == first


def test_kernel_sorts_alphas_under_its_weights():
    # each slot's alphas stably sorted by weighted degree, and a kernel
    # asked for under other weights derived afresh
    res = named_complex(model("contact5"), "bgg")
    nf = res.operators[2].normal_form()
    orders = []
    for weights in (tuple(res.coeff_weights), tuple(res.coeff_weights[::-1])):
        kern = nf.kernel(0, weights)
        assert kern.weights == weights
        order = []
        for (_, groups), entries in zip(nf.slots, kern.slots):
            ref = sorted([(sum(w * a for w, a in zip(weights, alpha)),
                           kern.pack(alpha)) for alpha, _ in groups],
                         key=lambda pair: pair[0])
            assert [entry[:2] for entry in entries] == ref
            order.append([entry[1] for entry in entries])
        orders.append(order)
    assert orders[0] != orders[1]


def test_g2_basic_bundle_ranks():
    res = complex_for("g2_5", "basic")
    assert res.nodes[2].rank == 6
    assert res.nodes[3].rank == 9


def test_rumin_middle_operator_order_two():
    res = complex_for("contact5", "bgg")
    h = res.operators[2]
    assert h.order == 2


def test_engel_p_order_two():
    P = derive_operator(model("engel4"), (1, 0), (2, 1))
    assert P.order == 2


def test_engel_s_order_three():
    m = model("engel4")
    S = derive_operator(m, (2, 1), (3, 3))
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


@pytest.mark.parametrize("name", sorted(n for n, v in GOLDEN if v == "bgg"))
def test_lift_independence(name):
    """A lift's components in source-degree cells above the source's top
    weight never reach the output: the cascade of u omega_I is zero for a
    symbolic jet u, on every operator and every such monomial omega_I."""
    res = complex_for(name, "bgg")
    jets = rp.Jets(res.nvars)
    checked = 0
    for k, h in enumerate(res.operators):
        top = max(h.source.weights)
        for key, cell in sorted(res.model.page1().page0.cells.items()):
            if key[0] != h.source.degree or cell.weight <= top:
                continue
            for mono in cell.basis:
                lift = form_zero(res.nvars, h.source.degree,
                                 res.model.basis_tag)
                lift.add_term(mono, jets.unknown)
                _, form = h.image(lift, jets)
                assert not any(p for _, p in h.target.coordinates(form)), (
                    k, mono)
                checked += 1
    assert checked


@pytest.mark.parametrize("name", sorted(n for n, v in GOLDEN if v == "bgg"))
def test_correction_leaves_no_image_component(name):
    """After correct_at(w), the weight-w part of the sweep's form has no
    coordinates along the page-0 image: subtracting all of d(gamma)
    removes exactly the image gamma was solved for.  A symbolic jet in
    each source slot of every operator, as the normal-form compile runs."""
    res = complex_for(name, "bgg")
    jets = rp.Jets(res.nvars)
    page1 = res.model.page1()
    checked = 0
    for k, h in enumerate(res.operators):
        degree = h.source.degree + 1
        for slot in range(h.source.rank):
            coeffs = [{} for _ in range(h.source.rank)]
            coeffs[slot] = jets.unknown
            run = _LcpRun(h.model, realize(h.source, coeffs), degree, jets)
            for w in h.correct_weights:
                data = page1.cell_data((degree, w - degree))
                run.correct_at(w)
                image = linalg.poly_matvec(data.sinv[:data.rank_in],
                                           run.vector(w))
                assert not any(image), (k, slot, w)
                checked += 1
    assert checked


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


def _span_solvers():
    """Every span solver of the g2_5 ambient and basic complexes and of the
    symplectic complex, with the node of the forms it spans: each target
    node that is not graded, and RsMiddle's J ^ dx_i."""
    for name, variant in (("g2_5", "ambient"), ("g2_5", "basic"),
                          ("symplectic4", "rs")):
        res = complex_for(name, variant)
        for k, h in enumerate(res.operators):
            if h.target.page1 is None:
                yield (name, variant, k), h.target.span, h.target
            if isinstance(h, RsMiddle):
                jform = symplectic_data(2)["J"]
                forms = [wedge(jform, one_form(4, i)) for i in range(4)]
                yield ((name, variant, k, "J"), h.jspan,
                       Node("J_wedge_1forms", 3, forms, [0] * 4))


def test_span_solver_expresses_its_span():
    rng = random.Random(17)
    solvers = 0
    for label, span, node in _span_solvers():
        nvars = node.forms[0].nvars
        for _ in range(3):
            coeffs = [rp.random_poly(rng, nvars, 2, terms=3)
                      for _ in range(node.rank)]
            assert span.express(realize(node, coeffs)) == coeffs, label
        solvers += 1
    assert solvers == 14


def test_span_solver_rejects_forms_outside_the_span():
    res = complex_for("g2_5", "basic")
    span, n, tag = res.nodes[2].span, res.nvars, res.model.basis_tag
    # B2 holds no (2, 3) term, and (0, 4) only together with (1, 3)
    outside = form_zero(n, 2, tag)
    outside.add_term((2, 3), rp.const(1, n))
    with pytest.raises(ValueError, match="leaves the span"):
        span.express(outside)
    half = form_zero(n, 2, tag)
    half.add_term((0, 4), rp.var(0, n))
    with pytest.raises(ValueError, match="not in the span"):
        span.express(half)


def test_span_solver_rejects_dependent_forms():
    forms = complex_for("g2_5", "basic").nodes[2].forms
    with pytest.raises(ValueError, match="not independent"):
        SpanSolver(forms + [forms[1]])


def test_span_target_must_hold_whole_cells():
    # g2_5's weight-4 cell of 2-forms is (0, 3), (0, 4), (1, 3), (1, 4)
    res = complex_for("g2_5", "basic")
    m, n = res.model, res.nvars
    half = Node("half", 2, [form_zero(n, 2, m.basis_tag)], [4])
    half.forms[0].add_term((0, 3), rp.const(1, n))
    with pytest.raises(ValueError, match="target span splits a cell"):
        GradedOperator(m, res.nodes[1], half)


def test_span_target_must_hold_a_cell():
    # B3's 3-forms meet no cell of the 2-forms an operator from node 1 makes
    res = complex_for("g2_5", "basic")
    with pytest.raises(ValueError, match="target span has no cells"):
        GradedOperator(res.model, res.nodes[1], res.nodes[3])


def test_graded_coordinates_ignore_terms_outside_the_cells():
    # g2_5's node 1 is the weight-1 cell, omega_3 and omega_4; a form's
    # terms along omega_0, omega_1 and omega_2 lie in no cell of it
    res = complex_for("g2_5", "bgg")
    node, tag = res.nodes[1], res.model.basis_tag
    assert [key for key, _, _ in node.cells] == [(1, 0)]
    inside = Form(5, 1, tag, {(3,): {(0, 0, 1, 0, 0): 2}, (4,): {(0,) * 5: 3}})
    both = inside.copy()
    for i in range(3):
        both.add_term((i,), {(1, 0, 0, 0, 0): 5})
    want = node.coordinates(inside)
    assert want == [(1, {(0, 0, 1, 0, 0): 2}), (1, {(0,) * 5: 3})]
    assert node.coordinates(both) == want


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
    T = derive_operator(m, (2, 2), (3, 3))
    # x4^2 goes to the constant 2: T differentiates twice along x4
    assert T.apply([{(0, 0, 0, 2): Fraction(1)}]) == [{}, {(0,) * 4: 2}]
    assert T.order == 2


def test_complexes_of_one_model_read_its_page():
    m = builtin_model("g2_5")
    for variant in ("bgg", "ambient", "basic"):
        assert named_complex(m, variant).nodes[1].page1 is m.page1()
    assert derive_operator(m, (0, 0), (1, 0)).target.page1 is m.page1()


def test_derive_operator_rejects_a_target_of_another_degree():
    with pytest.raises(ValueError, match="is not of degree 2"):
        derive_operator(model("engel4"), (1, 0), (3, 3))


# #### Fraction reference cascade ###########################################
# The operators as they ran before they moved to integer numerators over one
# denominator: every step in Fraction arithmetic, reading the models'
# Fraction coframe inverse and structure forms, the cells' S^-1 rows as
# Fractions and each span's rref over Fraction.

def _ref_coframe_d(m, a, partials):
    out = form_zero(m.nvars, a.degree + 1, a.basis)
    dforms = m.structure_forms()
    for idx, p in a.terms.items():
        dp = (partials(p) if partials is not None
              else [rp.diff(p, j) for j in range(m.nvars)])
        for i in range(m.nvars):
            acc = {}
            for j, dj in enumerate(dp):
                if dj and m.coframe_inv[j][i]:
                    acc = rp.add(acc, rp.mul(m.coframe_inv[j][i], dj))
            out.add_term((i,) + idx, acc)
        for k, ik in enumerate(idx):
            for (u, v), c in dforms[ik].terms.items():
                coeff = rp.mul(p, c)
                out.add_term(idx[:k] + (u, v) + idx[k + 1:],
                             rp.neg(coeff) if k % 2 else coeff)
    return out


def _ref_sinv(data):
    return [[Fraction(x, data.den) for x in row] for row in data.sinv]


def _ref_express(forms, a):
    monos = sorted({idx for f in forms for idx in f.terms})
    assert set(a.terms) <= set(monos)
    red, _ = linalg.rref(
        [[rp.constant_value(f.terms.get(mo, {})) for f in forms]
         + linalg.unit_vector(i, len(monos)) for i, mo in enumerate(monos)])
    out = linalg.poly_matvec([row[len(forms):] for row in red],
                             [a.terms.get(mo, {}) for mo in monos])
    assert not any(out[len(forms):])
    return out[:len(forms)]


def _ref_vector(m, eta, degree, w):
    cell = m.page1().page0.cells[(degree, w - degree)]
    return [eta.terms.get(mo, {}) for mo in cell.basis]


def _ref_correct(m, eta, degree, w, partials):
    page1 = m.page1()
    data = page1.cell_data((degree, w - degree))
    a = linalg.poly_matvec(_ref_sinv(data)[:data.rank_in],
                           _ref_vector(m, eta, degree, w))
    if not any(a):
        return
    src = page1.page0.cells[data.source_cell]
    pivots = page1.cell_data(data.source_cell).out_pivots
    gamma = form_zero(m.nvars, data.source_cell[0], m.basis_tag)
    for i, p in enumerate(a):
        gamma.add_term(src.basis[pivots[i]], p)
    for idx, p in _ref_coframe_d(m, gamma, partials).terms.items():
        eta.add_term(idx, rp.neg(p))


def _ref_apply(h, coeffs, jets=None):
    partials = jets.partials if jets is not None else None
    lift = realize(h.source, coeffs)
    degree = h.source.degree + 1
    m = h.model
    eta = _ref_coframe_d(m, lift, partials)
    if isinstance(h, GradedOperator) and h.target.page1 is not None:
        out = [{} for _ in range(h.target.rank)]
        top = max(m.page1().page0.cells[key].weight
                  for key, _, _ in h.target.cells)
        for w in range(min(h.source.weights) + 1, top + 1):
            key = (degree, w - degree)
            if key not in m.page1().page0.cells:
                continue
            _ref_correct(m, eta, degree, w, partials)
            for target_key, lo, hi in h.target.cells:
                if target_key == key:
                    data = m.page1().cell_data(key)
                    out[lo:hi] = linalg.poly_matvec(
                        _ref_sinv(data)[data.rank_in:],
                        _ref_vector(m, eta, degree, w))
        return out
    if isinstance(h, GradedOperator):
        for w in h.correct_weights:
            _ref_correct(m, eta, degree, w, partials)
            assert not any(_ref_vector(m, eta, degree, w))
        return _ref_express(h.target.forms, eta)
    # the symplectic maps, on the flat coframe: eta is d(lift)
    jform = change_basis(symplectic_data(2)["J"], m, "coframe")
    if isinstance(h, RsProjD):
        trace = contract(eta, jform).terms.get((), {})
        return _ref_express(h.target.forms, form_sub(
            eta, form_pmul(jform, rp.scale(trace, Fraction(1, 2)))))
    assert isinstance(h, RsMiddle)
    x = _ref_express([wedge(jform, one_form(4, i, m.basis_tag))
                      for i in range(4)], eta)
    gamma = form_zero(4, 1, m.basis_tag)
    for i, p in enumerate(x):
        gamma.add_term((i,), p)
    return _ref_express(h.target.forms,
                        form_scale(_ref_coframe_d(m, gamma, partials), -1))


def _ref_normal_slots(h):
    jets = rp.Jets(h.source.forms[0].nvars)
    slots = []
    for slot in range(h.source.rank):
        coeffs = [{} for _ in range(h.source.rank)]
        coeffs[slot] = {(0,) * jets.nvars: Fraction(1)}
        groups = {}
        for t, p in enumerate(_ref_apply(h, coeffs, jets)):
            for alpha, c_alpha in jets.split(p).items():
                for b, c in c_alpha.items():
                    groups.setdefault(alpha, []).append((t, b, c))
        den = math.lcm(*(c.denominator for terms in groups.values()
                         for _, _, c in terms))
        slots.append((den, [(alpha, [(t, b, c.numerator
                                      * (den // c.denominator))
                                     for t, b, c in sorted(terms)])
                            for alpha, terms in sorted(groups.items())]))
    return slots


def _coprime_section(rng, node):
    """Coefficients over denominators 2, 3, 5, 7 and 11 mixed, so a
    section's lcm is never 1 and rarely shares a factor with a frame or
    cell denominator."""
    nvars = node.forms[0].nvars
    out = []
    for _ in range(node.rank):
        p = {}
        for _ in range(4):
            e = [0] * nvars
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(nvars)] += 1
            p[tuple(e)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30),
                                   rng.choice((2, 3, 5, 7, 11)))
        out.append(p)
    return out


@pytest.mark.parametrize("name,variant", sorted(GOLDEN))
def test_operators_match_fraction_reference(name, variant):
    """apply and the normal form of every operator equal the Fraction
    reference: on g2_5 the frame denominator is 2, and on elliptic7 and
    hyperbolic7 one cell's S^-1 rows are over 2."""
    res = complex_for(name, variant)
    rng = random.Random(29)
    for k, h in enumerate(res.operators):
        for _ in range(2):
            sec = _coprime_section(rng, h.source)
            out = h.apply(sec)
            assert out == _ref_apply(h, sec), (k, sec)
            assert all(type(c) is Fraction for p in out for c in p.values())
        assert h.normal_form().slots == _ref_normal_slots(h), k
