"""Splitting normalization: obstructions, shift action, certificates."""

import random
from fractions import Fraction

import pytest

from coframes import linalg, ratpoly as rp
from coframes.forms import (Form, contract, form_add, form_pmul, form_sub,
                            form_zero, wedge)
from coframes.models import (Congruence, GeometryModel, builtin_model,
                             coframe_d, levi_form, model_from_json,
                             model_to_json, pfaffian_gram,
                             split_by_cell_weight, splitting_shift,
                             verify_structure)
from coframes.pages import check_function_linear
from coframes.splitting import (_action_matrix, _Obstruction, _pair,
                                _shift_pairs, _sym, _unit_shift_delta,
                                _vertical_sigma, certify_two_adapted,
                                normalize_splitting,
                                obstruction, obstruction_hom, perturb,
                                shift_action_rank)

from conftest import model

SPLIT_MODELS = ("dist3in6", "elliptic7", "hyperbolic7")

# The shift action moves the whole 6-dimensional symmetric target for the
# six-variable model; for the seven-variable models only a rank-8 image
# inside the 20-dimensional trace-free target is reachable.
ACTION_RANKS = {"dist3in6": 6, "elliptic7": 8, "hyperbolic7": 8}


@pytest.mark.parametrize("name", SPLIT_MODELS)
def test_builtin_obstruction_vanishes(name):
    assert obstruction(model(name)).is_zero


@pytest.mark.parametrize("name", SPLIT_MODELS)
def test_shift_action_rank_frozen(name):
    assert shift_action_rank(model(name)) == ACTION_RANKS[name]


def test_obstruction_rejects_other_shapes():
    with pytest.raises(KeyError):
        obstruction(model("engel4"))


def test_obstruction_rejects_vertical_rows_beyond_depth_2():
    # dist3in6's shape, with one vertical row of weight 3: the Levi
    # bracket covers the depth-2 rows only
    blob = model_to_json(builtin_model("dist3in6"))
    blob["weights"][0] = 3
    m = model_from_json(blob)
    assert (len(m.vertical), len(m.horizontal)) == (3, 3)
    with pytest.raises(KeyError, match="no splitting obstruction"):
        obstruction(m)


@pytest.mark.parametrize("name", SPLIT_MODELS)
def test_normalize_round_trips_injected_perturbations(name):
    m = model(name)
    rng = random.Random(41)
    for trial in range(3):
        shifted, shifts = perturb(m, rng, max_degree=2, npairs=3)
        assert not obstruction(shifted).is_zero
        rep = normalize_splitting(shifted)
        assert rep.obstruction_zero
        assert rep.residual is None
        assert obstruction(rep.normalized).is_zero


def test_normalize_is_identity_on_builtins():
    for name in SPLIT_MODELS:
        rep = normalize_splitting(model(name))
        assert rep.obstruction_zero
        assert rep.iterations == 0
        assert rep.shifts == []


def test_two_adapted_certificate_dist3in6():
    cert = certify_two_adapted(model("dist3in6"))
    assert cert.weight3_ok
    assert cert.residual_zero
    assert cert.ok


def test_two_adapted_certificate_is_six_variable_only():
    with pytest.raises(KeyError, match="no two-adapted certificate"):
        certify_two_adapted(model("elliptic7"))


def test_two_adapted_survives_normalized_perturbation():
    m = model("dist3in6")
    rng = random.Random(43)
    shifted, _ = perturb(m, rng, max_degree=1, npairs=2)
    rep = normalize_splitting(shifted)
    assert rep.obstruction_zero
    cert = certify_two_adapted(rep.normalized)
    assert cert.ok


def test_two_adapted_correction_solves_the_congruence():
    """The certificate's 1-form nu solves
    sum_j nu_j (omega_j ^ omega)|_4 == (d omega)|_4 on the weight-4 parts."""
    shifted, _ = perturb(model("dist3in6"), random.Random(43), max_degree=1,
                         npairs=2)
    m = normalize_splitting(shifted).normalized
    cert = certify_two_adapted(m)
    nu = cert.correction_1form
    assert cert.ok and any(nu)
    (omega,) = _Obstruction(m).inputs
    lhs = form_zero(m.nvars, 3, m.basis_tag)
    for j, p in zip(m.horizontal, nu):
        wj = form_zero(m.nvars, 1, m.basis_tag)
        wj.add_term((j,), rp.const(1, m.nvars))
        piece = split_by_cell_weight(m, wedge(wj, omega)).get(4)
        lhs = form_add(lhs, form_pmul(piece, p))
    rhs = split_by_cell_weight(m, coframe_d(m, omega))[4]
    assert form_sub(lhs, rhs).is_zero()


# dist3in6's distinguished 2-form as once hand-listed with the model:
# sum of omega^a ^ omega^j over these (a, j)
OMEGA_PAIRS = ((0, 3), (1, 4), (2, 5))


def _hand_listed_omega(m, pairs=OMEGA_PAIRS):
    omega = form_zero(m.nvars, 2, m.basis_tag)
    for a, j in pairs:
        omega.add_term((a, j), rp.const(1, m.nvars))
    return omega


def _dist3in6_and_normalized():
    out = [pytest.param(model("dist3in6"), id="dist3in6")]
    for seed in range(3):
        shifted = perturb(model("dist3in6"), random.Random(seed))[0]
        out.append(pytest.param(shifted, id="perturbed-%d" % seed))
        out.append(pytest.param(normalize_splitting(shifted).normalized,
                                id="normalized-%d" % seed))
    return out


@pytest.mark.parametrize("m", _dist3in6_and_normalized())
def test_six_variable_input_is_the_hand_listed_two_form(m):
    """The one six-variable input, read off the weights and the Levi
    bracket, is the distinguished 2-form the model used to list by hand."""
    assert _Obstruction(m).inputs == [_hand_listed_omega(m)]


def _permuted(m, sigma):
    """m with covector i and variable i of the copy being covector and
    variable sigma[i] of m: rows and columns permuted, the variables
    renamed to match, and the congruences re-indexed."""
    n = m.nvars
    inv = {s: i for i, s in enumerate(sigma)}

    def rename(p):
        return {tuple(e[sigma[k]] for k in range(n)): c for e, c in p.items()}
    mat = [[rename(m.coframe[sigma[i]][sigma[j]]) for j in range(n)]
           for i in range(n)]
    out = GeometryModel(m.name + "_permuted", n,
                        [m.weights[s] for s in sigma], mat)
    for cg in m.congruences:
        rhs = Form(n, 2, out.basis_tag)
        for idx, p in cg.rhs.terms.items():
            rhs.add_term(tuple(inv[i] for i in idx), p)
        out.congruences.append(Congruence(
            index=inv[cg.index], rhs=rhs,
            mod=tuple(sorted(inv[i] for i in cg.mod))))
    return out


PERMUTED = [("dist3in6", (3, 4, 5, 0, 1, 2)), ("dist3in6", (3, 0, 4, 1, 5, 2)),
            ("elliptic7", (3, 4, 5, 6, 0, 1, 2))]


@pytest.mark.parametrize("name, sigma", PERMUTED)
def test_splitting_reads_covectors_in_any_order(name, sigma):
    """Splitting finds the vertical covectors by weight, so a model that
    only lists its covectors in another order splits as the builtin."""
    pm = _permuted(model(name), sigma)
    assert pm.weights != model(name).weights
    assert verify_structure(pm).ok
    assert obstruction(pm).is_zero
    assert shift_action_rank(pm) == ACTION_RANKS[name]
    normalized = []
    for seed in range(3):
        rep = normalize_splitting(perturb(pm, random.Random(seed))[0])
        assert rep.obstruction_zero
        assert obstruction(rep.normalized).is_zero
        normalized.append(rep.normalized)
    if name == "dist3in6":
        pairs = [(sigma.index(a), sigma.index(j)) for a, j in OMEGA_PAIRS]
        assert _Obstruction(pm).inputs == [_hand_listed_omega(pm, pairs)]
        for m in [pm] + normalized:
            assert certify_two_adapted(m).ok


def test_vertical_sigma_refuses_a_term_without_one_vertical_leg():
    m = model("dist3in6")
    for idx in ((0, 1, 3), (3, 4, 5)):
        part = Form(m.nvars, 3, m.basis_tag)
        part.add_term(idx, rp.const(1, m.nvars))
        with pytest.raises(ValueError, match="not vertical wedge horizontal"):
            _vertical_sigma(m, part)


@pytest.mark.parametrize("name", SPLIT_MODELS)
def test_obstruction_hom_function_linear(name):
    m = model(name)
    fn, inputs = obstruction_hom(m)
    mults = [rp.var(0, m.nvars),
             rp.add(rp.const(2, m.nvars), rp.var(m.nvars - 1, m.nvars))]
    ok, failures = check_function_linear(fn, inputs, mults)
    assert ok, failures


def test_obstruction_hom_function_linear_after_shift():
    # the carried-over right sides must be re-tagged with the shifted
    # model's basis, or the map wedges forms over two bases
    m = model("dist3in6")
    shifted = splitting_shift(m, {(3, 0): rp.var(4, m.nvars)})
    fn, inputs = obstruction_hom(shifted)
    assert any(not fn(a).is_zero() for a in inputs)
    mults = [rp.var(0, m.nvars),
             rp.add(rp.const(2, m.nvars), rp.var(m.nvars - 1, m.nvars))]
    ok, failures = check_function_linear(fn, inputs, mults)
    assert ok, failures


def test_shifted_model_keeps_congruences_mod_vertical():
    m = model("dist3in6")
    shifted = splitting_shift(m, {(3, 0): rp.var(4, m.nvars)})
    rep = verify_structure(shifted)
    assert all(c["holds"] for c in rep.congruences)
    vert = set(m.vertical)
    for cg in shifted.congruences:
        assert vert <= set(cg.mod)


def test_normalize_reports_iterations_bounded():
    m = model("elliptic7")
    rng = random.Random(47)
    shifted, _ = perturb(m, rng, max_degree=3, npairs=4)
    rep = normalize_splitting(shifted)
    assert rep.obstruction_zero
    assert rep.iterations <= 6
    # counted off the pass's own elimination of [action | right sides]
    assert rep.action_rank == ACTION_RANKS["elliptic7"]


def _with_perturbed(names, seed, copies=1):
    """Each named builtin, then copies perturbed copies of each."""
    out = [model(name) for name in names]
    rng = random.Random(seed)
    return out + [perturb(m, rng, max_degree=2, npairs=3)[0]
                  for m in out for _ in range(copies)]


def _perturbed_by_seed(names, seeds):
    return [pytest.param(perturb(model(name), random.Random(seed))[0],
                         id="%s-perturbed-%d" % (name, seed))
            for name in names for seed in seeds]


@pytest.mark.parametrize("m", [pytest.param(model(n), id=n)
                               for n in SPLIT_MODELS]
                         + _perturbed_by_seed(SPLIT_MODELS, range(3)))
def test_levi_bracket_is_the_declared_congruences(m):
    """Splitting reads the derived bracket (levi_form), never a
    congruence.  The depth-2 congruence right sides, which a shift carries
    over unchanged, stay an independent check of it: on a shifted model
    d(omega_a) also has terms with a vertical leg, which the bracket's
    weight-2 filter drops."""
    rhs = {c.index: c.rhs for c in m.congruences}
    rep = levi_form(m)
    assert rep.vertical == m.depth2 == m.vertical
    assert rep.forms == [rhs[a] for a in rep.vertical]


def _reference_action_matrix(m):
    """The shift action the slow way: one shifted model per unit shift,
    minus the model's own obstruction."""
    base = obstruction(m).flatten()
    one = rp.const(1, m.nvars)
    cols = []
    for pair in _shift_pairs(m):
        flat = obstruction(splitting_shift(m, {pair: one})).flatten()
        cols.append([rp.constant_value(rp.sub(p, q))
                     for p, q in zip(flat, base)])
    return [list(r) for r in zip(*cols)]


@pytest.mark.parametrize("m", _with_perturbed(SPLIT_MODELS, 53),
                         ids=lambda m: m.name)
def test_action_matrix_matches_shifted_models(m):
    # the builtin's obstruction, as normalize_splitting uses it on shifts
    amat = _action_matrix(_Obstruction(model(m.name.split("_")[0])), m)
    ref = _reference_action_matrix(m)
    assert all(isinstance(x, Fraction) for row in amat for x in row)
    assert amat == ref
    assert linalg.rank(amat) == ACTION_RANKS[m.name.split("_")[0]]


@pytest.mark.parametrize("m", _with_perturbed(("elliptic7", "hyperbolic7"),
                                              59), ids=lambda m: m.name)
def test_seven_metric_is_shift_invariant(m):
    metric = pfaffian_gram(levi_form(m))
    one = rp.const(1, m.nvars)
    for pair in _shift_pairs(m):
        shifted = splitting_shift(m, {pair: one})
        assert pfaffian_gram(levi_form(shifted)) == metric


def _obstruction_constants(ob):
    return ([f.terms for f in ob.inputs], [f.terms for f in ob.levis],
            ob.pinv_t, ob.trace_free)


@pytest.mark.parametrize("m", _with_perturbed(SPLIT_MODELS, 59),
                         ids=lambda m: m.name)
def test_obstruction_constants_are_shift_invariant(m):
    """What _Obstruction holds is the same for a builtin and for its
    perturbed copy and their unit shifts, so normalize_splitting builds
    one for all its passes."""
    base = _obstruction_constants(_Obstruction(model(m.name.split("_")[0])))
    assert _obstruction_constants(_Obstruction(m)) == base
    one = rp.const(1, m.nvars)
    for pair in _shift_pairs(m):
        shifted = _Obstruction(splitting_shift(m, {pair: one}))
        assert _obstruction_constants(shifted) == base


def _reference_report(ob, dforms):
    """ob.report(dforms, ...).matrices the long way: d of each input by
    Leibniz in every weight, its weight-4 part split off, and each Levi
    coefficient read by a general double contraction."""
    m = ob.model
    k = len(ob.levis)
    out = []
    for beta in ob.inputs:
        d3 = Form(m.nvars, 3, beta.basis)
        for idx, p in beta.terms.items():
            for pos, i in enumerate(idx):
                for (u, v), c in dforms[i].terms.items():
                    coeff = rp.mul(p, c)
                    if pos % 2:
                        coeff = rp.neg(coeff)
                    d3.add_term(idx[:pos] + (u, v) + idx[pos + 1:], coeff)
        part = split_by_cell_weight(m, d3).get(4, Form(m.nvars, 3, d3.basis))
        sym = _sym([linalg.poly_matvec(ob.pinv_t,
                                       [contract(sigma, b).terms.get((), {})
                                        for b in ob.levis])
                    for sigma in _vertical_sigma(m, part)])
        if ob.trace_free is not None:
            flat = linalg.poly_matvec(ob.trace_free,
                                      [p for row in sym for p in row])
            sym = [flat[a * k:(a + 1) * k] for a in range(k)]
        out.append(sym)
    return out


@pytest.mark.parametrize("m", _with_perturbed(SPLIT_MODELS, 61, copies=2),
                         ids=lambda m: m.name)
def test_weight4_report_matches_full_leibniz(m):
    """The report builds d of each input in weight 4 only; it equals the
    projection of the whole of d, on the model's structure forms and on
    the change of them under every unit shift."""
    ob = _Obstruction(m)
    dforms = m.structure_forms()
    ref = _reference_report(ob, dforms)
    assert ob.report(dforms, m.name).matrices == ref
    # zero on the flat builtins only
    assert any(p for mat in ref for row in mat for p in row) == (
        m.name not in SPLIT_MODELS)
    for j, a in _shift_pairs(m):
        delta = _unit_shift_delta(dforms, j, a)
        ref = _reference_report(ob, delta)
        assert any(p for mat in ref for row in mat for p in row)
        assert ob.report(delta, m.name).matrices == ref


@pytest.mark.parametrize("seed", range(40))
def test_pairing_is_the_double_contraction(seed):
    """_pair(sigma, b) is contract(sigma, b)'s degree-0 coefficient for two
    2-forms.  b's entries go through Form.add_term keyed (k, l) with
    k > l, with k == l, and in both orders of one pair, so the sorting, the
    sign flip and the dropped diagonal are read as well."""
    rng = random.Random(seed)
    n = 4 + seed % 4
    sigma = Form(n, 2)
    b = Form(n, 2)
    for _ in range(rng.randint(1, 6)):
        lo, hi = sorted(rng.sample(range(n), 2))
        b.add_term((hi, lo), rp.random_poly(rng, n, 2, terms=3))
        if rng.random() < 0.5:
            b.add_term((lo, hi), rp.random_poly(rng, n, 2, terms=3))
        b.add_term((lo, lo), rp.random_poly(rng, n, 2, terms=3))
        if rng.random() < 0.8:
            sigma.add_term(rng.choice([(lo, hi), (hi, lo)]),
                           rp.random_poly(rng, n, 2, terms=3))
    for _ in range(rng.randint(0, 4)):
        sigma.add_term(tuple(rng.sample(range(n), 2)),
                       rp.random_poly(rng, n, 2, terms=3))
    assert _pair(sigma, b) == contract(sigma, b).terms.get((), {})
