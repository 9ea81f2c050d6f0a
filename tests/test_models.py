"""Geometry models: structure verification, Levi data, orbit classes."""

import json
import random
import re
import time
from fractions import Fraction

import pytest

from coframes import cli, linalg, ratpoly as rp
from coframes.models import (GeometryModel, _det_one_order, _pair_coeffs,
                             _pfaffian_pairing, _pmat_identity,
                             _pmat_inverse_unimodular, _pmat_mul,
                             builtin_model, builtin_names,
                             change_rows, coframe_d, levi_apply, levi_form,
                             model_from_json, model_to_json, orbit_invariant,
                             split_by_cell_weight, splitting_shift,
                             symplectic_data, verify_structure)
from coframes.forms import (Form, exterior_d, form_add, form_sub, one_form,
                            sort_sign)

from conftest import model, random_unipotent


def test_builtin_names_count():
    assert len(builtin_names()) == 7


def test_structure_suite_all_models(each_model):
    rep = verify_structure(each_model)
    assert rep.diag_ok and rep.det_ok and rep.inverse_ok
    assert rep.weight_homogeneous
    assert all(c["holds"] for c in rep.congruences)
    assert rep.congruences, "every builtin declares congruences"


def test_structure_suite_under_a_second():
    t0 = time.monotonic()
    for name in builtin_names():
        assert verify_structure(builtin_model(name)).ok
    assert time.monotonic() - t0 < 1.0


def test_coframe_d_is_coordinate_d_in_disguise(each_model):
    m = each_model
    rng = random.Random(3)
    from coframes.forms import change_basis, form_zero
    for _ in range(5):
        f = form_zero(m.nvars, 1, m.basis_tag)
        i = rng.randrange(m.nvars)
        f.add_term((i,), rp.random_poly(rng, m.nvars, 2, terms=3))
        d1 = change_basis(coframe_d(m, f), m, "coordinate")
        d2 = exterior_d(change_basis(f, m, "coordinate"))
        assert form_sub(d1, d2).is_zero()


def test_split_by_cell_weight_partitions(each_model):
    m = each_model
    rng = random.Random(5)
    from coframes.forms import form_zero
    f = form_zero(m.nvars, 2, m.basis_tag)
    for _ in range(6):
        i, j = rng.randrange(m.nvars), rng.randrange(m.nvars)
        if i == j:
            continue
        f.add_term((min(i, j), max(i, j)),
                   rp.random_poly(rng, m.nvars, 2, terms=2))
    parts = split_by_cell_weight(m, f)
    acc = form_zero(m.nvars, 2, m.basis_tag)
    for w, piece in parts.items():
        assert w >= 2
        for idx in piece.terms:
            assert sum(m.weights[k] for k in idx) == w
        for idx, p in piece.terms.items():
            acc.add_term(idx, p)
    assert acc == f


def test_levi_form_constant_on_builtins(each_model):
    """levi_form derives a constant bracket on every builtin (it raises
    otherwise), on the depth-2 and horizontal covectors, and injective."""
    m = each_model
    rep = levi_form(m)
    assert rep.vertical == m.depth2 and rep.horizontal == m.horizontal
    assert rep.injective
    for f in rep.forms:
        assert all(rp.is_constant(p) for p in f.terms.values())


def _pf(f):
    """The Pfaffian of a constant 2-form over four covectors, read off its
    terms: x01 x23 - x02 x13 + x03 x12."""
    c = lambda k, l: rp.constant_value(f.terms.get((k, l), {}))
    return c(0, 1) * c(2, 3) - c(0, 2) * c(1, 3) + c(0, 3) * c(1, 2)


@pytest.mark.parametrize("seed", range(20))
def test_pfaffian_pairing_polarizes_the_pfaffian(seed):
    """_pfaffian_pairing on the pair coefficients of random constant
    2-forms x, y over four covectors: pairing(x, x) is Pf(x), and
    2 pairing(x, y) = Pf(x + y) - Pf(x) - Pf(y), which reads every
    off-diagonal sign the diagonal Gram goldens do not."""
    rng = random.Random(seed)
    horiz = (0, 1, 2, 3)

    def rand2():
        f = Form(4, 2)
        for _ in range(rng.randint(1, 8)):
            f.add_term(tuple(rng.sample(horiz, 2)),
                       rp.const(Fraction(rng.randint(-5, 5),
                                         rng.randint(1, 3)), 4))
        return f

    x, y = rand2(), rand2()
    cx, cy = _pair_coeffs(x, horiz), _pair_coeffs(y, horiz)
    assert _pfaffian_pairing(cx, cx) == _pf(x)
    assert (2 * _pfaffian_pairing(cx, cy)
            == _pf(form_add(x, y)) - _pf(x) - _pf(y))


def test_levi_form_refuses_a_nonconstant_bracket():
    # x_3^2 added to the dx_4 coefficient of omega_0 (0-based, as in
    # coframe[0][4]) adds 2 x_3 omega_3 ^ omega_4 to d(omega_0)
    m = builtin_model("elliptic7")
    coframe = [row[:] for row in m.coframe]
    x3 = rp.var(3, 7)
    coframe[0][4] = rp.add(coframe[0][4], rp.mul(x3, x3))
    m = GeometryModel("curved7", 7, m.weights, coframe)
    with pytest.raises(ValueError, match=re.escape(
            "the Levi bracket of curved7 is not constant: d(omega_1) has a "
            "nonconstant omega_4 ^ omega_5 coefficient")):
        levi_form(m)
    with pytest.raises(ValueError, match="not constant"):
        orbit_invariant(m)


def test_selectors_come_from_the_weights():
    m = model("g2_5")
    assert (m.horizontal, m.vertical, m.depth2) == ((3, 4), (0, 1, 2), (2,))
    assert "selectors" not in model_to_json(m)


def test_levi_apply_matches_depth2_congruences(each_model):
    m = each_model
    horiz = set(m.horizontal)
    by_index = {c.index: c for c in m.congruences}
    checked = 0
    for a in m.depth2:
        cong = by_index.get(a)
        if cong is None:
            continue
        if not all(set(idx) <= horiz for idx in cong.rhs.terms):
            continue
        va = one_form(m.nvars, a, m.basis_tag)
        assert form_sub(levi_apply(m, va), cong.rhs).is_zero()
        checked += 1
    assert checked, "every builtin has a horizontal depth-2 congruence"


def test_orbit_invariant_classifies_both_seven_var_models():
    e = orbit_invariant(model("elliptic7"))
    h = orbit_invariant(model("hyperbolic7"))
    assert e.kind == "elliptic" and e.inertia == (3, 0, 0)
    assert h.kind == "hyperbolic" and h.inertia == (1, 2, 0)
    assert e.levi_injective and h.levi_injective


def test_inertia_follows_sylvesters_law():
    # S = P^T D P, P an integer matrix of determinant 1 from random row
    # additions and D diagonal with chosen signs and zeros, has D's inertia;
    # D's few magnitudes often pair +a with -a, which zeroes coefficients
    # of det(x I - S) between its first and its trailing ones
    rng = random.Random(19)
    for n in range(6):
        for _ in range(25):
            d = [rng.choice((-1, 0, 1)) * Fraction(rng.randint(1, 2),
                                                   rng.randint(1, 2))
                 for _ in range(n)]
            p = linalg.identity(n)
            for _ in range(3 * n * (n > 1)):
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-3, 3)
                p[i] = [a + c * b for a, b in zip(p[i], p[j])]
            s = [[sum(p[k][i] * d[k] * p[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)]
            want = (sum(x > 0 for x in d), sum(x < 0 for x in d),
                    d.count(0))
            assert linalg.inertia(s) == want, (d, p)


@pytest.mark.parametrize("name", ["elliptic7", "hyperbolic7"])
def test_orbit_invariant_unipotent_invariance(name):
    m = model(name)
    base = orbit_invariant(m)
    rng = random.Random(13)
    for t in range(5):
        m2 = change_rows(m, random_unipotent(m, rng), "%s_u%d" % (name, t))
        rep = orbit_invariant(m2)
        assert rep.kind == base.kind
        assert rep.inertia == base.inertia


def test_orbit_invariant_rejects_wrong_shape():
    with pytest.raises(ValueError):
        orbit_invariant(model("dist3in6"))


def test_splitting_shift_validates_rows():
    m = model("dist3in6")
    with pytest.raises(ValueError):
        splitting_shift(m, {(0, 3): rp.const(1, m.nvars)})
    shifted = splitting_shift(m, {(3, 0): rp.var(4, m.nvars)})
    rep = verify_structure(shifted)
    assert all(c["holds"] for c in rep.congruences)


def _assert_carried_inverse(m):
    assert m.coframe_inv == linalg.poly_adjugate(m.coframe)
    assert verify_structure(m).inverse_ok


@pytest.mark.parametrize("name", ["elliptic7", "dist3in6"])
def test_row_changes_carry_exact_inverse(name):
    m = model(name)
    rng = random.Random(17)
    horiz, vert = m.horizontal, m.vertical
    shifts = {(horiz[0], vert[0]): rp.random_poly(rng, m.nvars, 2, terms=3),
              (horiz[-1], vert[-1]): rp.var(horiz[1], m.nvars)}
    _assert_carried_inverse(splitting_shift(m, shifts))
    for t in range(2):
        _assert_carried_inverse(
            change_rows(m, random_unipotent(m, rng), "%s_u%d" % (name, t)))


def _sort_sign_reference(seq):
    if len(set(seq)) != len(seq):
        return None, 0
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return tuple(sorted(seq)), (-1) ** inversions


def test_sort_sign_matches_reference():
    rng = random.Random(19)
    cases = [(), (3,), (0, 1, 2), (1, 0), (2, 2), (0, 1, 1)]
    for _ in range(300):
        k = rng.randint(0, 5)
        cases.append(tuple(sorted(rng.sample(range(8), k))))
        cases.append(tuple(rng.sample(range(8), k)))
        cases.append(tuple(rng.randrange(4) for _ in range(k)))
    for seq in cases:
        assert sort_sign(seq) == _sort_sign_reference(seq), seq


def test_change_rows_requires_unimodular():
    m = model("engel4")
    n = m.nvars
    emat = [[rp.const(2 if i == j else 0, n) for j in range(n)]
            for i in range(n)]
    with pytest.raises(ValueError, match="determinant must be exactly 1"):
        change_rows(m, emat, "bad")
    with pytest.raises(ValueError, match="determinant must be exactly 1"):
        _pmat_inverse_unimodular(emat, n)


@pytest.mark.parametrize("name", builtin_names() + ["symplectic4"])
def test_unit_triangular_inverse_matches_unimodular_inverse(name):
    m = (symplectic_data(2)["model"] if name == "symplectic4"
         else builtin_model(name))
    assert m.coframe_inv == linalg.poly_adjugate(m.coframe)
    assert verify_structure(m).ok


def test_triangular_row_changes_invert_by_substitution():
    """A splitting shift and filtration-preserving unipotent changes are
    det 1 by shape, off the index order, and their substitution inverse
    is the adjugate."""
    m = model("elliptic7")
    n = m.nvars
    rng = random.Random(23)
    shift = _pmat_identity(n, n)
    for j, a in [(3, 0), (4, 2), (6, 1), (6, 2)]:
        shift[j][a] = rp.random_poly(rng, n, 2, terms=3)
    for emat in [shift, random_unipotent(m, rng), random_unipotent(m, rng)]:
        order = _det_one_order(emat, n)
        assert order is not None and order != list(range(n))
        assert _pmat_inverse_unimodular(emat, n) == \
            linalg.poly_adjugate(emat)


def test_cyclic_det_one_block_inverts_by_adjugate():
    # [[2, 1], [1, 1]] has det 1 but no constant-1 diagonal
    n = 4
    emat = _pmat_identity(n, n)
    emat[1][1], emat[1][2] = rp.const(2, n), rp.const(1, n)
    emat[2][1] = rp.const(1, n)
    assert _det_one_order(emat, n) is None
    inv = _pmat_inverse_unimodular(emat, n)
    assert _pmat_mul(inv, emat) == _pmat_identity(n, n)
    assert _pmat_mul(emat, inv) == _pmat_identity(n, n)


def test_coframe_below_the_diagonal_with_det_one_builds():
    # omega_4 = dx_4 + x_1 dx_2: not triangular, and det 1 by expansion
    # along the last column
    blob = model_to_json(builtin_model("engel4"))
    blob["coframe"][3][1] = rp.poly_to_json(rp.var(0, 4), 4)
    m = model_from_json(blob)
    assert _pmat_mul(m.coframe_inv, m.coframe) == _pmat_identity(4, 4)
    assert verify_structure(m).inverse_ok


def _doubled_last_diagonal(name):
    blob = model_to_json(builtin_model(name))
    n = blob["nvars"]
    blob["coframe"][n - 1][n - 1] = rp.poly_to_json(rp.const(2, n), n)
    return blob


def test_triangular_coframe_with_diagonal_two_is_rejected(tmp_path, capsys):
    with pytest.raises(ValueError,
                       match="coframe determinant must be exactly 1"):
        model_from_json(_doubled_last_diagonal("engel4"))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_doubled_last_diagonal("elliptic7")))
    assert cli.main(["classify7", "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "coframe determinant must be exactly 1" in err


def test_symplectic_data():
    data = symplectic_data(2)
    alpha, jform = data["alpha"], data["J"]
    assert form_sub(exterior_d(alpha), jform).is_zero()
    assert exterior_d(jform).is_zero()


def test_model_json_roundtrip(each_model):
    m = each_model
    blob = model_to_json(m)
    text = json.dumps(blob, sort_keys=True)
    back = model_from_json(json.loads(text))
    assert back.nvars == m.nvars
    assert back.weights == m.weights
    assert back.coframe == m.coframe
    assert len(back.congruences) == len(m.congruences)
    for c1, c2 in zip(back.congruences, m.congruences):
        assert c1.index == c2.index
        assert c1.rhs == c2.rhs
        assert c1.mod == c2.mod
    assert verify_structure(back).ok


def test_model_json_ignores_an_extra_key():
    """A model holds no extra data: model_to_json writes no "extra" key,
    and one in an older file, even naming covectors out of range, is not
    read."""
    m = builtin_model("dist3in6")
    blob = model_to_json(m)
    assert "extra" not in blob
    blob["extra"] = {"omega_pairs": [[0, 4], [1, 7], [1, 4, 5]]}
    back = model_from_json(blob)
    assert back.coframe == m.coframe and back.weights == m.weights
    assert verify_structure(back).ok
