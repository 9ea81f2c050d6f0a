"""Acceptance suite: ten headline guarantees, one test line each.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
guarantee.  Every budget quoted in the guarantee (wall clock caps, exact
zero, frozen dimension ladders) is asserted at full strength, nothing is
sampled down.  The heavy entries are the polynomial exactness runs on the
seven-variable models; expect a few minutes each.
"""

import random
import subprocess
import sys
import time
from pathlib import Path

import coframes.ratpoly as rp
import coframes.splitting as sp
from coframes.forms import exterior_d, form_zero
from coframes.models import (builtin_model, builtin_names, change_rows,
                             levi_apply, orbit_invariant, verify_structure)
from coframes.operators import build_rs_complex, derive_operator, named_complex
from coframes.pages import Page1, check_function_linear, e0_apply
from coframes.verify import (composition_check, cross_check_dims,
                             exactness_check)

from conftest import model, page1, random_unipotent

ROOT = Path(__file__).resolve().parents[1]

E1_GRIDS = {
    "contact5": {(0, 0): 1, (1, 0): 4, (2, 0): 5,
                 (3, 1): 5, (4, 1): 4, (5, 1): 1},
    "engel4": {(0, 0): 1, (1, 0): 2, (2, 1): 1,
               (2, 2): 1, (3, 3): 2, (4, 3): 1},
    "g2_5": {(0, 0): 1, (1, 0): 2, (2, 2): 3,
             (3, 3): 3, (4, 5): 2, (5, 5): 1},
}
E1_DIM_SEQUENCES = {
    "contact5": (1, 4, 5, 5, 4, 1),
    "engel4": (1, 2, 1, 1, 2, 1),
    "g2_5": (1, 2, 3, 3, 2, 1),
}

ALL_COMPLEXES = ([(name, "bgg") for name in builtin_names()]
                 + [("g2_5", "ambient"), ("g2_5", "basic"),
                    ("symplectic4", "rs")])

_RES = {}


def resolution(name, variant):
    key = (name, variant)
    if key not in _RES:
        if name == "symplectic4":
            _RES[key] = build_rs_complex(2)
        else:
            _RES[key] = named_complex(model(name), variant)
    return _RES[key]


def test_criterion_01_structure_equations():
    models = [model(name) for name in builtin_names()]
    t0 = time.monotonic()
    reports = [verify_structure(m) for m in models]
    elapsed = time.monotonic() - t0
    for m, rep in zip(models, reports):
        bad = [c["index"] for c in rep.congruences if not c["holds"]]
        assert rep.ok, "%s: congruences %s" % (m.name, bad)
    assert elapsed < 1.0, "structure suite took %.2fs" % elapsed


def test_criterion_02_e1_golden_tables():
    for name, grid in E1_GRIDS.items():
        dims = {k: v for k, v in page1(name).dims().items() if v}
        assert dims == grid, name
        seq = tuple(dims[k] for k in sorted(dims))
        assert seq == E1_DIM_SEQUENCES[name], name
    rep = cross_check_dims(model("g2_5"))
    assert rep.ok and rep.rows, "schur cross-check failed for g2_5"


def test_criterion_03_rank_order_ladders():
    basic = resolution("g2_5", "basic")
    assert [n.rank for n in basic.nodes] == [1, 2, 6, 9, 5, 1]
    assert basic.orders() == [1, 3, 1, 1, 1]
    assert basic.nodes[2].rank == 6 and basic.nodes[3].rank == 9
    bgg = resolution("g2_5", "bgg")
    assert [n.rank for n in bgg.nodes] == [1, 2, 3, 3, 2, 1]
    assert bgg.orders() == [1, 3, 2, 3, 1]


def test_criterion_04_operator_orders():
    rumin_mid = resolution("contact5", "bgg").operators[2]
    assert rumin_mid.order == 2
    engel_p = derive_operator(model("engel4"), (1, 0), (2, 1),
                              page1=page1("engel4"))
    assert engel_p.order == 2
    five_var_e = resolution("g2_5", "bgg").operators[1]
    assert five_var_e.order == 3


def test_criterion_05_composition_zero():
    per_model = {}
    for name, variant in ALL_COMPLEXES:
        res = resolution(name, variant)
        rep = composition_check(res, rng=random.Random(7),
                                sections=20, max_degree=3)
        assert rep.ok, "%s/%s failures: %s" % (name, variant, rep.failures)
        assert rep.sections_per_pair == 20
        per_model[name] = per_model.get(name, 0.0) + rep.elapsed
    for name, total in per_model.items():
        assert total < 120.0, "%s composition took %.1fs" % (name, total)


def test_criterion_06_polynomial_exactness():
    for name, variant in ALL_COMPLEXES:
        res = resolution(name, variant)
        expected = [1, 1, 0, 0, 0, 0] if variant == "rs" else None
        rep = exactness_check(res, max_degree=3, expected=expected)
        assert rep.ok, "%s/%s: %s" % (name, variant, rep.summary())
        assert not rep.guard_hit
        assert rep.totals[0] == 1, "%s/%s node 0" % (name, variant)
        assert rep.elapsed < 300.0, ("%s/%s exactness took %.1fs"
                                     % (name, variant, rep.elapsed))


def test_criterion_07_seven_variable_classification():
    expect = {"elliptic7": ("elliptic", (3, 0, 0)),
              "hyperbolic7": ("hyperbolic", (1, 2, 0))}
    for name, (kind, inertia) in expect.items():
        m = model(name)
        rep = orbit_invariant(m)
        assert rep.kind == kind and rep.inertia == inertia
        rng = random.Random(29)
        for t in range(5):
            m2 = change_rows(m, random_unipotent(m, rng),
                             "%s_u%d" % (name, t))
            rep2 = orbit_invariant(m2)
            assert rep2.kind == kind and rep2.inertia == inertia


def test_criterion_08_splitting_normalization():
    for name in ("dist3in6", "elliptic7", "hyperbolic7"):
        m = model(name)
        rep = sp.normalize_splitting(m)
        assert rep.obstruction_zero and rep.iterations == 0
        rng = random.Random(41)
        shifted, _ = sp.perturb(m, rng, max_degree=2, npairs=3)
        rep2 = sp.normalize_splitting(shifted)
        assert rep2.obstruction_zero, "%s round-trip" % name
        assert rep2.residual is None
    cert = sp.certify_two_adapted(model("dist3in6"))
    assert cert.ok and cert.weight3_ok and cert.residual_zero


def test_criterion_09_function_linearity():
    checked = 0
    for name in builtin_names():
        m = model(name)
        nvars = m.nvars
        mults = [rp.var(0, nvars),
                 rp.add(rp.const(2, nvars), rp.var(nvars - 1, nvars)),
                 rp.mul(rp.var(0, nvars), rp.var(nvars - 1, nvars))]

        def mono(idx):
            f = form_zero(nvars, len(idx), m.basis_tag)
            f.add_term(tuple(idx), rp.const(1, nvars))
            return f

        secs = [mono((i,)) for i in range(nvars)]
        secs += [mono((i, j)) for i in range(nvars)
                 for j in range(i + 1, min(nvars, i + 3))]
        ok, _ = check_function_linear(lambda a: e0_apply(m, a), secs, mults)
        assert ok, "%s e0" % name
        checked += 1
        vert = m.selectors.get("vertical", ())
        if vert:
            ok, _ = check_function_linear(
                lambda a: levi_apply(m, a), [mono((a,)) for a in vert], mults)
            assert ok, "%s levi" % name
            checked += 1
        if (len(vert), len(m.selectors.get("horizontal", ()))) in (
                (3, 3), (3, 4)):
            fn, inputs = sp.obstruction_hom(m)
            ok, _ = check_function_linear(fn, inputs, mults)
            assert ok, "%s obstruction" % name
            checked += 1
    assert checked >= 10
    n = 3
    consts = [form_zero(n, 0)]
    consts[0].add_term((), rp.const(1, n))
    bad_ok, failures = check_function_linear(
        exterior_d, consts, [rp.var(0, n)])
    assert not bad_ok and failures


def test_criterion_10_property_suite():
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_properties.py")],
        cwd=str(ROOT), capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "5 passed" in proc.stdout
    assert elapsed < 120.0, "property suite took %.1fs" % elapsed
