"""The four benchmark workloads.

Each set-up function takes the seed and a scratch directory, builds the
workload's inputs through the program, and returns the operations of one
pass.  An operation is a timed call into the program plus an untimed check
of its result against `gate`.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

import gate
from tracing import record_calls


@dataclass
class Op:
    name: str
    run: Callable[[], object]           # timed
    check: Callable[[object], bool]     # untimed


def _cli(argv: List[str]):
    from coframes import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# #### verify-small ########################################################

VERIFY_GEOMETRIES = ("contact5", "engel4", "g2_5", "dl_5", "dist3in6",
                     "symplectic4")
VERIFY_DEGREE = 1
VERIFY_SAMPLES = 20


def setup_verify_small(seed: int, workdir: str) -> List[Op]:
    from coframes import verify
    reports = record_calls(verify, "exactness_check")
    ops = []
    for g in VERIFY_GEOMETRIES:
        argv = ["verify", g, "--degree", str(VERIFY_DEGREE),
                "--samples", str(VERIFY_SAMPLES), "--format", "json",
                "--seed", str(seed)]

        def run(argv=argv):
            reports.clear()
            rc, out = _cli(argv)
            return rc, out, list(reports)

        def check(res, g=g):
            rc, out, reps = res
            return gate.verify_ok(rc, json.loads(out), reps, g,
                                 VERIFY_DEGREE)
        ops.append(Op("verify:" + g, run, check))
    return ops


# #### certify7 ############################################################

CERTIFY_MODELS = ("elliptic7", "hyperbolic7")
CERTIFY_DEGREE = 0


def certify_op(name: str, res, geometry: str, variant: str,
               expected=None, buffer: int = 1) -> Op:
    from coframes import verify
    return Op(name,
              lambda: verify.exactness_check(res, max_degree=CERTIFY_DEGREE,
                                             buffer=buffer),
              lambda rep: gate.exactness_ok(rep, res, CERTIFY_DEGREE,
                                            geometry, variant, expected))


def setup_certify7(seed: int, workdir: str) -> List[Op]:
    from coframes import models, operators
    return [certify_op("certify:" + m,
                       operators.named_complex(models.builtin_model(m)),
                       m, "bgg")
            for m in CERTIFY_MODELS]


# #### normalize ###########################################################

# Splitting shifts omega_j += t * omega_a, keyed by (horizontal j, vertical
# a); each t has the listed monomials (variable indices, repeated for powers;
# () is the constant).  Each support is that of
# splitting.perturb(model, random.Random(draw), max_degree, npairs) for the
# draw, of 0-8, whose round trip cost the median of the nine; README.md gives
# the figures.  The seed draws fresh nonzero coefficients, as perturb does.
NORMALIZE_CASES = (
    # model, max_degree, npairs, draw, support
    ("dist3in6", 2, 3, 3,
     {(3, 1): ((2,), ()), (4, 2): ((3, 3), ()), (5, 0): ((3, 5), ())}),
    ("elliptic7", 2, 3, 0,
     {(3, 1): ((1, 2), (2, 6)), (6, 0): ((1, 2), ()), (5, 2): ((4,), (2,))}),
    ("hyperbolic7", 2, 3, 0,
     {(3, 1): ((1, 2), (2, 6)), (6, 0): ((1, 2), ()), (5, 2): ((4,), (2,))}),
    ("elliptic7", 3, 4, 1,
     {(5, 1): ((0, 3, 6), ()), (6, 2): ((4,), ()), (3, 0): ((), (3,)),
      (5, 2): ((6,), (2,))}),
)


def _shift_poly(rng: random.Random, nvars: int, monomials) -> dict:
    poly = {}
    for variables in monomials:
        e = [0] * nvars
        for v in variables:
            e[v] += 1
        poly[tuple(e)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                                  rng.randint(1, 3))
    return poly


def setup_normalize(seed: int, workdir: str) -> List[Op]:
    from coframes import models, splitting
    rng = random.Random(seed)
    ops = []
    for i, (name, _, _, _, support) in enumerate(NORMALIZE_CASES):
        base = models.builtin_model(name)
        shifts = {pair: _shift_poly(rng, base.nvars, monos)
                  for pair, monos in support.items()}
        perturbed = models.splitting_shift(base, shifts, name + "_perturbed")
        ops.append(Op("normalize:%d:%s" % (i, name),
                      lambda m=perturbed: splitting.normalize_splitting(m),
                      lambda rep: gate.normalize_ok(rep,
                                                    splitting.obstruction)))
    return ops


# #### apply-oneshot #######################################################

APPLY_MAX_DEGREE = 3


def setup_apply_oneshot(seed: int, workdir: str) -> List[Op]:
    from coframes import models, operators, ratpoly
    rng = random.Random(seed)
    ops = []
    for geometry, variant in gate.RANKS:
        if variant == "rs":
            res = operators.build_rs_complex(2)
        else:
            res = operators.named_complex(models.builtin_model(geometry),
                                          variant)
        for k in range(len(res.operators)):
            section = operators.GradedSection(
                resolution=geometry, variant=variant, node=k,
                coeffs=operators.random_section(res.nodes[k], rng,
                                                APPLY_MAX_DEGREE))
            path = os.path.join(workdir, "%s-%s-d%d.json"
                                % (geometry, variant, k))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(section.to_json(res.nvars), fh)
            argv = ["apply", geometry, "--operator", "d%d" % k,
                    "--input", path]
            nxt = res.operators[k + 1] if k + 1 < len(res.operators) else None

            def check(out, geometry=geometry, variant=variant, k=k, nxt=nxt):
                rc, text = out
                payload = json.loads(text)
                coeffs = [ratpoly.poly_from_json(t) for t in payload["coeffs"]]
                return gate.apply_ok(rc, payload, geometry, variant, k,
                                     coeffs, nxt)
            ops.append(Op("apply:%s:%s:d%d" % (geometry, variant, k),
                          lambda argv=argv: _cli(argv), check))
    return ops


WORKLOADS = {
    "verify-small": setup_verify_small,
    "certify7": setup_certify7,
    "normalize": setup_normalize,
    "apply-oneshot": setup_apply_oneshot,
}
