"""Correctness gate: each benchmark operation against its known answer.

The expected values are facts about the models, not values read back from
the program: the built-in resolutions of the constants are exact except for
one class in degree 0, the symplectic control complex has one more class in
degree 1, the rank ladders below are the bundle ranks of the resolutions,
consecutive operators of a complex compose to zero, and the flat built-in
models normalize to a zero splitting obstruction.  A certificate must also
cover every slice its degree asks for: the slice dimensions are counted here
from the node and coefficient weights, not taken from the program.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

# Bundle ranks of every complex the command line can build.
RANKS = {
    ("contact5", "bgg"): (1, 4, 5, 5, 4, 1),
    ("engel4", "bgg"): (1, 2, 2, 2, 1),
    ("g2_5", "bgg"): (1, 2, 3, 3, 2, 1),
    ("g2_5", "ambient"): (1, 2, 7, 10, 5, 1),
    ("g2_5", "basic"): (1, 2, 6, 9, 5, 1),
    ("dist3in6", "bgg"): (1, 3, 8, 12, 8, 3, 1),
    ("dl_5", "bgg"): (1, 3, 6, 6, 3, 1),
    ("elliptic7", "bgg"): (1, 4, 11, 14, 14, 11, 4, 1),
    ("hyperbolic7", "bgg"): (1, 4, 11, 14, 14, 11, 4, 1),
    ("symplectic4", "rs"): (1, 4, 5, 5, 4, 1),
}


def variants(geometry: str) -> list:
    return [v for (g, v) in RANKS if g == geometry]


def expected_homology(geometry: str, variant: str) -> list:
    n = len(RANKS[(geometry, variant)])
    if variant == "rs":
        return [1, 1] + [0] * (n - 2)
    return [1] + [0] * (n - 1)


def slice_dims(node_weights: Sequence[int], coeff_weights: Sequence[int],
               degree: int, buffer: int = 1) -> Dict[int, int]:
    """Total weight -> dimension of every non-empty slice of a node that a
    section with coefficients of degree <= degree (plus buffer) reaches."""
    lo = min(node_weights)
    hi = max(node_weights) + max(coeff_weights) * degree + buffer
    # monomials[t]: monomials of weighted degree t in the coefficient variables
    monomials = [1] + [0] * (hi - lo)
    for w in coeff_weights:
        for t in range(w, len(monomials)):
            monomials[t] += monomials[t - w]
    dims = {}
    for s in range(lo, hi + 1):
        d = sum(monomials[s - w] for w in node_weights if s - w >= 0)
        if d:
            dims[s] = d
    return dims


def covers(report, res, degree: int) -> bool:
    """The certificate is to the requested degree and checked every
    non-empty slice of every node, with the right dimensions."""
    if report.max_degree != degree or len(report.nodes) != len(res.nodes):
        return False
    for node, rep in zip(res.nodes, report.nodes):
        dims = slice_dims(node.weights, res.coeff_weights, degree)
        if rep.slices_checked != sorted(dims) \
                or rep.dim_total != sum(dims.values()):
            return False
    return True


def exactness_ok(report, res, degree: int, geometry: str, variant: str,
                 expected: Optional[Sequence[int]] = None) -> bool:
    """An ExactnessReport of res covers every slice to the degree and shows
    the homology the complex must have."""
    want = list(expected if expected is not None
                else expected_homology(geometry, variant))
    return (report.variant == variant and report.totals == want
            and report.composition_ok and not report.guard_hit
            and covers(report, res, degree))


def verify_ok(rc: int, payload: dict, reports: list, geometry: str,
              degree: int) -> bool:
    """`coframes verify` passed, and its certificates, given as (resolution,
    report) pairs, cover the degree and show the right homology."""
    if rc != 0 or payload.get("ok") is not True:
        return False
    if payload.get("geometry") != geometry:
        return False
    names = variants(geometry)
    if [rep.variant for _, rep in reports] != names:
        return False
    return all(exactness_ok(rep, res, degree, geometry, v)
               for (res, rep), v in zip(reports, names))


def normalize_ok(report, obstruction_fn) -> bool:
    """Normalization reached, and independently has, a zero obstruction."""
    return (report.obstruction_zero and report.residual is None
            and obstruction_fn(report.normalized).is_zero)


def apply_ok(rc: int, payload: dict, geometry: str, variant: str, k: int,
             coeffs: list, next_op) -> bool:
    """`coframes apply` output lands on the next node and is killed there."""
    if rc != 0:
        return False
    if (payload.get("model"), payload.get("variant"), payload.get("cell")) \
            != (geometry, variant, k + 1):
        return False
    if len(coeffs) != RANKS[(geometry, variant)][k + 1]:
        return False
    return next_op is None or not any(next_op.apply(coeffs))
