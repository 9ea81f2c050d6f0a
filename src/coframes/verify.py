"""Independent checks on computed complexes.

Three layers: bundle ranks against product formulas for highest-weight
labels, palindromy of rank ladders, and a slicewise exactness certificate.
The certificate splits every section space into finite slices by total
weighted degree (slot weight plus coefficient weight), computes ranks of the
incoming and outgoing maps on each slice, and verifies that image plus
kernel dimensions account for the whole slice.

A slice matrix is read off the operator's normal form (see operators.py):
the column of x^e in source slot s is the closed form sum_alpha c_alpha *
e!/(e - alpha)! * x^(e - alpha), as integer numerators over the one
denominator d_s of slot s.  The columns are assembled alpha first
(_SliceCache.columns): for each alpha of slot s and each monomial x^r of
the weight the slice leaves, s's weight and wt(alpha) taken off, the pair
adds its terms, times the factor prod_i perm(r_i + alpha_i, alpha_i), which
is never zero, to the column of x^(alpha + r).  So the work goes as the
nonzeros, and no pair whose alpha does not divide the monomial comes up.
Rows and columns are keyed by exponents packed into integers
(operators.PackedKernel), in a base above every exponent component the
slice reaches plus the largest b_i: no digit carries, so no key aliases
another, and a term whose key is not a row of the target slice is off
weight and fails the certificate.  No form is built and no cascade runs
per column.

The certificate walks the total weights.  Each weight s cuts the nodes and
operators into one finite complex of vector spaces, and the walk climbs it
from node 0 up: operator k's map on s is built only if node k or node k + 1
checks s, and only the map below the current node is held (_SliceMap).  So
each (operator, slice) map is built once, and ranked at most once by sparse
elimination of its integer columns modulo one prime (linalg.rank_mod_p)
and at most once exactly: a slice whose modular count leaves homology
falls back to exact rational elimination, and the node above still starts
from the map's modular rank.  Scaling a column by a nonzero rational is an
invertible column operation, so the integer columns have the rank over Q
of the true ones.  A minor that is nonzero mod p is nonzero over Q, so for
every prime the modular rank of an integer matrix is at most its rank over
Q; no denominator is reduced mod p, so no prime needs excluding.  Image
inside kernel is verified once per adjacent pair and slice, by an exact
product in integers: with input column i standing for a_i / e_i and output
column j for b_j / d_j, the product column times e_i * L, for L =
lcm(d_j), is sum_j a_ij (L / d_j) b_j, which vanishes exactly when the
product does.  Together these are a certificate, not a heuristic: rank_in +
rank_out over Q is at least the modular sum, and the zero product caps it
at the slice dimension, so a modular sum equal to the dimension proves the
slice exact over Q.

A slice whose matrices hold more than GUARD entries in all is skipped and
sets guard_hit, which fails the certificate.  The homology a complex must
show comes from the complex itself (Resolution.homology).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm, perm
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg, ratpoly as rp
from .models import GeometryModel
from .operators import PackedKernel, Resolution, random_section
from .pages import CellKey

PRIME = 1000003
# most basis monomials plus column entries one slice may hold
GUARD = 10 ** 6


# #### rank formulas #######################################################

def schur_dim(label: Sequence[int]) -> int:
    """Dimension of the irreducible with the given highest-weight label."""
    if len(label) == 2:
        a, b = label
        if a > b:
            raise ValueError("label must be nondecreasing")
        return b - a + 1
    if len(label) == 3:
        a, b, c = label
        if not (a <= b <= c):
            raise ValueError("label must be nondecreasing")
        return (b - a + 1) * (c - b + 1) * (c - a + 2) // 2
    raise ValueError("only length-2 and length-3 labels are supported")


SCHUR_LABELS: Dict[str, Dict[CellKey, Tuple[int, ...]]] = {
    "g2_5": {
        (0, 0): (0, 0), (1, 0): (0, 1), (2, 2): (1, 3),
        (3, 3): (2, 4), (4, 5): (4, 5), (5, 5): (5, 5),
    },
    "dist3in6": {
        (0, 0): (0, 0, 0), (1, 0): (0, 0, 1), (2, 1): (0, 1, 2),
        (3, 1): (0, 2, 2), (3, 2): (1, 1, 3), (4, 2): (1, 2, 3),
        (5, 3): (2, 3, 3), (6, 3): (3, 3, 3),
    },
}


@dataclass
class DimReport:
    model: str
    rows: List[Tuple[CellKey, int, Tuple[int, ...], int]]
    palindrome_ok: bool
    ok: bool


def cross_check_dims(model: GeometryModel) -> DimReport:
    """Compare computed cell dimensions with the label product formulas."""
    table = SCHUR_LABELS.get(model.name)
    if table is None:
        raise KeyError("no label table for model %s" % model.name)
    dims = model.page1().dims()
    rows = []
    ok = set(dims) == set(table)
    for key in sorted(table):
        want = schur_dim(table[key])
        got = dims.get(key, 0)
        rows.append((key, got, table[key], want))
        if got != want:
            ok = False
    ladder = model.page1().ladder()
    pal = ladder == ladder[::-1]
    return DimReport(model=model.name, rows=rows, palindrome_ok=pal,
                     ok=ok and pal)


# #### weighted monomial slices ############################################

_MONO_CACHE: Dict[Tuple[Tuple[int, ...], int], List[Tuple[int, ...]]] = {}


def weighted_monomials(weights: Tuple[int, ...], w: int) -> List[Tuple[int, ...]]:
    """All exponent tuples of weighted degree exactly w (weights all >= 1)."""
    if w < 0:
        return []
    key = (weights, w)
    hit = _MONO_CACHE.get(key)
    if hit is not None:
        return hit
    n = len(weights)
    out: List[Tuple[int, ...]] = []

    def rec(prefix: List[int], left: int, pos: int) -> None:
        if pos == n - 1:
            q, r = divmod(left, weights[pos])
            if r == 0:
                out.append(tuple(prefix + [q]))
            return
        step = weights[pos]
        for v in range(left // step + 1):
            rec(prefix + [v], left - v * step, pos + 1)
    rec([], w, 0)
    _MONO_CACHE[key] = out
    return out


class _SliceCache:
    """Packed monomials of one resolution's slices, memoized for the length
    of one certificate; bases and columns are built on every call."""

    def __init__(self, res: Resolution):
        if not res.coeff_weights or min(res.coeff_weights) < 1:
            raise ValueError("resolution needs positive coefficient weights")
        self.res = res
        self.weights = tuple(res.coeff_weights)
        self._packs: Dict[Tuple[int, int],
                          List[Tuple[Tuple[int, ...], int]]] = {}

    def dim(self, node_idx: int, s: int) -> int:
        """len(basis(node_idx, s)), counted without building the basis."""
        return sum(len(weighted_monomials(self.weights, s - w))
                   for w in self.res.nodes[node_idx].weights)

    def basis(self, node_idx: int, s: int) -> List[Tuple[int, Tuple[int, ...]]]:
        """(slot, exponent) of each basis monomial, in column order."""
        return [(slot, e)
                for slot, w in enumerate(self.res.nodes[node_idx].weights)
                for e in weighted_monomials(self.weights, s - w)]

    def _packed(self, w: int, kern: PackedKernel
                ) -> List[Tuple[Tuple[int, ...], int]]:
        """weighted_monomials(weights, w), each with its kern.pack, kept
        for each base."""
        key = (w, kern.bits)
        hit = self._packs.get(key)
        if hit is None:
            hit = [(r, kern.pack(r))
                   for r in weighted_monomials(self.weights, w)]
            self._packs[key] = hit
        return hit

    def _positions(self, node_idx: int, s: int, kern: PackedKernel
                   ) -> Dict[int, int]:
        """{key(slot, e): position of (slot, e) in basis(node_idx, s)}."""
        pos: Dict[int, int] = {}
        for slot, wslot in enumerate(self.res.nodes[node_idx].weights):
            high = slot << kern.shift
            for _, pe in self._packed(s - wslot, kern):
                pos[high + pe] = len(pos)
        return pos

    def columns(self, op_idx: int, s: int
                ) -> Tuple[List[Dict[int, int]], List[int]]:
        """Matrix columns of operator op_idx on the total-weight-s slice:
        the images of the basis monomials under its normal form, assembled
        alpha first from the pairs (alpha, r) that contribute.

        Returns (cols, dens): column j is cols[j] / dens[j], with cols[j]
        the integer numerators and dens[j] its source slot's denominator.
        """
        nf = self.res.operators[op_idx].normal_form()
        src = self.res.nodes[op_idx]
        low = min(min(src.weights), min(self.res.nodes[op_idx + 1].weights))
        # the largest exponent component either slice basis can hold
        kern = nf.kernel(max(0, (s - low) // min(self.weights)))
        out_pos = self._positions(op_idx + 1, s, kern)
        col_pos = self._positions(op_idx, s, kern)
        cols: List[Dict[int, int]] = [{} for _ in col_pos]
        try:
            for slot, wslot in enumerate(src.weights):
                for palpha, support, offs in kern.slots[slot]:
                    w = s - wslot - sum(self.weights[i] * a
                                        for i, a in support)
                    alpha_key = (slot << kern.shift) + palpha
                    for r, pr in self._packed(w, kern):
                        f = 1
                        for i, a in support:
                            f *= perm(r[i] + a, a)
                        col = cols[col_pos[alpha_key + pr]]
                        for off, num in offs:
                            row = out_pos[pr + off]
                            col[row] = col.get(row, 0) + f * num
        except KeyError:
            raise AssertionError(
                "operator %d is not weight-homogeneous" % op_idx) from None
        cols = [{row: v for row, v in col.items() if v}
                if 0 in col.values() else col for col in cols]
        dens: List[int] = []
        for slot, wslot in enumerate(src.weights):
            dens += [nf.slots[slot][0]] * len(
                weighted_monomials(self.weights, s - wslot))
        return cols, dens


class _SliceMap:
    """One operator's integer columns on one slice, ranked on first read
    mod PRIME (modp) and over Q (exact), each at most once; the integer
    columns serve both, since column scaling is rank-neutral.  A map with
    no columns, into node 0 or out of the last node, ranks (0, "none")."""

    def __init__(self, cols: List[Dict[int, int]], dens: List[int]):
        self.cols, self.dens = cols, dens
        self.entries = sum(map(len, cols))

    @cached_property
    def modp(self) -> Tuple[int, str]:
        live = [c for c in self.cols if c]
        if not live:
            return 0, "empty" if self.cols else "none"
        return linalg.rank_mod_p(live, PRIME), "modp"

    @cached_property
    def exact(self) -> Tuple[int, str]:
        if not self.cols:
            return 0, "none"
        return linalg.sparse_rank_exact(
            [{r: Fraction(v) for r, v in c.items()} for c in self.cols
             if c]), "exact"


def _compose_is_zero(cols_in: List[Dict[int, int]],
                     cols_out: List[Dict[int, int]],
                     dens_out: Sequence[int]) -> bool:
    """Exact check that every image column of the first map is killed.

    Output column j stands for cols_out[j] / dens_out[j] and is scaled by
    lcm(dens_out) // dens_out[j]; input denominators play no part.
    """
    big = lcm(*dens_out)
    scaled = [(big // d, col) for d, col in zip(dens_out, cols_out)]
    for col in cols_in:
        acc: Dict[int, int] = {}
        for j, a in col.items():
            f, vec = scaled[j]
            f *= a
            for r, v in vec.items():
                acc[r] = acc.get(r, 0) + f * v
        if any(acc.values()):
            return False
    return True


@dataclass
class NodeExactness:
    node: int
    dim_total: int
    slices_checked: List[int]
    homology_slices: Dict[int, int]
    homology_total: int
    methods: Dict[str, int] = field(default_factory=dict)


@dataclass
class ExactnessReport:
    name: str
    variant: str
    max_degree: int
    nodes: List[NodeExactness]
    expected: List[int]
    composition_ok: bool
    guard_hit: bool
    elapsed: float

    @property
    def totals(self) -> List[int]:
        return [n.homology_total for n in self.nodes]

    @property
    def ok(self) -> bool:
        return (self.totals == self.expected and self.composition_ok
                and not self.guard_hit)

    def summary(self) -> str:
        lines = ["%s/%s exactness to coefficient degree %d"
                 % (self.name, self.variant, self.max_degree)]
        for n in self.nodes:
            extra = ""
            if n.homology_slices:
                extra = " at " + ", ".join(
                    "weight %d: %d" % (s, h)
                    for s, h in sorted(n.homology_slices.items()))
            lines.append("  node %d: %d slice dims, homology %d%s"
                         % (n.node, n.dim_total, n.homology_total, extra))
        lines.append("  composition %s, expected homology %s, %s"
                     % ("ok" if self.composition_ok else "NONZERO",
                        self.expected, "ok" if self.ok else "FAILED"))
        return "\n".join(lines)


def exactness_check(res: Resolution, max_degree: int = 3,
                    buffer: int = 1) -> ExactnessReport:
    """Certify slicewise exactness for coefficients up to max_degree.

    Node k checks every nonempty slice whose total weight a section of it
    with polynomial coefficients of degree max_degree (plus a safety
    buffer) can reach.  At each total weight s the walk climbs nodes 0, 1,
    ..., building operator k's map on s only when node k or node k + 1
    checks s, and holding only the map below the current node.  A slice
    passes when incoming rank plus outgoing rank equals its dimension and
    the exact composition product is zero.  A nonzero product clears
    composition_ok; the slice's homology count dim - rank_in - rank_out is
    then kept as computed, negative when the incoming image leaves the
    outgoing kernel.  The totals must equal res.homology(); a slice over
    GUARD entries is skipped and fails it.
    """
    t0 = time.perf_counter()
    cache = _SliceCache(res)
    top = max(cache.weights) * max_degree + buffer
    spans = [range(min(node.weights), max(node.weights) + top + 1)
             for node in res.nodes]
    nodes = [NodeExactness(node=k, dim_total=0, slices_checked=[],
                           homology_slices={}, homology_total=0)
             for k in range(len(spans))]
    composition_ok = True
    guard_hit = False
    for s in range(min(r.start for r in spans), max(r.stop for r in spans)):
        # dims[k]: node k's slice dimension if it checks s, else 0
        dims = [cache.dim(k, s) if s in span else 0
                for k, span in enumerate(spans)]
        below = _SliceMap([], [])
        for k, rec in enumerate(nodes):
            above = (_SliceMap(*cache.columns(k, s))
                     if k < len(res.operators) and (dims[k] or dims[k + 1])
                     else _SliceMap([], []))
            dim = dims[k]
            if dim and dim + below.entries + above.entries > GUARD:
                guard_hit = True
            elif dim:
                (rank_in, m_in), (rank_out, m_out) = below.modp, above.modp
                h = dim - rank_in - rank_out
                if h and "modp" in (m_in, m_out):
                    (rank_in, m_in), (rank_out, m_out) = (below.exact,
                                                          above.exact)
                    h = dim - rank_in - rank_out
                if below.cols and above.cols and not _compose_is_zero(
                        below.cols, above.cols, above.dens):
                    composition_ok = False
                elif h < 0:
                    raise AssertionError(
                        "slice %d at node %d: ranks exceed the dimension "
                        "though the product is zero" % (s, k))
                rec.slices_checked.append(s)
                rec.dim_total += dim
                if h:
                    rec.homology_slices[s] = h
                for m in (m_in, m_out):
                    rec.methods[m] = rec.methods.get(m, 0) + 1
            below = above
    for rec in nodes:
        rec.homology_total = sum(rec.homology_slices.values())
    return ExactnessReport(
        name=res.name, variant=res.variant, max_degree=max_degree,
        nodes=nodes, expected=res.homology(),
        composition_ok=composition_ok, guard_hit=guard_hit,
        elapsed=time.perf_counter() - t0)


# #### composition on random sections ######################################

@dataclass
class CompositionReport:
    name: str
    variant: str
    pairs: int
    sections_per_pair: int
    failures: List[Tuple[int, int]]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        state = ("ok" if self.ok
                 else "failed at %s" % (self.failures,))
        return ("%s/%s composition: %d pairs x %d sections %s"
                % (self.name, self.variant, self.pairs,
                   self.sections_per_pair, state))


def composition_check(res: Resolution, rng: Optional[random.Random] = None,
                      sections: int = 20,
                      max_degree: int = 3) -> CompositionReport:
    """Apply consecutive operators to a sample of random sections; demand
    exact zero.

    The sample is evaluated on the compiled normal forms, which equal the
    cascade exactly; each operator compiles once here, and exactness_check
    on the same resolution reuses the compiled forms.
    """
    rng = rng or random.Random(0)
    t0 = time.perf_counter()
    failures: List[Tuple[int, int]] = []
    npairs = len(res.operators) - 1
    for k in range(npairs):
        first = res.operators[k].normal_form()
        second = res.operators[k + 1].normal_form()
        for t in range(sections):
            sec = random_section(res.nodes[k], rng, max_degree)
            out = second.apply(first.apply(sec))
            if any(p for p in out):
                failures.append((k, t))
    return CompositionReport(
        name=res.name, variant=res.variant, pairs=npairs,
        sections_per_pair=sections, failures=failures,
        elapsed=time.perf_counter() - t0)


def rs_h1_witness(res: Resolution) -> bool:
    """The degree-1 homology of the symplectic complex has the tautological
    generator: the 1-form pairing each even coordinate with the next odd one
    is closed for the projected differential and is not a differential."""
    if res.variant != "rs":
        raise ValueError("witness is specific to the symplectic complex")
    n = res.nvars
    node1 = res.nodes[1]
    alpha: List[rp.Poly] = [{} for _ in range(node1.rank)]
    for slot, f in enumerate(node1.forms):
        (idx,) = list(f.terms)
        if idx[0] % 2 == 1:
            alpha[slot] = rp.var(idx[0] - 1, n)
    closed = not any(p for p in res.operators[1].apply(alpha))
    cache = _SliceCache(res)
    pos = {bk: i for i, bk in enumerate(cache.basis(1, 2))}
    # a column's slot denominator does not change the rank
    image = [{i: Fraction(v) for i, v in col.items()}
             for col in cache.columns(0, 2)[0]]
    witness = {pos[(slot, e)]: c for slot, p in enumerate(alpha)
               for e, c in p.items()}
    in_image = (linalg.sparse_rank_exact(image + [witness])
                == linalg.sparse_rank_exact(image))
    return closed and not in_image
