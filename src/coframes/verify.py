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
is never zero, to the column of x^(alpha + r).  The kernel holds each
slot's alphas sorted by weighted degree (operators.PackedKernel), and
the walk stops at the first alpha heavier than the slice leaves the slot,
as no monomial has negative weight.  So the work goes as the nonzeros,
and no pair whose alpha does not divide the monomial comes up.
Rows and columns are keyed by exponents packed into integers
(operators.PackedKernel), in a base above every exponent component the
slice reaches plus the largest b_i: no digit carries, so no key aliases
another, and a term whose key is not a row of the target slice is off
weight and fails the certificate.  No form is built and no cascade runs
per column.

The certificate walks the total weights.  Each weight s cuts the nodes and
operators into one finite complex of vector spaces, and the walk climbs it
from the top node down: operator k's map on s is built only if node k or
node k + 1 checks s, and only the maps into and out of the current node are
held (_SliceMap).  So each (operator, slice) map is built once, and ranked
at most once by sparse elimination of its integer columns mod one prime
(linalg.rank_mod_p, where a column down to one entry pivots with no
arithmetic) and at most once exactly: a modular count that leaves homology
falls back to exact rational elimination of full columns.
Scaling a column by a nonzero rational is an invertible column operation,
so the integer columns have the rank over Q of the true ones.  A minor that
is nonzero mod p is nonzero over Q, so for every prime the modular rank of
an integer matrix, or of any set of its rows, is at most its rank over Q;
no denominator is reduced mod p, so no prime needs excluding.

Going down, the outgoing map D_k of node k is ranked before the incoming
map D_(k-1), and its pivots Q, the node-k coordinates of independent
columns, are handed down: D_k is injective on their span, so an image of
D_(k-1), which lies in ker D_k, vanishes if it vanishes off Q, and D_(k-1)
ranked on the rows outside Q has its full rank.  Mod p this needs the
integer product, with output column j scaled by lcm(d) / d_j, to vanish
mod p and no scale to vanish mod p; where it does not hold, the rank only
comes up short, and the exact fallback restores it.  The restricted matrix
has at most dim_k - |Q| live rows, the rank sought when the slice is exact.

Image inside kernel is proved once per adjacent pair of operators, on the
normal forms the columns are read off (NormalForm.composes_to_zero): the
composite's coefficients, by Leibniz, all vanish, so it kills every
polynomial section.  Together these are a certificate, not a heuristic:
rank_in + rank_out over Q is at least the modular sum, and the zero
composite caps it at the slice dimension, so a modular sum equal to the
dimension proves the slice exact over Q.

A slice whose matrices hold more than GUARD entries in all is skipped and
sets guard_hit, which fails the certificate.  The homology a complex must
show comes from the complex itself (Resolution.homology).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import perm
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from . import linalg, ratpoly as rp
from .models import GeometryModel, symplectic_data
from .operators import PackedKernel, Resolution, random_section
from .pages import CellKey

PRIME = 1000003
# most basis monomials plus column entries one slice may hold
GUARD = 10 ** 6


# #### rank formulas #######################################################

def schur_dim(label: Sequence[int]) -> int:
    """Dimension of the gl(n) irreducible with the given nondecreasing
    highest-weight label, n its length: Weyl's product over i < j of
    (label_j - label_i + j - i) / (j - i)."""
    if any(a > b for a, b in zip(label, label[1:])):
        raise ValueError("label must be nondecreasing")
    num = den = 1
    for i, j in combinations(range(len(label)), 2):
        num *= label[j] - label[i] + j - i
        den *= j - i
    return num // den


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
        kern = nf.kernel(max(0, (s - low) // min(self.weights)),
                         self.weights)
        out_pos = self._positions(op_idx + 1, s, kern)
        col_pos = self._positions(op_idx, s, kern)
        cols: List[Dict[int, int]] = [{} for _ in col_pos]
        try:
            for slot, wslot in enumerate(src.weights):
                for walpha, palpha, support, offs in kern.slots[slot]:
                    if walpha > s - wslot:
                        break       # this alpha and all after it too heavy
                    alpha_key = (slot << kern.shift) + palpha
                    for r, pr in self._packed(s - wslot - walpha, kern):
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
    columns serve both, since column scaling is rank-neutral.  The modular
    rank leaves out the target rows in skip, and keeps its pivots: source
    columns on which the map is injective.  A map with no columns, into
    node 0 or out of the last node, ranks (0, "none")."""

    def __init__(self, cols: List[Dict[int, int]]):
        self.cols = cols
        self.entries = sum(map(len, cols))
        self.skip: Collection[int] = ()
        self.pivots: Optional[List[int]] = None

    @cached_property
    def modp(self) -> Tuple[int, str]:
        if not any(self.cols):
            self.pivots = []
            return 0, "empty" if self.cols else "none"
        self.pivots = linalg.rank_mod_p(self.cols, PRIME, self.skip)
        return len(self.pivots), "modp"

    @cached_property
    def exact(self) -> Tuple[int, str]:
        if not self.cols:
            return 0, "none"
        return linalg.sparse_rank_exact(self.cols), "exact"


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


def exactness_check(res: Resolution, max_degree: int = 3,
                    buffer: int = 1) -> ExactnessReport:
    """Certify slicewise exactness for coefficients up to max_degree.

    Node k checks every nonempty slice whose total weight a section of it
    with polynomial coefficients of degree max_degree (plus a safety
    buffer) can reach.  composition_ok says that every adjacent pair of
    normal forms composes to zero (NormalForm.composes_to_zero).  At each
    total weight s the walk climbs down from the top node, building
    operator k's map on s only when node k or node k + 1 checks s, and
    holding only the maps into and out of the current node; the incoming
    map is ranked mod p on the rows the outgoing map's pivots leave free.
    A slice passes when incoming rank plus outgoing rank equals its
    dimension.  Where a pair does not compose to zero, the slice's homology
    count dim - rank_in - rank_out is kept as computed, negative when the
    incoming image leaves the outgoing kernel.  The totals must equal
    res.homology(); a slice over GUARD entries is skipped and fails it.
    """
    t0 = time.perf_counter()
    cache = _SliceCache(res)
    top = max(cache.weights) * max_degree + buffer
    spans = [range(min(node.weights), max(node.weights) + top + 1)
             for node in res.nodes]
    nodes = [NodeExactness(node=k, dim_total=0, slices_checked=[],
                           homology_slices={}, homology_total=0)
             for k in range(len(spans))]
    forms = [op.normal_form() for op in res.operators]
    # zero[k]: the maps into and out of node k compose to zero
    zero = [True] + [a.composes_to_zero(b)
                     for a, b in zip(forms, forms[1:])] + [True]
    guard_hit = False
    for s in range(min(r.start for r in spans), max(r.stop for r in spans)):
        # dims[k]: node k's slice dimension if it checks s, else 0
        dims = [cache.dim(k, s) if s in span else 0
                for k, span in enumerate(spans)]
        above = _SliceMap([])
        for k in reversed(range(len(nodes))):
            below = _SliceMap(cache.columns(k - 1, s)[0]
                              if k and (dims[k - 1] or dims[k]) else [])
            dim = dims[k]
            if dim and dim + below.entries + above.entries > GUARD:
                guard_hit, dim = True, 0
            if dim:
                rank_out, m_out = above.modp
            # the outgoing map's pivots, if it was ranked: it is injective
            # on them, so an incoming image that vanishes off them is 0
            below.skip = set(above.pivots or ())
            if dim:
                rank_in, m_in = below.modp
                h = dim - rank_in - rank_out
                if h and "modp" in (m_in, m_out):
                    (rank_in, m_in), (rank_out, m_out) = (below.exact,
                                                          above.exact)
                    h = dim - rank_in - rank_out
                if h < 0 and zero[k]:
                    raise AssertionError(
                        "slice %d at node %d: ranks exceed the dimension "
                        "though the maps compose to zero" % (s, k))
                rec = nodes[k]
                rec.slices_checked.append(s)
                rec.dim_total += dim
                if h:
                    rec.homology_slices[s] = h
                for m in (m_in, m_out):
                    rec.methods[m] = rec.methods.get(m, 0) + 1
            above = below
    for rec in nodes:
        rec.homology_total = sum(rec.homology_slices.values())
    return ExactnessReport(
        name=res.name, variant=res.variant, max_degree=max_degree,
        nodes=nodes, expected=res.homology(), composition_ok=all(zero),
        guard_hit=guard_hit, elapsed=time.perf_counter() - t0)


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


def composition_check(res: Resolution, rng: Optional[random.Random] = None,
                      sections: int = 20,
                      max_degree: int = 3) -> CompositionReport:
    """Apply consecutive operators to a sample of random sections; demand
    exact zero.

    The sample runs the cascade (OperatorHandle.apply) on concrete
    coefficients, the path `coframes apply` serves.  exactness_check
    proves composition zero on the compiled normal forms
    (NormalForm.composes_to_zero), the cascade run once on jets; this
    sample tests the cascade where that proof does not reach it.
    """
    rng = rng or random.Random(0)
    t0 = time.perf_counter()
    failures: List[Tuple[int, int]] = []
    npairs = len(res.operators) - 1
    for k in range(npairs):
        first, second = res.operators[k], res.operators[k + 1]
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
    generator: the Liouville form alpha of models.symplectic_data is
    closed for the projected differential and is not a differential."""
    if res.variant != "rs":
        raise ValueError("witness is specific to the symplectic complex")
    liouville = symplectic_data(res.nvars // 2)["alpha"]
    # node 1's slots are the unit coordinate covectors
    alpha: List[rp.Poly] = [liouville.terms.get(idx, {})
                            for f in res.nodes[1].forms for idx in f.terms]
    closed = not any(p for p in res.operators[1].apply(alpha))
    cache = _SliceCache(res)
    pos = {bk: i for i, bk in enumerate(cache.basis(1, 2))}
    # a column's slot denominator does not change the rank
    image = cache.columns(0, 2)[0]
    witness = {pos[(slot, e)]: c for slot, p in enumerate(alpha)
               for e, c in p.items()}
    in_image = (linalg.sparse_rank_exact(image + [witness])
                == linalg.sparse_rank_exact(image))
    return closed and not in_image
