"""Outside-in tracing of the coframes package from the benchmark's own files.

The program is not edited.  `Tracer.install` replaces the public functions
of each module with span-recording wrappers, in every coframes module
namespace that binds them (several modules import `coframe_d` and the
kernel functions by name), wraps `apply` on every `OperatorHandle` subclass,
and wraps each `CellData.extract` closure once `Page1.__init__` has built
it.  `uninstall` puts every original back.

A span's self time is its duration minus the time its child spans cover.
Spans are folded into per-layer totals as they close, so memory stays flat
however many kernel calls a pass makes.
"""

from __future__ import annotations

import gc
import importlib
import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

_KERNEL = ("add", "sub", "mul", "scale", "diff")

# (module, attribute, layer): the functions wrapped at module level.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("coframes.cli", "main", "cli.main"),
    ("coframes.verify", "exactness_check", "verify.exactness"),
    ("coframes.verify", "composition_check", "verify.composition"),
    ("coframes.models", "coframe_d", "models.coframe_d"),
    ("coframes.models", "split_by_cell_weight", "models.split_by_cell_weight"),
    ("coframes.models", "_pmat_inverse_unimodular", "models.pmat_inverse"),
    ("coframes.linalg", "poly_adjugate", "linalg.poly_adjugate"),
    ("coframes.linalg", "rank_mod_p", "linalg.rank_mod_p"),
    ("coframes.linalg", "sparse_rank_exact", "linalg.rank_exact"),
    ("coframes.linalg", "fraction_rows_to_mod_p", "linalg.to_mod_p"),
    ("coframes.linalg", "solve", "linalg.dense"),
    ("coframes.linalg", "rank", "linalg.dense"),
    ("coframes.linalg", "inverse", "linalg.dense"),
    ("coframes.linalg", "rref", "linalg.dense"),
    ("coframes.splitting", "normalize_splitting", "splitting.normalize"),
    ("coframes.splitting", "obstruction", "splitting.obstruction"),
    ("coframes.operators", "named_complex", "operators.construct"),
    ("coframes.operators", "build_rs_complex", "operators.construct"),
    ("coframes.operators", "derive_operator", "operators.construct"),
    ("coframes.forms", "wedge", "forms"),
    ("coframes.forms", "exterior_d", "forms"),
    ("coframes.forms", "interior", "forms"),
    ("coframes.forms", "contract", "forms"),
    ("coframes.forms", "change_basis", "forms"),
) + tuple(("coframes.ratpoly", f, "ratpoly." + f) for f in _KERNEL)

# Per-layer metrics that are exact counts: they repeat identically for a
# given seed, so a later change may cite them as counts.
EXACT_COUNTS = (
    "operators.apply.calls", "pages.extract.calls", "models.coframe_d.calls",
    "verify.slices", "verify.columns", "verify.rank.modp",
    "verify.rank.exact", "linalg.rank_mod_p.calls", "linalg.rank_exact.calls",
    "models.pmat_inverse.calls", "linalg.poly_adjugate.calls",
    "splitting.normalize.iterations", "splitting.obstruction.calls",
    "pages.page1.calls", "cli.main.calls", "ratpoly.kernel.calls",
    "ratpoly.mul.calls", "ratpoly.diff.calls",
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "coframes"
                                  or name.startswith("coframes."))]


def patch_everywhere(module, name: str, make: Callable) -> list:
    """Rebind module.name, in every coframes namespace binding the same
    object, to make(original).  Returns the undo list for `restore`."""
    orig = getattr(module, name)
    new = make(orig)
    undo = []
    for mod in _package_modules():
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)
                undo.append((mod, key, orig))
    return undo


def restore(undo: list) -> None:
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


def record_calls(module, name: str) -> list:
    """Append (first argument, return value) of every call of module.name to
    the returned list."""
    sink: list = []

    def make(fn):
        def recorder(first, *args, **kwargs):
            out = fn(first, *args, **kwargs)
            sink.append((first, out))
            return out
        return recorder
    patch_everywhere(module, name, make)
    return sink


class Tracer:
    """Per-layer call counts, self time and outermost inclusive time."""

    def __init__(self):
        self.active = True
        self.missing: List[str] = []
        self._undo: list = []
        self._stack: List[list] = []
        self.reset()

    def reset(self) -> None:
        # layer -> [calls, self seconds, inclusive seconds, open depth]
        self.layers: Dict[str, list] = {}
        self.adjugate_in_inverse = 0
        self.counts: Dict[str, int] = {"verify.slices": 0, "verify.columns": 0,
                                       "verify.rank.modp": 0,
                                       "verify.rank.exact": 0,
                                       "splitting.normalize.iterations": 0}

    # ---- wrappers --------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, on_return=None) -> Callable:
        stats = self.layers.setdefault(layer, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            stats[3] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[3] -= 1
                stats[0] += 1
                stats[1] += dt - frame[1]
                if not stats[3]:
                    stats[2] += dt
                if parent is not None:
                    parent[1] += dt
                    if layer == "linalg.poly_adjugate" \
                            and parent[0] == "models.pmat_inverse":
                        tracer.adjugate_in_inverse += 1
            if on_return is not None:
                on_return(out)
            return out
        span.__wrapped__ = fn
        span.perfbench_span = True
        return span

    def _on_exactness(self, rep) -> None:
        for node in rep.nodes:
            self.counts["verify.slices"] += len(node.slices_checked)
            self.counts["verify.columns"] += node.dim_total
            self.counts["verify.rank.modp"] += node.methods.get("modp", 0)
            self.counts["verify.rank.exact"] += node.methods.get("exact", 0)

    def _on_normalize(self, rep) -> None:
        self.counts["splitting.normalize.iterations"] += rep.iterations

    def _wrap_extracts(self, page) -> None:
        for cd in page.data.values():
            if not getattr(cd.extract, "perfbench_span", False):
                cd.extract = self._wrap("pages.extract", cd.extract)

    # ---- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Wrap every target; list the ones this program lacks in .missing."""
        from coframes import operators, pages
        self.reset()
        self.missing = []
        hooks = {"verify.exactness": self._on_exactness,
                 "splitting.normalize": self._on_normalize}
        for modname, attr, layer in TARGETS:
            mod = importlib.import_module(modname)
            if getattr(mod, attr, None) is None:
                self.missing.append("%s.%s" % (modname, attr))
                continue
            self._undo += patch_everywhere(
                mod, attr, lambda fn, layer=layer:
                self._wrap(layer, fn, hooks.get(layer)))
        todo = [operators.OperatorHandle]
        while todo:
            cls = todo.pop()
            todo += cls.__subclasses__()
            if "apply" in cls.__dict__:
                self._undo.append((cls, "apply", cls.__dict__["apply"]))
                cls.apply = self._wrap("operators.apply", cls.__dict__["apply"])
        init = pages.Page1.__init__
        traced_init = self._wrap("pages.page1", init)

        def page1_init(page, *args, **kwargs):
            traced_init(page, *args, **kwargs)
            self._wrap_extracts(page)
        self._undo.append((pages.Page1, "__init__", init))
        pages.Page1.__init__ = page1_init
        # pages built before tracing started, e.g. during workload set-up
        for obj in gc.get_objects():
            if isinstance(obj, pages.Page1):
                self._wrap_extracts(obj)

    def uninstall(self) -> None:
        from coframes import pages
        restore(self._undo)
        self._undo = []
        for obj in gc.get_objects():
            if isinstance(obj, pages.Page1):
                for cd in obj.data.values():
                    while getattr(cd.extract, "perfbench_span", False):
                        cd.extract = cd.extract.__wrapped__

    # ---- metrics ---------------------------------------------------------

    def pass_metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics of the pass traced since the last reset."""
        L = self.layers

        def calls(layer):
            return L.get(layer, (0,))[0]

        def self_s(*layers):
            return sum(L.get(x, (0, 0.0))[1] for x in layers)

        def incl_s(layer):
            return L.get(layer, (0, 0.0, 0.0))[2]

        def ratio(num, den):
            return num / den if den else 0.0

        kernel = ["ratpoly." + f for f in _KERNEL]
        c = self.counts
        return {
            "operators.apply.calls": (calls("operators.apply"), "count"),
            "operators.apply.self_s": (self_s("operators.apply"), "s"),
            "pages.extract.calls": (calls("pages.extract"), "count"),
            "pages.extract.self_s": (self_s("pages.extract"), "s"),
            "models.coframe_d.calls": (calls("models.coframe_d"), "count"),
            "models.coframe_d.self_s": (self_s("models.coframe_d"), "s"),
            "models.split_by_cell_weight.self_s":
                (self_s("models.split_by_cell_weight"), "s"),
            "verify.exactness.self_s": (self_s("verify.exactness"), "s"),
            "verify.composition.self_s": (self_s("verify.composition"), "s"),
            "verify.slices": (c["verify.slices"], "count"),
            "verify.columns": (c["verify.columns"], "count"),
            "verify.rank.modp": (c["verify.rank.modp"], "count"),
            "verify.rank.exact": (c["verify.rank.exact"], "count"),
            "verify.rank.fallback_ratio":
                (ratio(c["verify.rank.exact"],
                       c["verify.rank.modp"] + c["verify.rank.exact"]),
                 "ratio"),
            "linalg.rank_mod_p.calls": (calls("linalg.rank_mod_p"), "count"),
            "linalg.rank_mod_p.self_s": (self_s("linalg.rank_mod_p"), "s"),
            "linalg.rank_exact.calls": (calls("linalg.rank_exact"), "count"),
            "linalg.rank_exact.self_s": (self_s("linalg.rank_exact"), "s"),
            "linalg.to_mod_p.self_s": (self_s("linalg.to_mod_p"), "s"),
            "models.pmat_inverse.calls": (calls("models.pmat_inverse"), "count"),
            "models.pmat_inverse.self_s": (self_s("models.pmat_inverse"), "s"),
            "models.pmat_inverse.s": (incl_s("models.pmat_inverse"), "s"),
            "models.pmat_inverse.fallback_ratio":
                (ratio(self.adjugate_in_inverse, calls("models.pmat_inverse")),
                 "ratio"),
            "linalg.poly_adjugate.calls": (calls("linalg.poly_adjugate"), "count"),
            "linalg.poly_adjugate.self_s": (self_s("linalg.poly_adjugate"), "s"),
            "linalg.poly_adjugate.s": (incl_s("linalg.poly_adjugate"), "s"),
            "linalg.dense.self_s": (self_s("linalg.dense"), "s"),
            "splitting.normalize.self_s": (self_s("splitting.normalize"), "s"),
            "splitting.normalize.iterations":
                (c["splitting.normalize.iterations"], "count"),
            "splitting.obstruction.calls": (calls("splitting.obstruction"), "count"),
            "splitting.obstruction.self_s": (self_s("splitting.obstruction"), "s"),
            "pages.page1.calls": (calls("pages.page1"), "count"),
            "pages.page1.s": (incl_s("pages.page1"), "s"),
            "operators.construct.s": (incl_s("operators.construct"), "s"),
            "cli.main.calls": (calls("cli.main"), "count"),
            "cli.main.self_s": (self_s("cli.main"), "s"),
            "forms.self_s": (self_s("forms"), "s"),
            "ratpoly.kernel.calls": (sum(calls(x) for x in kernel), "count"),
            "ratpoly.kernel.self_s": (self_s(*kernel), "s"),
            "ratpoly.mul.calls": (calls("ratpoly.mul"), "count"),
            "ratpoly.diff.calls": (calls("ratpoly.diff"), "count"),
        }


def combine(passes: List[Dict[str, Tuple[float, str]]]) -> Dict[str, Tuple[float, str]]:
    """Exact counts (and ratios of them) from the first traced pass, which
    starts as cold as a command-line call; times as the median over passes."""
    out = {}
    for name, (value, unit) in passes[0].items():
        if unit == "s":
            value = statistics.median(p[name][0] for p in passes)
        out[name] = (value, unit)
    return out
