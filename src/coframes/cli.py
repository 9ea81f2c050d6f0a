"""Command line front end.

Subcommands cover model listing, page tables, complex reports, verification
suites, operator application, and 7-variable orbit classification.  Output
is text by default; --format json emits canonical JSON (sorted keys, no
timings) so identical arguments give byte-identical bytes, and
--format csv emits flat rows for spreadsheets.  apply always writes a JSON
section.  JSON output has the bytes of json.dumps(payload, sort_keys=True,
indent=2), from a writer (_dumps) that skips the stdlib's pure-Python
encoder.  verify still accepts --seed and --samples, but reads neither: its
composition line is a proof, not a sample.

A process builds one argument parser, on its first call, and every later
call reuses it.  A request loads one model, whose one page
(GeometryModel.page1) all its checks and complexes read; a one-shot apply
derives only the page-1 cells and complex members its operator reads
(operators.OnDemand).

Exit codes: 0 all checks pass, 1 at least one verification failure,
2 usage or data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache, partial
from typing import Dict, List, Optional, Sequence

from . import operators as ops
from . import ratpoly as rp
from . import splitting as sp
from . import verify as ver
from .forms import form_monomial
from .models import (GeometryModel, builtin_model, builtin_names,
                     levi_apply, model_from_json, orbit_invariant,
                     symplectic_data, verify_structure)
from .pages import check_function_linear, e0_apply

GEOMETRIES = builtin_names() + ["symplectic4"]

# check ids of `verify`, as --skip names them (without a [variant] suffix)
CHECK_IDS = ("structure", "e0_linear", "levi_linear", "obstruction_linear",
             "splitting", "palindrome", "schur_dims", "orbit", "composition",
             "exactness")


class UsageError(Exception):
    pass


def _complex_names(geom: str) -> List[str]:
    if geom == "symplectic4":
        return ["rs"]
    if geom == "g2_5":
        return ["bgg", "ambient", "basic"]
    return ["bgg"]


def _load_model(geom: str,
                offer: Sequence[str] = GEOMETRIES) -> Optional[GeometryModel]:
    """The geometry's model (None for symplectic4), once per request; an
    unknown name lists the geometries in offer."""
    if geom in builtin_names():
        return builtin_model(geom)
    if geom == "symplectic4":
        return None
    raise UsageError("unknown geometry %r; choose from %s"
                     % (geom, ", ".join(offer)))


def _resolution(model: Optional[GeometryModel], geom: str,
                variant: Optional[str]) -> ops.Resolution:
    want = variant or _complex_names(geom)[0]
    if want not in _complex_names(geom):
        raise UsageError("geometry %s has no complex named %r" % (geom, want))
    return (ops.build_rs_complex(2) if model is None
            else ops.named_complex(model, want))


def _read_json(path: str, what: str) -> object:
    """Parse a JSON file; an unreadable, malformed or too deeply nested
    file is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError("cannot read %s: %s" % (what, exc))


_escape = json.encoder.encode_basestring_ascii


def _dumps(value: object) -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte.

    Strings, ints, lists and string-keyed dicts are written here, into one
    list of chunks, without the stdlib's pure-Python generators; anything
    else (bool, None, float, other keys, tuples, subclasses) by the stdlib
    encoder, re-indented to its depth: its strings escape their newlines."""
    chunks: List[str] = []
    put = chunks.append

    def write(value: object, newline: str) -> None:
        kind = type(value)
        if kind is str:
            put(_escape(value))
        elif kind is int:
            put(int.__repr__(value))
        elif kind is list:
            if not value:
                put("[]")
                return
            inner = newline + "  "
            sep, comma = "[" + inner, "," + inner
            for v in value:
                put(sep)
                sep = comma
                t = type(v)
                if t is int:
                    put(int.__repr__(v))
                elif t is str:
                    put(_escape(v))
                else:
                    write(v, inner)
            put(newline + "]")
        elif kind is dict and all(type(k) is str for k in value):
            if not value:
                put("{}")
                return
            inner = newline + "  "
            sep, comma = "{" + inner, "," + inner
            for k, v in sorted(value.items()):
                put(sep)
                put(_escape(k))
                put(": ")
                sep = comma
                t = type(v)
                if t is str:
                    put(_escape(v))
                elif t is int:
                    put(int.__repr__(v))
                else:
                    write(v, inner)
            put(newline + "}")
        else:
            put(json.dumps(value, sort_keys=True, indent=2)
                .replace("\n", newline))

    write(value, "\n")
    return "".join(chunks)


def _emit(args, payload: dict, text_lines: Sequence[str],
          csv_rows: Sequence[Sequence[object]]) -> None:
    if args.format == "json":
        sys.stdout.write(_dumps(payload))
        sys.stdout.write("\n")
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        for row in csv_rows:
            w.writerow(row)
    else:
        for line in text_lines:
            print(line)


# #### list ################################################################

def cmd_list(args) -> int:
    rows = []
    for g in GEOMETRIES:
        m = (symplectic_data(2)["model"] if g == "symplectic4"
             else builtin_model(g))
        rows.append({"geometry": g, "nvars": m.nvars,
                     "weights": list(m.weights),
                     "complexes": _complex_names(g)})
    text = ["%-12s %2s  %-14s %s" % ("geometry", "n", "weights", "complexes")]
    for r in rows:
        text.append("%-12s %2d  %-14s %s"
                    % (r["geometry"], r["nvars"],
                       ",".join(str(w) for w in r["weights"]),
                       " ".join(r["complexes"])))
    csv_rows = [("geometry", "nvars", "weights", "complexes")]
    for r in rows:
        csv_rows.append((r["geometry"], r["nvars"],
                         " ".join(str(w) for w in r["weights"]),
                         " ".join(r["complexes"])))
    _emit(args, {"geometries": rows}, text, csv_rows)
    return 0


# #### page ################################################################

def cmd_page(args) -> int:
    model = _load_model(args.geometry, builtin_names())
    if model is None:
        raise UsageError("symplectic4 has no coframe model to page")
    page = model.page1()
    dims = page.page0.dims() if args.level == 0 else page.dims()
    labels = ver.SCHUR_LABELS.get(model.name, {}) if args.level == 1 else {}
    cells = [{"p": p, "q": q, "dim": d,
              "label": ",".join(str(c) for c in labels[(p, q)])
              if (p, q) in labels else ""}
             for (p, q), d in sorted(dims.items())]
    ps = sorted({c["p"] for c in cells})
    qs = sorted({c["q"] for c in cells})
    grid = {(c["p"], c["q"]): c["dim"] for c in cells}
    arrow = "E0 arrows: (p,q) -> (p+1,q-1)" if args.level == 0 \
        else "E1 arrows: (p,q) -> (p+1,q)"
    text = ["%s level %d  (%s)" % (model.name, args.level, arrow),
            "      " + "".join("p=%-4d" % p for p in ps)]
    for q in reversed(qs):
        row = "q=%-3d " % q
        for p in ps:
            d = grid.get((p, q))
            row += "%-6s" % (d if d else ".")
        text.append(row)
    if labels:
        text.append("labels: " + "  ".join(
            "(%d,%d)=%s" % (p, q, ",".join(str(c) for c in lab))
            for (p, q), lab in sorted(labels.items())))
    csv_rows = [("p", "q", "dim", "label")]
    for c in cells:
        csv_rows.append((c["p"], c["q"], c["dim"], c["label"]))
    _emit(args, {"geometry": model.name, "level": args.level,
                 "cells": cells}, text, csv_rows)
    return 0


# #### report ##############################################################

def cmd_report(args) -> int:
    res = _resolution(_load_model(args.geometry), args.geometry,
                      args.complex)
    ranks = res.ranks()
    orders = res.orders()
    checks: Dict[str, bool] = {}
    if res.variant in ("bgg", "rs"):
        checks["palindrome"] = ranks == ranks[::-1]
    if res.name in ver.SCHUR_LABELS and res.variant == "bgg":
        checks["schur_dims"] = ver.cross_check_dims(res.model).ok
    ok = all(checks.values())
    nodes = [{"index": i, "rank": n.rank,
              "weights": sorted(set(n.weights))}
             for i, n in enumerate(res.nodes)]
    operators = [{"index": i, "order": h.order}
                 for i, h in enumerate(res.operators)]
    text = ["%s complex %s" % (res.name, res.variant),
            "ranks:  " + " ".join(str(r) for r in ranks),
            "orders: " + " ".join(str(o) for o in orders)]
    for cid in sorted(checks):
        text.append("%s: %s" % (cid, "PASS" if checks[cid] else "FAIL"))
    csv_rows = [("kind", "index", "value")]
    for i, r in enumerate(ranks):
        csv_rows.append(("rank", i, r))
    for i, o in enumerate(orders):
        csv_rows.append(("order", i, o))
    for cid in sorted(checks):
        csv_rows.append(("check", cid, "PASS" if checks[cid] else "FAIL"))
    _emit(args, {"geometry": args.geometry, "complex": res.variant,
                 "ranks": ranks, "orders": orders, "nodes": nodes,
                 "operators": operators, "checks": checks, "ok": ok},
          text, csv_rows)
    return 0 if ok else 1


# #### verify ##############################################################

def _run_check(out: List[dict], skip: Sequence[str], cid: str, fn) -> None:
    """Append check cid's (ok, detail) from fn to out, unless skipped."""
    if cid.split("[")[0] in skip:
        return
    try:
        okflag, detail = fn()
    except Exception as exc:  # present, never hide
        okflag, detail = False, "%s: %s" % (type(exc).__name__, exc)
    out.append({"id": cid, "ok": bool(okflag), "detail": detail})


def _check_lines(model: GeometryModel, skip: Sequence[str]) -> List[dict]:
    out: List[dict] = []
    add = partial(_run_check, out, skip)

    def structure():
        rep = verify_structure(model)
        return rep.ok, "congruences=%d" % len(rep.congruences)
    add("structure", structure)

    nvars = model.nvars
    mults = [rp.var(0, nvars),
             rp.add(rp.const(2, nvars), rp.var(nvars - 1, nvars)),
             rp.mul(rp.var(0, nvars), rp.var(nvars - 1, nvars))]

    mono = partial(form_monomial, nvars, coeff=1, basis=model.basis_tag)

    def e0_linear():
        secs = [mono((i,)) for i in range(nvars)]
        secs += [mono((i, j)) for i in range(nvars)
                 for j in range(i + 1, min(nvars, i + 3))]
        okflag, _ = check_function_linear(
            lambda a: e0_apply(model, a), secs, mults)
        return okflag, "%d sections" % len(secs)
    add("e0_linear", e0_linear)

    if model.depth2:
        def levi_linear():
            secs = [mono((a,)) for a in model.depth2]
            okflag, _ = check_function_linear(
                lambda a: levi_apply(model, a), secs, mults)
            return okflag, "%d vertical covectors" % len(secs)
        add("levi_linear", levi_linear)

    shape = (len(model.vertical), len(model.horizontal))
    if shape in ((3, 3), (3, 4)):
        def obstruction_linear():
            fn, inputs = sp.obstruction_hom(model)
            okflag, _ = check_function_linear(fn, inputs, mults)
            return okflag, "%d inputs" % len(inputs)
        add("obstruction_linear", obstruction_linear)

        def splitting_flat():
            rep = sp.normalize_splitting(model)
            okflag = rep.obstruction_zero
            detail = "iterations=%d" % rep.iterations
            if shape == (3, 3):
                cert = sp.certify_two_adapted(rep.normalized)
                okflag = okflag and cert.ok
                detail += " two_adapted=%s" % cert.ok
            return okflag, detail
        add("splitting", splitting_flat)

    def palindrome():
        ladder = model.page1().ladder()
        return ladder == ladder[::-1], " ".join(str(d) for d in ladder)
    add("palindrome", palindrome)

    if model.name in ver.SCHUR_LABELS:
        def schur_dims():
            rep = ver.cross_check_dims(model)
            return rep.ok, "%d labelled cells" % len(rep.rows)
        add("schur_dims", schur_dims)

    if shape == (3, 4):
        def orbit():
            rep = orbit_invariant(model)
            expected = {"elliptic7": "elliptic",
                        "hyperbolic7": "hyperbolic"}.get(model.name)
            okflag = rep.kind == expected if expected \
                else rep.kind in ("elliptic", "hyperbolic")
            return okflag, "kind=%s inertia=%s" % (rep.kind, rep.inertia)
        add("orbit", orbit)

    return out


def _complex_checks(res: ops.Resolution, degree: int,
                    skip: Sequence[str]) -> List[dict]:
    out: List[dict] = []
    add = partial(_run_check, out, skip)

    def composition():
        # the Leibniz identity on every adjacent pair of normal forms,
        # memoized on the forms, so exactness below reads the same answers
        forms = [op.normal_form() for op in res.operators]
        bad = [str(k) for k, (a, b) in enumerate(zip(forms, forms[1:]))
               if not a.composes_to_zero(b)]
        if bad:
            return False, "pairs not zero: " + " ".join(bad)
        return True, "%d pairs proved zero" % (len(forms) - 1)
    add("composition[%s]" % res.variant, composition)

    def exactness():
        rep = ver.exactness_check(res, max_degree=degree)
        return rep.ok, "homology " + " ".join(
            str(t) for t in rep.totals)
    add("exactness[%s]" % res.variant, exactness)
    return out


def cmd_verify(args) -> int:
    skip = set(args.skip or ())
    unknown = sorted(skip.difference(CHECK_IDS))
    if unknown:
        raise UsageError("unknown check id %s; known ids: %s"
                         % (", ".join(unknown), ", ".join(CHECK_IDS)))
    model = _load_model(args.geometry)
    checks = [] if model is None else _check_lines(model, skip)
    for variant in _complex_names(args.geometry):
        checks += _complex_checks(_resolution(model, args.geometry, variant),
                                  args.degree, skip)
    ok = all(c["ok"] for c in checks)
    text = []
    for c in checks:
        text.append("%-24s %s  %s"
                    % (c["id"], "PASS" if c["ok"] else "FAIL", c["detail"]))
    text.append("result: %s (%d checks)" % ("PASS" if ok else "FAIL",
                                            len(checks)))
    csv_rows = [("check", "ok", "detail")]
    for c in checks:
        csv_rows.append((c["id"], "PASS" if c["ok"] else "FAIL",
                         c["detail"]))
    _emit(args, {"geometry": args.geometry, "seed": args.seed,
                 "degree": args.degree, "samples": args.samples,
                 "checks": checks, "ok": ok}, text, csv_rows)
    return 0 if ok else 1


# #### apply ###############################################################

# engel4's named operators: the source and target cells they connect
_ENGEL4_ALIASES = {"P": ((1, 0), (2, 1)), "S": ((2, 1), (3, 3))}


def _named_operator(geom: str, name: str, variant: Optional[str]):
    """Resolve an operator name to (handle, source node, complex name)."""
    res = _resolution(_load_model(geom), geom, variant)
    if geom == "engel4" and name in _ENGEL4_ALIASES:
        handle = ops.derive_operator(res.model, *_ENGEL4_ALIASES[name])
        return handle, handle.source.degree, res.variant
    fixed = {"dH": 0}
    if geom == "contact5":
        fixed["dperp2"] = 2
    if geom == "g2_5":
        fixed["E"] = 1
    idx: Optional[int] = fixed.get(name)
    if idx is None and name.startswith("d") and name[1:].isdigit():
        idx = int(name[1:])
    if idx is None:
        raise UsageError("unknown operator %r for %s" % (name, geom))
    if not 0 <= idx < len(res.operators):
        raise UsageError("operator index %d out of range for %s %s"
                         % (idx, geom, res.variant))
    return res.operators[idx], idx, res.variant


def cmd_apply(args) -> int:
    blob = _read_json(args.input, "section")
    try:
        section = ops.GradedSection.from_json(blob)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise UsageError("cannot read section: %s" % exc)
    if section.resolution != args.geometry:
        raise UsageError("section is for model %.40r, not %s"
                         % (section.resolution, args.geometry))
    handle, node, variant = _named_operator(args.geometry, args.operator,
                                            args.complex or section.variant)
    if section.node != node:
        raise UsageError("section is on cell %d, operator %s leaves cell %d"
                         % (section.node, args.operator, node))
    need = handle.source.rank
    if len(section.coeffs) != need:
        raise UsageError("section has %d components, operator wants %d"
                         % (len(section.coeffs), need))
    nvars = handle.source.forms[0].nvars
    if section.nvars != nvars:
        raise UsageError("section polynomials have %s variables, %s has %d"
                         % (section.nvars, args.geometry, nvars))
    out = handle.apply(section.coeffs)
    result = ops.GradedSection(resolution=args.geometry, variant=variant,
                               node=node + 1, coeffs=out)
    try:
        payload = result.to_json(nvars)
    except ValueError:  # str() of an int past Python's digit limit
        raise UsageError("an output coefficient has more than %d digits, "
                         "Python's limit for int to str conversion"
                         % sys.get_int_max_str_digits())
    data = _dumps(payload) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(data)
        except OSError as exc:
            raise UsageError("cannot write output: %s" % exc)
    else:
        sys.stdout.write(data)
    return 0


# #### classify7 ###########################################################

def cmd_classify7(args) -> int:
    name = args.model
    if name in ("elliptic7", "hyperbolic7"):
        model = builtin_model(name)
    elif os.path.exists(name):
        blob = _read_json(name, "model file")
        try:
            model = model_from_json(blob)
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError("cannot read model file: %s" % exc)
    else:
        raise UsageError("model must be elliptic7, hyperbolic7, or a "
                         "JSON model file")
    shape = (len(model.depth2), len(model.horizontal))
    if shape != (3, 4):
        raise UsageError("model %s has %d depth-2 and %d horizontal "
                         "covectors; classify7 needs 3 and 4"
                         % ((model.name,) + shape))
    try:
        rep = orbit_invariant(model)
    except ValueError as exc:
        raise UsageError("cannot classify %s: %s" % (model.name, exc))
    # the Levi bracket, and so the Gram matrix, is constant or refused
    payload = {"model": model.name, "kind": rep.kind,
               "inertia": list(rep.inertia), "gram_constant": True,
               "levi_injective": rep.levi_injective}
    text = ["%s: %s (inertia %s)" % (model.name, rep.kind, rep.inertia)]
    csv_rows = [("model", "kind", "inertia"),
                (model.name, rep.kind,
                 " ".join(str(i) for i in rep.inertia))]
    _emit(args, payload, text, csv_rows)
    return 0 if rep.kind in ("elliptic", "hyperbolic") else 1


# #### entry point #########################################################

def _page_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("geometry")
    p.add_argument("--level", type=int, choices=(0, 1), default=1)


def _report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("geometry")
    p.add_argument("--complex", dest="complex", default=None)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("geometry")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--samples", type=int, default=20,
                   help="accepted and echoed in JSON, no longer read")
    p.add_argument("--skip", action="append", default=[],
                   help="check id to skip (repeatable)")
    p.add_argument("--seed", type=int, default=7,
                   help="accepted and echoed in JSON, no longer read")


def _apply_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("geometry")
    p.add_argument("--operator", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--complex", dest="complex", default=None)


def _classify7_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)


# name: (help, handler, arguments); every command but apply, which always
# writes a JSON section, also takes --format
COMMANDS = {
    "list": ("models and their named complexes", cmd_list, None),
    "page": ("graded page tables", cmd_page, _page_args),
    "report": ("rank and order table of a complex", cmd_report,
               _report_args),
    "verify": ("verification suite for a geometry", cmd_verify,
               _verify_args),
    "apply": ("apply a derived operator to a section", cmd_apply,
              _apply_args),
    "classify7": ("orbit class of a 7-variable model", cmd_classify7,
                  _classify7_args),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command: one per process, built on the first
    call of main."""
    ap = argparse.ArgumentParser(
        prog="coframes",
        description="Exact calculus of filtered coframes: pages, derived "
                    "operators, verified resolutions.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (helptext, fn, add_args) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        if add_args is not None:
            add_args(p)
        if name != "apply":
            p.add_argument("--format", choices=("text", "json", "csv"),
                           default="text")
        p.set_defaults(fn=fn)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "degree", 1) < 1:
        ap.error("--degree must be at least 1")
    if getattr(args, "samples", 1) < 1:
        ap.error("--samples must be at least 1")
    try:
        return args.fn(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
