"""Record exactness-certificate timings of one checkout into a BENCH file.

    python3 bench/exactness.py --src PATH --label parent --out BENCH_15.json
    python3 bench/exactness.py --src . --label change --out BENCH_15.json
    python3 bench/exactness.py --pairs PATH . --out BENCH_15.json

PATH is the root of a coframes checkout.  Every subprocess runs with
PYTHONDONTWRITEBYTECODE=1, and a checkout holding src/coframes/__pycache__
is refused: stale compiled bytecode lowers a side's import and set-up times
(setup_s, peak_rss_mb) against a side that compiles its sources.  The
script records, under the label, in the JSON file OUT (created if missing,
other labels kept):

- the git SHA of PATH's HEAD, and the git tree hash of its src/ as it is
  on disk, which equals `git rev-parse COMMIT:src` of the commit that
  holds it (so an uncommitted change side is identified too);
- src_lines, the line count of src/coframes/*.py as `wc -l` gives it;
- the seconds of exactness_check(res, max_degree=3) and of
  composition_check(res, random.Random(7), sections=20, max_degree=3) for
  every named complex, each built and checked in CHECK_RUNS fresh
  processes importing PATH/src, so each exactness figure includes the
  compile of the normal forms (the composition sample runs the cascade
  and compiles none), with the processes' peak RSS (ru_maxrss, in MB): every
  run's value and their median.  The runs go round the complexes in turn,
  and every field of the check's report but its elapsed time is recorded
  once; the script fails if the runs' reports differ;
- the seconds of builtin_model(m) and of Page1(model).ladder() on that
  model for every builtin m, which derives every cell whether a checkout
  derives cells in Page1 or on first read: the medians of LAYER_BUILDS
  builds each, in one fresh process importing PATH/src (the model and page
  construction layers);
- traffic: for `coframes verify G --degree 1 --format json` and
  `report G --format json` on every geometry, each in a fresh process,
  the builtin_model calls, GeometryModel and Page1 constructions, and
  the Page1._derive calls of the request, with the distinct cells
  derived;
- the medians, over SEEDS, of the end-to-end metrics of PATH's own
  perfbench/run.py on the WORKLOADS (SECONDS each), with every run's
  values beside them, each run with its median seconds per operation
  (op_median_s), which shows a workload's cases apart;
- outputs, sha256 digests of what the program computes, so two sides
  can be compared for byte identity: the stdout of the apply-oneshot
  workload's requests for SEEDS; every NormalForm (targets, slots) of
  every named complex; the columns, as sorted items, and denominators of
  every slice exactness_check(res, 1) reads, for every named complex;
  `coframes verify G --degree 1 --format json` for
  every geometry; `list` and `report G` for every geometry in each
  format; engel4's P and S on three random sections each; the normalize
  workload's NormalizeReports for SEEDS, as values (Fractions and ints
  alike), with the normalized coframe and its inverse, and
  certify_two_adapted of its dist3in6 reports' normalized models;
  shift_action_rank of the split models, and obstruction(m).matrices of
  each and of its splitting.perturb copies under random.Random(seed) for
  SEEDS; and the degree-3 exactness and composition reports above.

With --pairs PARENT CHANGE the script instead records, under "pairs_15s",
alternating runs of each checkout's own perfbench/run.py at the benchmark's
run length: PAIRS[W] pairs per workload W, the side that runs first
switching each pair, seed 101 upward.  Beside them ("checks") it records
CHECK_PAIRS[C] alternating pairs of exactness_check(res, max_degree=3) of
each complex C, one fresh process per run as above: every run's seconds,
peak RSS, ok and report digest.  Seconds of two sides compare only within
such pairs, as the box drifts over the minutes between separate records.

Runs are one at a time, in subprocesses, so the two sides can be recorded
on one machine by calls of this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)
SECONDS = 5.0
PAIR_SECONDS = 15.0
PAIRS = {"certify7": 10, "verify-small": 10, "apply-oneshot": 10,
         "normalize": 10}
CHECK_RUNS = 3
CHECK_PAIRS = {("elliptic7", "bgg"): 5, ("hyperbolic7", "bgg"): 5}
WORKLOADS = ("certify7", "verify-small", "normalize", "apply-oneshot")
METRICS = ("wall_s", "latency_p50_ms", "latency_p95_ms", "peak_rss_mb",
           "setup_s")

COMPLEXES = (("contact5", "bgg"), ("engel4", "bgg"), ("g2_5", "bgg"),
             ("g2_5", "ambient"), ("g2_5", "basic"), ("dist3in6", "bgg"),
             ("dl_5", "bgg"), ("elliptic7", "bgg"), ("hyperbolic7", "bgg"),
             ("symplectic4", "rs"))
GEOMETRIES = tuple(dict.fromkeys(g for g, _ in COMPLEXES))

# python3 -c _WORKER GEOMETRY VARIANT CHECK, with PYTHONPATH=PATH/src:
# prints [seconds, ok, report, peak RSS in MB] of one check on one freshly
# built complex as JSON.
_WORKER = r"""
import dataclasses, json, random, resource, sys, time
from coframes import models, operators, verify

geometry, variant, check = sys.argv[1:]
if variant == "rs":
    res = operators.build_rs_complex(2)
else:
    res = operators.named_complex(models.builtin_model(geometry), variant)
t0 = time.perf_counter()
if check == "exactness":
    rep = verify.exactness_check(res, max_degree=3)
else:
    rep = verify.composition_check(res, random.Random(7), sections=20,
                                   max_degree=3)
seconds = time.perf_counter() - t0
report = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)
          if f.name != "elapsed"}
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([seconds, rep.ok, report, rss_mb],
                 default=lambda x: dataclasses.asdict(x)))
"""


# Python source of slice_pairs(res, degree, cache): the (operator, slice)
# pairs whose columns exactness_check(res, degree) reads, each once, in a
# fixed order of their own: node by node, slice by slice within a node.
_SLICE_PAIRS = r"""
def slice_pairs(res, degree, cache):
    top = max(cache.weights) * degree + 1
    pairs = []
    for k, node in enumerate(res.nodes):
        for s in range(min(node.weights), max(node.weights) + top + 1):
            if cache.basis(k, s):
                pairs += [(k - 1, s)] * (k > 0)
                pairs += [(k, s)] * (k < len(res.nodes) - 1)
    return list(dict.fromkeys(pairs))
"""

LAYER_BUILDS = 15

# python3 -c _LAYER_WORKER BUILDS, with PYTHONPATH=PATH/src: prints
# {"model": {m: median seconds of builtin_model(m)},
#  "page1": {m: median seconds of Page1(model).ladder() on that fresh
#  model}} as JSON.
_LAYER_WORKER = r"""
import json, statistics, sys, time
from coframes import models, pages

out = {"model": {}, "page1": {}}
for name in models.builtin_names():
    times = {"model": [], "page1": []}
    for _ in range(int(sys.argv[1])):
        t0 = time.perf_counter()
        model = models.builtin_model(name)
        t1 = time.perf_counter()
        pages.Page1(model).ladder()
        times["model"].append(t1 - t0)
        times["page1"].append(time.perf_counter() - t1)
    for layer, ts in times.items():
        out[layer][name] = statistics.median(ts)
print(json.dumps(out))
"""


# python3 -c _TRAFFIC_WORKER ARGV..., with PYTHONPATH=PATH/src: runs
# `coframes ARGV...` and prints, as JSON, what one request built and derived.
_TRAFFIC_WORKER = r"""
import contextlib, io, json, sys
from coframes import cli, models, pages

calls = {"builtin_model": [], "GeometryModel": [], "Page1": [], "derived": []}


def counted(owner, attr, key):
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls[key].append(args[1:2])    # for _derive, the cell key
        return fn(*args, **kwargs)
    setattr(owner, attr, wrapper)


counted(cli, "builtin_model", "builtin_model")
counted(models.GeometryModel, "__init__", "GeometryModel")
counted(pages.Page1, "__init__", "Page1")
counted(pages.Page1, "_derive", "derived")
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
out = {key: len(v) for key, v in calls.items()}
out["cells"] = len(set(calls["derived"]))
out["exit"] = rc
print(json.dumps(out))
"""


# python3 -c _OUTPUTS_WORKER, with PYTHONPATH=PATH/src:PATH/perfbench and a
# scratch directory as cwd: prints {name: sha256} of the outputs as JSON.
_OUTPUTS_WORKER = _SLICE_PAIRS + r"""
import contextlib, dataclasses, hashlib, io, json, random, sys
from fractions import Fraction
from coframes import builtin_names, cli, models, operators, splitting, verify
import workloads

SEEDS, COMPLEXES = json.loads(sys.argv[1])


def canon(x):
    # values, not types: an int and an equal Fraction read the same
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, (int, Fraction)):
        return "%d/%d" % (Fraction(x).numerator, Fraction(x).denominator)
    if isinstance(x, dict):
        return sorted([canon(k), canon(v)] for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, models.GeometryModel):
        return {"name": x.name, "coframe": canon(x.coframe),
                "coframe_inv": canon(x.coframe_inv)}
    if dataclasses.is_dataclass(x):
        return {f.name: canon(getattr(x, f.name))
                for f in dataclasses.fields(x)}
    raise TypeError(type(x))


def sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def cli_out(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return [rc, buf.getvalue()]


out = {}
for seed in SEEDS:
    ops = workloads.setup_apply_oneshot(seed, ".")
    out["apply_oneshot/%d" % seed] = sha([[op.name, *op.run()] for op in ops])
    ops = workloads.setup_normalize(seed, ".")
    reps = [(op.name, op.run()) for op in ops]
    out["normalize/%d" % seed] = sha([canon(rep) for _, rep in reps])
    out["two_adapted/%d" % seed] = sha(
        [canon(splitting.certify_two_adapted(rep.normalized))
         for name, rep in reps if name.endswith(":dist3in6")])
for geometry, variant in COMPLEXES:
    if variant == "rs":
        res = operators.build_rs_complex(2)
    else:
        res = operators.named_complex(models.builtin_model(geometry), variant)
    out["normal_forms/%s/%s" % (geometry, variant)] = sha(
        [canon([h.normal_form().targets, h.normal_form().slots])
         for h in res.operators])
    cache = verify._SliceCache(res)
    out["slice_columns_deg1/%s/%s" % (geometry, variant)] = sha(
        [[op, s, [sorted(col.items()) for col in cols], dens]
         for op, s in slice_pairs(res, 1, cache)
         for cols, dens in [cache.columns(op, s)]])
for geometry in builtin_names() + ["symplectic4"]:
    out["verify_deg1/" + geometry] = sha(
        cli_out(["verify", geometry, "--degree", "1", "--format", "json"]))
for fmt in ("text", "json", "csv"):
    out["list/" + fmt] = sha(cli_out(["list", "--format", fmt]))
    for geometry, variant in COMPLEXES:
        out["report/%s/%s/%s" % (geometry, variant, fmt)] = sha(cli_out(
            ["report", geometry, "--complex", variant, "--format", fmt]))
for name in ("dist3in6", "elliptic7", "hyperbolic7"):
    base = models.builtin_model(name)
    out["shift_action_rank/" + name] = sha(splitting.shift_action_rank(base))
    out["obstruction/" + name] = sha(
        [canon(splitting.obstruction(m).matrices) for m in [base] + [
            splitting.perturb(base, random.Random(seed))[0]
            for seed in SEEDS]])
engel4 = models.builtin_model("engel4")
for name, cells in cli._ENGEL4_ALIASES.items():
    node = operators.derive_operator(engel4, *cells).source
    runs = []
    for seed in (1, 2, 3):
        section = operators.GradedSection(
            "engel4", "bgg", node.degree,
            operators.random_section(node, random.Random(seed)))
        path = "engel4-%s-%d.json" % (name, seed)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(section.to_json(4), fh)
        runs.append(cli_out(["apply", "engel4", "--operator", name,
                             "--input", path]))
    out["engel4/" + name] = sha(runs)
print(json.dumps(out))
"""


def _git(src: Path, *args: str, env=None) -> str:
    proc = subprocess.run(["git", "-C", str(src)] + list(args), env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def src_tree(src: Path) -> str:
    """Tree hash of src/ as on disk, staged in a throwaway index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        _git(src, "read-tree", "HEAD", env=env)
        _git(src, "add", "-A", "src", env=env)
        return _git(src, "write-tree", "--prefix=src/", env=env)


def _env(src: Path, *paths: str) -> dict:
    """Environment of a subprocess importing src's PATHS, writing no
    compiled bytecode."""
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=os.pathsep.join(str(src / p) for p in paths))


def _no_bytecode(src: Path) -> Path:
    """src resolved, refused if it holds compiled bytecode of the package."""
    src = src.resolve()
    if (src / "src" / "coframes" / "__pycache__").exists():
        raise SystemExit("bench: %s holds src/coframes/__pycache__; remove "
                         "it so both sides compile their sources" % src)
    return src


def check_run(src: Path, geometry: str, variant: str, check: str) -> list:
    """[seconds, ok, report, peak RSS in MB] of one check in a fresh
    process importing src/src."""
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, geometry, variant, check],
        env=_env(src, "src"), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def check_seconds(src: Path, check: str) -> dict:
    runs: dict = {}
    for _ in range(CHECK_RUNS):
        for geometry, variant in COMPLEXES:
            runs.setdefault("%s/%s" % (geometry, variant), []).append(
                check_run(src, geometry, variant, check))
    out = {}
    for key, recs in runs.items():
        seconds, oks, reports, rss = zip(*recs)
        if any([o, r] != [oks[0], reports[0]] for o, r in zip(oks, reports)):
            raise SystemExit("bench: %s %s reports differ between runs in %s"
                             % (check, key, src))
        out[key] = {"seconds": round(statistics.median(seconds), 3),
                    "seconds_runs": [round(t, 3) for t in seconds],
                    "peak_rss_mb": round(statistics.median(rss), 1),
                    "peak_rss_mb_runs": [round(m, 1) for m in rss],
                    "ok": oks[0], "report": reports[0]}
    return out


def request_traffic(src: Path) -> dict:
    env = _env(src, "src")
    out = {}
    for geometry in GEOMETRIES:
        for argv in (["verify", geometry, "--degree", "1"],
                     ["report", geometry]):
            proc = subprocess.run(
                [sys.executable, "-c", _TRAFFIC_WORKER, *argv, "--format",
                 "json"], env=env, capture_output=True, text=True,
                check=True)
            out[" ".join(argv)] = json.loads(proc.stdout.splitlines()[-1])
    return out


def output_digests(src: Path, side: dict) -> dict:
    env = _env(src, "src", "perfbench")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-c", _OUTPUTS_WORKER,
             json.dumps([SEEDS, COMPLEXES])],
            cwd=tmp, env=env, stdout=subprocess.PIPE, text=True, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    for check in ("exactness_deg3", "composition_deg3"):
        for key, rec in side[check].items():
            blob = json.dumps([rec["ok"], rec["report"]], sort_keys=True)
            out["%s/%s" % (check, key)] = hashlib.sha256(
                blob.encode()).hexdigest()
    return dict(sorted(out.items()))


def src_lines(src: Path) -> int:
    return sum(p.read_bytes().count(b"\n")
               for p in (src / "src" / "coframes").glob("*.py"))


def layer_seconds(src: Path) -> dict:
    env = _env(src, "src")
    proc = subprocess.run(
        [sys.executable, "-c", _LAYER_WORKER, str(LAYER_BUILDS)],
        env=env, capture_output=True, text=True, check=True)
    medians = json.loads(proc.stdout.splitlines()[-1])
    return {layer: {"builds": LAYER_BUILDS,
                    "seconds": {m: round(t, 6) for m, t in ts.items()}}
            for layer, ts in medians.items()}


def perfbench_run(src: Path, workload: str, seed: int,
                  seconds: float) -> dict:
    """The end-to-end metrics of one run of src's perfbench/run.py, with
    the run's median seconds per operation from its report line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(src), env=_env(src), capture_output=True, text=True,
        check=True)
    report, result = map(json.loads, proc.stdout.splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit("bench: %s seed %d failed its gate in %s"
                         % (workload, seed, src))
    return {"attempted": result["attempted"], "failed": result["failed"],
            **{m: result["metrics"][m]["value"] for m in METRICS},
            "op_median_s": report["op_median_s"]}


def perfbench_medians(src: Path, workload: str) -> dict:
    runs = [perfbench_run(src, workload, seed, SECONDS) for seed in SEEDS]
    return {"seeds": list(SEEDS), "seconds": SECONDS,
            "median": {m: statistics.median(r[m] for r in runs)
                       for m in METRICS},
            "runs": runs}


def record_side(src: Path) -> dict:
    """Everything the module docstring lists, for one checkout."""
    side = {"git_sha": _git(src, "rev-parse", "HEAD"),
            "src_tree": src_tree(src),
            "src_lines": src_lines(src),
            "exactness_deg3": check_seconds(src, "exactness"),
            "composition_deg3": check_seconds(src, "composition"),
            **layer_seconds(src),
            "traffic": request_traffic(src),
            "perfbench": {w: perfbench_medians(src, w) for w in WORKLOADS}}
    side["outputs"] = output_digests(src, side)
    return side


def perfbench_pairs(parent: Path, change: Path) -> dict:
    """PAIRS[w] alternating parent/change runs of each workload w, and
    CHECK_PAIRS[c] of the degree-3 exactness check of each complex c."""
    sides = [("parent", parent), ("change", change)]
    checks = []
    for (geometry, variant), npairs in CHECK_PAIRS.items():
        for pair in range(npairs):
            for label, src in sides[::-1] if pair % 2 else sides:
                seconds, ok, report, rss = check_run(src, geometry, variant,
                                                     "exactness")
                checks.append({
                    "complex": "%s/%s" % (geometry, variant), "pair": pair,
                    "side": label, "seconds": round(seconds, 3),
                    "peak_rss_mb": round(rss, 1), "ok": ok,
                    "report_sha256": hashlib.sha256(json.dumps(
                        report, sort_keys=True).encode()).hexdigest()})
    runs = []
    for workload, npairs in PAIRS.items():
        for seed in range(101, 101 + npairs):
            for label, src in sides[::-1] if seed % 2 == 0 else sides:
                runs.append({"workload": workload, "seed": seed,
                             "side": label,
                             **perfbench_run(src, workload, seed,
                                             PAIR_SECONDS)})
    return {"how": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds %g --trace 0 in each checkout, one run at a "
                   "time, parent first at odd seeds; PYTHONDONTWRITEBYTECODE"
                   "=1 and no src/coframes/__pycache__ on either side"
                   % PAIR_SECONDS,
            "parent_sha": _git(parent, "rev-parse", "HEAD"),
            "change_src_tree": src_tree(change), "runs": runs,
            "checks": checks}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path)
    ap.add_argument("--label", choices=("parent", "change"))
    ap.add_argument("--pairs", nargs=2, type=Path,
                    metavar=("PARENT", "CHANGE"))
    ap.add_argument("--out", required=True, type=Path,
                    help="BENCH JSON file to record into")
    args = ap.parse_args(argv)
    if args.pairs is None and (args.src is None or args.label is None):
        ap.error("give --src and --label, or --pairs")
    out = args.out
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    data["machine"] = {"python": platform.python_version(),
                       "nproc": len(os.sched_getaffinity(0))}
    if args.pairs is not None:
        data["pairs_15s"] = perfbench_pairs(*map(_no_bytecode, args.pairs))
    else:
        data[args.label] = record_side(_no_bytecode(args.src))
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
