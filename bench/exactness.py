"""Record exactness-certificate timings of one checkout into a BENCH file.

    python3 bench/exactness.py --src PATH --label parent
    python3 bench/exactness.py --src . --label change

PATH is the root of a coframes checkout.  The script records, under the
label, in BENCH_6.json at the root of this checkout:

- the git SHA of PATH's HEAD, and the git tree hash of its src/ as it is
  on disk, which equals `git rev-parse COMMIT:src` of the commit that
  holds it (so an uncommitted change side is identified too);
- the seconds of exactness_check(res, max_degree=3) for every named
  complex, built and certified in a fresh process importing PATH/src;
- the medians, over SEEDS, of the end-to-end metrics of PATH's own
  perfbench/run.py on the certify7 and verify-small workloads (SECONDS
  each), with every run's values beside them.

Runs are one at a time, in subprocesses, so the two sides can be recorded
on one machine by two calls of this script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_6.json"
SEEDS = (1, 2, 3)
SECONDS = 5.0
WORKLOADS = ("certify7", "verify-small")
METRICS = ("wall_s", "latency_p50_ms", "latency_p95_ms", "peak_rss_mb",
           "setup_s")

# Run with PYTHONPATH=PATH/src: prints {complex: [seconds, ok]} as JSON.
_WORKER = r"""
import json, time
from coframes import models, operators, verify

COMPLEXES = [("contact5", "bgg"), ("engel4", "bgg"), ("g2_5", "bgg"),
             ("g2_5", "ambient"), ("g2_5", "basic"), ("dist3in6", "bgg"),
             ("dl_5", "bgg"), ("elliptic7", "bgg"), ("hyperbolic7", "bgg"),
             ("symplectic4", "rs")]
out = {}
for geometry, variant in COMPLEXES:
    if variant == "rs":
        res = operators.build_rs_complex(2)
        expected = [1, 1] + [0] * (len(res.nodes) - 2)
    else:
        res = operators.named_complex(models.builtin_model(geometry), variant)
        expected = None
    t0 = time.perf_counter()
    rep = verify.exactness_check(res, max_degree=3, expected=expected)
    out["%s/%s" % (geometry, variant)] = [time.perf_counter() - t0, rep.ok]
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


def exactness_seconds(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    proc = subprocess.run([sys.executable, "-c", _WORKER], env=env,
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    return {name: {"seconds": round(t, 3), "ok": ok}
            for name, (t, ok) in got.items()}


def perfbench_medians(src: Path, workload: str) -> dict:
    runs = []
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
            cwd=str(src), capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            raise SystemExit("bench: %s seed %d failed its gate"
                             % (workload, seed))
        runs.append({m: result["metrics"][m]["value"] for m in METRICS})
    return {"seeds": list(SEEDS), "seconds": SECONDS,
            "median": {m: statistics.median(r[m] for r in runs)
                       for m in METRICS},
            "runs": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", required=True, type=Path)
    ap.add_argument("--label", required=True, choices=("parent", "change"))
    args = ap.parse_args(argv)
    src = args.src.resolve()

    side = {"git_sha": _git(src, "rev-parse", "HEAD"),
            "src_tree": src_tree(src),
            "exactness_deg3": exactness_seconds(src),
            "perfbench": {w: perfbench_medians(src, w) for w in WORKLOADS}}
    data = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {}
    data["machine"] = {"python": platform.python_version(),
                       "nproc": len(os.sched_getaffinity(0))}
    data[args.label] = side
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
