"""Run one coframes benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify7 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: it imports the package from `src/` there,
with the pure Python kernel.  One single-threaded process runs a closed loop
of passes; a pass sends every operation of the workload once, in an order
drawn from the seed, and the loop starts passes until --seconds have gone
by.  Every result is checked against `gate`, outside the timed region.

With --trace 0 the metrics are the end-to-end ones: set-up time (median of
SETUP_SAMPLES set-ups, each importing the package afresh), median pass time,
latency percentiles over every operation of the passes, and peak memory.
Times are in seconds at a reference machine speed (see `speed`); the
measured seconds are in the context line.  With --trace 1 passes alternate
between traced and untraced, the metrics are per layer in measured seconds,
and trace.overhead_s is the traced minus the untraced median pass time.  perfbench/README.md defines
every metric.

The line before the last on standard output holds the run context; the last
line is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import speed
import tracing
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7


def import_program() -> str:
    """Import coframes from this checkout's src/; return its kernel backend."""
    if not (SRC / "coframes" / "__init__.py").is_file():
        raise SystemExit("perfbench: no src/coframes under %s" % ROOT)
    os.environ["COFRAMES_BACKEND"] = "pure"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import coframes
    if Path(coframes.__file__).resolve().parent != SRC / "coframes":
        raise SystemExit("perfbench: imported coframes from %s"
                         % coframes.__file__)
    return getattr(coframes, "BACKEND", "pure")


def forget_program() -> None:
    """Drop the package from sys.modules, so the next import starts cold."""
    for name in [n for n in sys.modules
                 if n == "coframes" or n.startswith("coframes.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program and build the workload's inputs, SETUP_SAMPLES
    times, each from a cold import.  Returns the last inputs, the backend,
    and each set-up's seconds, measured and at the reference speed."""
    setups = []
    for i in range(SETUP_SAMPLES):
        if i:
            forget_program()
            gc.collect()
        with speed.Meter() as meter:
            t0 = time.perf_counter()
            backend = import_program()
            ops = WORKLOADS[workload](seed, str(workdir))
            t1 = time.perf_counter()
            dt = t1 - t0 - meter.spent
        setups.append((dt, dt * meter.factor(t0, t1)))
    return ops, backend, setups


def run_op(op: Op, tracer: Optional[tracing.Tracer] = None,
           meter: Optional[speed.Meter] = None):
    """Time op.run, then check its result untimed.  Returns ok, start and
    end times, seconds, and CPU seconds."""
    spent = meter.spent if meter else 0.0
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        result = op.run()
        ok = True
    except Exception:
        traceback.print_exc()
        ok = False
    t1, c1 = time.perf_counter(), time.process_time()
    spent = meter.spent - spent if meter else 0.0
    dt = t1 - t0 - spent
    if ok:
        if tracer is not None:
            tracer.active = False
        try:
            ok = bool(op.check(result))
        except Exception:
            traceback.print_exc()
            ok = False
        finally:
            if tracer is not None:
                tracer.active = True
    if not ok:
        print("perfbench: %s failed" % op.name, file=sys.stderr)
    return ok, (t0, t1), dt, c1 - c0 - spent


@dataclass
class Pass:
    traced: bool
    names: List[str] = field(default_factory=list)
    times: List[float] = field(default_factory=list)     # measured seconds
    scaled: List[float] = field(default_factory=list)    # reference seconds
    speeds: List[float] = field(default_factory=list)    # speed samples
    cpu: float = 0.0
    layers: Dict = field(default_factory=dict)


def run_passes(ops: List[Op], seed: int, seconds: float,
               tracer: Optional[tracing.Tracer]):
    """Closed loop of whole passes; traced and untraced alternate if tracing.
    Speed is sampled in untraced passes only, so traces stay undisturbed."""
    passes: List[Pass] = []
    attempted = failed = 0
    min_passes = 2 if tracer else 1
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        p = Pass(traced=tracer is not None and len(passes) % 2 == 0)
        order = list(ops)
        random.Random("%d:%d" % (seed, len(passes))).shuffle(order)
        if p.traced:
            tracer.install()
        meter = None if p.traced else speed.Meter()
        spans = []
        try:
            with meter or contextlib.nullcontext():
                for op in order:
                    ok, span, dt, cpu = run_op(
                        op, tracer if p.traced else None, meter)
                    spans.append(span)
                    p.names.append(op.name)
                    p.times.append(dt)
                    p.cpu += cpu
                    attempted += 1
                    failed += not ok
        finally:
            if p.traced:
                p.layers = tracer.pass_metrics()
                tracer.uninstall()
            else:
                p.speeds = [s for _, s in meter.samples]
                p.scaled = [dt * meter.factor(*span)
                            for span, dt in zip(spans, p.times)]
        passes.append(p)
    return passes, attempted, failed


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = ROOT / "perfbench" / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, backend, setups = set_up(args.workload, args.seed, workdir)
        if backend != "pure":
            raise SystemExit("perfbench: kernel backend is %r, not pure"
                             % backend)
        tracer = tracing.Tracer() if args.trace else None
        passes, attempted, failed = run_passes(ops, args.seed, args.seconds,
                                               tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    by_op: Dict[str, List[float]] = {}
    for p in plain:
        for name, t in zip(p.names, p.scaled):
            by_op.setdefault(name, []).append(t)
    report = {
        "context": {"git_sha": git_sha(), "python": platform.python_version(),
                    "nproc": len(os.sched_getaffinity(0)), "backend": backend,
                    "workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace},
        "passes": len(passes), "operations": attempted,
        "failed_ratio": failed / attempted,
        "pass_measured_s": [sum(p.times) for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
        "pass_scaled_s": [sum(p.scaled) for p in plain],
        "speed_sample_s": statistics.median(x for p in plain for x in p.speeds),
        "wall_s": statistics.median(sum(p.scaled) for p in plain),
        "measured_wall_s": statistics.median(sum(p.times) for p in plain),
        "cpu_s": statistics.median(p.cpu for p in plain),
        "op_median_s": {name: statistics.median(ts)
                        for name, ts in sorted(by_op.items())},
        "setup_measured_s": [m for m, _ in setups],
        "setup_scaled_s": [s for _, s in setups],
    }
    if args.trace:
        traced = [p for p in passes if p.traced]
        metrics = tracing.combine([p.layers for p in traced])
        metrics["trace.overhead_s"] = (
            statistics.median(sum(p.times) for p in traced)
            - report["measured_wall_s"], "s")
        report["exact_counts"] = list(tracing.EXACT_COUNTS)
        report["missing_targets"] = tracer.missing
    else:
        latencies = [t for p in plain for t in p.scaled]
        report["latency_samples"] = len(latencies)
        metrics = {
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "wall_s": (report["wall_s"], "s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_p95_ms": (statistics.quantiles(
                latencies, n=20, method="inclusive")[18] * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
