"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench

The correctness gate must be able to fail (three negative controls), the
per-layer counts it reports as exact must repeat for a given seed, and the
benchmark must refuse to run where the program's sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def program():
    run.import_program()
    from coframes import models, operators
    return models, operators


def test_negative_controls_count_as_failed(program):
    models, operators = program
    rs = operators.build_rs_complex(2)
    engel = operators.named_complex(models.builtin_model("engel4"))
    truncated = operators.Resolution(
        name=engel.name, variant=engel.variant, nodes=engel.nodes[1:],
        operators=engel.operators[1:], model=engel.model, nvars=engel.nvars,
        coeff_weights=engel.coeff_weights)
    acyclic = [1] + [0] * (len(rs.nodes) - 1)
    bad = [workloads.certify_op("symplectic4-as-acyclic", rs, "symplectic4",
                                "rs", expected=acyclic),
           workloads.certify_op("engel4-truncated", truncated, "engel4",
                                "bgg"),
           # right homology, but the last slice the degree asks for is skipped
           workloads.certify_op("engel4-no-buffer", engel, "engel4", "bgg",
                                buffer=0)]
    _, attempted, failed = run.run_passes(bad, seed=0, seconds=0, tracer=None)
    assert (attempted, failed) == (3, 3)

    good = [workloads.certify_op("symplectic4", rs, "symplectic4", "rs"),
            workloads.certify_op("engel4", engel, "engel4", "bgg")]
    _, attempted, failed = run.run_passes(good, seed=0, seconds=0, tracer=None)
    assert (attempted, failed) == (2, 0)


def _traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat(workload):
    first = _traced_run(workload, seed=3)
    second = _traced_run(workload, seed=3)
    for name in tracing.EXACT_COUNTS:
        assert first[name] == second[name], name
    assert first["ratpoly.kernel.calls"] > 0


def test_refuses_to_run_without_the_program():
    bare = HERE / ".work" / ("bare-%d" % os.getpid())
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "certify7",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
