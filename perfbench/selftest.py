"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

A tiny-size run of every workload, traced and untraced, must pass its
output checks and report every metric BENCHMARK.json declares. A wrong
solver fed to the package through the tracer must make the checks fail,
which shows they can.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
import worker  # noqa: E402
from crpolicy import cli  # noqa: E402
from crpolicy.subproblem import SubproblemSolution  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_run_passes_checks_and_reports_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])


def test_exits_nonzero_without_the_package_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD_NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_tracer_restores_every_binding():
    import crpolicy.evaluation.estimators as est
    import crpolicy.optimize as opt
    from crpolicy.policy import LogisticPolicy
    from crpolicy.uncertainty import UncertaintySpec

    before = (est.solve_box, opt.solve_box, LogisticPolicy.prob_matrix, UncertaintySpec.__dict__["from_dataset"])
    tracer = Tracer()
    tracer.install()
    try:
        assert est.solve_box is not before[0] and opt.solve_box is est.solve_box
        assert tracer.missing() == [] and set(tracer.bindings) == set(NAMES)
    finally:
        tracer.uninstall()
    after = (est.solve_box, opt.solve_box, LogisticPolicy.prob_matrix, UncertaintySpec.__dict__["from_dataset"])
    assert all(x is y for x, y in zip(before, after))


def _all_at_lower_bound(r, a, b):
    """Feasible for the box set, and wrong: every weight at its lower bound."""
    a = np.asarray(a, dtype=float)
    return SubproblemSolution(value=float(np.dot(r, a) / a.sum()), weights=a.copy(), threshold=1)


def _nominal_weights(r, a, b, w_tilde, lam, route="simplex"):
    """Feasible for the budgeted set, and wrong: the nominal weights."""
    w = np.asarray(w_tilde, dtype=float)
    return SubproblemSolution(value=float(np.dot(r, w) / w.sum()), weights=w.copy(), multiplier=0.0)


def _one_op(name, tmp_path, substitutes):
    tmp_path.mkdir()
    wl = workloads.build(name)
    wl.prepare(str(tmp_path), seed=3, tiny=True)
    out = str(tmp_path / "out")
    tracer = Tracer(substitutes)
    tracer.install()  # not recording: the wrappers only forward, to the substitutes
    try:
        _, error = worker.run_op(cli, wl.argv(0, out), out)
        assert error == ""
        return wl.check(0, out, workloads.file_digests(out))
    finally:
        tracer.uninstall()


@pytest.mark.parametrize(
    "name, substitutes, reason",
    [
        ("fit-box-n20k", {"subproblem.solve_box": _all_at_lower_bound}, "is not at its upper bound"),
        ("fit-tree", {"subproblem.solve_box": _all_at_lower_bound}, "is not at its upper bound"),
        ("fit-budgeted", {"subproblem.solve_budgeted": _nominal_weights}, "weights are not optimal"),
    ],
)
def test_a_wrong_inner_solver_fails_the_checks(name, substitutes, reason, tmp_path):
    assert _one_op(name, tmp_path / "right", {}).ok
    verdict = _one_op(name, tmp_path / "wrong", substitutes)
    assert not verdict.ok and reason in verdict.reason, verdict.reason
