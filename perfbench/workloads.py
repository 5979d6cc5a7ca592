"""The four benchmark workloads: inputs, the CLI command of one op, and its checks.

One op is one `crpolicy` CLI command run in-process through
`crpolicy.cli.main(argv)`. Every workload also has a tiny variant, which
the worker runs once as its warm-up and the self-tests run as a smoke test.
Importing this module imports crpolicy, so `src/` must be on sys.path.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from crpolicy.data import ColumnSchema, estimate_propensities, load_dataset
from crpolicy.evaluation import estimators
from crpolicy.policy import control_baseline, policy_from_json
from crpolicy.uncertainty import UncertaintySpec

import inputs
from checks import CheckFailed, check_worst_case_weights, oracle_regret, policy_probs, require

TEST_N = 5000
CLIP_EPS = 1e-3  # the CLI's default propensity clipping
SIM_GAMMAS = ["1", "1.2", "1.5", "2"]
SIM_GAMMA_TRUE = 1.5  # binary-sec7 puts every true weight on this gamma's bounds
SIM_METHODS = ("ipw-logistic", "robust-logistic")


@dataclass(frozen=True)
class OpResult:
    """The verdict on one op's outputs, with the quality figures they carry."""

    ok: bool
    reason: str = ""
    objective: Optional[float] = None
    true_regret: Optional[float] = None


def file_digests(out_dir: str) -> Dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _checked(fn):
    """Turn a broken condition, or outputs the check cannot read, into a failed OpResult."""

    def run(*args) -> OpResult:
        try:
            return fn(*args)
        except CheckFailed as exc:
            return OpResult(False, reason=str(exc))
        except Exception as exc:  # a check that cannot read the outputs fails the op, not the run
            return OpResult(False, reason=f"check raised {type(exc).__name__}: {exc}")

    return run


class FitWorkload:
    """`crpolicy fit` on a CSV drawn from the workload seed, the same file every op."""

    def __init__(self, name, n, m, args, tiny_n, tiny_args, gamma, rho=None):
        self.name = name
        self.n, self.m, self.args = n, m, list(args)
        self.tiny_n, self.tiny_args = tiny_n, list(tiny_args)
        self.gamma, self.rho = gamma, rho
        self._verdicts: Dict[Tuple[str, str], OpResult] = {}
        self._dataset = None

    def prepare(self, work_dir: str, seed: int, tiny: bool = False) -> None:
        """Write the op's input CSV and the warm-up CSV, and draw the held-out test set."""
        self.input_csv = os.path.join(work_dir, "input.csv")
        self.warmup_csv = os.path.join(work_dir, "warmup.csv")
        self.op_args = self.tiny_args if tiny else self.args
        n = self.tiny_n if tiny else self.n
        inputs.write_csv(self.input_csv, inputs.draw(inputs.rng_for(seed, 0), n, self.m))
        inputs.write_csv(self.warmup_csv, inputs.draw(inputs.rng_for(seed, 2), self.tiny_n, self.m))
        self.test = inputs.draw(inputs.rng_for(seed, 1), TEST_N, self.m)

    def _argv(self, csv_path, args, out_dir) -> List[str]:
        cols = ["--covariates", ",".join(inputs.COVARIATES), "--treatment-col", "t", "--outcome-col", "y"]
        return ["fit", "--input", csv_path, *cols, *args, "--output-dir", out_dir]

    def warmup_argv(self, out_dir: str) -> List[str]:
        return self._argv(self.warmup_csv, self.tiny_args, out_dir)

    def argv(self, op: int, out_dir: str) -> List[str]:
        return self._argv(self.input_csv, self.op_args, out_dir)

    def check(self, op: int, out_dir: str, digests: Dict[str, str]) -> OpResult:
        """Every op reads the same CSV, so ops with identical output bytes share one verdict."""
        key = (self.input_csv, digests.get("fit.json", ""))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(out_dir)
        return self._verdicts[key]

    def _data(self):
        # The same ingestion the CLI runs, so the recomputation sees its propensities.
        if self._dataset is None:
            schema = ColumnSchema(covariates=inputs.COVARIATES, treatment="t", outcome="y")
            data = load_dataset(self.input_csv, schema)
            self._dataset = data.with_propensities(estimate_propensities(data, clip_eps=CLIP_EPS))
        return self._dataset

    @_checked
    def _check(self, out_dir: str) -> OpResult:
        with open(os.path.join(out_dir, "fit.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        objective = float(doc["objective"])
        require(math.isfinite(objective), "objective is not finite")
        require(doc["gamma"] == self.gamma, f"fit.json gamma {doc['gamma']} != {self.gamma}")
        require(objective <= 0.0, f"objective {objective!r} > 0 although fallback is on")
        if doc["fell_back"]:
            base = doc["policy"]
            require(
                base["variant"] == "constant" and base["payload"]["p"][0] == 1.0 and objective == 0.0,
                "a fallen-back fit must return the control baseline with objective 0",
            )
        data = self._data()
        spec = UncertaintySpec.from_dataset(data, self.gamma, rho=self.rho)
        pol = policy_from_json(json.dumps(doc["policy"]))
        pi0 = control_baseline(data.m)
        again = estimators.worst_case_regret(pol, pi0, data, spec)
        require(
            abs(again - objective) <= 1e-8 * max(1.0, abs(objective)),
            f"worst_case_regret on the saved policy gives {again!r}, fit.json says {objective!r}",
        )
        W, total = estimators.worst_case_weights(pol, pi0, data, spec)
        p_obs = policy_probs(doc["policy"], data.X)[np.arange(data.n), data.T]
        r = (p_obs - (data.T == 0)) * data.Y
        check_worst_case_weights(W, r, data.T, data.e_hat, self.gamma, self.rho, total)
        regret = oracle_regret(doc["policy"], self.test.X, self.test.potential)
        require(math.isfinite(regret), "held-out regret is not finite")
        return OpResult(True, objective=objective, true_regret=regret)


class SimulateWorkload:
    """One `crpolicy simulate` replication per op, each with its own seed.

    Full size keeps the CLI defaults: test draw of 5000, 500 iterations x 5 restarts.
    """

    name = "simulate-path"
    N, TINY_N = 200, 60
    TINY_ARGS = ["--test-n", "200", "--iters", "10", "--restarts", "2"]

    def prepare(self, work_dir: str, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.n, self.op_args = (self.TINY_N, self.TINY_ARGS) if tiny else (self.N, [])

    def _argv(self, n, args, op_seed, out_dir) -> List[str]:
        return [
            "simulate", "--preset", "binary-sec7", "--reps", "1", "--n", str(n),
            "--gamma", ",".join(SIM_GAMMAS), *args, "--seed", str(op_seed), "--output-dir", out_dir,
        ]

    def op_seed(self, op: int) -> int:
        return int(np.random.SeedSequence(entropy=self.seed, spawn_key=(op,)).generate_state(1)[0])

    def warmup_argv(self, out_dir: str) -> List[str]:
        return self._argv(self.TINY_N, self.TINY_ARGS, self.op_seed(2**20), out_dir)  # a seed no op uses

    def argv(self, op: int, out_dir: str) -> List[str]:
        return self._argv(self.n, self.op_args, self.op_seed(op), out_dir)

    @_checked
    def check(self, op: int, out_dir: str, digests: Dict[str, str]) -> OpResult:
        with open(os.path.join(out_dir, "regret_curves.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        require(rows[0] == ["method", "gamma", "rep", "true_regret"], "regret_curves.csv header changed")
        curves = {(m, float(g)): float(v) for m, g, rep, v in rows[1:] if rep == "0"}
        want = {(m, float(g)) for m in SIM_METHODS for g in SIM_GAMMAS}
        require(len(rows) - 1 == len(want) and set(curves) == want, "regret_curves.csv rows are not method x gamma")
        require(all(math.isfinite(v) for v in curves.values()), "a true regret is not finite")
        naive = {curves[("ipw-logistic", float(g))] for g in SIM_GAMMAS}
        require(len(naive) == 1, "the gamma = 1 comparator must score the same at every gamma")

        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        require(len(summary) == len(want), "summary.json has the wrong number of entries")
        for entry in summary:
            key = (entry["method"], float(entry["gamma"]))
            require(
                entry["n_reps"] == 1 and entry["stderr"] == 0.0 and entry["mean_regret"] == curves[key],
                f"summary.json disagrees with regret_curves.csv at {key}",
            )

        with open(os.path.join(out_dir, "dataset_rep000.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header = [f"x{j}" for j in range(5)] + ["t", "y", "e_nominal", "w_star", "y_cf0", "y_cf1"]
        require(rows[0] == header, "dataset_rep000.csv header changed")
        table = np.array(rows[1:], dtype=float)
        require(table.shape == (self.n, len(header)), f"dataset_rep000.csv is not {self.n} rows")
        t, y, e, w_star = table[:, 5], table[:, 6], table[:, 7], table[:, 8]
        require(np.all((t == 0) | (t == 1)), "treatment labels outside {0, 1}")
        require(np.array_equal(y, np.where(t == 1, table[:, 10], table[:, 9])), "y != y_cf[t]")
        require(np.all((e > 0) & (e < 1)), "nominal propensity outside (0, 1)")
        w = 1.0 / e
        lo, hi = 1.0 + (w - 1.0) / SIM_GAMMA_TRUE, 1.0 + (w - 1.0) * SIM_GAMMA_TRUE
        require(
            np.all(w_star >= lo * (1 - 1e-9)) and np.all(w_star <= hi * (1 + 1e-9)),
            "a true weight leaves the gamma_true uncertainty set",
        )
        robust = [curves[("robust-logistic", float(g))] for g in SIM_GAMMAS]
        return OpResult(True, true_regret=float(np.mean(robust)))


def build(name: str):
    """A fresh instance of the named workload; KeyError for an unknown name."""
    # Why each workload exists is recorded beside its name in BENCHMARK.json.
    return {
        w.name: w
        for w in (
            FitWorkload(
                "fit-box-n20k",
                n=20000, m=3, args=["--gamma", "1.2", "--iters", "100", "--restarts", "2"],
                tiny_n=600, tiny_args=["--gamma", "1.2", "--iters", "5", "--restarts", "2"],
                gamma=1.2,
            ),
            SimulateWorkload(),
            FitWorkload(
                "fit-budgeted",
                n=150, m=2, args=["--gamma", "1.5", "--rho", "0.2", "--iters", "20", "--restarts", "1"],
                tiny_n=40, tiny_args=["--gamma", "1.5", "--rho", "0.2", "--iters", "2", "--restarts", "1"],
                gamma=1.5, rho=0.2,
            ),
            FitWorkload(
                "fit-tree",
                n=800, m=2, args=["--policy", "tree", "--depth", "2", "--min-leaf", "20", "--gamma", "1.5"],
                tiny_n=120, tiny_args=["--policy", "tree", "--depth", "2", "--min-leaf", "10", "--gamma", "1.5"],
                gamma=1.5,
            ),
        )
    }[name]
