"""Stable CSV/JSON layouts for experiment outputs, fixed so downstream
plotting scripts can rely on them. Every file the CLI writes is opened
here, by `write_csv` or `write_json`; by command:

* fit: fit.json, {policy, objective, fell_back, gamma, options, per_restart}
  of the first gamma's `FitResult`; with more gammas also gamma_path.csv:
  gamma, objective, fell_back (0/1), policy_json, one row per gamma
* evaluate: evaluation.json, {n, m, baseline, hajek_nominal, worst_case:
  {gamma: value}, ipw_value [, ht_test_regret] [, true_regret]}
* simulate: dataset_rep{rep:03d}.csv per replication, a dataset CSV:
  x0..x{d-1}, t, y [, e_nominal, w_star, y_cf0..y_cf{m-1}];
  regret_curves.csv: method, gamma, rep, true_regret; summary.json: list
  of {method, gamma, mean_regret, stderr, n_reps}
* calibrate: calibration.csv: train_gamma, then eval_<gamma> per grid point
* audit: audit_odds_ratios.csv: one column per audited covariate, one row per unit

A gamma named in a key or a column (worst_case, eval_<gamma>) is its
`gamma_label`.
"""

from __future__ import annotations

import csv
import json
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from ..data import Dataset
from ..policy import policy_to_json

__all__ = [
    "gamma_label",
    "write_csv",
    "write_json",
    "dataset_rows",
    "write_dataset_csv",
    "write_gamma_path_csv",
    "write_regret_curves_csv",
    "write_calibration_csv",
    "write_audit_csv",
    "summarize_curves",
    "write_summary_json",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def gamma_label(gamma: float) -> str:
    """The %g label of a gamma in output keys and column names."""
    return f"{gamma:g}"


def write_csv(path, rows: Iterable[Sequence]) -> None:
    """Write rows, header first, as CSV; a generator is consumed as it is written."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def write_json(path, doc) -> str:
    """Write doc with sorted keys, an indent of 2 and a final newline; return the text written."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def dataset_rows(data: Dataset, w_star: Optional[np.ndarray] = None):
    header = [f"x{j}" for j in range(data.d)] + ["t", "y"]
    if data.e_hat is not None:
        header.append("e_nominal")
    if w_star is not None:
        header.append("w_star")
    if data.potential_Y is not None:
        header.extend(f"y_cf{t}" for t in range(data.m))
    yield header
    for i in range(data.n):
        row = [_fmt(v) for v in data.X[i]] + [str(int(data.T[i])), _fmt(data.Y[i])]
        if data.e_hat is not None:
            row.append(_fmt(data.e_hat[i]))
        if w_star is not None:
            row.append(_fmt(w_star[i]))
        if data.potential_Y is not None:
            row.extend(_fmt(v) for v in data.potential_Y[i])
        yield row


def write_dataset_csv(path, data: Dataset, w_star: Optional[np.ndarray] = None) -> None:
    write_csv(path, dataset_rows(data, w_star))


def write_gamma_path_csv(path, fits) -> None:
    """fits: one `FitResult` per gamma of the grid, in order."""
    rows = ([repr(fit.gamma), repr(fit.objective), int(fit.fell_back), policy_to_json(fit.policy)] for fit in fits)
    write_csv(path, chain([["gamma", "objective", "fell_back", "policy_json"]], rows))


def write_regret_curves_csv(path, records: Sequence[dict]) -> None:
    """records: dicts with keys method, gamma, rep, true_regret."""
    rows = ([rec["method"], _fmt(rec["gamma"]), str(int(rec["rep"])), _fmt(rec["true_regret"])] for rec in records)
    write_csv(path, chain([["method", "gamma", "rep", "true_regret"]], rows))


def write_calibration_csv(path, matrix) -> None:
    """matrix: a `CalibrationMatrix` (gammas and the square values)."""
    rows = ([_fmt(g)] + [_fmt(v) for v in row] for g, row in zip(matrix.gammas, matrix.values))
    write_csv(path, chain([["train_gamma"] + [f"eval_{gamma_label(g)}" for g in matrix.gammas]], rows))


def write_audit_csv(path, ratios: np.ndarray, names: Optional[Sequence[str]] = None) -> None:
    d, n = ratios.shape
    names = list(names) if names is not None else [f"x{j}" for j in range(d)]
    write_csv(path, chain([names], ([_fmt(ratios[j, i]) for j in range(d)] for i in range(n))))


def summarize_curves(records: Sequence[dict]):
    """Aggregate per-replication regrets into {method, gamma, mean, stderr, n}."""
    keys = sorted({(rec["method"], float(rec["gamma"])) for rec in records})
    out = []
    for method, gamma in keys:
        vals = np.array(
            [rec["true_regret"] for rec in records if rec["method"] == method and float(rec["gamma"]) == gamma]
        )
        stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        out.append(
            {
                "method": method,
                "gamma": gamma,
                "mean_regret": float(vals.mean()),
                "stderr": stderr,
                "n_reps": int(vals.size),
            }
        )
    return out


def write_summary_json(path, summary) -> None:
    write_json(path, summary)
