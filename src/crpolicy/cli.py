"""Command-line front end: ingestion -> fitting -> evaluation -> reports.

Subcommands: fit | evaluate | simulate | calibrate | audit. Flags override
values from an optional JSON config file (--config), which in turn
overrides built-in defaults. All outputs are deterministic given the same
configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import numpy as np

from .data import ColumnSchema, Dataset, estimate_propensities, load_dataset
from .exceptions import CRPolicyError
from .optimize import FitOptions, FitResult, gamma_path_fit, subgradient_fit, tree_partition_fit
from .policy import (
    Policy,
    control_baseline,
    policy_from_json,
    policy_to_json,
    uniform_baseline,
)
from .uncertainty import UncertaintySpec
from .evaluation import (
    calibration_matrix,
    hajek_regret,
    ht_test_regret,
    ipw_value,
    odds_ratio_audit,
    simulate_binary,
    simulate_multi,
    true_regret,
    worst_case_regret,
    SimParamsBinary,
    SimParamsMulti,
)
from .evaluation.reports import (
    summarize_curves,
    write_audit_csv,
    write_calibration_csv,
    write_dataset_csv,
    write_regret_curves_csv,
    write_summary_json,
)

_DEFAULTS = {
    "output_dir": ".",
    "gamma": [1.0],
    "log_gamma": False,
    "rho": None,
    "baseline": "control",
    "baseline_file": None,
    "policy": "logistic",
    "depth": 2,
    "min_leaf": 10,
    "restarts": 5,
    "iters": 500,
    "eta0": 1.0,
    "kappa": 0.5,
    "seed": 0,
    "init_scale": 1.0,
    "no_fallback": False,
    "reps": 50,
    "preset": "binary-sec7",
    "n": 200,
    "test_n": 5000,
    "workers": 1,
    "clip_eps": 1e-3,
    "propensity_col": None,
    "ht_probs": None,
    "counterfactual_cols": None,
    "policy_file": None,
}


def _csv_floats(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _csv_names(text: str) -> List[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip() != ""]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crpolicy",
        description="Confounding-robust policy learning and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, need_input=True):
        if need_input:
            p.add_argument("--input", required=True, help="input dataset CSV")
            p.add_argument("--covariates", type=_csv_names, help="comma-separated covariate column names")
            p.add_argument("--treatment-col", dest="treatment_col", help="treatment column name")
            p.add_argument("--outcome-col", dest="outcome_col", help="outcome column name")
            p.add_argument("--propensity-col", dest="propensity_col", help="optional propensity column")
            p.add_argument(
                "--counterfactual-cols",
                dest="counterfactual_cols",
                type=_csv_names,
                help="optional counterfactual outcome columns, one per arm",
            )
            p.add_argument("--clip-eps", dest="clip_eps", type=float, help="propensity clipping (default 1e-3)")
        p.add_argument("--output-dir", dest="output_dir", help="directory for emitted files (default .)")
        p.add_argument("--config", help="JSON config file; explicit flags win")
        p.add_argument("--seed", type=int, help="random seed")

    def add_gamma(p):
        p.add_argument(
            "--gamma", "--gammas", dest="gamma", type=_csv_floats,
            help="sensitivity value(s), comma separated, ascending",
        )
        p.add_argument(
            "--log-gamma",
            dest="log_gamma",
            action="store_true",
            default=None,
            help="interpret --gamma values on the log scale",
        )
        p.add_argument("--rho", type=float, help="budget fraction in [0,1]; omit for the box set")

    def add_fitopts(p, tree=False):
        p.add_argument("--baseline", choices=["control", "uniform", "file"], help="baseline policy")
        p.add_argument("--baseline-file", dest="baseline_file", help="policy JSON when --baseline file")
        if tree:
            p.add_argument("--policy", choices=["logistic", "tree"], help="policy class to fit")
            p.add_argument("--depth", type=int, help="tree depth (policy=tree)")
            p.add_argument("--min-leaf", dest="min_leaf", type=int, help="minimum units per leaf (policy=tree)")
        else:
            p.add_argument("--policy", choices=["logistic"], help="policy class to fit (logistic only)")
        p.add_argument("--restarts", type=int, help="subgradient restarts")
        p.add_argument("--iters", type=int, help="subgradient iterations per restart")
        p.add_argument("--eta0", type=float, help="initial step size")
        p.add_argument("--kappa", type=float, help="step schedule exponent in (0,1]")
        p.add_argument("--init-scale", dest="init_scale", type=float, help="restart init std-dev")
        p.add_argument(
            "--no-fallback",
            dest="no_fallback",
            action="store_true",
            default=None,
            help="do not fall back to the baseline on a positive objective",
        )

    p_fit = sub.add_parser("fit", help="fit a confounding-robust policy")
    add_io(p_fit)
    add_gamma(p_fit)
    add_fitopts(p_fit, tree=True)

    p_eval = sub.add_parser("evaluate", help="evaluate a saved policy on a dataset")
    add_io(p_eval)
    add_gamma(p_eval)
    p_eval.add_argument("--baseline", choices=["control", "uniform", "file"])
    p_eval.add_argument("--baseline-file", dest="baseline_file")
    p_eval.add_argument("--policy-file", dest="policy_file", help="policy or fit-result JSON")
    p_eval.add_argument(
        "--ht-probs",
        dest="ht_probs",
        type=_csv_floats,
        help="arm randomization probabilities for the test-set regret estimator",
    )

    p_sim = sub.add_parser("simulate", help="generate synthetic data and replicate the regret curves")
    add_io(p_sim, need_input=False)
    add_gamma(p_sim)
    add_fitopts(p_sim)
    p_sim.add_argument("--preset", choices=["binary-sec7", "multi-sec7"], help="synthetic design")
    p_sim.add_argument("--reps", type=int, help="number of replications")
    p_sim.add_argument("--n", type=int, help="training sample size per replication")
    p_sim.add_argument("--test-n", dest="test_n", type=int, help="out-of-sample evaluation draw size")
    p_sim.add_argument("--workers", type=int, help="parallel replication workers")

    p_cal = sub.add_parser("calibrate", help="cross-gamma calibration matrix")
    add_io(p_cal)
    add_gamma(p_cal)
    add_fitopts(p_cal)

    p_aud = sub.add_parser("audit", help="dropped-covariate odds-ratio audit")
    add_io(p_aud)
    return parser


# Commands that always fit logistic policies; their parsers have no tree options.
_LOGISTIC_ONLY = ("simulate", "calibrate")


def _reject_tree_options(command: str, cfg_path: str, cfg: dict) -> None:
    for key, val in cfg.items():
        name = key.replace("_", "-")
        if name in ("depth", "min-leaf") or (name == "policy" and val != "logistic"):
            raise CRPolicyError(
                f"{cfg_path}: {command} fits logistic policies only and does not take --{name}"
            )


def _merge_config(args: argparse.Namespace) -> dict:
    merged = dict(_DEFAULTS)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        with open(cfg_path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise CRPolicyError(f"{cfg_path}: config must be a JSON object")
        for key, val in cfg.items():
            merged[key.replace("-", "_")] = val
        if args.command in _LOGISTIC_ONLY:
            _reject_tree_options(args.command, cfg_path, cfg)
    for key, val in vars(args).items():
        if val is not None:
            merged[key] = val
    return merged


def _gammas(cfg: dict) -> List[float]:
    gammas = [float(g) for g in cfg["gamma"]]
    if cfg.get("log_gamma"):
        gammas = [float(np.exp(g)) for g in gammas]
    if any(g < 1.0 for g in gammas):
        raise CRPolicyError("every gamma must be >= 1 (after exp when --log-gamma)")
    if sorted(gammas) != gammas:
        raise CRPolicyError("--gamma values must be ascending")
    return gammas


def _schema(cfg: dict) -> ColumnSchema:
    for key in ("covariates", "treatment_col", "outcome_col"):
        if not cfg.get(key):
            raise CRPolicyError(f"missing required column option --{key.replace('_', '-')}")
    return ColumnSchema(
        covariates=cfg["covariates"],
        treatment=cfg["treatment_col"],
        outcome=cfg["outcome_col"],
        propensity=cfg.get("propensity_col"),
        potential_outcomes=cfg.get("counterfactual_cols"),
    )


def _load_with_propensities(cfg: dict) -> Dataset:
    data = load_dataset(cfg["input"], _schema(cfg))
    if data.e_hat is None:
        data = data.with_propensities(estimate_propensities(data, clip_eps=float(cfg["clip_eps"])))
    return data


def _baseline(cfg: dict, m: int) -> Policy:
    kind = cfg["baseline"]
    if kind == "control":
        return control_baseline(m)
    if kind == "uniform":
        return uniform_baseline(m)
    if kind == "file":
        path = cfg.get("baseline_file")
        if not path:
            raise CRPolicyError("--baseline file requires --baseline-file")
        with open(path, "r", encoding="utf-8") as fh:
            return policy_from_json(fh.read())
    raise CRPolicyError(f"unknown baseline {kind!r}")


def _fit_options(cfg: dict) -> FitOptions:
    return FitOptions(
        eta0=float(cfg["eta0"]),
        kappa=float(cfg["kappa"]),
        iters=int(cfg["iters"]),
        restarts=int(cfg["restarts"]),
        seed=int(cfg["seed"]),
        init_scale=float(cfg["init_scale"]),
        fallback_to_baseline=not cfg["no_fallback"],
    )


def _out(cfg: dict, name: str) -> str:
    os.makedirs(cfg["output_dir"], exist_ok=True)
    return os.path.join(cfg["output_dir"], name)


def _cmd_fit(cfg: dict) -> int:
    data = _load_with_propensities(cfg)
    gammas = _gammas(cfg)
    pi0 = _baseline(cfg, data.m)
    opts = _fit_options(cfg)
    rho = cfg.get("rho")

    if cfg["policy"] == "tree":
        fits = []
        for gamma in gammas:
            spec = UncertaintySpec.from_dataset(data, gamma, rho=rho)
            fits.append(
                tree_partition_fit(
                    data, spec, pi0, depth=int(cfg["depth"]), min_leaf=int(cfg["min_leaf"]),
                    fallback_to_baseline=not cfg["no_fallback"],
                )
            )
    elif len(gammas) == 1:
        spec = UncertaintySpec.from_dataset(data, gammas[0], rho=rho)
        fits = [subgradient_fit(data, spec, pi0, opts)]
    else:
        fits = gamma_path_fit(data, gammas, pi0, opts, rho=rho)

    best = fits[0]
    with open(_out(cfg, "fit.json"), "w", encoding="utf-8") as fh:
        fh.write(best.to_json())
        fh.write("\n")
    if len(fits) > 1:
        with open(_out(cfg, "gamma_path.csv"), "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["gamma", "objective", "fell_back", "policy_json"])
            for gamma, fit in zip(gammas, fits):
                w.writerow([repr(gamma), repr(fit.objective), int(fit.fell_back), policy_to_json(fit.policy)])
    for gamma, fit in zip(gammas, fits):
        print(f"gamma={gamma:g} objective={fit.objective:.6g} fell_back={fit.fell_back}")
    return 0


def _cmd_evaluate(cfg: dict) -> int:
    data = _load_with_propensities(cfg)
    gammas = _gammas(cfg)
    pi0 = _baseline(cfg, data.m)
    path = cfg.get("policy_file")
    if not path:
        raise CRPolicyError("evaluate requires --policy-file")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    pol = (
        FitResult.from_json(json.dumps(doc)).policy
        if "policy" in doc and "variant" not in doc
        else policy_from_json(json.dumps(doc))
    )
    rho = cfg.get("rho")

    report = {
        "n": data.n,
        "m": data.m,
        "baseline": cfg["baseline"],
        "hajek_nominal": hajek_regret(pol, pi0, data, 1.0 / data.e_hat),
        "worst_case": {},
    }
    for gamma in gammas:
        spec = UncertaintySpec.from_dataset(data, gamma, rho=rho)
        report["worst_case"][f"{gamma:g}"] = worst_case_regret(pol, pi0, data, spec)
    report["ipw_value"] = ipw_value(pol, data)
    if cfg.get("ht_probs"):
        report["ht_test_regret"] = ht_test_regret(pol, pi0, data, np.asarray(cfg["ht_probs"], dtype=float))
    if data.potential_Y is not None:
        report["true_regret"] = true_regret(pol, pi0, data)
    out_path = _out(cfg, "evaluation.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _rep_seed(seed: int, rep: int, stream: int = 0) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(rep, stream)).generate_state(1)[0])


def _simulate_one(cfg: dict, gammas: List[float], rep: int):
    base_seed = int(cfg["seed"])
    generate = simulate_binary if cfg["preset"] == "binary-sec7" else simulate_multi
    params = SimParamsBinary if cfg["preset"] == "binary-sec7" else SimParamsMulti
    if cfg["preset"] not in ("binary-sec7", "multi-sec7"):
        raise CRPolicyError(f"unknown preset {cfg['preset']!r}")
    sim = generate(params(n=int(cfg["n"]), seed=_rep_seed(base_seed, rep)))
    # Learned policies are scored out of sample on a fresh draw with known
    # counterfactuals, mirroring the replication design.
    test = generate(params(n=int(cfg["test_n"]), seed=_rep_seed(base_seed, rep, stream=1))).data
    data = sim.data
    pi0 = _baseline(cfg, data.m)
    opts = _fit_options(cfg)
    rho = cfg.get("rho")

    records = []
    # Naive comparator: gamma = 1 fit without fallback (assumes no confounding).
    spec1 = UncertaintySpec.from_dataset(data, 1.0)
    naive_opts = FitOptions(**{**_opts_dict(opts), "fallback_to_baseline": False})
    naive = subgradient_fit(data, spec1, pi0, naive_opts)
    for gamma in gammas:
        records.append(
            {
                "method": "ipw-logistic",
                "gamma": gamma,
                "rep": rep,
                "true_regret": true_regret(naive.policy, pi0, test),
            }
        )
    fits = gamma_path_fit(data, gammas, pi0, opts) if len(gammas) > 1 else [
        subgradient_fit(data, UncertaintySpec.from_dataset(data, gammas[0]), pi0, opts)
    ]
    for gamma, fit in zip(gammas, fits):
        records.append(
            {
                "method": "robust-logistic",
                "gamma": gamma,
                "rep": rep,
                "true_regret": true_regret(fit.policy, pi0, test),
            }
        )
    if rho is not None:
        bfits = gamma_path_fit(data, gammas, pi0, opts, rho=rho) if len(gammas) > 1 else [
            subgradient_fit(data, UncertaintySpec.from_dataset(data, gammas[0], rho=rho), pi0, opts)
        ]
        for gamma, fit in zip(gammas, bfits):
            records.append(
                {
                    "method": f"robust-budgeted-{rho:g}",
                    "gamma": gamma,
                    "rep": rep,
                    "true_regret": true_regret(fit.policy, pi0, test),
                }
            )
    return sim, records


def _opts_dict(opts: FitOptions) -> dict:
    from dataclasses import asdict

    return asdict(opts)


def _cmd_simulate(cfg: dict) -> int:
    gammas = _gammas(cfg)
    reps = int(cfg["reps"])
    workers = max(1, int(cfg["workers"]))
    results = [None] * reps
    if workers == 1:
        for rep in range(reps):
            results[rep] = _simulate_one(cfg, gammas, rep)
    else:
        # Replications are independent given their derived seeds; files are
        # written afterwards in replication order so output stays byte-stable.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {rep: pool.submit(_simulate_one, cfg, gammas, rep) for rep in range(reps)}
            for rep, fut in futures.items():
                results[rep] = fut.result()
    all_records = []
    for rep, (sim, records) in enumerate(results):
        write_dataset_csv(_out(cfg, f"dataset_rep{rep:03d}.csv"), sim.data, w_star=sim.w_star)
        all_records.extend(records)
    write_regret_curves_csv(_out(cfg, "regret_curves.csv"), all_records)
    summary = summarize_curves(all_records)
    write_summary_json(_out(cfg, "summary.json"), summary)
    for entry in summary:
        print(
            f"{entry['method']:>24s} gamma={entry['gamma']:<6g} "
            f"mean_regret={entry['mean_regret']:+.4f} (se {entry['stderr']:.4f}, n={entry['n_reps']})"
        )
    return 0


def _cmd_calibrate(cfg: dict) -> int:
    data = _load_with_propensities(cfg)
    gammas = _gammas(cfg)
    if len(gammas) < 1:
        raise CRPolicyError("calibrate needs at least one gamma")
    pi0 = _baseline(cfg, data.m)
    matrix = calibration_matrix(data, gammas, pi0, opts=_fit_options(cfg), rho=cfg.get("rho"))
    write_calibration_csv(_out(cfg, "calibration.csv"), matrix)
    for k, g in enumerate(matrix.gammas):
        row = " ".join(f"{v:+.4f}" for v in matrix.values[k])
        print(f"train gamma={g:<6g} {row}")
    return 0


def _cmd_audit(cfg: dict) -> int:
    data = load_dataset(cfg["input"], _schema(cfg))
    ratios = odds_ratio_audit(data)
    write_audit_csv(_out(cfg, "audit_odds_ratios.csv"), ratios, names=cfg["covariates"])
    q = np.percentile(ratios, [2.5, 50, 97.5], axis=1)
    for j, name in enumerate(cfg["covariates"]):
        print(f"{name:>12s} odds ratio median={q[1, j]:.3f} 95% range=[{q[0, j]:.3f}, {q[2, j]:.3f}]")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "calibrate": _cmd_calibrate,
    "audit": _cmd_audit,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except (CRPolicyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never a bare traceback for the operator
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
