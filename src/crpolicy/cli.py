"""Command-line front end: ingestion -> fitting -> evaluation -> reports.

Subcommands: fit | evaluate | simulate | calibrate | audit. Each
subcommand's parser defines exactly the options it reads. Flags override
values from an optional JSON config file (--config), which in turn
overrides built-in defaults; a config value is read by its flag's type and
choices. All outputs are deterministic given the same configuration and
seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from .data import ColumnSchema, Dataset, check_clip_eps, estimate_propensities, load_dataset
from .exceptions import ConvergenceError, CovariateOverflowError, CRPolicyError, DatasetError
from .optimize import FitOptions, FitResult, calibration_matrix, gamma_path_fit, subgradient_fit, tree_partition_fit
from .policy import ConstantPolicy, LogisticPolicy, Policy, control_baseline, policy_from_json, uniform_baseline
from .uncertainty import UncertaintySpec, check_fraction, check_weighted_sums, weight_bounds
from .evaluation.audit import odds_ratio_audit
from .evaluation.estimators import hajek_regret, ht_test_regret, ipw_value, true_regret, worst_case_regret
from .evaluation.simulation import SimParamsBinary, SimParamsMulti, simulate_binary, simulate_multi
from .evaluation.reports import (
    gamma_label,
    summarize_curves,
    write_audit_csv,
    write_calibration_csv,
    write_dataset_csv,
    write_gamma_path_csv,
    write_json,
    write_regret_curves_csv,
    write_summary_json,
)

# The subgradient settings, by dest, with their help: each is the FitOptions
# field of the same name, whose default is the flag's type and default.
_FITTING = {
    "restarts": "subgradient restarts",
    "iters": "subgradient iterations per restart",
    "eta0": "initial step size",
    "kappa": "step schedule exponent in (0,1]",
    "init_scale": "restart init std-dev",
    "seed": "random seed",
}

_DEFAULTS = {
    **{name: getattr(FitOptions(), name) for name in _FITTING},
    "output_dir": ".",
    "gamma": [1.0],
    "log_gamma": False,
    "rho": None,
    "baseline": "control",
    "baseline_file": None,
    "policy": "logistic",
    "depth": 2,
    "min_leaf": 10,
    "no_fallback": False,
    "reps": 50,
    "preset": "binary-sec7",
    "n": 200,
    "test_n": 5000,
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


@functools.cache
def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's subparser, which defines every
    option it reads; built once a process, as its objects sit in cycles."""
    parser = argparse.ArgumentParser(
        prog="crpolicy",
        description="Confounding-robust policy learning and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output-dir", dest="output_dir", help="directory for emitted files (default .)")
        p.add_argument("--config", help="JSON config file; explicit flags win")

    def add_input(p, propensities=True):
        p.add_argument("--input", required=True, help="input dataset CSV")
        p.add_argument("--covariates", type=_csv_names, help="comma-separated covariate column names")
        p.add_argument("--treatment-col", dest="treatment_col", help="treatment column name")
        p.add_argument("--outcome-col", dest="outcome_col", help="outcome column name")
        if propensities:
            p.add_argument("--propensity-col", dest="propensity_col", help="optional propensity column")
            p.add_argument(
                "--clip-eps", dest="clip_eps", type=float,
                help="clipping of estimated propensities (default 1e-3); not with --propensity-col",
            )
        add_output(p)

    def add_problem(p):  # the uncertainty sets and the baseline a certificate is relative to
        p.add_argument(
            "--gamma", "--gammas", dest="gamma", type=_csv_floats,
            help="sensitivity value(s), comma separated, strictly ascending",
        )
        p.add_argument(
            "--log-gamma",
            dest="log_gamma",
            action="store_true",
            default=None,
            help="interpret --gamma values on the log scale",
        )
        p.add_argument("--rho", type=float, help="budget fraction in [0,1]; omit for the box set")
        p.add_argument("--baseline", choices=["control", "uniform", "file"], help="baseline policy")
        p.add_argument("--baseline-file", dest="baseline_file", help="policy JSON when --baseline file")

    def add_fitopts(p, policies=("logistic",)):
        p.add_argument("--policy", choices=policies, help="policy class to fit")
        if "tree" in policies:
            p.add_argument("--depth", type=int, help="tree depth (policy=tree)")
            p.add_argument("--min-leaf", dest="min_leaf", type=int, help="minimum units per leaf (policy=tree)")
        for name, text in _FITTING.items():
            p.add_argument(_flag(name), dest=name, type=type(_DEFAULTS[name]), help=text)
        p.add_argument(
            "--no-fallback",
            dest="no_fallback",
            action="store_true",
            default=None,
            help="do not fall back to the baseline on a positive objective",
        )

    p_fit = sub.add_parser("fit", help="fit a confounding-robust policy")
    add_input(p_fit)
    add_problem(p_fit)
    add_fitopts(p_fit, policies=("logistic", "tree"))

    p_eval = sub.add_parser("evaluate", help="evaluate a saved policy on a dataset")
    add_input(p_eval)
    add_problem(p_eval)
    p_eval.add_argument(
        "--counterfactual-cols",
        dest="counterfactual_cols",
        type=_csv_names,
        help="optional counterfactual outcome columns, one per arm",
    )
    p_eval.add_argument("--policy-file", dest="policy_file", help="policy or fit-result JSON")
    p_eval.add_argument(
        "--ht-probs",
        dest="ht_probs",
        type=_csv_floats,
        help="arm randomization probabilities for the test-set regret estimator",
    )

    p_sim = sub.add_parser("simulate", help="generate synthetic data and replicate the regret curves")
    add_output(p_sim)
    add_problem(p_sim)
    add_fitopts(p_sim)
    p_sim.add_argument("--preset", choices=["binary-sec7", "multi-sec7"], help="synthetic design")
    p_sim.add_argument("--reps", type=int, help="number of replications")
    p_sim.add_argument("--n", type=int, help="training sample size per replication")
    p_sim.add_argument("--test-n", dest="test_n", type=int, help="out-of-sample evaluation draw size")

    p_cal = sub.add_parser("calibrate", help="cross-gamma calibration matrix")
    add_input(p_cal)
    add_problem(p_cal)
    add_fitopts(p_cal)

    p_aud = sub.add_parser("audit", help="dropped-covariate odds-ratio audit")
    add_input(p_aud, propensities=False)
    return parser, sub.choices


@functools.cache
def _options(p: argparse.ArgumentParser) -> Dict[str, argparse.Action]:
    """The options of a command's subparser, by dest."""
    return {a.dest: a for a in p._actions if a.dest != "help"}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


# Options read only when another option has a given value (None: is unset).
# Setting one otherwise, by a flag or in the config, is an error.
_READ_ONLY_WITH = {
    "depth": ("policy", "tree"),
    "min_leaf": ("policy", "tree"),
    **dict.fromkeys(_FITTING, ("policy", "logistic")),
    "rho": ("policy", "logistic"),
    "baseline_file": ("baseline", "file"),
    "clip_eps": ("propensity_col", None),
}

# The least value of each integer option that a run can honour.
_AT_LEAST = {"reps": 1, "n": 1, "test_n": 1, "depth": 0, "min_leaf": 1}

# The library's own checks of options it reads, by dest, run before any
# input is read: each raises ValueError on a value the library refuses.
_CHECKS = {
    **{name: lambda value, name=name: FitOptions(**{name: value}) for name in _FITTING},
    "rho": lambda rho: rho is None or check_fraction(rho),
    "clip_eps": check_clip_eps,
}


def _config_value(action: argparse.Action, val, where: str):
    """Read a config value as the flag of `action` reads its argument.

    A JSON list stands for a comma-separated flag argument; a switch takes
    true or false.
    """
    flag = "argument " + "/".join(action.option_strings)
    if action.nargs == 0:
        if not isinstance(val, bool):
            raise CRPolicyError(f"{where}: {flag}: expected true or false, not {val!r}")
        return val
    if isinstance(val, list) and action.type in (_csv_floats, _csv_names):
        val = ",".join(map(str, val))
    if not isinstance(val, (str, int, float)):
        raise CRPolicyError(f"{where}: {flag}: expected a string or a number, not {val!r}")
    text = str(val)
    try:
        value = action.type(text) if action.type else text
    except ValueError:
        raise CRPolicyError(f"{where}: {flag}: invalid {action.type.__name__} value: {text!r}") from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise CRPolicyError(f"{where}: {flag}: invalid choice: {value!r} (choose from {choices})")
    return value


def _merge_config(args: argparse.Namespace, options: Dict[str, argparse.Action]) -> dict:
    """Defaults, then the --config file, then the flags; `options` are the command's."""
    merged = dict(_DEFAULTS)
    given = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise CRPolicyError(f"{args.config}: config must be a JSON object")
        for key, val in cfg.items():
            dest = key.replace("-", "_")
            if dest not in options or dest == "config":
                raise CRPolicyError(
                    f"{args.config}: unknown key {key!r}: {args.command} has no {_flag(dest)}"
                )
            merged[dest] = _config_value(options[dest], val, f"{args.config}: key {key!r}")
            given[dest] = args.config
    for key, val in vars(args).items():
        if val is not None:
            merged[key] = val
            given[key] = "command line"
    for key, (other, value) in _READ_ONLY_WITH.items():
        if key in given and merged[other] != value:
            when = f"with {_flag(other)} {value}" if value is not None else f"without {_flag(other)}"
            raise CRPolicyError(f"{given[key]}: {args.command} reads {_flag(key)} only {when}")
    for key, least in _AT_LEAST.items():
        if merged[key] < least:
            raise CRPolicyError(f"{_flag(key)} must be >= {least}, not {merged[key]}")
    for key, check in _CHECKS.items():
        try:
            check(merged[key])
        except ValueError as exc:
            raise CRPolicyError(f"{_flag(key)}: {exc}") from None
    return merged


def _gammas(cfg: dict) -> List[float]:
    gammas = cfg["gamma"]
    if cfg["log_gamma"]:
        with np.errstate(over="ignore"):  # exp past the float range is inf, refused below
            gammas = [float(np.exp(g)) for g in gammas]
    if not gammas:
        raise CRPolicyError("--gamma needs at least one value")
    if not all(1.0 <= g < np.inf for g in gammas):
        raise CRPolicyError(f"--gamma: gammas must be finite and >= 1 (after exp when --log-gamma), got {gammas}")
    if any(g2 <= g1 for g1, g2 in zip(gammas, gammas[1:])):
        raise CRPolicyError("--gamma values must be strictly ascending")
    # A gamma's output label is its %g, which rounds monotonically: only neighbours can share one.
    for g1, g2 in zip(gammas, gammas[1:]):
        if gamma_label(g1) == gamma_label(g2):
            raise CRPolicyError(f"--gamma values {g1!r} and {g2!r} share the output label {gamma_label(g1)}")
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


def _load_with_propensities(cfg: dict, gammas: List[float]) -> Dataset:
    """The input with its propensities, checked against the largest gamma."""
    schema = _schema(cfg)
    data = load_dataset(cfg["input"], schema)
    if data.e_hat is None:
        try:
            e_hat = estimate_propensities(data, clip_eps=cfg["clip_eps"])
        except CovariateOverflowError as exc:
            raise DatasetError(
                f"{cfg['input']}: column {schema.covariates[exc.column]!r} is too large in "
                "magnitude for the propensity model"
            ) from None
        except ConvergenceError as exc:
            raise DatasetError(
                f"{cfg['input']}: {exc}; rescale its covariates or give the propensities with --propensity-col"
            ) from None
        data = data.with_propensities(e_hat)
    _check_gammas(data, gammas, schema.outcome)
    return data


def _check_gammas(data: Dataset, gammas: List[float], outcome: str) -> None:
    """Refuse, naming --gamma, a grid whose weight bounds overflow on data,
    and, naming the outcome column, outcomes whose weighted sums overflow.
    Bounds widen with gamma, so the largest one is the one to check."""
    try:
        b_max = float(weight_bounds(1.0 / data.e_hat, gammas[-1])[1].max(initial=0.0))
    except ValueError as exc:
        raise CRPolicyError(f"--gamma: {exc}") from None
    try:
        check_weighted_sums(data.Y, b_max)
    except ValueError as exc:
        raise CRPolicyError(f"column {outcome!r} is too large in magnitude for gamma={gammas[-1]:g}: {exc}") from None


def _baseline(cfg: dict, data: Dataset) -> Policy:
    if cfg["baseline"] == "file":
        if not cfg["baseline_file"]:
            raise CRPolicyError("--baseline file requires --baseline-file")
        return _for_data(_read_policy(cfg["baseline_file"]), data, cfg["baseline_file"])
    return control_baseline(data.m) if cfg["baseline"] == "control" else uniform_baseline(data.m)


def _read_policy(path: str) -> Policy:
    """The policy of a policy or fit-result JSON file; a fit result's options are not read."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        if isinstance(doc, dict) and "policy" in doc and "variant" not in doc:
            return FitResult.from_json(json.dumps({**doc, "options": None})).policy
        return policy_from_json(json.dumps(doc))
    except KeyError as exc:
        raise CRPolicyError(f"{path}: the policy JSON has no field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise CRPolicyError(f"{path}: {exc}") from None


def _for_data(pol: Policy, data: Dataset, path: str) -> Policy:
    """pol, once its arms and (unless constant) covariates match the data's."""
    if pol.m != data.m:
        raise CRPolicyError(f"{path}: the policy has {pol.m} arms, the data {data.m}")
    if not isinstance(pol, ConstantPolicy) and pol.d != data.d:
        raise CRPolicyError(f"{path}: the policy reads {pol.d} covariates, the data has {data.d}")
    return pol


def _fit_options(cfg: dict) -> FitOptions:
    """cfg's FitOptions, whose settings `_merge_config` has checked one by one."""
    return FitOptions(**{name: cfg[name] for name in _FITTING}, fallback_to_baseline=not cfg["no_fallback"])


def _out(cfg: dict, name: str) -> str:
    os.makedirs(cfg["output_dir"], exist_ok=True)
    return os.path.join(cfg["output_dir"], name)


def _cmd_fit(cfg: dict) -> int:
    gammas, opts = _gammas(cfg), _fit_options(cfg)
    data = _load_with_propensities(cfg, gammas)
    pi0 = _baseline(cfg, data)
    if cfg["policy"] == "tree":  # box set only: --rho is refused with it
        fits = [
            tree_partition_fit(
                data, UncertaintySpec.from_dataset(data, gamma), pi0, depth=cfg["depth"],
                min_leaf=cfg["min_leaf"], fallback_to_baseline=not cfg["no_fallback"],
            )
            for gamma in gammas
        ]
    else:
        fits = gamma_path_fit(data, gammas, pi0, opts, rho=cfg["rho"])
    write_json(_out(cfg, "fit.json"), fits[0].to_doc())
    if len(fits) > 1:
        write_gamma_path_csv(_out(cfg, "gamma_path.csv"), fits)
    for gamma, fit in zip(gammas, fits):
        print(f"gamma={gamma:g} objective={fit.objective:.6g} fell_back={fit.fell_back}")
    return 0


def _cmd_evaluate(cfg: dict) -> int:
    gammas = _gammas(cfg)
    if not cfg.get("policy_file"):
        raise CRPolicyError("evaluate requires --policy-file")
    if cfg["ht_probs"] == []:
        raise CRPolicyError("--ht-probs needs at least one value")
    data = _load_with_propensities(cfg, gammas)
    pi0 = _baseline(cfg, data)
    pol = _for_data(_read_policy(cfg["policy_file"]), data, cfg["policy_file"])
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
        report["worst_case"][gamma_label(gamma)] = worst_case_regret(pol, pi0, data, spec)
    report["ipw_value"] = ipw_value(pol, data)
    if cfg.get("ht_probs"):
        try:
            report["ht_test_regret"] = ht_test_regret(pol, pi0, data, np.asarray(cfg["ht_probs"], dtype=float))
        except ValueError as exc:
            raise CRPolicyError(f"--ht-probs: {exc}") from None
    if data.potential_Y is not None:
        report["true_regret"] = true_regret(pol, pi0, data)
    print(write_json(_out(cfg, "evaluation.json"), report), end="")
    return 0


def _rep_seed(seed: int, rep: int, stream: int = 0) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(rep, stream)).generate_state(1)[0])


def _simulate_one(cfg: dict, gammas: List[float], opts: FitOptions, rep: int):
    binary = cfg["preset"] == "binary-sec7"
    generate, params = (simulate_binary, SimParamsBinary) if binary else (simulate_multi, SimParamsMulti)
    sim = generate(params(n=cfg["n"], seed=_rep_seed(opts.seed, rep)))
    # Learned policies are scored out of sample on a fresh draw with known
    # counterfactuals, mirroring the replication design.
    test = generate(params(n=cfg["test_n"], seed=_rep_seed(opts.seed, rep, stream=1))).data
    data = sim.data
    _check_gammas(data, gammas, "y")
    pi0 = _baseline(cfg, data)
    rho = cfg.get("rho")

    # Naive comparator: the best restart of the gamma = 1 fit, fallback aside
    # (assumes no confounding). A grid from gamma = 1 has made that fit first.
    robust = gamma_path_fit(data, gammas, pi0, opts)
    one = robust[0] if gammas[0] == 1.0 else subgradient_fit(data, UncertaintySpec.from_dataset(data, 1.0), pi0, opts)
    naive = LogisticPolicy(min(one.per_restart, key=lambda pr: pr[0])[1])
    methods = [("ipw-logistic", [naive] * len(gammas)), ("robust-logistic", [fit.policy for fit in robust])]
    if rho is not None:
        budgeted = gamma_path_fit(data, gammas, pi0, opts, rho=rho)
        methods.append((f"robust-budgeted-{rho:g}", [fit.policy for fit in budgeted]))
    records = [
        {"method": method, "gamma": gamma, "rep": rep, "true_regret": true_regret(pol, pi0, test)}
        for method, policies in methods
        for gamma, pol in zip(gammas, policies)
    ]
    return sim, records


def _cmd_simulate(cfg: dict) -> int:
    gammas, opts = _gammas(cfg), _fit_options(cfg)
    results = [_simulate_one(cfg, gammas, opts, rep) for rep in range(cfg["reps"])]
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
    gammas, opts = _gammas(cfg), _fit_options(cfg)
    data = _load_with_propensities(cfg, gammas)
    pi0 = _baseline(cfg, data)
    matrix = calibration_matrix(data, gammas, pi0, opts=opts, rho=cfg.get("rho"))
    write_calibration_csv(_out(cfg, "calibration.csv"), matrix)
    for k, g in enumerate(matrix.gammas):
        row = " ".join(f"{v:+.4f}" for v in matrix.values[k])
        print(f"train gamma={g:<6g} {row}")
    return 0


def _cmd_audit(cfg: dict) -> int:
    data = load_dataset(cfg["input"], _schema(cfg))
    if data.m != 2:
        raise CRPolicyError(f"{cfg['input']}: audit needs a binary treatment, "
                            f"but column {cfg['treatment_col']!r} has {data.m} arms")
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
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, _options(commands[args.command]))
        return _COMMANDS[args.command](cfg)
    except (CRPolicyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never a bare traceback for the operator
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
