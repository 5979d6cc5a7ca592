"""Confounding-robust policy learning from observational data.

Learns treatment policies that minimize the worst-case self-normalized
regret against a baseline over an uncertainty set for the inverse
propensity weights, so a policy can improve on the baseline even when the
logged data hides confounders.
"""

from .data import (
    ArmIndex,
    ColumnSchema,
    Dataset,
    estimate_propensities,
    load_dataset,
)
from .uncertainty import UncertaintySpec, budget_from_fraction, weight_bounds
from .subproblem import SubproblemSolution, solve_box, solve_budgeted
from .policy import (
    ConstantPolicy,
    HardenedLogisticPolicy,
    LogisticPolicy,
    Policy,
    TreeLeaf,
    TreeNode,
    TreePolicy,
    control_baseline,
    harden,
    policy_from_json,
    policy_gradient,
    policy_probability,
    policy_to_json,
    uniform_baseline,
)
from .optimize import FitOptions, FitResult, gamma_path_fit, subgradient_fit, tree_partition_fit
from .evaluation import (
    CalibrationMatrix,
    SimParamsBinary,
    SimParamsMulti,
    SimulatedData,
    calibration_matrix,
    hajek_regret,
    ht_test_regret,
    ipw_value,
    odds_ratio_audit,
    simulate_binary,
    simulate_multi,
    true_regret,
    worst_case_regret,
    worst_case_weights,
)
from . import exceptions

__version__ = "0.1.0"

__all__ = [
    "ArmIndex",
    "ColumnSchema",
    "Dataset",
    "estimate_propensities",
    "load_dataset",
    "UncertaintySpec",
    "budget_from_fraction",
    "weight_bounds",
    "SubproblemSolution",
    "solve_box",
    "solve_budgeted",
    "Policy",
    "ConstantPolicy",
    "LogisticPolicy",
    "HardenedLogisticPolicy",
    "TreeLeaf",
    "TreeNode",
    "TreePolicy",
    "control_baseline",
    "uniform_baseline",
    "harden",
    "policy_probability",
    "policy_gradient",
    "policy_to_json",
    "policy_from_json",
    "FitOptions",
    "FitResult",
    "subgradient_fit",
    "gamma_path_fit",
    "tree_partition_fit",
    "CalibrationMatrix",
    "calibration_matrix",
    "SimParamsBinary",
    "SimParamsMulti",
    "SimulatedData",
    "simulate_binary",
    "simulate_multi",
    "hajek_regret",
    "worst_case_regret",
    "worst_case_weights",
    "ipw_value",
    "ht_test_regret",
    "true_regret",
    "odds_ratio_audit",
    "exceptions",
]
