"""The package's public names: a dropped or stale name fails here, not in a user's import."""

import importlib
import pkgutil

import crpolicy

PUBLIC = [
    "ArmIndex",
    "CalibrationMatrix",
    "ColumnSchema",
    "ConstantPolicy",
    "Dataset",
    "FitOptions",
    "FitResult",
    "HardenedLogisticPolicy",
    "LogisticPolicy",
    "Policy",
    "SimParamsBinary",
    "SimParamsMulti",
    "SimulatedData",
    "SubproblemSolution",
    "TreeLeaf",
    "TreeNode",
    "TreePolicy",
    "UncertaintySpec",
    "budget_from_fraction",
    "calibration_matrix",
    "control_baseline",
    "estimate_propensities",
    "exceptions",
    "gamma_path_fit",
    "hajek_regret",
    "harden",
    "ht_test_regret",
    "ipw_value",
    "load_dataset",
    "odds_ratio_audit",
    "policy_from_json",
    "policy_gradient",
    "policy_probability",
    "policy_to_json",
    "simulate_binary",
    "simulate_multi",
    "solve_box",
    "solve_budgeted",
    "subgradient_fit",
    "tree_partition_fit",
    "true_regret",
    "uniform_baseline",
    "weight_bounds",
    "worst_case_regret",
    "worst_case_weights",
]


def test_package_all_is_the_checked_in_list():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(crpolicy.__all__) == PUBLIC
    assert len(crpolicy.__all__) == len(PUBLIC)


def test_every_module_all_name_resolves():
    modules = [crpolicy] + [
        importlib.import_module(info.name) for info in pkgutil.walk_packages(crpolicy.__path__, "crpolicy.")
    ]
    assert len(modules) > 10
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", [])
        if not hasattr(module, name)
    ]
    assert stale == []
