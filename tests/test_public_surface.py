"""The package's public names: a dropped or stale name fails here, not in a user's import.

Also an import guard over the source: every import sits at module level,
and every imported name is used or re-exported through `__all__`.
"""

import ast
import importlib
import pathlib
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


SRC = pathlib.Path(crpolicy.__file__).parent
# Imported and never used: perfbench's tracer reads these bindings. Both go
# when ROADMAP item 1 (the benchmark refresh) retires the tracer's need for
# them, and this list must shrink with it.
BENCHMARK_ONLY_IMPORTS = {
    ("crpolicy.optimize", "solve_box"),  # ROADMAP item 1: read by test_tracer_restores_every_binding
    ("crpolicy.subproblem", "simplex_solve"),  # ROADMAP item 1: loads the module of the simplex span
}


def _module_trees():
    for path in sorted(SRC.rglob("*.py")):
        name = ".".join(("crpolicy",) + path.relative_to(SRC).with_suffix("").parts)
        yield name.removesuffix(".__init__"), ast.parse(path.read_text(encoding="utf-8"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _dunder_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_import_inside_a_function():
    nested = [
        f"{name}:{node.lineno}"
        for name, tree in _module_trees()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_every_imported_name_is_used_or_exported():
    unused = set()
    for name, tree in _module_trees():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _dunder_all(tree)
        unused |= {(name, bound) for bound in _imported_names(tree) if bound not in used}
    assert unused - BENCHMARK_ONLY_IMPORTS == set(), "imported and never used"
    assert BENCHMARK_ONLY_IMPORTS - unused == set(), "no longer an unused import: drop it from the list"
