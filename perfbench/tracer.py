"""Spans around calls into crpolicy's layers, recorded from outside the package.

`Tracer.install` finds each named function by identity at every binding in
every loaded `crpolicy.*` module (so `from .subproblem import solve_box` in
another module is covered too), plus two class-level methods, and replaces
it with a wrapper. While `recording` is on, a wrapper appends one span
(name, start, end, parent span, op id) to an in-memory list; otherwise it
only forwards. A substitute implementation can be passed for any name,
which is how the self-tests feed the package a wrong solver.

Nothing in the package knows about this. If a refactor stops calling a
named function, its `calls` reads 0; if it removes or renames one, its
binding count reads 0 and the name is reported as missing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

# Span name -> (module, attribute) of each function it covers.
FUNCTIONS = {
    "cli.main": [("crpolicy.cli", "main")],
    "data.load_dataset": [("crpolicy.data", "load_dataset")],
    "data.estimate_propensities": [("crpolicy.data", "estimate_propensities")],
    "subproblem.solve_box": [("crpolicy.subproblem", "solve_box")],
    "subproblem.solve_budgeted": [("crpolicy.subproblem", "solve_budgeted")],
    "simplex.simplex_solve": [("crpolicy.simplex", "simplex_solve")],
    "optimize.subgradient_fit": [("crpolicy.optimize", "subgradient_fit")],
    "optimize.gamma_path_fit": [("crpolicy.optimize", "gamma_path_fit")],
    "optimize.tree_partition_fit": [("crpolicy.optimize", "tree_partition_fit")],
    "estimators.worst_case_regret": [("crpolicy.evaluation.estimators", "worst_case_regret")],
    "estimators.true_regret": [("crpolicy.evaluation.estimators", "true_regret")],
    "simulation.simulate": [
        ("crpolicy.evaluation.simulation", "simulate_binary"),
        ("crpolicy.evaluation.simulation", "simulate_multi"),
    ],
    "reports.write": [
        ("crpolicy.evaluation.reports", name)
        for name in (
            "write_dataset_csv",
            "write_regret_curves_csv",
            "write_summary_json",
            "write_calibration_csv",
            "write_audit_csv",
        )
    ],
}
# The two class-level methods: the spec constructor and every policy's prob_matrix.
FROM_DATASET = "uncertainty.from_dataset"
PROB_MATRIX = "policy.prob_matrix"
NAMES = list(FUNCTIONS) + [FROM_DATASET, PROB_MATRIX]


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _arguments(fn, args, kwargs) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Observers add to per-name counters after a recorded call returns.
def _count_units(counters, fn, args, kwargs, result):
    counters["subproblem.solve_box.units"] += len(args[0] if args else kwargs["r"])


def _count_rows(counters, fn, args, kwargs, result):
    counters["data.load_dataset.rows"] += result.n


def _count_binding(counters, fn, args, kwargs, result):
    # The budget binds when the returned weights spend all of it.
    arg = _arguments(fn, args, kwargs)
    total = float(arg["lam"]) * len(arg["r"])
    used = float(abs(result.weights - arg["w_tilde"]).sum())
    counters["subproblem.solve_budgeted.binding"] += total > 0 and used >= total * (1 - 1e-6)


def _count_tableau(counters, fn, args, kwargs, result):
    # Phase-1 tableau of simplex_solve: (rows + 1) x (vars + slacks + artificials + 1) doubles.
    arg = _arguments(fn, args, kwargs)
    n_ub = 0 if arg["A_ub"] is None else len(arg["A_ub"])
    n_eq = 0 if arg["A_eq"] is None else len(arg["A_eq"])
    rows = n_ub + n_eq
    mb = 8.0 * (rows + 1) * (len(arg["c"]) + n_ub + rows + 1) / 1e6
    key = "simplex.simplex_solve.tableau_mb"
    counters[key] = max(counters[key], mb)


def _count_iters(counters, fn, args, kwargs, result):
    arg = _arguments(fn, args, kwargs)
    opts = arg["opts"]
    counters["optimize.subgradient_fit.iters"] += opts.iters * (opts.restarts + len(arg["extra_inits"]))


def _count_bytes(counters, fn, args, kwargs, result):
    counters["reports.write.bytes"] += os.path.getsize(_arguments(fn, args, kwargs)["path"])


OBSERVERS = {
    "subproblem.solve_box": _count_units,
    "data.load_dataset": _count_rows,
    "subproblem.solve_budgeted": _count_binding,
    "simplex.simplex_solve": _count_tableau,
    "optimize.subgradient_fit": _count_iters,
    "reports.write": _count_bytes,
}


class Tracer:
    """Installs span-recording wrappers; spans and counters stay in memory."""

    def __init__(self, substitutes: Optional[Dict[str, Callable]] = None):
        self.substitutes = dict(substitutes or {})
        self.spans: List[Optional[tuple]] = []  # (name index, start ns, end ns, parent index, op)
        self.counters: Dict[str, float] = defaultdict(float)
        self.bindings: Dict[str, int] = dict.fromkeys(NAMES, 0)
        self.recording = False
        self.op = -1
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = NAMES.index(name)
        call = self.substitutes.get(name, fn)
        observe = OBSERVERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return call(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = call(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op)
            if observe is not None:
                observe(counters, fn, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.bindings = dict.fromkeys(NAMES, 0)
        modules = [mod for key, mod in list(sys.modules.items()) if key == "crpolicy" or key.startswith("crpolicy.")]
        for name, targets in FUNCTIONS.items():
            for module_name, attr in targets:
                try:
                    original = getattr(importlib.import_module(module_name), attr, None)
                except ImportError:
                    original = None
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
                            self.bindings[name] += 1

        spec_cls = getattr(sys.modules.get("crpolicy.uncertainty"), "UncertaintySpec", None)
        method = None if spec_cls is None else spec_cls.__dict__.get("from_dataset")
        if isinstance(method, classmethod):
            self._patch(spec_cls, "from_dataset", classmethod(self._wrap(FROM_DATASET, method.__func__)))
            self.bindings[FROM_DATASET] += 1

        policy = sys.modules.get("crpolicy.policy")
        base = getattr(policy, "Policy", None)
        for cls in list(vars(policy).values()) if base is not None else []:
            if isinstance(cls, type) and issubclass(cls, base) and "prob_matrix" in cls.__dict__:
                self._patch(cls, "prob_matrix", self._wrap(PROB_MATRIX, cls.__dict__["prob_matrix"]))
                self.bindings[PROB_MATRIX] += 1

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def missing(self) -> List[str]:
        return [name for name, count in self.bindings.items() if count == 0]

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,name,start_ns,end_ns,parent\n")
            for nid, start, end, parent, op in self.spans:
                fh.write(f"{op},{NAMES[nid]},{start},{end},{parent}\n")


def layer_metrics(tracer: Tracer, op_seconds: List[float]) -> Dict[str, float]:
    """Per-op means over the traced ops, whose wall times are op_seconds.

    busy_s is the time inside a name's spans, self_s that time less the time
    in spans directly beneath them, op_frac busy_s over the mean traced op
    wall time (reported as trace.op_s, the base of every op_frac).
    """
    spans = tracer.spans
    n_ops = max(1, len(op_seconds))
    op_s = sum(op_seconds) / n_ops
    child_ns = [0] * len(spans)
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = [0] * len(NAMES)
    busy = [0] * len(NAMES)
    own = [0] * len(NAMES)
    tree, box = NAMES.index("optimize.tree_partition_fit"), NAMES.index("subproblem.solve_box")
    under_tree = [False] * len(spans)
    box_in_tree = 0
    for i, (nid, start, end, parent, _) in enumerate(spans):
        calls[nid] += 1
        busy[nid] += end - start
        own[nid] += end - start - child_ns[i]
        under_tree[i] = nid == tree or (parent >= 0 and under_tree[parent])
        box_in_tree += nid == box and parent >= 0 and under_tree[parent]

    out = {}
    for nid, name in enumerate(NAMES):
        out[f"{name}.calls"] = calls[nid] / n_ops
        out[f"{name}.busy_s"] = busy[nid] / 1e9 / n_ops
        out[f"{name}.self_s"] = own[nid] / 1e9 / n_ops
        out[f"{name}.op_frac"] = busy[nid] / 1e9 / n_ops / op_s if op_s > 0 else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counters
    box_ns = busy[box]
    budgeted = NAMES.index("subproblem.solve_budgeted")
    load = NAMES.index("data.load_dataset")
    fit = NAMES.index("optimize.subgradient_fit")
    out["subproblem.solve_box.us_per_call"] = ratio(box_ns / 1e3, calls[box])
    out["subproblem.solve_box.ns_per_unit"] = ratio(box_ns, c["subproblem.solve_box.units"])
    out["subproblem.solve_budgeted.binding_frac"] = ratio(c["subproblem.solve_budgeted.binding"], calls[budgeted])
    out["simplex.simplex_solve.tableau_mb"] = c["simplex.simplex_solve.tableau_mb"]
    out["data.load_dataset.rows_per_s"] = ratio(c["data.load_dataset.rows"], busy[load] / 1e9)
    out["optimize.subgradient_fit.us_per_iter"] = ratio(busy[fit] / 1e3, c["optimize.subgradient_fit.iters"])
    out["optimize.tree_partition_fit.solve_box_calls"] = box_in_tree / n_ops
    out["reports.write.bytes"] = c["reports.write.bytes"] / n_ops
    out["trace.op_s"] = op_s
    return out
