"""Regret and value estimators: Hajek, worst-case, IPW, Horvitz-Thompson, oracle.

The Hajek regret of pi against pi0 under weights W sums, over arms t,

    sum_{i in I_t} (pi(t|X_i) - pi0(t|X_i)) Y_i W_i  /  sum_{i in I_t} W_i

so rescaling the weights within an arm changes nothing. The worst case
maximizes each arm's ratio over the uncertainty set, which decouples into
one fractional subproblem per arm with r_i = (pi(T_i|X_i) - pi0(T_i|X_i)) Y_i.
"""

from __future__ import annotations

import numpy as np

from ..data import ArmIndex, Dataset
from ..policy import Policy
from ..subproblem import _validated_bounds, arm_budget, box_order, box_rows, budgeted_rows, solve_box, solve_budgeted
from ..uncertainty import UncertaintySpec

__all__ = [
    "hajek_regret",
    "worst_case_solution",
    "worst_case_regret",
    "worst_case_weights",
    "ipw_value",
    "ht_test_regret",
    "true_regret",
]


def _contrast(pol: Policy, pi0: Policy, data: Dataset) -> np.ndarray:
    """r_i = (pi(T_i | X_i) - pi0(T_i | X_i)) * Y_i."""
    return (pol.observed_prob(data.X, data.T) - pi0.observed_prob(data.X, data.T)) * data.Y


def hajek_regret(pol: Policy, pi0: Policy, data: Dataset, W: np.ndarray) -> float:
    """Self-normalized regret estimate at a fixed weight vector W > 0."""
    W = np.asarray(W, dtype=float).reshape(-1)
    if W.shape[0] != data.n:
        raise ValueError("weight vector length must equal n")
    if not np.isfinite(W).all():
        raise ValueError("weights must be finite")
    if data.n == 0 or W.min() <= 0:
        raise ValueError("weights must be positive (and the sample non-empty)")
    r = _contrast(pol, pi0, data)
    arms = data.arms()
    arms.require_nonempty("hajek_regret")
    return sum(float(np.dot(r[idx], W[idx]) / W[idx].sum()) for idx in arms.indices)


def _arm_parts(spec: UncertaintySpec, arms: ArmIndex, n: int, context: str) -> list:
    """Each arm's (idx, w_tilde, a, b), once the spec is checked against the
    n units and the arms; an empty arm raises EmptyArmError(t, context)."""
    if n != spec.n:
        raise ValueError("uncertainty spec does not match the dataset")
    if spec.budgeted and spec.lam.size != arms.m:
        raise ValueError(f"budget vector has {spec.lam.size} entries for {arms.m} arms")
    arms.require_nonempty(context)
    return [(idx, *spec.restrict(idx)) for idx in arms.indices]


def worst_case_solution(r: np.ndarray, spec: UncertaintySpec, arms: ArmIndex):
    """Worst-case weights W and value of the contrasts r over the uncertainty set.

    Each arm's slice of r is solved exactly (box threshold scan or budgeted
    Dinkelbach) and the arm values are summed in arm order. Returns
    (W, value). `ArmKernel` solves stacked rows of r the same way.
    """
    W = np.empty(spec.n)
    total = 0.0
    for t, (idx, w, a, b) in enumerate(_arm_parts(spec, arms, r.size, "worst_case_solution")):
        if spec.budgeted:
            sol = solve_budgeted(r[idx], a, b, w, float(spec.lam[t]))
        else:
            sol = solve_box(r[idx], a, b)
        W[idx] = sol.weights
        total += sol.value
    return W, total


class ArmKernel:
    """The weights `worst_case_solution` gives each row of stacked contrasts,
    bit for bit. A spec's bounds are validated once, and each arm keeps its
    stable order by b - a for `subproblem.box_order`, which sorts each row
    on (r, b - a, index) as `solve_box` does. An arm whose contrasts tied on
    the previous call is sorted stably at once, so contrasts that tie at
    every step (binary outcomes) are not sorted twice. A budgeted spec's
    nominal weights and budgets are checked once too, into one `ArmBudget`
    per arm, and all of an arm's rows go through `budgeted_rows`, the core
    that `solve_budgeted` runs on one row. They start from their box solve,
    unless the budget binds on every row whatever the contrasts. An arm
    with lam = 0 takes its nominal weights."""

    def __init__(self, spec: UncertaintySpec, arms: ArmIndex):
        self.parts = _arm_parts(spec, arms, sum(idx.size for idx in arms.indices), "ArmKernel")
        for *_, a, b in self.parts:
            _validated_bounds(a, b)
        self.pre = [np.argsort(b - a, kind="stable") for *_, a, b in self.parts]
        self.tied = [False] * len(self.parts)
        self.budgets = [None] * len(self.parts)
        if spec.budgeted:
            self.budgets = [arm_budget(a, b, w, float(lam)) for (_, w, a, b), lam in zip(self.parts, spec.lam)]

    def shares(self, r: np.ndarray) -> np.ndarray:
        """W_i / (sum of W over unit i's arm) for each row of r (R, n), at the row's worst-case W."""
        if not np.isfinite(r).all():
            raise ValueError("r, a, b must be finite")
        out = np.empty_like(r)
        for t, ((idx, _, a, b), budget) in enumerate(zip(self.parts, self.budgets)):
            if budget is not None and budget.total == 0.0:  # lam = 0: the nominal weights in every row
                out[:, idx] = budget.w_tilde / budget.w_sum
                continue
            rt = r.take(idx, axis=1)  # C order: r[:, idx] is column-major
            W = None  # no box solve for a budget that binds on every row
            if budget is None or not budget.binds:
                order, self.tied[t] = box_order(rt, a, b, self.pre[t], self.tied[t])
                W = box_rows(rt, a, b, order)[1]
            if budget is not None:
                W = budgeted_rows(rt, budget, W)[0]
            # W is in C order, so each row sums as the 1-D W[idx] of one row does.
            out[:, idx] = W / W.sum(axis=1)[:, None]
        return out


def worst_case_regret(pol: Policy, pi0: Policy, data: Dataset, spec: UncertaintySpec) -> float:
    """Supremum of the Hajek regret over the uncertainty set (sum of arm values)."""
    return worst_case_weights(pol, pi0, data, spec)[1]


def worst_case_weights(pol: Policy, pi0: Policy, data: Dataset, spec: UncertaintySpec):
    """Attaining weights W and the total worst-case regret, as (W, value)."""
    return worst_case_solution(_contrast(pol, pi0, data), spec, data.arms())


def ipw_value(pol: Policy, data: Dataset) -> float:
    """Plain inverse-propensity-weighted value estimate (1/n) sum pi(T_i|X_i) Y_i / e_i."""
    if data.e_hat is None:
        raise ValueError("ipw_value needs nominal propensities on the dataset")
    p_obs = pol.observed_prob(data.X, data.T)
    return float(np.mean(p_obs * data.Y / data.e_hat))


def ht_test_regret(pol: Policy, pi0: Policy, test: Dataset, p) -> float:
    """Unnormalized Horvitz-Thompson regret on randomized test data.

    (1/n) sum_i (Y_i / p_{T_i}) (pi(T_i|X_i) - pi0(T_i|X_i)), where p is the
    length-m vector of randomization probabilities.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.shape[0] != test.m:
        raise ValueError(f"need {test.m} randomization probabilities, got {p.shape[0]}")
    if not np.isfinite(p).all() or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-8:
        raise ValueError("randomization probabilities must be finite, non-negative and sum to 1")
    observed = np.unique(test.T)
    if np.any(p[observed] <= 0.0):
        bad = int(observed[np.argmax(p[observed] <= 0.0)])
        raise ValueError(f"arm {bad} appears in the data but has randomization probability 0")
    contrast = pol.observed_prob(test.X, test.T) - pi0.observed_prob(test.X, test.T)
    return float(np.mean(test.Y / p[test.T] * contrast))


def true_regret(pol: Policy, pi0: Policy, data: Dataset) -> float:
    """Oracle regret from stored counterfactuals: (1/n) sum_i sum_t (pi - pi0)(t|X_i) Y_i(t)."""
    if data.potential_Y is None:
        raise ValueError("true_regret needs counterfactual outcomes (simulation data only)")
    diff = pol.prob_matrix(data.X) - pi0.prob_matrix(data.X)
    return float(np.mean(np.sum(diff * data.potential_Y, axis=1)))
