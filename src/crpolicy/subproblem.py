"""Exact worst-case solvers for the weighted-fractional inner problem.

The solvers maximize the self-normalized objective

    Q(W) = sum_i r_i W_i / sum_i W_i

over per-unit weight boxes a_i <= W_i <= b_i, optionally intersected with a
mean absolute-deviation budget around the nominal weights. The box case has
a closed-form threshold solution: sort the units by r (ties broken on
b - a), and the optimum assigns a below some cut index and b at or above
it, with the cut found by scanning a discrete concave unimodal sequence.
The budgeted case runs Dinkelbach's ratio iteration, each step a greedy
fractional knapsack. Two exact references check them in tests: corner
enumeration for the box, and a Charnes-Cooper LP for the budget.

All functions operate on one treatment arm at a time. The one caller that
slices the data per arm and sums the arm values is
`evaluation.estimators.worst_case_solution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import SolverError
from .simplex import simplex_solve

__all__ = [
    "SubproblemSolution",
    "solve_box",
    "solve_budgeted",
    "oracle_box",
    "oracle_budgeted",
    "threshold_values",
]


@dataclass(frozen=True)
class SubproblemSolution:
    """Worst-case value, the weights attaining it, and solver diagnostics.

    `threshold` is the 1-based cut index k* in [1, k+1] for the box set; in
    the sorted order the first k*-1 units sit at their lower bounds.
    `multiplier` is set only by the budgeted solvers: the Lagrange multiplier
    of the budget constraint, which for `solve_budgeted` is the marginal
    gain |r_j - value| of the last unit the budget reaches in the greedy
    knapsack at the optimum (0 when the budget is slack, None at lam = 0).
    """

    value: float
    weights: np.ndarray
    threshold: Optional[int] = None
    multiplier: Optional[float] = None


def _validated(r, a, b) -> tuple:
    r = np.asarray(r, dtype=float).reshape(-1)
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if r.size == 0:
        raise ValueError("subproblem needs at least one unit")
    if not (r.shape == a.shape == b.shape):
        raise ValueError("r, a, b must have equal length")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("r, a, b must be finite")
    if a.min() <= 0.0:
        raise ValueError("lower weight bounds must be strictly positive")
    if np.any(a > b):
        raise ValueError("need a_i <= b_i for every unit")
    return r, a, b


def threshold_values(r: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The candidate objective values lambda(k), k = 1..n+1, in sorted order.

    lambda(k) puts the first k-1 sorted units at a and the rest at b.
    Returns (lams, order) where order is the lexicographic sort permutation
    on (r_i, b_i - a_i) ascending.
    """
    order = np.lexsort((b - a, r))
    rs, as_, bs = r[order], a[order], b[order]
    pre_ar = np.concatenate([[0.0], np.cumsum(as_ * rs)])
    pre_a = np.concatenate([[0.0], np.cumsum(as_)])
    pre_br = np.concatenate([[0.0], np.cumsum(bs * rs)])
    pre_b = np.concatenate([[0.0], np.cumsum(bs)])
    tot_br, tot_b = pre_br[-1], pre_b[-1]
    num = pre_ar + (tot_br - pre_br)
    den = pre_a + (tot_b - pre_b)
    return num / den, order


def solve_box(r, a, b) -> SubproblemSolution:
    """Maximize sum(r W) / sum(W) over the box prod_i [a_i, b_i], exactly.

    O(k log k): sort once, then evaluate every threshold via prefix sums and
    take the argmax of the unimodal candidate sequence.
    """
    r, a, b = _validated(r, a, b)
    lams, order = threshold_values(r, a, b)
    k_star = int(np.argmax(lams))  # 0-based count of units at the lower bound
    weights_sorted = np.concatenate([a[order][:k_star], b[order][k_star:]])
    weights = np.empty_like(weights_sorted)
    weights[order] = weights_sorted
    return SubproblemSolution(
        value=float(lams[k_star]),
        weights=weights,
        threshold=k_star + 1,
    )


_MASK_CACHE: dict = {}


def _corner_masks(k: int) -> np.ndarray:
    masks = _MASK_CACHE.get(k)
    if masks is None:
        ints = np.arange(2**k, dtype=np.uint32)
        masks = (ints[:, None] >> np.arange(k)) & 1
        masks = masks.astype(float)
        _MASK_CACHE[k] = masks
    return masks


def oracle_box(r, a, b) -> float:
    """Brute-force reference for solve_box: enumerate all 2^k box corners.

    The objective is linear-fractional, so its maximum over a box is
    attained at a vertex. Refuses k > 20.
    """
    r, a, b = _validated(r, a, b)
    k = r.size
    if k > 20:
        raise ValueError(f"oracle_box enumerates 2^k corners; k={k} is too large (max 20)")
    best = -np.inf
    chunk = 1 << min(k, 14)
    masks_full = _corner_masks(min(k, 14))
    for start in range(0, 2**k, chunk):
        if k <= 14:
            masks = masks_full
        else:
            ints = np.arange(start, start + chunk, dtype=np.uint32)
            masks = ((ints[:, None] >> np.arange(k)) & 1).astype(float)
        W = a + masks * (b - a)
        vals = (W @ r) / W.sum(axis=1)
        best = max(best, float(vals.max()))
        if k <= 14:
            break
    return best


def _nominal_solution(r, w_tilde) -> SubproblemSolution:
    value = float(np.dot(r, w_tilde) / w_tilde.sum())
    return SubproblemSolution(value=value, weights=w_tilde.copy())


def _validated_budget(r, a, b, w_tilde, lam) -> tuple:
    r, a, b = _validated(r, a, b)
    w_tilde = np.asarray(w_tilde, dtype=float).reshape(-1)
    if w_tilde.shape != r.shape:
        raise ValueError("w_tilde must match r in length")
    if not np.all(np.isfinite(w_tilde)):
        raise ValueError("nominal weights must be finite")
    if np.any(w_tilde < a - 1e-12) or np.any(w_tilde > b + 1e-12):
        raise ValueError("nominal weights must lie inside [a, b]")
    if not np.isfinite(lam) or lam < 0.0:
        raise ValueError(f"budget must be a finite real >= 0, got {lam}")
    return r, a, b, w_tilde


_MAX_DINKELBACH_STEPS = 100


def solve_budgeted(r, a, b, w_tilde, lam: float) -> SubproblemSolution:
    """Maximize sum(r W) / sum(W) over the box intersected with the budget
    (1/k) sum_i |W_i - W_tilde_i| <= lam, exactly.

    Dinkelbach's ratio iteration: starting from the nominal value, each
    step maximizes sum((r - value) W) over the set, a fractional knapsack
    solved greedily in O(k log k), and takes the ratio of the maximizer as
    the next value. The value rises strictly until it is optimal and the
    knapsack has finitely many greedy orders, so the iteration stops after
    a few steps. `multiplier` is the budget's marginal gain at the optimum.
    """
    r, a, b, w_tilde = _validated_budget(r, a, b, w_tilde, lam)
    if lam == 0.0:
        return _nominal_solution(r, w_tilde)
    total = lam * r.size
    # A slack budget cannot bind: fall back to the plain box solution.
    box = solve_box(r, a, b)
    if np.abs(box.weights - w_tilde).sum() <= total + 1e-12:
        return SubproblemSolution(box.value, box.weights, multiplier=0.0)
    weights = w_tilde.copy()
    value = float(np.dot(r, weights) / weights.sum())
    for _ in range(_MAX_DINKELBACH_STEPS):
        step, gain = _fractional_knapsack(r - value, a, b, w_tilde, total)
        step_value = float(np.dot(r, step) / step.sum())
        if step_value <= value:
            return SubproblemSolution(value=value, weights=weights, multiplier=gain)
        weights, value = step, step_value
    raise SolverError(f"Dinkelbach iteration did not settle in {_MAX_DINKELBACH_STEPS} steps")


def _fractional_knapsack(score, a, b, w_tilde, total) -> tuple:
    """Maximize score' W over the box subject to sum |W - W~| <= total.

    Each unit moves only the way its score rewards and earns |score_i| per
    unit of budget, so the greedy order by gain is exact: the cumulative
    caps in that order say how much budget is left for each unit. Returns
    the maximizer and the gain of the last unit the budget reaches (0 when
    every rewarded move fits in the budget).
    """
    gain = np.abs(score)
    cap = np.where(score > 0, b - w_tilde, np.where(score < 0, w_tilde - a, 0.0))
    order = np.argsort(-gain, kind="stable")
    cap_sorted = cap[order]
    spent = np.cumsum(cap_sorted)
    move_sorted = np.clip(total - (spent - cap_sorted), 0.0, cap_sorted)
    move = np.empty_like(move_sorted)
    move[order] = move_sorted
    weights = w_tilde + np.sign(score) * move
    if spent[-1] <= total:
        return weights, 0.0
    last = np.flatnonzero(move_sorted > 0.0)[-1]
    return weights, float(gain[order[last]])


def oracle_budgeted(r, a, b, w_tilde, lam: float) -> SubproblemSolution:
    """LP reference for solve_budgeted: the Charnes-Cooper linearization
    (w = psi W, psi = 1 / sum W) solved by the dense simplex in `simplex.py`.

    Variables (w_1..w_k, d_1..d_k, psi), all >= 0:

        max  r' w
        s.t. sum w = 1
             a_i psi - w_i <= 0,   w_i - b_i psi <= 0
             w_i - W~_i psi - d_i <= 0,   W~_i psi - w_i - d_i <= 0
             sum d - lam k psi <= 0

    The tableau is dense in k, so this refuses k > 200.
    """
    r, a, b, w_tilde = _validated_budget(r, a, b, w_tilde, lam)
    k = r.size
    if k > 200:
        raise ValueError(f"oracle_budgeted builds a dense simplex tableau; k={k} is too large (max 200)")
    nvar = 2 * k + 1
    c = np.zeros(nvar)
    c[:k] = -r  # simplex minimizes
    rows = 4 * k + 1
    A_ub = np.zeros((rows, nvar))
    b_ub = np.zeros(rows)
    eye = np.eye(k)
    A_ub[0:k, :k] = -eye
    A_ub[0:k, -1] = a
    A_ub[k : 2 * k, :k] = eye
    A_ub[k : 2 * k, -1] = -b
    A_ub[2 * k : 3 * k, :k] = eye
    A_ub[2 * k : 3 * k, k : 2 * k] = -eye
    A_ub[2 * k : 3 * k, -1] = -w_tilde
    A_ub[3 * k : 4 * k, :k] = -eye
    A_ub[3 * k : 4 * k, k : 2 * k] = -eye
    A_ub[3 * k : 4 * k, -1] = w_tilde
    A_ub[4 * k, k : 2 * k] = 1.0
    A_ub[4 * k, -1] = -lam * k
    A_eq = np.zeros((1, nvar))
    A_eq[0, :k] = 1.0
    res = simplex_solve(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=np.ones(1))
    psi = res.x[-1]
    if psi <= 0.0:
        raise SolverError(f"degenerate Charnes-Cooper scale psi={psi:.3e}")
    weights = np.clip(res.x[:k] / psi, a, b)
    value = float(np.dot(r, weights) / weights.sum())
    # The min-form dual of the budget row is <= 0; the reported multiplier is its negation.
    eta = float(max(0.0, -res.dual_ub[4 * k]))
    return SubproblemSolution(value=value, weights=weights, multiplier=eta)
