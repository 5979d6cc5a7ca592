"""Exact worst-case solvers for the weighted-fractional inner problem.

The solvers maximize the self-normalized objective

    Q(W) = sum_i r_i W_i / sum_i W_i

over per-unit weight boxes a_i <= W_i <= b_i, optionally intersected with a
mean absolute-deviation budget around the nominal weights. Each set has one
solver. The box case has a closed-form threshold solution: sort the units
by r, and the optimum assigns a below some cut index and b at or above it,
with the cut found by scanning a discrete concave unimodal sequence. The
sort order is (r, b - a, index) ascending, the order of
`np.lexsort((b - a, r))`; `box_order` is the one function that makes it.
The budgeted case runs Dinkelbach's ratio iteration, each step a greedy
fractional knapsack. The exact references that check them (corner
enumeration for the box, a Charnes-Cooper LP for the budget) live with the
tests.

All functions operate on one treatment arm at a time; `box_rows`, the box
core, solves many rows of contrasts at once and `solve_box` is its one-row
view. The callers that slice the data per arm are in `evaluation.estimators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import SolverError
# Not called here: perfbench's tracer binds it, and it must be loaded for the tracer to find it.
from .simplex import simplex_solve  # noqa: F401

__all__ = ["SubproblemSolution", "box_order", "solve_box", "solve_budgeted", "threshold_values"]


@dataclass(frozen=True)
class SubproblemSolution:
    """Worst-case value, the weights attaining it, and solver diagnostics.

    `threshold` is the 1-based cut index k* in [1, k+1] for the box set; in
    the sorted order the first k*-1 units sit at their lower bounds.
    `multiplier` is set only by `solve_budgeted`: the Lagrange multiplier of
    the budget constraint, the marginal gain |r_j - value| of the last unit
    the budget reaches in the greedy knapsack at the optimum (0 when the
    budget is slack, None at lam = 0).
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
    if not np.all(np.isfinite(r)):
        raise ValueError("r, a, b must be finite")
    return (r, *_validated_bounds(a, b))


def _validated_bounds(a, b) -> tuple:
    """One arm's nonempty bounds of equal length: finite, 0 < a_i <= b_i."""
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("r, a, b must be finite")
    if a.min() <= 0.0:
        raise ValueError("lower weight bounds must be strictly positive")
    if np.any(a > b):
        raise ValueError("need a_i <= b_i for every unit")
    return a, b


def threshold_values(r: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The candidate objective values lambda(k), k = 1..n+1, in sorted order.

    lambda(k) puts the first k-1 sorted units at a and the rest at b.
    Returns (lams, order) where order is the lexicographic sort permutation
    on (r_i, b_i - a_i) ascending.
    """
    order = box_order(r[None], a, b)[0]
    return box_rows(r[None], a, b, order)[0][0], order[0]


# Calls with fewer entries than this, R * k over all rows, sort stably
# outright; the bound was set on one row. In one op of each benchmark
# workload, a budgeted fit's 42 calls are (1, 75) and a depth-2 tree fit's
# 12 are (1, 400), all stable; a simulate replication's 3,500 (6, ~100)
# restart blocks take the SIMD sort and its 570 others, such as (5, 94), the
# stable one. Per call on a 2-core Xeon, stable against SIMD: (1, 75) 4.4
# against 6.3 us, (5, 94) 9.9 against 12.1, (6, 89) 11.0 against 14.2.
_SIMD_SORT_MIN = 512


def box_order(r, a, b, pre=None, stable=False):
    """Each row's sort permutation of r (R, k) on (r, b - a, index)
    ascending, the order `np.lexsort((b - a, row))` gives, and whether a
    row was seen to tie in r (-0.0 == 0.0 counts as a tie).

    The rows are sorted by numpy's default argsort, which is not stable but
    on x86 runs as a SIMD quicksort. Without a tie, the sorted permutation
    is the only one. Rows with a tie are sorted again, stably, in `pre`, the
    stable order of b - a (made here when not given), which breaks the tie
    on (b - a, index). `stable` sorts that way from the start and still
    looks for ties, for a caller that expects them. Fewer than
    `_SIMD_SORT_MIN` entries are sorted that way without looking.
    """
    if r.size < _SIMD_SORT_MIN:
        return _stable_order(r, a, b, pre), False
    order = _stable_order(r, a, b, pre) if stable else np.argsort(r, axis=1)
    rs = _sorted_rows(r, order)[1]
    tied = rs[:, 1:] == rs[:, :-1]
    if not tied.any():
        return order, False
    if not stable:
        again = np.flatnonzero(tied.any(axis=1))
        order[again] = _stable_order(r[again], a, b, pre)
    return order, True


def _stable_order(r, a, b, pre):
    """Each row of r sorted stably in pre, the stable order of b - a (made here when None)."""
    pre = np.argsort(b - a, kind="stable") if pre is None else pre
    return pre[np.argsort(r[:, pre], axis=1, kind="stable")]


def _sorted_rows(r, order):
    """The index of each row's permutation `order` into r.ravel(), and r (R, k) gathered by it."""
    rows, k = r.shape
    flat = order if rows == 1 else order + np.arange(0, r.size, k)[:, None]
    return flat, np.take(r, flat)


def box_rows(r, a, b, order):
    """The box solve of each row of r (R, k) over one arm's validated bounds,
    given each row's sort permutation on (r, b - a) ascending: the row's
    lambda(j), j = 1..k+1, as `threshold_values` gives them, and its weights.
    """
    rows, k = r.shape
    flat, rs = _sorted_rows(r, order)
    as_, bs = a[order], b[order]
    # Prefix sums of a r, a, b r and b, each after a zero column.
    sums = np.zeros((4, rows, k + 1))
    pre = sums[:, :, 1:]
    pre[...] = as_ * rs, as_, bs * rs, bs
    np.cumsum(pre, axis=2, out=pre)
    # lambda = (pre_ar + (tot_br - pre_br)) / (pre_a + (tot_b - pre_b))
    np.subtract(sums[2:, :, -1:].copy(), sums[2:], out=sums[2:])
    sums[2:] += sums[:2]
    lams = np.divide(sums[2], sums[3], out=sums[2])
    np.copyto(bs, as_, where=np.arange(k) < lams.argmax(axis=1)[:, None])
    np.put(rs, flat, bs)  # the weights, back in the order of r
    return lams, rs


def solve_box(r, a, b) -> SubproblemSolution:
    """Maximize sum(r W) / sum(W) over the box prod_i [a_i, b_i], exactly.

    O(k log k): sort once (`box_order`), then evaluate every threshold via
    prefix sums and take the argmax of the unimodal candidate sequence;
    `box_rows` for one row.
    """
    r, a, b = _validated(r, a, b)
    lams, weights = box_rows(r[None], a, b, box_order(r[None], a, b)[0])
    k_star = int(np.argmax(lams[0]))  # 0-based count of units at the lower bound
    return SubproblemSolution(value=float(lams[0, k_star]), weights=weights[0], threshold=k_star + 1)


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
        return SubproblemSolution(value=float(np.dot(r, w_tilde) / w_tilde.sum()), weights=w_tilde.copy())
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
