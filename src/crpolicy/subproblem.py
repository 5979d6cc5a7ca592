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

All functions operate on one treatment arm at a time. Each set's core
solves many rows of contrasts at once: `box_rows` for the box, with
`solve_box` its one-row view, and `budgeted_rows` for the budget, with
`solve_budgeted` its one-row view. The budgeted core takes the arm's
nominal weights and budget checked once, as an `ArmBudget`, and the rows'
box weights for their slack test, unless the budget binds on every row.
The callers that slice the data per arm are in `evaluation.estimators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional

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


class ArmBudget(NamedTuple):
    """One arm's checked nominal weights and budget lam, as the Dinkelbach
    steps read them, and whether the budget binds on every row."""

    w_tilde: np.ndarray
    up: np.ndarray  # b - w_tilde
    down: np.ndarray  # w_tilde - a
    total: float  # lam k, the budget on sum |W - w_tilde|
    w_sum: float
    binds: bool


def arm_budget(a, b, w_tilde, lam) -> ArmBudget:
    """The `ArmBudget` of nominal weights inside one arm's checked bounds.

    The budget binds on every row when even the box corner nearest to
    w_tilde overspends it: each box weight is a_i or b_i, so no row's box
    weights deviate by less than sum min(|up|, |down|). A float sum of k
    terms of one sign is within (k - 1) eps/2 of the exact sum, relatively,
    and the margin 3 k eps covers both sums compared.
    """
    w_tilde = np.ascontiguousarray(w_tilde, dtype=float).reshape(-1)
    if w_tilde.shape != a.shape:
        raise ValueError("w_tilde must match r in length")
    if not np.all(np.isfinite(w_tilde)):
        raise ValueError("nominal weights must be finite")
    if np.any(w_tilde < a - 1e-12) or np.any(w_tilde > b + 1e-12):
        raise ValueError("nominal weights must lie inside [a, b]")
    if not np.isfinite(lam) or lam < 0.0:
        raise ValueError(f"budget must be a finite real >= 0, got {lam}")
    up, down, k = b - w_tilde, w_tilde - a, w_tilde.size
    least = float(np.minimum(np.abs(up), np.abs(down)).sum())
    total = lam * k
    return ArmBudget(w_tilde, up, down, total, w_tilde.sum(), least * (1.0 - 3.0 * k * _EPS) > total + 1e-12)


_EPS = float(np.finfo(float).eps)
_MAX_DINKELBACH_STEPS = 100


def solve_budgeted(r, a, b, w_tilde, lam: float) -> SubproblemSolution:
    """Maximize sum(r W) / sum(W) over the box intersected with the budget
    (1/k) sum_i |W_i - W_tilde_i| <= lam, exactly.

    `budgeted_rows` for one row, from its box solve (`box_order`,
    `box_rows`). `multiplier` is the budget's marginal gain at the optimum.
    """
    r, a, b = _validated(r, a, b)
    budget = arm_budget(a, b, w_tilde, lam)
    if lam == 0.0:
        return SubproblemSolution(value=float(np.dot(r, budget.w_tilde) / budget.w_sum), weights=budget.w_tilde.copy())
    rows = r[None]
    lams, box = box_rows(rows, a, b, box_order(rows, a, b)[0])
    weights, binding, values, multipliers = budgeted_rows(rows, budget, box)
    if binding.size:
        return SubproblemSolution(float(values[0]), weights[0], multiplier=float(multipliers[0]))
    return SubproblemSolution(float(lams[0, np.argmax(lams[0])]), weights[0], multiplier=0.0)


def budgeted_rows(r, budget: ArmBudget, box=None) -> tuple:
    """The budgeted solve of the rows of r (R, k) of one arm with a budget
    lam > 0, given the rows' box weights `box` unless `budget.binds`.

    A row whose box weights fit in the budget keeps them. The others run
    Dinkelbach's ratio iteration side by side: from the nominal value, each
    step maximizes sum((r - value) W) over the set, a fractional knapsack
    solved greedily, and takes the ratio of the maximizer as the row's next
    value. A row's value rises strictly until it is optimal, and the
    knapsack has finitely many greedy orders, so each row stops after a few
    steps. Returns every row's weights (written over `box`), the indices of
    the rows whose budget binds, and their values and multipliers (the gain
    of the last unit the final knapsack reached).
    """
    if box is None:
        weights, binding = np.empty(r.shape), np.arange(len(r))
    else:
        weights = box
        binding = np.flatnonzero(~(np.abs(box - budget.w_tilde).sum(axis=1) <= budget.total + 1e-12))
    values, multipliers = np.empty(binding.size), np.empty(binding.size)
    if not binding.size:
        return weights, binding, values, multipliers
    live, current = np.arange(binding.size), budget.w_tilde
    rows = r if binding.size == len(r) else r[binding]
    # Each value is a row's dot over its weights' sum, as a 1-D solve takes it.
    value = np.fromiter(map(np.dot, rows, repeat(current)), float, live.size) / budget.w_sum
    for _ in range(_MAX_DINKELBACH_STEPS):
        step, last_gain = _fractional_knapsack(rows - value[:, None], budget)
        step_value = np.fromiter(map(np.dot, rows, step), float, live.size) / step.sum(axis=1)
        done = step_value <= value
        if done.any():
            out = live[done]
            weights[binding[out]] = current if current.ndim == 1 else current[done]  # 1-D: the nominal
            values[out], multipliers[out] = value[done], last_gain(done)
            if done.all():
                return weights, binding, values, multipliers
            more = ~done
            live, rows, step, step_value = live[more], rows[more], step[more], step_value[more]
        current, value = step, step_value
    raise SolverError(f"Dinkelbach iteration did not settle in {_MAX_DINKELBACH_STEPS} steps")


def _fractional_knapsack(score, budget: ArmBudget) -> tuple:
    """Maximize each row's score' W (R, k) over the box subject to
    sum |W - W~| <= total.

    Each unit moves only the way its score rewards and earns |score_i| per
    unit of budget, so the greedy order by gain (stable) is exact: the
    cumulative caps in that order say how much budget is left for each
    unit. Returns the maximizers, and a function of a row mask that gives
    those rows' gain of the last unit the budget reaches (0 when every
    rewarded move fits in the budget), taken only for rows that finish.
    """
    gain = np.abs(score)
    cap = np.where(score > 0, budget.up, np.where(score < 0, budget.down, 0.0))
    flat, cap_sorted = _sorted_rows(cap, np.argsort(-gain, axis=1, kind="stable"))
    spent = np.cumsum(cap_sorted, axis=1)
    move_sorted = np.clip(budget.total - (spent - cap_sorted), 0.0, cap_sorted)
    weights = np.empty_like(move_sorted)
    weights.reshape(-1)[flat] = move_sorted
    weights *= np.sign(score)
    weights += budget.w_tilde  # w_tilde + sign(score) * move

    def last_gain(rows):
        reached = move_sorted[rows, ::-1] > 0.0
        last = reached.shape[1] - 1 - reached.argmax(axis=1)
        at = flat[rows][np.arange(last.size), last]
        return np.where(spent[rows, -1] <= budget.total, 0.0, np.take(gain, at))

    return weights, last_gain
