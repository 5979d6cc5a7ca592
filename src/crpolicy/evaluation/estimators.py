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
from ..subproblem import _EPS, _validated_bounds, arm_budget, solve_box, solve_budgeted, solve_rows
from ..uncertainty import UncertaintySpec, check_weighted_sums

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
    check_weighted_sums(data.Y, W.max())
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
    (W, value). `ArmKernel` solves stacked rows of r the same way. Contrasts
    whose weighted sums overflow are refused, so the value is finite.
    """
    W, total = np.empty(spec.n), 0.0
    check_weighted_sums(r, spec.b.max(initial=0.0), "contrasts")
    for t, (idx, w, a, b) in enumerate(_arm_parts(spec, arms, r.size, "worst_case_solution")):
        # By name, not `solve_rows`: perfbench's tracer and self-test substitute these two.
        sol = solve_budgeted(r[idx], a, b, w, float(spec.lam[t])) if spec.budgeted else solve_box(r[idx], a, b)
        W[idx] = sol.weights
        total += sol.value
    return W, total


class ArmKernel:
    """The weights `worst_case_solution` gives each row of stacked contrasts,
    bit for bit, from one `subproblem.solve_rows` per arm of the rows not
    known already. Bounds are validated, and each `ArmBudget` made, once.

    A fixed arm (a == b, as at gamma = 1, or a zero budget) is solved once,
    here. A row of another box arm keeps its last split while it provably
    stands. With lam = r.W / sum W at the split, rho = max |r|, A = sum a
    and S = sum b over k units: `box_rows` adds at most k terms in sequence,
    so each lambda(j) it forms, and lam, is within delta = q rho / (1 - q),
    q = (3k + 5) eps S / A, of its exact value. The exact lambda(j) rise to
    the split's plateau (zero-span units may sit on either side) and fall
    after it, and moving the plateau's neighbour i, of span s_i > 0, across
    lowers lambda by s_i |r_i - lam| / (sum W +- s_i) >= s_i |r_i - lam| / S.
    So if every unit i of positive span is on its side of the computed lam
    by more than delta (1 + 2 S / s_i), no computed lambda(j) off the
    plateau reaches one on it: the scan gives the same W, row sum and
    shares, to the bit. The check asks twice that margin, for its own
    rounding, and is not made where that reaches 2 rho for the least span
    (very large gamma). A row that fails takes one Dinkelbach step: W at b
    where r > lam and at a elsewhere, and the same check at its value
    r.W / sum W. Rows that fail both are solved; an arm whose rows all fail
    waits 1, 2, 4, ... calls before it checks again. Rounding is relative
    only above tiny, the least normal float: below it a result may move by
    tiny eps / 2, at most eps^2 rho / 2 if rho >= tiny / eps, which the
    doubled margin absorbs. Under that rho (contrasts all zero or subnormal,
    which the rounded scan may tie) no row holds: every row is solved.

    `shares` returns the kernel's own buffer, which the next call rewrites.
    """

    def __init__(self, spec: UncertaintySpec, arms: ArmIndex):
        parts = _arm_parts(spec, arms, sum(idx.size for idx in arms.indices), "ArmKernel")
        for *_, a, b in parts:
            _validated_bounds(a, b)
        self.budgets = [None] * len(parts)
        if spec.budgeted:
            self.budgets = [arm_budget(a, b, w, float(lam)) for (_, w, a, b), lam in zip(parts, spec.lam)]
        self.parts = [(idx, a, b) for idx, _, a, b in parts]  # a budget keeps its own w_tilde
        self.fixed, self.splits, self.out = [None] * len(self.parts), [None] * len(self.parts), None
        for t, ((_, a, b), budget) in enumerate(zip(self.parts, self.budgets)):
            if np.array_equal(a, b) or (budget is not None and budget.total == 0.0):
                W = solve_rows(np.zeros((1, a.size)), a, b, budget)[0]
                self.fixed[t] = W[0] / W.sum(axis=1)
            elif budget is None:
                split = _Split(a, b)
                self.splits[t] = split if split.margin.max() < 2.0 else None

    def shares(self, r: np.ndarray) -> np.ndarray:
        """W_i / (sum of W over unit i's arm) for each row of r (R, n), at the row's worst-case W."""
        if not np.isfinite(r).all():
            raise ValueError("r, a, b must be finite")
        out = self.out
        fresh = out is None or out.shape != r.shape
        if fresh:  # kept once every arm is written
            out, self.out = np.empty_like(r), None
        for t, ((idx, a, b), budget, split) in enumerate(zip(self.parts, self.budgets, self.splits)):
            if self.fixed[t] is not None:
                if fresh:
                    out[:, idx] = self.fixed[t]
                continue
            rt = r.take(idx, axis=1)  # C order: r[:, idx] is column-major
            todo = None if fresh or split is None else split.moved(rt, out, idx, a, b)  # None: every row
            if todo is not None:
                if not todo.size:
                    continue
                rt = rt[todo]
            W = solve_rows(rt, a, b, budget)[0]
            # W is in C order, so each row sums as the 1-D W[idx] of one row does.
            out[slice(None) if todo is None else todo[:, None], idx] = W / W.sum(axis=1)[:, None]
            if split is not None and not split.skip:  # the next call checks
                split.record(todo, W < b)
        self.out = out
        return out


class _Split:
    """One box arm's split check (see `ArmKernel`): each unit's margin per
    unit of rho (-4 at zero span, below any gap r_i - lam >= -2 rho), each
    row's side of each unit at its last solve (-1 at a, 1 at b), and the
    calls to wait."""

    least_rho = float(np.finfo(float).tiny) / _EPS  # below it roundoff is not relative

    def __init__(self, a, b):
        span, total = b - a, float(b.sum())
        q = (3 * a.size + 5) * _EPS * total / float(a.sum())
        scale, self.margin = 2.0 * q / (1.0 - q) if q < 0.5 else np.inf, np.full(a.size, -4.0)
        np.divide(2.0 * total, span, out=self.margin, where=span > 0)
        np.multiply(self.margin + 1.0, scale, out=self.margin, where=span > 0)
        self.side, self.wait, self.skip = None, 0, 0

    def moved(self, r, out, idx, a, b):
        """The rows of r whose split may have moved, or None for every row, as
        while the arm waits. The others' shares, out[:, idx], stand or are
        written here."""
        if self.skip:
            self.skip -= 1
            return None
        rho = np.abs(r).max()
        bound = self.margin * (rho if rho >= self.least_rho else np.inf)  # -inf at zero span
        lam = np.einsum("ij,ij->i", r, out.take(idx, axis=1))
        todo = np.flatnonzero(~self._holds(r, lam, self.side, bound))
        if todo.size:  # one Dinkelbach step from lam
            r = r[todo]
            high = r > lam[todo, None]
            W, side = np.where(high, b, a), np.where(high, np.int8(1), np.int8(-1))
            total = W.sum(axis=1)
            stepped = self._holds(r, np.einsum("ij,ij->i", r, W) / total, side, bound)
            if todo.size == len(lam) and not stepped.any():
                self.wait = self.skip = 2 * self.wait or 1
                return None
            done = todo[stepped]
            out[done[:, None], idx] = W[stepped] / total[stepped, None]
            self.side[done], todo = side[stepped], todo[~stepped]
        self.wait = 0
        return todo

    @staticmethod
    def _holds(r, lam, side, bound):
        """Whether each row's units all lie on their side of its lam by more than their bound."""
        gap = r - lam[:, None]
        gap *= side
        return (gap > bound).all(axis=1)

    def record(self, rows, low) -> None:
        side = np.where(low, np.int8(-1), np.int8(1))
        if rows is None:
            self.side = side
        else:
            self.side[rows] = side


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
    check_weighted_sums(data.Y, 1.0 / float(data.e_hat.min(initial=1.0)))
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
