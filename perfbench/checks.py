"""Output checks that do not trust the solvers they check.

Policies are evaluated from their JSON here, the weight bounds and budgets
are recomputed here, and optimality of the worst-case weights is judged
by conditions written here: the threshold rule for the box set, and for
the budgeted set a greedy fractional knapsack. None of this depends on
which route the package uses to solve the inner problem.
"""

from __future__ import annotations

import numpy as np

# Relative tolerances. The objective must repeat to 1e-8; the weight
# conditions allow the roundoff of a dense simplex on a few hundred rows.
OBJECTIVE_TOL = 1e-8
WEIGHT_TOL = 1e-9
KNAPSACK_TOL = 1e-7


class CheckFailed(Exception):
    """An output broke a stated condition; the message says which."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    s = np.exp(scores - scores.max(axis=1, keepdims=True))
    return s / s.sum(axis=1, keepdims=True)


def policy_probs(doc: dict, X: np.ndarray) -> np.ndarray:
    """(n, m) arm probabilities of a policy JSON document at covariates X."""
    n = X.shape[0]
    variant, payload = doc["variant"], doc["payload"]
    if variant == "constant":
        return np.tile(np.asarray(payload["p"], dtype=float), (n, 1))
    if variant in ("logistic", "hardened_logistic"):
        theta = np.asarray(payload["theta"], dtype=float)
        scores = np.zeros((n, theta.shape[0] + 1))
        scores[:, 1:] = theta[:, 0] + X @ theta[:, 1:].T
        if variant == "logistic":
            return _softmax_rows(scores)
        out = np.zeros_like(scores)
        out[np.arange(n), np.argmax(scores, axis=1)] = 1.0
        return out
    if variant == "tree":
        out = np.empty((n, int(doc["m"])))

        def walk(node, mask):
            if "leaf" in node:
                out[mask] = node["leaf"]
                return
            left = X[:, node["feature"]] <= node["threshold"]
            walk(node["left"], mask & left)
            walk(node["right"], mask & ~left)

        walk(payload["root"], np.ones(n, dtype=bool))
        return out
    raise CheckFailed(f"unknown policy variant {variant!r}")


def control_probs(n: int, m: int) -> np.ndarray:
    p = np.zeros((n, m))
    p[:, 0] = 1.0
    return p


def oracle_regret(doc: dict, X: np.ndarray, potential: np.ndarray) -> float:
    """Mean over units of sum_t (pi - pi0)(t | x) Y(t), with pi0 = control."""
    diff = policy_probs(doc, X) - control_probs(*potential.shape)
    return float(np.mean(np.sum(diff * potential, axis=1)))


def knapsack_max(score, a, b, w_tilde, total) -> float:
    """max score'W over a <= W <= b with sum |W - w_tilde| <= total.

    Each unit moves only the way its score rewards, and every unit of
    budget earns |score_i| there, so spending the budget on the largest
    gains first is exact.
    """
    gain = np.abs(score)
    cap = np.where(score > 0, b - w_tilde, w_tilde - a)
    order = np.argsort(-gain, kind="stable")
    cap_sorted = cap[order]
    spent_before = np.cumsum(cap_sorted) - cap_sorted
    move = np.clip(total - spent_before, 0.0, cap_sorted)
    return float(score @ w_tilde + gain[order] @ move)


def check_worst_case_weights(W, r, T, e_hat, gamma, rho, total_value) -> None:
    """W must be a maximizer of each arm's sum(r W) / sum(W) over its set.

    Box set: at the arm's optimum lambda*, every unit with r_i > lambda*
    sits at b_i and every unit with r_i < lambda* at a_i. Budgeted set: W is
    feasible, and no feasible W' has sum((r - lambda*) W') above the
    returned W's, as the fractional knapsack computes.
    """
    w_tilde = 1.0 / e_hat
    a = 1.0 + (w_tilde - 1.0) / gamma
    b = 1.0 + (w_tilde - 1.0) * gamma
    require(np.all(np.isfinite(W)), "worst-case weights are not finite")
    require(
        np.all(W >= a * (1 - WEIGHT_TOL)) and np.all(W <= b * (1 + WEIGHT_TOL)),
        "worst-case weights leave the box [a, b]",
    )
    values = []
    for t in np.unique(T):
        idx = np.flatnonzero(T == t)
        rt, Wt, at, bt, wt = r[idx], W[idx], a[idx], b[idx], w_tilde[idx]
        lam_star = float(rt @ Wt / Wt.sum())
        values.append(lam_star)
        if rho is None:
            gap = WEIGHT_TOL * max(1.0, float(np.abs(rt).max()))
            high, low = rt > lam_star + gap, rt < lam_star - gap
            require(
                np.all(np.abs(Wt[high] - bt[high]) <= WEIGHT_TOL * bt[high]),
                f"arm {t}: a unit with r above lambda*={lam_star:.6g} is not at its upper bound",
            )
            require(
                np.all(np.abs(Wt[low] - at[low]) <= WEIGHT_TOL * at[low]),
                f"arm {t}: a unit with r below lambda*={lam_star:.6g} is not at its lower bound",
            )
        else:
            budget = rho * float(np.maximum(wt - at, bt - wt).mean())
            used = float(np.abs(Wt - wt).mean())
            require(
                used <= budget * (1 + WEIGHT_TOL) + 1e-12,
                f"arm {t}: mean |W - W~| = {used:.9g} exceeds the budget {budget:.9g}",
            )
            score = rt - lam_star
            best = knapsack_max(score, at, bt, wt, budget * idx.size)
            attained = float(score @ Wt)
            scale = float(np.abs(rt) @ bt) + 1e-12
            require(
                best - attained <= KNAPSACK_TOL * scale,
                f"arm {t}: weights are not optimal, the knapsack gains {best - attained:.3g} at lambda*",
            )
    require(
        abs(sum(values) - total_value) <= OBJECTIVE_TOL * max(1.0, abs(total_value)),
        "arm values of the returned weights do not add up to the reported worst case",
    )
