"""Exact reference solvers that cross-check the production solvers in tests.

`oracle_box` enumerates every corner of the weight box; `oracle_budgeted`
solves the Charnes-Cooper linearization of the budgeted problem with the
dense simplex in `crpolicy.simplex`. Both are slow by design and refuse
large instances.
"""

import numpy as np

from crpolicy.exceptions import SolverError
from crpolicy.simplex import simplex_solve
from crpolicy.subproblem import SubproblemSolution, _validated, _validated_budget

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


def oracle_budgeted(r, a, b, w_tilde, lam: float) -> SubproblemSolution:
    """LP reference for solve_budgeted: the Charnes-Cooper linearization
    (w = psi W, psi = 1 / sum W) solved by the dense simplex.

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
