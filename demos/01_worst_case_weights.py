"""
Worst-case weighted averages over propensity uncertainty sets
=============================================================

The inner problem behind everything else in this library: given per-unit
scores r and an interval [a_i, b_i] for each unit's unknown inverse
propensity weight, how bad can the self-normalized average
sum(r W) / sum(W) get? This script walks the exact solvers on a small
example you can check by hand.
"""

import numpy as np

from crpolicy import oracle_box, oracle_budgeted, solve_box, solve_budgeted, weight_bounds
from crpolicy.subproblem import threshold_values

# Three logged units with nominal propensity 2/3 each, so nominal inverse
# weights are 1.5. A sensitivity level of gamma = 2 lets the true weights
# drift within [1.25, 2].
w_tilde = np.array([1.5, 1.5, 1.5])
a, b = weight_bounds(w_tilde, gamma=2.0)
print("weight intervals:", list(zip(a.round(3), b.round(3))))

# Scores: unit 0 is very costly, unit 1 helpful, unit 2 costly.
r = np.array([3.0, -1.0, 2.0])
nominal = np.dot(r, w_tilde) / w_tilde.sum()
print(f"nominal value: {nominal:.4f}")

# The adversary inflates weights on high-r units and deflates the rest.
sol = solve_box(r, a, b)
print(f"worst case over the box: {sol.value:.4f} at weights {sol.weights}")
print(f"brute-force corner check: {oracle_box(r, a, b):.4f}")

# Under the hood: sort by r, then scan the candidate threshold values.
# The sequence rises to a single peak and falls: evaluating all n+1
# cuts via prefix sums finds the exact optimum.
lams, order = threshold_values(r, a, b)
print("sorted unit order:", order, "candidate values:", lams.round(4))
print("peak at cut index:", sol.threshold)

# A budget on total weight deviation interpolates between the nominal
# value and the unrestricted box worst case.
print("\nmean-deviation budget sweep:")
for lam in (0.0, 0.1, 0.25, 0.5):
    bud = solve_budgeted(r, a, b, w_tilde, lam)
    print(f"  budget {lam:4.2f}: value {bud.value:.4f}  (multiplier {bud.multiplier})")

# Dinkelbach's ratio iteration agrees with the Charnes-Cooper LP reference
# to solver precision, budget multiplier included.
s1 = solve_budgeted(r, a, b, w_tilde, 0.25)
s2 = oracle_budgeted(r, a, b, w_tilde, 0.25)
print(f"\nDinkelbach {s1.value:.12f} (multiplier {s1.multiplier:.6f})")
print(f"LP oracle  {s2.value:.12f} (multiplier {s2.multiplier:.6f})")
