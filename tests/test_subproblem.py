import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crpolicy import oracle_box, oracle_budgeted, solve_box, solve_budgeted, weight_bounds
from crpolicy.subproblem import threshold_values


def _random_instance(rng, k=None, gamma=None):
    k = k if k is not None else int(rng.integers(1, 13))
    gamma = gamma if gamma is not None else float(rng.choice([1.0, 1.5, 3.0]))
    e = rng.uniform(0.05, 0.95, k)
    w = 1.0 / e
    a, b = weight_bounds(w, gamma)
    r = rng.standard_normal(k)
    return r, a, b, w


def _is_unimodal(lams, tol=1e-12):
    d = np.diff(lams)
    signs = np.sign(np.where(np.abs(d) <= tol * (1 + np.abs(lams[:-1])), 0.0, d))
    signs = signs[signs != 0]
    return np.all(np.diff(signs) <= 0)  # once it decreases it never increases


class TestSolveBox:
    def test_two_unit_example(self):
        sol = solve_box([-1, 2], [1, 1], [2, 2])
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(sol.weights, [1.0, 2.0])

    def test_three_unit_example(self):
        sol = solve_box([3, -1, 2], [1, 1, 1], [2, 2, 2])
        assert sol.value == pytest.approx(1.8, abs=1e-12)
        assert np.allclose(sol.weights, [2.0, 1.0, 2.0])

    def test_constant_r(self):
        sol = solve_box([0.7, 0.7, 0.7], [1, 2, 3], [2, 3, 4])
        assert sol.value == pytest.approx(0.7, abs=1e-12)

    def test_degenerate_box_is_nominal(self):
        rng = np.random.default_rng(0)
        w = 1.0 / rng.uniform(0.1, 1.0, 8)
        r = rng.standard_normal(8)
        sol = solve_box(r, w, w)
        assert sol.value == pytest.approx(np.dot(r, w) / w.sum(), abs=1e-12)

    def test_threshold_range_and_step_structure(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            r, a, b, _ = _random_instance(rng)
            sol = solve_box(r, a, b)
            k = len(r)
            assert 1 <= sol.threshold <= k + 1
            order = np.lexsort((b - a, r))
            ws = sol.weights[order]
            low = ws[: sol.threshold - 1]
            high = ws[sol.threshold - 1 :]
            assert np.allclose(low, a[order][: sol.threshold - 1])
            assert np.allclose(high, b[order][sol.threshold - 1 :])

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            r, a, b, _ = _random_instance(rng)
            sol = solve_box(r, a, b)
            assert sol.value == pytest.approx(oracle_box(r, a, b), abs=1e-9)
            assert np.all(sol.weights >= a - 1e-12) and np.all(sol.weights <= b + 1e-12)
            attained = np.dot(r, sol.weights) / sol.weights.sum()
            assert attained == pytest.approx(sol.value, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 10),
        st.floats(1.0, 4.0),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle_hypothesis(self, k, gamma, seed):
        rng = np.random.default_rng(seed)
        r, a, b, _ = _random_instance(rng, k=k, gamma=gamma)
        assert solve_box(r, a, b).value == pytest.approx(oracle_box(r, a, b), abs=1e-9)

    def test_unimodality(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            r, a, b, _ = _random_instance(rng)
            lams, _ = threshold_values(r, a, b)
            assert _is_unimodal(lams)

    def test_tied_r_uses_lexicographic_gap_order(self):
        # Equal r values: sorting must fall back to b - a ascending.
        r = np.array([1.0, 1.0, -0.5])
        a = np.array([1.0, 1.0, 1.0])
        b = np.array([4.0, 2.0, 3.0])
        sol = solve_box(r, a, b)
        assert sol.value == pytest.approx(oracle_box(r, a, b), abs=1e-12)
        lams, order = threshold_values(r, a, b)
        assert _is_unimodal(lams)
        # Among the tied pair, the smaller width comes first.
        tied = [i for i in order if r[i] == 1.0]
        assert (b - a)[tied[0]] <= (b - a)[tied[1]]

    def test_value_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            r, a, b, _ = _random_instance(rng)
            v = solve_box(r, a, b).value
            assert r.min() - 1e-12 <= v <= r.max() + 1e-12

    def test_scale_invariance_in_weights(self):
        rng = np.random.default_rng(5)
        r, a, b, _ = _random_instance(rng, k=9)
        v1 = solve_box(r, a, b).value
        v2 = solve_box(r, 13.7 * a, 13.7 * b).value
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_linear_in_r_scale(self):
        rng = np.random.default_rng(6)
        r, a, b, _ = _random_instance(rng, k=7)
        v1 = solve_box(r, a, b).value
        v2 = solve_box(2.5 * r, a, b).value
        assert v2 == pytest.approx(2.5 * v1, abs=1e-9)

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(7)
        w = 1.0 / rng.uniform(0.1, 0.9, 10)
        r = rng.standard_normal(10)
        vals = []
        for gamma in (1.0, 1.2, 1.5, 2.0, 3.0):
            a, b = weight_bounds(w, gamma)
            vals.append(solve_box(r, a, b).value)
        assert np.all(np.diff(vals) >= -1e-9)

    def test_extreme_weight_scales(self):
        # Propensities at the 1e-3 clip edge with a wide gamma give weight
        # intervals spanning four orders of magnitude.
        rng = np.random.default_rng(99)
        for _ in range(200):
            k = int(rng.integers(1, 13))
            e = 10.0 ** rng.uniform(-3, 0, k)
            a, b = weight_bounds(1.0 / e, 5.0)
            r = rng.standard_normal(k) * 10.0 ** rng.uniform(-2, 2)
            sol = solve_box(r, a, b)
            scale = max(1.0, np.abs(r).max())
            assert abs(sol.value - oracle_box(r, a, b)) <= 1e-9 * scale
            attained = np.dot(r, sol.weights) / sol.weights.sum()
            assert abs(attained - sol.value) <= 1e-9 * scale

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            solve_box([], [], [])
        with pytest.raises(ValueError):
            solve_box([1.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            solve_box([1.0], [2.0], [1.0])


class TestOracle:
    def test_two_unit(self):
        assert oracle_box([-1, 2], [1, 1], [2, 2]) == pytest.approx(1.0)

    def test_single_unit_is_r(self):
        assert oracle_box([3.3], [1.0], [9.0]) == pytest.approx(3.3)

    def test_three_unit(self):
        assert oracle_box([3, -1, 2], [1, 1, 1], [2, 2, 2]) == pytest.approx(1.8)

    def test_refuses_large_k(self):
        with pytest.raises(ValueError, match="too large"):
            oracle_box(np.zeros(21), np.ones(21), np.ones(21))

    def test_chunked_path(self):
        rng = np.random.default_rng(8)
        r, a, b, _ = _random_instance(rng, k=15, gamma=2.0)
        assert oracle_box(r, a, b) == pytest.approx(solve_box(r, a, b).value, abs=1e-9)


class TestSolveBudgeted:
    def test_lambda_zero_is_nominal(self):
        rng = np.random.default_rng(9)
        r, a, b, w = _random_instance(rng, k=6, gamma=2.0)
        sol = solve_budgeted(r, a, b, w, 0.0)
        assert sol.value == pytest.approx(np.dot(r, w) / w.sum(), abs=1e-12)
        assert np.array_equal(sol.weights, w)

    def test_slack_budget_equals_box(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            r, a, b, w = _random_instance(rng, k=int(rng.integers(1, 9)), gamma=1.8)
            cap = np.maximum(w - a, b - w).mean()
            for solver in (solve_budgeted, oracle_budgeted):
                sol = solver(r, a, b, w, cap)
                assert sol.value == pytest.approx(solve_box(r, a, b).value, abs=1e-7)

    def test_hand_example(self):
        # Budget 0.25 per unit caps total deviation at 0.75; optimum spends
        # 0.25 raising the best unit and 0.5 lowering the worst.
        for solver in (solve_budgeted, oracle_budgeted):
            sol = solver([3, -1, 2], [1, 1, 1], [2, 2, 2], [1.5, 1.5, 1.5], 0.25)
            assert sol.value == pytest.approx(29.0 / 17.0, abs=1e-9)
            assert np.allclose(sol.weights, [1.75, 1.0, 1.5], atol=1e-7)
            assert sol.multiplier is not None and sol.multiplier >= 0.0
        # The budget runs out part-way up unit 0, whose gain is 3 - 29/17.
        sol = solve_budgeted([3, -1, 2], [1, 1, 1], [2, 2, 2], [1.5, 1.5, 1.5], 0.25)
        assert sol.multiplier == pytest.approx(22.0 / 17.0, abs=1e-12)

    def test_routes_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            k = int(rng.integers(1, 11))
            r, a, b, w = _random_instance(rng, k=k, gamma=float(rng.uniform(1.0, 3.0)))
            cap = np.maximum(w - a, b - w).mean()
            lam = float(rng.uniform(0.0, 1.2)) * cap
            s1 = solve_budgeted(r, a, b, w, lam)
            s2 = oracle_budgeted(r, a, b, w, lam)
            assert s1.value == pytest.approx(s2.value, abs=1e-7)
            for sol in (s1, s2):
                assert np.all(sol.weights >= a - 1e-9) and np.all(sol.weights <= b + 1e-9)
                assert np.abs(sol.weights - w).sum() <= lam * k + 1e-7
                attained = np.dot(r, sol.weights) / sol.weights.sum()
                assert attained == pytest.approx(sol.value, abs=1e-9)

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(12)
        r, a, b, w = _random_instance(rng, k=8, gamma=2.5)
        cap = np.maximum(w - a, b - w).mean()
        vals = [solve_budgeted(r, a, b, w, lam).value for lam in np.linspace(0, cap, 9)]
        assert np.all(np.diff(vals) >= -1e-9)

    def test_budget_between_nominal_and_box(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            r, a, b, w = _random_instance(rng, k=7, gamma=2.0)
            nominal = np.dot(r, w) / w.sum()
            box = solve_box(r, a, b).value
            lam = 0.3 * np.maximum(w - a, b - w).mean()
            v = solve_budgeted(r, a, b, w, lam).value
            assert nominal - 1e-9 <= v <= box + 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(14)
        r, a, b, w = _random_instance(rng, k=6, gamma=1.7)
        lam = 0.4 * np.maximum(w - a, b - w).mean()
        v1 = solve_budgeted(r, a, b, w, lam).value
        c = 3.0
        v2 = solve_budgeted(r, c * a, c * b, c * w, c * lam).value
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            solve_budgeted([1.0], [1.0], [2.0], [1.5], -0.1)
        with pytest.raises(ValueError):
            solve_budgeted([1.0], [1.0], [2.0], [5.0], 0.1)  # nominal outside box
        with pytest.raises(ValueError, match="finite"):
            solve_budgeted([1.0, 2.0], [1.0, 1.0], [2.0, 2.0], [np.nan, 1.5], 0.1)
        with pytest.raises(ValueError, match="too large"):
            oracle_budgeted(np.zeros(201), np.ones(201), np.ones(201), np.ones(201), 0.1)

    @pytest.mark.parametrize("k", [10**3, 10**4, 10**5])
    def test_large_k_optimality(self, k):
        # Dinkelbach optimality at lambda* = r'W / sum W: W is feasible and no
        # feasible W' has a larger sum((r - lambda*) W'). The best such W' is a
        # fractional knapsack, computed here independently of the solver.
        rng = np.random.default_rng(k)
        gamma = float(rng.uniform(1.2, 4.0))
        r, a, b, w = _random_instance(rng, k=k, gamma=gamma)
        lam = float(rng.uniform(0.05, 0.9)) * np.maximum(w - a, b - w).mean()
        t0 = time.perf_counter()
        sol = solve_budgeted(r, a, b, w, lam)
        elapsed = time.perf_counter() - t0
        W = sol.weights
        assert sol.multiplier > 0.0  # the budget binds, so this is not the box shortcut
        assert np.all(W >= a - 1e-9) and np.all(W <= b + 1e-9)
        assert np.abs(W - w).sum() <= lam * k * (1 + 1e-12) + 1e-9
        lam_star = float(np.dot(r, W) / W.sum())
        assert sol.value == pytest.approx(lam_star, abs=1e-12)
        score = r - lam_star
        gain = np.abs(score)
        cap = np.where(score > 0, b - w, w - a)
        budget = lam * k
        best = float(np.dot(score, w))
        for j in np.argsort(-gain):
            move = min(cap[j], budget)
            best += gain[j] * move
            budget -= move
            if budget <= 0:
                break
        scale = float(np.abs(r) @ b)
        assert best <= float(np.dot(score, W)) + 1e-9 * scale
        if k == 10**5:
            assert elapsed < 2.0, f"solve_budgeted took {elapsed:.2f}s at k={k}"
