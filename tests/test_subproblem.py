import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crpolicy import solve_box, solve_budgeted, weight_bounds
from crpolicy.evaluation.estimators import ArmKernel
from crpolicy.subproblem import arm_budget, box_order, box_rows, solve_rows, threshold_values
from oracles import oracle_box, oracle_budgeted, reference_budgeted


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


def _same_solution(sol, ref):
    """Value, weights and multiplier equal to the bit (a NaN value equals a NaN)."""
    assert np.float64(sol.value).tobytes() == np.float64(ref.value).tobytes()
    assert sol.weights.tobytes() == ref.weights.tobytes()
    assert (sol.multiplier is None) == (ref.multiplier is None)
    if ref.multiplier is not None:
        assert np.float64(sol.multiplier).tobytes() == np.float64(ref.multiplier).tobytes()


class TestBudgetedCore:
    """`solve_budgeted` and the kernel's budgeted rows equal the one-row
    Dinkelbach loop they replaced (`reference_budgeted`), to the bit."""

    @staticmethod
    def _contrasts(rng, kind, rows, k):
        r = rng.standard_normal((rows, k))
        if kind == "rounded":
            r = np.round(r, 1)
        elif kind == "binary":  # (pi - pi0) Y with Y in {0, 1}: zeros of either sign, coarse values
            r = np.round(rng.uniform(-1.0, 1.0, (rows, k)), 2) * (rng.random((rows, k)) < 0.5)
            r[r == 0.0] *= np.where(rng.random(np.count_nonzero(r == 0.0)) < 0.5, -1.0, 1.0)
        return r

    @staticmethod
    def _budget(rng, mode, r, a, b, w):
        """lam = 0, a budget that binds on every row, one slack on every row, or
        the median row's box deviation per unit, so slack and binding rows mix."""
        k = r.shape[1]
        if mode == "zero":
            return 0.0
        if mode == "slack":
            return float(np.maximum(w - a, b - w).mean())
        if mode == "binding":
            return float(rng.uniform(0.02, 0.3)) * float(np.maximum(w - a, b - w).mean())
        return float(np.median([np.abs(solve_box(row, a, b).weights - w).sum() for row in r])) / k

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 150),
        st.integers(1, 60),
        st.sampled_from(["normal", "rounded", "binary"]),
        st.sampled_from(["zero", "binding", "slack", "mixed"]),
        st.sampled_from([1.0, 1.5, 3.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_reference_loop(self, rows, k0, k1, kind, mode, gamma, seed):
        from crpolicy import Dataset, UncertaintySpec

        rng = np.random.default_rng(seed)
        T = rng.permutation(np.repeat([0, 1], [k0, k1]))
        data = Dataset(X=np.zeros((T.size, 1)), T=T, Y=np.ones(T.size), m=2,
                       e_hat=rng.choice([0.1, 0.25, 0.5, 0.8], T.size))
        spec = UncertaintySpec.from_dataset(data, gamma)
        r = self._contrasts(rng, kind, rows, T.size)
        lams = []
        for idx in data.arms().indices:
            w, a, b = spec.restrict(idx)
            lams.append(self._budget(rng, mode, r[:, idx], a, b, w))
        spec = spec.with_budget(lams)
        shares = ArmKernel(spec, data.arms()).shares(r)
        for idx, lam in zip(data.arms().indices, lams):
            w, a, b = spec.restrict(idx)
            _, values, multipliers, _ = solve_rows(r.take(idx, axis=1), a, b, arm_budget(a, b, w, lam))
            assert (multipliers is None) == (lam == 0.0)
            for j in range(rows):
                ref = reference_budgeted(r[j, idx], a, b, w, lam)
                _same_solution(solve_budgeted(r[j, idx], a, b, w, lam), ref)
                assert shares[j, idx].tobytes() == (ref.weights / ref.weights.sum()).tobytes()
                assert values[j].tobytes() == np.float64(ref.value).tobytes()
                if multipliers is not None:
                    assert multipliers[j].tobytes() == np.float64(ref.multiplier).tobytes()

    def test_binds_only_past_the_nearest_corner(self):
        # No box corner deviates from w_tilde by less than the nearest one.
        rng = np.random.default_rng(22)
        _, a, b, w = _random_instance(rng, k=30, gamma=2.0)
        least = float(np.minimum(b - w, w - a).sum())
        assert arm_budget(a, b, w, least / 30 * (1 - 1e-9)).binds
        assert not arm_budget(a, b, w, least / 30).binds

    def test_one_block_mixes_slack_and_binding_rows(self):
        rng = np.random.default_rng(21)
        r = self._contrasts(rng, "rounded", 6, 40)
        _, a, b, w = _random_instance(rng, k=40, gamma=2.0)
        lam = self._budget(rng, "mixed", r, a, b, w)
        budget = arm_budget(a, b, w, lam)
        assert not budget.binds
        weights, values, multipliers, _ = solve_rows(r, a, b, budget)
        assert 0 < np.count_nonzero(multipliers) < len(r)
        for j, row in enumerate(r):
            ref = reference_budgeted(row, a, b, w, lam)
            _same_solution(solve_budgeted(row, a, b, w, lam), ref)
            assert weights[j].tobytes() == ref.weights.tobytes()
            assert (values[j], multipliers[j]) == (ref.value, ref.multiplier)


def _tied_rows(rng, rows):
    """A block of contrast rows over one arm's bounds, with heavy ties in r
    and in b - a (and some signed zeros in r)."""
    k = int(rng.integers(1, 301))
    a = 1.0 + rng.integers(0, 3, k) * 0.5
    b = a + rng.integers(0, 3, k) * 0.25
    r = rng.integers(-2, 3, (rows, k)) * 0.5
    r[rows // 2 :] += rng.standard_normal((rows - rows // 2, k)) * (rng.random(k) < 0.5)
    r[r == 0.0] *= np.where(rng.random(np.count_nonzero(r == 0.0)) < 0.5, -1.0, 1.0)
    return r, a, b


class TestBoxRows:
    """The batched box core row by row equals `solve_box`, to the bit."""

    def test_rows_equal_solve_box(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 2000:
            r, a, b = _tied_rows(rng, 25)
            pre = np.argsort(b - a, kind="stable")
            order = pre[np.argsort(r[:, pre], axis=1, kind="stable")]
            lams, weights, cuts = box_rows(r, a, b, order)
            solved, values, thresholds, _ = solve_rows(r, a, b, pre=pre)
            for j in range(r.shape[0]):
                sol = solve_box(r[j], a, b)
                k_star = int(np.argmax(lams[j]))
                assert weights[j].tobytes() == sol.weights.tobytes() == solved[j].tobytes()
                assert (float(lams[j, k_star]), k_star + 1, cuts[j] + 1) == (sol.value, sol.threshold, sol.threshold)
                assert (float(values[j]), int(thresholds[j])) == (sol.value, sol.threshold)
                single, row_order = threshold_values(r[j], a, b)
                assert lams[j].tobytes() == single.tobytes()
                assert np.array_equal(order[j], row_order)
                checked += 1

    def test_threshold_order_is_lexsort(self):
        rng = np.random.default_rng(12)
        for _ in range(80):
            r, a, b = _tied_rows(rng, 25)
            for row in r:
                assert np.array_equal(threshold_values(row, a, b)[1], np.lexsort((b - a, row)))

    @pytest.mark.parametrize("rho", [None, 0.4])
    def test_kernel_shares_equal_worst_case_solution(self, rho, monkeypatch):
        from crpolicy import Dataset, UncertaintySpec
        from crpolicy import subproblem
        from crpolicy.evaluation.estimators import worst_case_solution

        def checked_box_rows(r, a, b, order):
            # The kernel's batched sort is the lexicographic order on (r, b - a).
            for row, row_order in zip(r, order):
                assert np.array_equal(row_order, np.lexsort((b - a, row)))
            return box_rows(r, a, b, order)

        monkeypatch.setattr(subproblem, "box_rows", checked_box_rows)
        rng = np.random.default_rng(13)
        for _ in range(20):
            n, m = int(rng.integers(3, 200)), int(rng.integers(2, 4))
            T = rng.permutation(np.arange(n) % m)
            data = Dataset(X=np.zeros((n, 1)), T=T, Y=np.ones(n), m=m, e_hat=rng.uniform(0.1, 0.9, n) / m)
            spec = UncertaintySpec.from_dataset(data, float(rng.uniform(1.0, 3.0)), rho=rho)
            r = np.round(rng.standard_normal((7, n)), 1)
            shares = ArmKernel(spec, data.arms()).shares(r)
            for j in range(r.shape[0]):
                W, _ = worst_case_solution(r[j], spec, data.arms())
                for idx in data.arms().indices:
                    assert (shares[j, idx]).tobytes() == (W[idx] / W[idx].sum()).tobytes()

    @staticmethod
    def _binary_contrasts(rng, rows, k):
        """(pi - pi0) Y for a binary outcome Y: about half the entries exactly 0, of
        either sign, and the rest on a coarse grid, so nonzero values tie too."""
        return np.round(rng.uniform(-1.0, 1.0, (rows, k)), 2) * (rng.random((rows, k)) < 0.5)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("stable", [False, True])
    def test_order_is_lexsort_on_binary_contrasts(self, rows, stable):
        rng = np.random.default_rng(14)
        k = 10**4
        a, b = weight_bounds(1.0 / rng.choice([0.2, 0.5, 0.8], k), 1.5)  # ties in b - a too
        pre = np.argsort(b - a, kind="stable")
        tied = self._binary_contrasts(rng, rows, k)
        assert np.signbit(tied[tied == 0.0]).any() and not np.signbit(tied[tied == 0.0]).all()
        distinct = rng.standard_normal((rows, k))
        mixed = np.vstack([distinct[:-1], tied[-1:]])
        for r, has_tie in ((tied, True), (distinct, False), (mixed, True)):
            for given in (None, pre):
                order, found = box_order(r, a, b, given, stable)
                assert found == has_tie
                for row, row_order in zip(r, order):
                    assert np.array_equal(row_order, np.lexsort((b - a, row)))

    def test_signed_zeros_are_a_tie(self):
        # Distinct contrasts but one 0.0 and one -0.0: lexsort orders the pair by b - a.
        rng = np.random.default_rng(17)
        k = 4000
        a = np.full(k, 1.0)
        b = 1.0 + rng.permutation(k) / k
        for _ in range(20):
            r = rng.standard_normal((1, k))
            i, j = rng.choice(k, 2, replace=False)
            r[0, i], r[0, j] = 0.0, -0.0
            order, tied = box_order(r, a, b)
            assert tied and np.array_equal(order[0], np.lexsort((b - a, r[0])))

    def test_order_is_lexsort_at_every_size(self):
        # Small blocks sort stably outright, larger ones by the SIMD sort and a tie repair.
        rng = np.random.default_rng(16)
        for _ in range(60):
            rows, k = int(rng.integers(1, 5)), int(rng.integers(1, 1500))
            a = 1.0 + rng.integers(0, 3, k) * 0.5
            b = a + rng.integers(0, 3, k) * 0.25
            r = rng.standard_normal((rows, k))
            if rng.random() < 0.5:
                r = self._binary_contrasts(rng, rows, k)
            for stable in (False, True):
                order, _ = box_order(r, a, b, stable=stable)
                for row, row_order in zip(r, order):
                    assert np.array_equal(row_order, np.lexsort((b - a, row)))

    @pytest.mark.parametrize("rho", [None, 0.2, 0.8])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_kernel_on_binary_contrasts_equals_worst_case_solution(self, rows, rho, monkeypatch):
        from crpolicy import Dataset, UncertaintySpec
        from crpolicy import subproblem
        from crpolicy.evaluation.estimators import worst_case_solution

        def checked_box_rows(r, a, b, order):
            for row, row_order in zip(r, order):
                assert np.array_equal(row_order, np.lexsort((b - a, row)))
            return box_rows(r, a, b, order)

        monkeypatch.setattr(subproblem, "box_rows", checked_box_rows)
        rng = np.random.default_rng(15)
        n = 2 * 10**4
        data = Dataset(X=np.zeros((n, 1)), T=np.arange(n) % 2, Y=np.ones(n), m=2,
                       e_hat=rng.choice([0.2, 0.5, 0.8], n))
        spec = UncertaintySpec.from_dataset(data, 1.5, rho=rho)
        kernel = ArmKernel(spec, data.arms())
        # At rho = 0.2 every box corner overspends the budget (the nearer bound is 2/3 of the
        # farther one at gamma = 1.5), so no row needs the box solve and nothing is sorted.
        sorts = rho != 0.2
        assert [budget is None or not budget.binds for budget in kernel.budgets] == [sorts, sorts]
        tied = self._binary_contrasts(rng, rows, n)
        distinct = rng.standard_normal((rows, n))
        # Tied, then not, then tied again: the kernel's stable-first guess follows the last call.
        for r, flags in ((tied, [True, True]), (distinct, [False, False]), (tied, [True, True])):
            shares = kernel.shares(r)
            assert kernel.tied == (flags if sorts else [False, False])
            for j in range(rows):
                W, _ = worst_case_solution(r[j], spec, data.arms())
                for idx in data.arms().indices:
                    assert shares[j, idx].tobytes() == (W[idx] / W[idx].sum()).tobytes()
