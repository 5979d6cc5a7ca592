import numpy as np
import pytest

from crpolicy import UncertaintySpec, budget_from_fraction, weight_bounds
from crpolicy.data import ArmIndex
from crpolicy.exceptions import EmptyArmError


class TestWeightBounds:
    def test_hand_value(self):
        a, b = weight_bounds(np.array([3.0]), 2.0)
        assert a[0] == pytest.approx(2.0) and b[0] == pytest.approx(5.0)

    def test_gamma_one_collapses(self):
        w = np.array([1.0, 1.7, 12.3])
        a, b = weight_bounds(w, 1.0)
        assert np.array_equal(a, w) and np.array_equal(b, w)

    def test_unit_weight_degenerate(self):
        a, b = weight_bounds(np.array([1.0]), 37.0)
        assert a[0] == 1.0 and b[0] == 1.0

    def test_bracket_order(self):
        rng = np.random.default_rng(0)
        w = 1.0 / rng.uniform(0.01, 1.0, 200)
        a, b = weight_bounds(w, 1.8)
        assert np.all(a <= w + 1e-12) and np.all(w <= b + 1e-12)

    def test_nesting_in_gamma(self):
        rng = np.random.default_rng(1)
        w = 1.0 / rng.uniform(0.05, 1.0, 100)
        a1, b1 = weight_bounds(w, 1.5)
        a2, b2 = weight_bounds(w, 2.5)
        assert np.all(a2 <= a1) and np.all(b1 <= b2)

    def test_max_deviation_is_upper_side(self):
        rng = np.random.default_rng(2)
        w = 1.0 / rng.uniform(0.05, 1.0, 100)
        for gamma in (1.0, 1.3, 4.0):
            a, b = weight_bounds(w, gamma)
            dev = np.maximum(w - a, b - w)
            assert np.allclose(dev, (gamma - 1.0) * (w - 1.0))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            weight_bounds(np.array([0.9]), 1.5)
        with pytest.raises(ValueError):
            weight_bounds(np.array([np.inf]), 1.5)
        with pytest.raises(ValueError):
            weight_bounds(np.array([2.0]), 0.8)

    def test_overflowing_bounds_refused(self):
        # Each b_i = 1 + 1e308 is finite, but not the sum of the 2 bounds.
        with pytest.raises(ValueError, match="gamma=1e"):
            weight_bounds(np.array([2.0, 2.0]), 1e308)
        a, b = weight_bounds(np.array([2.0]), 1e308)
        assert b[0] == 1e308 and np.isfinite(a[0])


class TestBudget:
    def _spec(self, w, gamma):
        return UncertaintySpec.from_weights(np.asarray(w, dtype=float), gamma)

    def test_rho_zero(self):
        spec = self._spec([2.0, 3.0], 2.0)
        arms = ArmIndex.from_labels([0, 0], 1)
        assert np.array_equal(budget_from_fraction(spec, arms, 0.0), [0.0])

    def test_hand_value(self):
        spec = self._spec([2.0, 3.0], 2.0)
        arms = ArmIndex.from_labels([0, 0], 1)
        lam = budget_from_fraction(spec, arms, 1.0)
        assert lam[0] == pytest.approx(1.5)
        assert budget_from_fraction(spec, arms, 0.4)[0] == pytest.approx(0.6)

    def test_gamma_one_zero_budget(self):
        spec = self._spec([2.0, 3.0, 1.5], 1.0)
        arms = ArmIndex.from_labels([0, 1, 0], 2)
        assert np.allclose(budget_from_fraction(spec, arms, 0.7), 0.0)

    def test_linear_in_rho(self):
        rng = np.random.default_rng(3)
        spec = self._spec(1.0 / rng.uniform(0.1, 1.0, 30), 1.7)
        arms = ArmIndex.from_labels(rng.integers(0, 2, 30), 2)
        l1 = budget_from_fraction(spec, arms, 0.25)
        l2 = budget_from_fraction(spec, arms, 0.75)
        assert np.allclose(3.0 * l1, l2)

    def test_empty_arm_named(self):
        spec = self._spec([2.0, 3.0], 2.0)
        arms = ArmIndex.from_labels([0, 0], 2)
        with pytest.raises(EmptyArmError, match="arm 1"):
            budget_from_fraction(spec, arms, 0.5)


class TestSpec:
    def test_from_propensities(self):
        spec = UncertaintySpec.from_propensities(np.array([0.5, 0.25]), 1.5)
        assert np.allclose(spec.w_tilde, [2.0, 4.0])
        assert np.allclose(spec.a, [1 + 1 / 1.5, 3.0])
        assert np.allclose(spec.b, [2.5, 5.5])

    def test_rejects_propensity_above_one(self):
        with pytest.raises(ValueError):
            UncertaintySpec.from_propensities(np.array([1.2]), 1.5)

    def test_budget_sign(self):
        with pytest.raises(ValueError):
            UncertaintySpec.from_weights(np.array([2.0]), 1.5, lam=[-0.1])

    @pytest.mark.parametrize("lam", [[np.nan], [np.inf], [0.1, -np.inf], [-0.1]])
    def test_bad_budgets_refused_when_built(self, lam):
        message = "per-arm budgets must be finite and non-negative"
        with pytest.raises(ValueError, match=message):
            UncertaintySpec.from_weights([2.0, 3.0, 4.0], 1.5, lam=lam)
        with pytest.raises(ValueError, match=message):
            UncertaintySpec.from_weights([2.0, 3.0, 4.0], 1.5).with_budget(lam)

    def test_immutable(self):
        spec = UncertaintySpec.from_weights(np.array([2.0]), 1.5)
        with pytest.raises(ValueError):
            spec.a[0] = 5.0
