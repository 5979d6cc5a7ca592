import numpy as np
import pytest

from crpolicy import (
    CalibrationMatrix,
    ConstantPolicy,
    Dataset,
    FitOptions,
    LogisticPolicy,
    SimParamsBinary,
    SimParamsMulti,
    UncertaintySpec,
    calibration_matrix,
    control_baseline,
    hajek_regret,
    ht_test_regret,
    ipw_value,
    odds_ratio_audit,
    simulate_binary,
    simulate_multi,
    subgradient_fit,
    tree_partition_fit,
    true_regret,
    uniform_baseline,
    weight_bounds,
    worst_case_regret,
    worst_case_weights,
)
from crpolicy.data import softmax
from crpolicy.evaluation.estimators import ArmKernel, worst_case_solution
from crpolicy.exceptions import EmptyArmError
from oracles import oracle_box


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


TREAT_ALL = ConstantPolicy(np.array([0.0, 1.0]))
NEVER_TREAT = control_baseline(2)


def two_row_data():
    return Dataset(
        X=np.zeros((2, 1)),
        T=[1, 0],
        Y=[-2.0, 1.0],
        m=2,
        e_hat=[0.5, 0.5],
    )


class TestHajek:
    def test_baseline_vs_itself_is_zero(self):
        rng = np.random.default_rng(0)
        data = Dataset(
            X=rng.standard_normal((30, 2)),
            T=rng.integers(0, 2, 30),
            Y=rng.standard_normal(30),
            m=2,
        )
        W = rng.uniform(1, 5, 30)
        assert hajek_regret(NEVER_TREAT, NEVER_TREAT, data, W) == 0.0

    def test_hand_value(self):
        assert hajek_regret(TREAT_ALL, NEVER_TREAT, two_row_data(), np.ones(2)) == pytest.approx(-3.0)

    def test_per_arm_scale_invariance(self):
        rng = np.random.default_rng(1)
        data = Dataset(
            X=rng.standard_normal((40, 2)),
            T=rng.integers(0, 2, 40),
            Y=rng.standard_normal(40),
            m=2,
        )
        pol = LogisticPolicy(rng.normal(0, 1, (1, 3)))
        W = rng.uniform(1, 4, 40)
        v1 = hajek_regret(pol, NEVER_TREAT, data, W)
        W2 = W.copy()
        W2[data.T == 0] *= 7.0
        W2[data.T == 1] *= 0.3
        assert hajek_regret(pol, NEVER_TREAT, data, W2) == pytest.approx(v1, abs=1e-12)

    def test_empty_arm(self):
        data = Dataset(X=np.zeros((2, 1)), T=[0, 0], Y=[1.0, 2.0], m=2)
        with pytest.raises(EmptyArmError):
            hajek_regret(TREAT_ALL, NEVER_TREAT, data, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights(self, bad):
        W = np.array([1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            hajek_regret(TREAT_ALL, NEVER_TREAT, two_row_data(), W)


class TestArmSetup:
    """Each per-arm caller checks the spec against the arms alike and names itself on an empty arm."""

    def _data(self, T):
        return Dataset(X=np.zeros((len(T), 1)), T=T, Y=np.arange(len(T), dtype=float), m=2, e_hat=np.full(len(T), 0.5))

    def test_empty_arm_names_the_caller(self):
        data = self._data([0, 0, 0])
        spec = UncertaintySpec.from_dataset(data, 1.5)
        r = np.ones(3)
        with pytest.raises(EmptyArmError, match=r"arm 1 has no observations \(worst_case_solution\)"):
            worst_case_solution(r, spec, data.arms())
        with pytest.raises(EmptyArmError, match=r"arm 1 has no observations \(ArmKernel\)"):
            ArmKernel(spec, data.arms())
        with pytest.raises(EmptyArmError, match=r"arm 1 has no observations \(tree_partition_fit\)"):
            tree_partition_fit(data, spec, NEVER_TREAT, depth=1)

    def test_spec_checks(self):
        data = self._data([0, 1, 0, 1])
        other = UncertaintySpec.from_propensities(np.full(6, 0.5), 1.5)
        budget = UncertaintySpec.from_dataset(data, 1.5).with_budget(np.ones(3))
        for spec, message in ((other, "does not match the dataset"), (budget, "budget vector has 3 entries")):
            with pytest.raises(ValueError, match=message):
                worst_case_solution(np.ones(4), spec, data.arms())
            with pytest.raises(ValueError, match=message):
                ArmKernel(spec, data.arms())

    def test_kernel_validates_bounds(self):
        data = self._data([0, 1])
        spec = UncertaintySpec(gamma=1.0, w_tilde=np.ones(2), a=np.array([1.0, 2.0]), b=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="need a_i <= b_i"):
            ArmKernel(spec, data.arms())


class TestWorstCase:
    def test_gamma_one_equals_hajek_at_nominal(self):
        rng = np.random.default_rng(2)
        data = Dataset(
            X=rng.standard_normal((50, 2)),
            T=rng.integers(0, 2, 50),
            Y=rng.standard_normal(50),
            m=2,
            e_hat=rng.uniform(0.2, 0.8, 50),
        )
        pol = LogisticPolicy(rng.normal(0, 1, (1, 3)))
        spec = UncertaintySpec.from_dataset(data, 1.0)
        assert worst_case_regret(pol, NEVER_TREAT, data, spec) == pytest.approx(
            hajek_regret(pol, NEVER_TREAT, data, 1.0 / data.e_hat), abs=1e-12
        )

    def test_baseline_is_zero_for_any_gamma(self):
        rng = np.random.default_rng(3)
        data = Dataset(
            X=rng.standard_normal((30, 1)),
            T=rng.integers(0, 2, 30),
            Y=rng.standard_normal(30),
            m=2,
            e_hat=rng.uniform(0.3, 0.7, 30),
        )
        for gamma in (1.0, 1.5, 4.0):
            spec = UncertaintySpec.from_dataset(data, gamma)
            assert worst_case_regret(NEVER_TREAT, NEVER_TREAT, data, spec) == pytest.approx(0.0, abs=1e-12)

    def test_equals_sum_of_arm_oracles(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = 14
            data = Dataset(
                X=rng.standard_normal((n, 2)),
                T=np.array([0] * 7 + [1] * 7),
                Y=rng.standard_normal(n),
                m=2,
                e_hat=rng.uniform(0.2, 0.9, n),
            )
            pol = LogisticPolicy(rng.normal(0, 2, (1, 3)))
            spec = UncertaintySpec.from_dataset(data, 2.0)
            r = (pol.observed_prob(data.X, data.T) - NEVER_TREAT.observed_prob(data.X, data.T)) * data.Y
            total = sum(
                oracle_box(r[data.T == t], spec.a[data.T == t], spec.b[data.T == t]) for t in (0, 1)
            )
            assert worst_case_regret(pol, NEVER_TREAT, data, spec) == pytest.approx(total, abs=1e-9)

    def test_three_arm_oracle_sum(self):
        rng = np.random.default_rng(14)
        n = 18
        T = np.repeat([0, 1, 2], 6)
        data = Dataset(
            X=rng.standard_normal((n, 2)),
            T=T,
            Y=rng.standard_normal(n),
            m=3,
            e_hat=rng.uniform(0.15, 0.8, n),
        )
        pol = LogisticPolicy(rng.normal(0, 1.5, (2, 3)))
        pi0 = control_baseline(3)
        spec = UncertaintySpec.from_dataset(data, 1.8)
        r = (pol.observed_prob(data.X, data.T) - pi0.observed_prob(data.X, data.T)) * data.Y
        total = sum(
            oracle_box(r[T == t], spec.a[T == t], spec.b[T == t]) for t in range(3)
        )
        assert worst_case_regret(pol, pi0, data, spec) == pytest.approx(total, abs=1e-9)

    def test_weights_attain_value(self):
        rng = np.random.default_rng(5)
        data = Dataset(
            X=rng.standard_normal((40, 2)),
            T=rng.integers(0, 2, 40),
            Y=rng.standard_normal(40),
            m=2,
            e_hat=rng.uniform(0.2, 0.8, 40),
        )
        pol = LogisticPolicy(rng.normal(0, 1, (1, 3)))
        spec = UncertaintySpec.from_dataset(data, 1.7)
        W, value = worst_case_weights(pol, NEVER_TREAT, data, spec)
        assert hajek_regret(pol, NEVER_TREAT, data, W) == pytest.approx(value, abs=1e-9)
        assert value == pytest.approx(worst_case_regret(pol, NEVER_TREAT, data, spec), abs=1e-12)

    @pytest.mark.parametrize("fn", [worst_case_regret, worst_case_weights])
    def test_spec_of_another_length_is_refused(self, fn):
        rng = np.random.default_rng(8)
        data = Dataset(
            X=rng.standard_normal((30, 2)),
            T=rng.integers(0, 2, 30),
            Y=rng.standard_normal(30),
            m=2,
            e_hat=rng.uniform(0.2, 0.8, 30),
        )
        pol = LogisticPolicy(rng.normal(0, 1, (1, 3)))
        spec = UncertaintySpec.from_propensities(np.tile(data.e_hat, 2), 1.5)
        with pytest.raises(ValueError, match="does not match"):
            fn(pol, NEVER_TREAT, data, spec)

    @pytest.mark.parametrize("size", [1, 3])
    def test_budget_vector_of_another_length_is_refused(self, size):
        rng = np.random.default_rng(9)
        data = Dataset(
            X=rng.standard_normal((30, 2)),
            T=np.arange(30) % 2,
            Y=rng.standard_normal(30),
            m=2,
            e_hat=rng.uniform(0.2, 0.8, 30),
        )
        pol = LogisticPolicy(rng.normal(0, 1, (1, 3)))
        spec = UncertaintySpec.from_propensities(data.e_hat, 1.5, lam=np.full(size, 0.5))
        with pytest.raises(ValueError, match=f"budget vector has {size} entries for 2 arms"):
            worst_case_regret(pol, NEVER_TREAT, data, spec)
        with pytest.raises(ValueError, match=f"budget vector has {size} entries for 2 arms"):
            subgradient_fit(data, spec, NEVER_TREAT, FitOptions(iters=2, restarts=1))

    def test_perturbation_bound(self):
        # Estimated propensities move the worst-case regret by at most
        # 2 B (gamma + 1/gamma) * mean |Delta W|.
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(20, 60))
            T = rng.integers(0, 2, n)
            if min((T == 0).sum(), (T == 1).sum()) == 0:
                continue
            data = Dataset(
                X=rng.standard_normal((n, 3)),
                T=T,
                Y=rng.uniform(-3, 3, n),
                m=2,
                e_hat=rng.uniform(0.1, 0.9, n),
            )
            gamma = float(rng.choice([1.5, 2.0]))
            pol = LogisticPolicy(rng.normal(0, 2, (1, 4)))
            e2 = np.clip(data.e_hat * rng.uniform(0.8, 1.2, n), 1e-6, 1.0)
            data2 = data.with_propensities(e2)
            shift = abs(
                worst_case_regret(pol, NEVER_TREAT, data, UncertaintySpec.from_dataset(data, gamma))
                - worst_case_regret(pol, NEVER_TREAT, data2, UncertaintySpec.from_dataset(data2, gamma))
            )
            B = np.abs(data.Y).max()
            bound = 2 * B * (gamma + 1 / gamma) * np.mean(np.abs(1 / data.e_hat - 1 / e2))
            assert shift <= bound + 1e-9


class TestIPW:
    def test_hand_value(self):
        assert ipw_value(TREAT_ALL, two_row_data()) == pytest.approx(-2.0)

    def test_uniform_policy_and_propensities_give_mean(self):
        rng = np.random.default_rng(7)
        data = Dataset(
            X=rng.standard_normal((21, 1)),
            T=rng.integers(0, 3, 21),
            Y=rng.standard_normal(21),
            m=3,
            e_hat=np.full(21, 1 / 3),
        )
        assert ipw_value(uniform_baseline(3), data) == pytest.approx(data.Y.mean(), abs=1e-12)

    def test_zero_outcomes(self):
        data = Dataset(X=np.zeros((4, 1)), T=[0, 1, 0, 1], Y=np.zeros(4), m=2, e_hat=np.full(4, 0.5))
        assert ipw_value(TREAT_ALL, data) == 0.0

    def test_requires_propensities(self):
        data = Dataset(X=np.zeros((2, 1)), T=[0, 1], Y=[1.0, 2.0], m=2)
        with pytest.raises(ValueError):
            ipw_value(TREAT_ALL, data)

    def test_overflowing_outcomes_refused(self):
        # Y / e_hat passes the float range: refused before numpy divides, so
        # no RuntimeWarning (an error under this suite) and no inf.
        rng = np.random.default_rng(8)
        n = 200
        data = Dataset(X=np.zeros((n, 1)), T=np.arange(n) % 2, Y=1e306 * rng.uniform(0.5, 1.0, n), m=2,
                       e_hat=np.full(n, 1e-3))
        with pytest.raises(ValueError, match=r"^outcomes up to 9\.\d+e\+305 overflow the weighted sums$"):
            ipw_value(uniform_baseline(2), data)
        # A million times smaller, they are summed, finitely.
        small = Dataset(X=data.X, T=data.T, Y=data.Y * 1e-6, m=2, e_hat=data.e_hat)
        assert np.isfinite(ipw_value(uniform_baseline(2), small))


class TestHorvitzThompson:
    def test_baseline_zero(self):
        data = two_row_data()
        assert ht_test_regret(NEVER_TREAT, NEVER_TREAT, data, [0.5, 0.5]) == 0.0

    def test_hand_value(self):
        data = Dataset(X=np.zeros((2, 1)), T=[1, 0], Y=[1.0, 2.0], m=2)
        assert ht_test_regret(TREAT_ALL, NEVER_TREAT, data, [0.5, 0.5]) == pytest.approx(-1.0)

    def test_linearity_in_outcomes(self):
        rng = np.random.default_rng(8)
        data = Dataset(
            X=rng.standard_normal((30, 2)),
            T=rng.integers(0, 2, 30),
            Y=rng.standard_normal(30),
            m=2,
        )
        doubled = Dataset(X=data.X, T=data.T, Y=2 * data.Y, m=2)
        pol = LogisticPolicy(rng.normal(0, 1, (1, 3)))
        v = ht_test_regret(pol, NEVER_TREAT, data, [0.5, 0.5])
        assert ht_test_regret(pol, NEVER_TREAT, doubled, [0.5, 0.5]) == pytest.approx(2 * v, abs=1e-12)

    def test_zero_probability_observed_arm(self):
        data = Dataset(X=np.zeros((2, 1)), T=[1, 0], Y=[1.0, 2.0], m=2)
        with pytest.raises(ValueError, match="arm"):
            ht_test_regret(TREAT_ALL, NEVER_TREAT, data, [1.0, 0.0])

    @pytest.mark.parametrize("p", [[np.nan, 1.0], [0.5, np.nan], [np.inf, 1.0], [-np.inf, np.inf]])
    def test_non_finite_probabilities_refused(self, p):
        data = Dataset(X=np.zeros((2, 1)), T=[1, 0], Y=[1.0, 2.0], m=2)
        with pytest.raises(ValueError, match="must be finite"):
            ht_test_regret(TREAT_ALL, NEVER_TREAT, data, p)


class TestTrueRegret:
    def _sim_data(self):
        rng = np.random.default_rng(9)
        n = 200
        y0 = rng.standard_normal(n)
        y1 = y0 + rng.standard_normal(n)
        T = rng.integers(0, 2, n)
        Y = np.where(T == 1, y1, y0)
        return Dataset(
            X=rng.standard_normal((n, 2)),
            T=T,
            Y=Y,
            m=2,
            potential_Y=np.column_stack([y0, y1]),
        )

    def test_baseline_zero(self):
        data = self._sim_data()
        assert true_regret(NEVER_TREAT, NEVER_TREAT, data) == 0.0

    def test_treat_all_is_mean_effect(self):
        data = self._sim_data()
        expected = np.mean(data.potential_Y[:, 1] - data.potential_Y[:, 0])
        assert true_regret(TREAT_ALL, NEVER_TREAT, data) == pytest.approx(expected, abs=1e-12)

    def test_uniform_vs_uniform_zero(self):
        data = self._sim_data()
        assert true_regret(uniform_baseline(2), uniform_baseline(2), data) == 0.0

    def test_requires_counterfactuals(self):
        with pytest.raises(ValueError):
            true_regret(TREAT_ALL, NEVER_TREAT, two_row_data())


class TestSimulateBinary:
    def test_bound_attainment(self):
        sim = simulate_binary(SimParamsBinary(n=10000, seed=3))
        a, b = weight_bounds(1.0 / sim.data.e_hat, 1.5)
        at_a = np.isclose(sim.w_star, a, rtol=1e-12, atol=0)
        at_b = np.isclose(sim.w_star, b, rtol=1e-12, atol=0)
        assert np.all(at_a | at_b)
        assert np.all(a - 1e-12 <= sim.w_star) and np.all(sim.w_star <= b + 1e-12)

    def test_treated_arm_hand_values(self):
        # At nominal treatment propensity 1/2: helped units sit at the upper
        # weight bound 2.5, others at the lower bound 5/3.
        sim = simulate_binary(SimParamsBinary(n=4000, seed=4))
        e_treat = sim.e_treat
        treated = sim.data.T == 1
        near_half = treated & (np.abs(e_treat - 0.5) < 1e-3)
        if near_half.any():
            w = sim.w_star[near_half]
            g = sim.g[near_half]
            assert np.allclose(w[g == 1], 2.5, atol=1e-2)
            assert np.allclose(w[g == 0], 5.0 / 3.0, atol=1e-2)

    def test_consistency_and_shapes(self):
        sim = simulate_binary(SimParamsBinary(n=500, seed=5))
        data = sim.data
        assert data.m == 2 and data.d == 5
        assert np.array_equal(data.Y, data.potential_Y[np.arange(500), data.T])
        assert np.all((0 < data.e_hat) & (data.e_hat < 1))

    def test_effect_structure(self):
        p = SimParamsBinary(n=2000, seed=6)
        sim = simulate_binary(p)
        effect = sim.data.potential_Y[:, 1] - sim.data.potential_Y[:, 0]
        expected = sim.data.X @ p.beta_treat + p.alpha
        assert np.allclose(effect, expected, atol=1e-12)
        assert np.array_equal(sim.g, (effect < 0).astype(int))

    @staticmethod
    def _two_branch_sigmoid(z):
        """The generator's former logistic link, the reference for softmax of [0, z]."""
        out = np.empty_like(z, dtype=float)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 800.0])
    def test_softmax_of_zero_and_z_is_the_two_branch_sigmoid(self, scale):
        edges = [0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 800.0, -800.0]
        z = np.concatenate([edges, scale * np.random.default_rng(17).standard_normal(10**5)])
        got = softmax(np.column_stack([np.zeros_like(z), z]))[:, 1]
        assert got.tobytes() == self._two_branch_sigmoid(z).tobytes()

    def test_nominal_propensity_bits(self):
        p = SimParamsBinary(n=3000, seed=8)
        sim = simulate_binary(p)
        z = p.beta_prop[0] + sim.data.X @ p.beta_prop[1:]
        assert sim.e_treat.tobytes() == self._two_branch_sigmoid(z).tobytes()

    def test_deterministic(self):
        s1 = simulate_binary(SimParamsBinary(n=100, seed=7))
        s2 = simulate_binary(SimParamsBinary(n=100, seed=7))
        assert np.array_equal(s1.data.X, s2.data.X)
        assert np.array_equal(s1.data.T, s2.data.T)
        assert np.array_equal(s1.w_star, s2.w_star)


class TestSimulateMulti:
    def test_support_and_shapes(self):
        sim = simulate_multi(SimParamsMulti(n=3000, seed=8))
        data = sim.data
        assert data.m == 3 and data.d == 5
        assert data.X.min() >= -3.0 and data.X.max() <= 3.0
        assert np.array_equal(data.Y, data.potential_Y[np.arange(3000), data.T])

    def test_zero_eta_removes_shock(self):
        p = SimParamsMulti(n=1000, seed=9, eta=np.zeros(3))
        sim = simulate_multi(p)
        # With no shock coefficients the arm contrasts are exact functions of X.
        gap10 = sim.data.potential_Y[:, 1] - sim.data.potential_Y[:, 0]
        assert np.allclose(gap10, sim.data.X @ p.beta_t1 + p.alpha[1], atol=1e-12)

    def test_arm2_gap_is_half(self):
        sim = simulate_multi(SimParamsMulti(n=50000, seed=10))
        gap = np.mean(sim.data.potential_Y[:, 2] - sim.data.potential_Y[:, 0])
        assert gap == pytest.approx(0.5, abs=0.1)

    def test_nominal_propensities_valid(self):
        sim = simulate_multi(SimParamsMulti(n=2000, seed=11))
        assert np.all((0 < sim.data.e_hat) & (sim.data.e_hat < 1))

    def test_custom_assignment(self):
        def fn(X, U):
            return np.full((len(X), 3), 1.0 / 3.0)

        sim = simulate_multi(SimParamsMulti(n=900, seed=12, assignment_fn=fn))
        counts = np.bincount(sim.data.T, minlength=3)
        assert counts.min() > 200  # roughly uniform
        assert np.allclose(sim.data.e_hat, 1.0 / 3.0)


class TestCalibration:
    def _small_sim(self):
        return simulate_binary(SimParamsBinary(n=80, seed=13)).data

    def test_matrix_invariants(self):
        data = self._small_sim()
        gammas = [1.05, 1.1, 1.2]
        opts = FitOptions(iters=50, restarts=2, seed=0)
        mat = calibration_matrix(data, gammas, NEVER_TREAT, opts=opts)
        assert mat.values.shape == (3, 3)
        for row in mat.values:
            assert np.all(np.diff(row) >= -1e-9)
        for k in range(3):
            spec = UncertaintySpec.from_dataset(data, gammas[k])
            direct = worst_case_regret(mat.policies[k], NEVER_TREAT, data, spec)
            assert mat.values[k, k] == pytest.approx(direct, abs=1e-8)

    @pytest.mark.parametrize("rho", [None, 0.5])
    def test_values_are_the_recomputed_cross_evaluations(self, rho):
        # The matrix reuses the gamma path's cross-gamma values; each must be
        # exactly what evaluating the entry's policy again gives, fallen-back
        # entries (the baseline, worth 0) included.
        fell_back = set()
        for seed in range(3):
            data = simulate_binary(SimParamsBinary(n=60, seed=20 + seed)).data
            gammas = [1.0, 1.5, 3.0]
            opts = FitOptions(iters=20, restarts=2, seed=seed)
            mat = calibration_matrix(data, gammas, NEVER_TREAT, opts=opts, rho=rho)
            for k, pol in enumerate(mat.policies):
                fell_back.add(pol is NEVER_TREAT)
                for kp, gamma in enumerate(gammas):
                    spec = UncertaintySpec.from_dataset(data, gamma, rho=rho)
                    assert mat.values[k, kp] == worst_case_regret(pol, NEVER_TREAT, data, spec)
        assert fell_back == {True, False}

    def test_single_gamma_fallback_entry(self):
        data = self._small_sim()
        mat = calibration_matrix(data, [1.5], NEVER_TREAT, opts=FitOptions(iters=40, restarts=2, seed=1))
        assert mat.values.shape == (1, 1)
        assert mat.values[0, 0] <= 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CalibrationMatrix(gammas=[1.0, 2.0], values=np.zeros((2, 3)))


class TestAudit:
    def test_irrelevant_covariate_concentrates_at_one(self):
        rng = np.random.default_rng(0)
        n = 5000
        X = rng.standard_normal((n, 3))
        e = _sigmoid(0.8 * X[:, 0] - 0.6 * X[:, 1])
        T = (rng.random(n) < e).astype(int)
        ratios = odds_ratio_audit(Dataset(X=X, T=T, Y=np.zeros(n), m=2))
        frac_inside = np.mean((ratios[2] >= 0.9) & (ratios[2] <= 1.1))
        assert frac_inside >= 0.95

    def test_duplicated_covariate_absorbed(self):
        rng = np.random.default_rng(1)
        n = 2000
        x0, x1 = rng.standard_normal(n), rng.standard_normal(n)
        X = np.column_stack([x0, x1, x0])
        T = (rng.random(n) < _sigmoid(1.2 * x0 + 0.5 * x1)).astype(int)
        ratios = odds_ratio_audit(Dataset(X=X, T=T, Y=np.zeros(n), m=2))
        assert np.abs(ratios[2] - 1.0).max() < 1e-6

    def test_strong_selection_spreads(self):
        rng = np.random.default_rng(2)
        n = 1500
        x0 = rng.standard_normal(n)
        T = (rng.random(n) < _sigmoid(2.0 * x0)).astype(int)
        ratios = odds_ratio_audit(Dataset(X=x0[:, None], T=T, Y=np.zeros(n), m=2))
        frac_outside = np.mean((ratios[0] < 0.9) | (ratios[0] > 1.1))
        assert frac_outside > 0.5

    def test_binary_only(self):
        rng = np.random.default_rng(3)
        data = Dataset(
            X=rng.standard_normal((30, 2)), T=rng.integers(0, 3, 30), Y=np.zeros(30), m=3
        )
        with pytest.raises(ValueError, match="binary"):
            odds_ratio_audit(data)
