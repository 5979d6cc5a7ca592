import json
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crpolicy import (
    ConstantPolicy,
    Dataset,
    FitOptions,
    FitResult,
    LogisticPolicy,
    TreeNode,
    TreePolicy,
    UncertaintySpec,
    control_baseline,
    gamma_path_fit,
    subgradient_fit,
    tree_partition_fit,
    uniform_baseline,
    worst_case_regret,
)
from crpolicy import optimize
from crpolicy.evaluation.estimators import hajek_regret, worst_case_solution, worst_case_weights
from crpolicy.exceptions import EmptyArmError, SolverError
from crpolicy.optimize import _TreeBuilder, _restart_rng
from crpolicy.uncertainty import weight_bounds


def balanced_dataset(seed, n=60, d=2, m=2, y=None):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    T = rng.integers(0, m, n)
    Y = y(X, T, rng) if y is not None else rng.standard_normal(n)
    return Dataset(X=X, T=T, Y=Y, m=m, e_hat=np.full(n, 1.0 / m))


PI0 = control_baseline(2)


class TestSubgradientFit:
    def test_zero_losses_give_zero_objective(self):
        data = balanced_dataset(0, y=lambda X, T, rng: np.zeros(len(T)))
        spec = UncertaintySpec.from_dataset(data, 1.5)
        res = subgradient_fit(data, spec, PI0, FitOptions(iters=40, restarts=2, seed=0))
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_fallback_keeps_objective_nonpositive(self):
        # Pure-noise outcomes: whatever the fit does, fallback caps at 0.
        for seed in range(5):
            data = balanced_dataset(seed)
            spec = UncertaintySpec.from_dataset(data, 2.0)
            res = subgradient_fit(data, spec, PI0, FitOptions(iters=60, restarts=2, seed=seed))
            assert res.objective <= 0.0
            if res.fell_back:
                assert isinstance(res.policy, ConstantPolicy)

    def test_recovers_treat_all(self):
        # Treated losses all -1, control losses all +1: treat-all is optimal
        # under any weighting, and the average iterate should saturate.
        rng = np.random.default_rng(0)
        n = 60
        X = rng.standard_normal((n, 2))
        T = rng.integers(0, 2, n)
        Y = np.where(T == 1, -1.0, 1.0)
        data = Dataset(X=X, T=T, Y=Y, m=2, e_hat=np.full(n, 0.5))
        spec = UncertaintySpec.from_dataset(data, 1.0)
        res = subgradient_fit(
            data, spec, PI0, FitOptions(eta0=1.0, kappa=0.5, iters=2000, restarts=1, seed=0)
        )
        assert isinstance(res.policy, LogisticPolicy)
        p1 = res.policy.prob_matrix(data.X)[:, 1]
        assert p1.min() > 0.9

    def test_objective_matches_recomputation(self):
        data = balanced_dataset(3)
        spec = UncertaintySpec.from_dataset(data, 1.5)
        res = subgradient_fit(data, spec, PI0, FitOptions(iters=80, restarts=3, seed=1))
        recomputed = worst_case_regret(res.policy, PI0, data, spec)
        assert res.objective == pytest.approx(recomputed, abs=1e-8)

    def test_deterministic_given_seed(self):
        data = balanced_dataset(4)
        spec = UncertaintySpec.from_dataset(data, 1.3)
        opts = FitOptions(iters=60, restarts=3, seed=11)
        r1 = subgradient_fit(data, spec, PI0, opts)
        r2 = subgradient_fit(data, spec, PI0, opts)
        assert r1.objective == r2.objective
        assert r1.fell_back == r2.fell_back
        if isinstance(r1.policy, LogisticPolicy):
            assert np.array_equal(r1.policy.theta, r2.policy.theta)
        for (o1, t1), (o2, t2) in zip(r1.per_restart, r2.per_restart):
            assert o1 == o2 and np.array_equal(t1, t2)

    def test_budgeted_spec_supported(self):
        data = balanced_dataset(5)
        spec = UncertaintySpec.from_dataset(data, 1.5, rho=0.5)
        res = subgradient_fit(data, spec, PI0, FitOptions(iters=30, restarts=2, seed=2))
        assert res.objective <= 0.0

    def test_empty_arm_errors(self):
        rng = np.random.default_rng(6)
        data = Dataset(
            X=rng.standard_normal((10, 1)),
            T=np.zeros(10, dtype=int),
            Y=rng.standard_normal(10),
            m=2,
            e_hat=np.full(10, 0.5),
        )
        spec = UncertaintySpec.from_dataset(data, 1.5)
        with pytest.raises(EmptyArmError, match="arm 1"):
            subgradient_fit(data, spec, PI0, FitOptions(iters=5, restarts=1, seed=0))

    def test_radius_projection(self):
        data = balanced_dataset(7)
        spec = UncertaintySpec.from_dataset(data, 1.0)
        res = subgradient_fit(
            data, spec, PI0,
            FitOptions(iters=200, restarts=1, seed=0, fallback_to_baseline=False, radius=0.5),
        )
        assert np.linalg.norm(res.policy.theta) <= 0.5 + 1e-9

    @pytest.mark.parametrize(
        "field, value",
        [("eta0", np.nan), ("eta0", np.inf), ("eta0", 0.0), ("init_scale", np.inf), ("init_scale", np.nan),
         ("init_scale", -1.0), ("radius", -1.0), ("radius", 0.0), ("radius", np.nan), ("radius", np.inf),
         ("seed", -1)],
    )
    def test_options_no_fit_can_honour_refused(self, field, value):
        # A negative radius would flip theta's sign at each projection, a NaN one project nothing.
        with pytest.raises(ValueError, match=field):
            FitOptions(**{field: value})

    def test_options_at_their_bounds_accepted(self):
        FitOptions(eta0=1e-300, init_scale=0.0, radius=1e-300)
        FitOptions(radius=None)

    def test_result_json_roundtrip(self):
        data = balanced_dataset(8)
        spec = UncertaintySpec.from_dataset(data, 1.4)
        res = subgradient_fit(data, spec, PI0, FitOptions(iters=30, restarts=2, seed=3))
        restored = FitResult.from_json(res.to_json())
        assert restored.objective == res.objective
        assert restored.gamma == res.gamma
        assert restored.fell_back == res.fell_back
        assert type(restored.policy) is type(res.policy)

    @pytest.mark.parametrize(
        "options, named",
        [({"extra": 1}, ["'extra'"]), ({"iters": 3, "zeta": 1, "extra": 2}, ["'extra', 'zeta'"]), ([1, 2], ["[1, 2]"])],
    )
    def test_result_json_with_unknown_options_refused(self, options, named):
        doc = json.loads(FitResult(PI0, 0.0, options=FitOptions()).to_json())
        doc["options"] = {**doc["options"], **options} if isinstance(options, dict) else options
        with pytest.raises(ValueError, match="options") as err:
            FitResult.from_json(json.dumps(doc))
        assert all(text in str(err.value) for text in named)


class TestSubgradientMultiArm:
    def _three_arm(self, seed, n=90):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 2))
        T = rng.integers(0, 3, n)
        Y = rng.standard_normal(n)
        return Dataset(X=X, T=T, Y=Y, m=3, e_hat=np.full(n, 1.0 / 3.0))

    def test_objective_consistency_m3(self):
        data = self._three_arm(0)
        pi0 = control_baseline(3)
        spec = UncertaintySpec.from_dataset(data, 1.4)
        res = subgradient_fit(data, spec, pi0, FitOptions(iters=80, restarts=3, seed=2))
        assert res.objective <= 0.0
        assert res.objective == pytest.approx(
            worst_case_regret(res.policy, pi0, data, spec), abs=1e-8
        )
        if isinstance(res.policy, LogisticPolicy):
            assert res.policy.theta.shape == (2, 3)

    def test_recovers_best_arm_m3(self):
        # Arm 2 strictly dominates: every arm-2 outcome is -1, others +1.
        rng = np.random.default_rng(1)
        n = 90
        T = rng.integers(0, 3, n)
        Y = np.where(T == 2, -1.0, 1.0)
        data = Dataset(X=rng.standard_normal((n, 2)), T=T, Y=Y, m=3, e_hat=np.full(n, 1.0 / 3.0))
        pi0 = control_baseline(3)
        spec = UncertaintySpec.from_dataset(data, 1.0)
        res = subgradient_fit(
            data, spec, pi0, FitOptions(eta0=1.0, iters=1500, restarts=1, seed=0)
        )
        probs = res.policy.prob_matrix(data.X)
        assert probs[:, 2].min() > 0.8

    def test_gamma_path_m3(self):
        data = self._three_arm(2)
        pi0 = control_baseline(3)
        path = gamma_path_fit(data, [1.0, 1.5], pi0, FitOptions(iters=50, restarts=2, seed=3))
        objs = [f.objective for f in path]
        assert objs[1] >= objs[0] - 1e-12 and all(o <= 0 for o in objs)


class TestGammaPath:
    def test_single_gamma_matches_direct_fit(self):
        data = balanced_dataset(10)
        opts = FitOptions(iters=60, restarts=2, seed=5)
        path = gamma_path_fit(data, [1.0], PI0, opts)
        direct = subgradient_fit(data, UncertaintySpec.from_dataset(data, 1.0), PI0, opts)
        assert len(path) == 1
        assert path[0].objective <= direct.objective + 1e-12

    @pytest.mark.parametrize("fallback", [True, False])
    @pytest.mark.parametrize("rho", [None, 0.3])
    def test_single_gamma_is_the_direct_fit(self, fallback, rho):
        # The CLI fits one gamma through the path, so its result must be the
        # direct fit's to the byte, fallen back or not.
        for seed in range(4):
            data = balanced_dataset(30 + seed)
            opts = FitOptions(iters=30, restarts=2, seed=seed, fallback_to_baseline=fallback)
            spec = UncertaintySpec.from_dataset(data, 1.5, rho=rho)
            direct = subgradient_fit(data, spec, PI0, opts)
            (path,) = gamma_path_fit(data, [1.5], PI0, opts, rho=rho)
            assert path.to_json() == direct.to_json()

    def test_objectives_nondecreasing(self):
        for seed in (0, 1, 2):
            data = balanced_dataset(20 + seed, n=80)
            opts = FitOptions(iters=60, restarts=2, seed=seed)
            path = gamma_path_fit(data, [1.0, 1.2, 1.5, 2.0], PI0, opts)
            objs = [f.objective for f in path]
            assert all(o2 >= o1 - 1e-12 for o1, o2 in zip(objs, objs[1:])), objs

    def test_cross_check_property(self):
        # No entry's objective may exceed the gamma-matched evaluation of any
        # other entry's policy.
        data = balanced_dataset(30, n=80)
        gammas = [1.0, 1.3, 1.8]
        opts = FitOptions(iters=60, restarts=2, seed=9)
        path = gamma_path_fit(data, gammas, PI0, opts)
        for k, gamma in enumerate(gammas):
            spec = UncertaintySpec.from_dataset(data, gamma)
            for other in path:
                cross = worst_case_regret(other.policy, PI0, data, spec)
                assert path[k].objective <= cross + 1e-9

    def test_requires_ascending(self):
        data = balanced_dataset(31)
        with pytest.raises(ValueError):
            gamma_path_fit(data, [1.5, 1.2], PI0, FitOptions(iters=5, restarts=1))
        with pytest.raises(ValueError):
            gamma_path_fit(data, [0.9, 1.2], PI0, FitOptions(iters=5, restarts=1))


def _one_arm_dataset():
    return Dataset(X=np.zeros((20, 1)), T=np.zeros(20, dtype=np.int64), Y=np.ones(20), m=2, e_hat=np.full(20, 0.5))


_OPTS = FitOptions(iters=3, restarts=1)


@pytest.mark.parametrize(
    "fit, error, match",
    [
        (lambda d, s: subgradient_fit(d, s, PI0, _OPTS, extra_inits=[np.zeros((2, 2))]), ValueError,
         r"warm start has shape \(2, 2\), expected \(1, 3\)"),
        (lambda d, s: tree_partition_fit(d, s, PI0, depth=-1), ValueError, "depth must be >= 0"),
        (lambda d, s: tree_partition_fit(d, s, PI0, depth=1, min_leaf=0), ValueError, "min_leaf must be >= 1"),
        (lambda d, s: gamma_path_fit(_one_arm_dataset(), [1.0, 1.5], PI0, _OPTS), SolverError,
         r"gamma path failed at gamma=1\.0: treatment arm 1 has no observations"),
    ],
    ids=["warm-start-shape", "negative-depth", "min-leaf-zero", "gamma-path-names-gamma"],
)
def test_library_refusals(fit, error, match):
    data = balanced_dataset(40)
    with pytest.raises(error, match=match):
        fit(data, UncertaintySpec.from_dataset(data, 1.5))


@pytest.mark.parametrize("policy", ["logistic", "tree"])
def test_overflowing_outcomes_certify_nothing(policy):
    # Weighted sums of outcomes near 1e307 would overflow into a NaN worst
    # case, which no fit may return as its certificate: refused up front.
    data = balanced_dataset(41, n=200, y=lambda X, T, rng: 1e307 * rng.uniform(-1.0, 1.0, len(T)))
    spec = UncertaintySpec.from_dataset(data, 1.5)
    with pytest.raises(ValueError, match=r"^outcomes up to 9\.\d+e\+306 overflow the weighted sums$"):
        if policy == "tree":
            tree_partition_fit(data, spec, uniform_baseline(2), depth=1)
        else:
            subgradient_fit(data, spec, uniform_baseline(2), _OPTS)


@pytest.mark.parametrize("low", [0.5, -1.0], ids=["positive", "signed"])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda d, s: worst_case_regret(uniform_baseline(2), PI0, d, s), "contrasts"),
        (lambda d, s: worst_case_weights(uniform_baseline(2), PI0, d, s), "contrasts"),
        (lambda d, s: hajek_regret(uniform_baseline(2), PI0, d, 1.0 / d.e_hat), "outcomes"),
        (lambda d, s: subgradient_fit(d, s, PI0, _OPTS), "outcomes"),
        (lambda d, s: gamma_path_fit(d, [1.0, 1.5], PI0, _OPTS), "outcomes"),
        # Checked on Y before the tree's first objective, whose contrasts would be refused too.
        (lambda d, s: tree_partition_fit(d, s, PI0, depth=1), "outcomes"),
    ],
    ids=["worst_case_regret", "worst_case_weights", "hajek_regret", "subgradient_fit", "gamma_path_fit",
         "tree_partition_fit"],
)
def test_overflowing_outcomes_refused_before_numpy_warns(call, name, low):
    # Finite outcomes near 1e307 whose weighted sums overflow at gamma 1.5.
    # No np.errstate: a numpy overflow warning fails the test, so the
    # ValueError comes before any sum is formed.
    data = balanced_dataset(42, n=200, y=lambda X, T, rng: 1e307 * rng.uniform(low, 1.0, len(T)))
    with pytest.raises(ValueError, match=rf"^{name} up to \S+ overflow the weighted sums$"):
        call(data, UncertaintySpec.from_dataset(data, 1.5))


def test_gamma_path_refuses_at_its_largest_gamma_before_any_fit(monkeypatch):
    # 4 n max(b) max|Y| is finite at gamma = 1 (b = 2) but not at gamma = 1000.
    data = balanced_dataset(43, n=200, y=lambda X, T, rng: 1e305 * rng.uniform(-1.0, 1.0, len(T)))
    worst_case_regret(uniform_baseline(2), PI0, data, UncertaintySpec.from_dataset(data, 1.0))
    monkeypatch.setattr(optimize, "subgradient_fit", lambda *args, **kw: pytest.fail("a fit ran"))
    with pytest.raises(ValueError, match="outcomes up to .* overflow the weighted sums"):
        gamma_path_fit(data, [1.0, 1000.0], PI0, _OPTS)


def sign_instance(seed, n=120, gap=0.5):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(gap, 2.0, n) * rng.choice([-1.0, 1.0], n)
    x1 = rng.standard_normal(n)
    X = np.column_stack([x0, x1])
    T = rng.integers(0, 2, n)
    y0 = 0.5 * np.sign(x0) + 0.05 * rng.standard_normal(n)
    y1 = y0 + np.where(x0 > 0, -1.0, 1.0)
    Y = np.where(T == 1, y1, y0)
    return Dataset(X=X, T=T, Y=Y, m=2, e_hat=np.full(n, 0.5),
                   potential_Y=np.column_stack([y0, y1]))


class TestTreeFit:
    def test_depth_zero_equals_best_constant(self):
        data = sign_instance(0)
        spec = UncertaintySpec.from_dataset(data, 1.2)
        fit = tree_partition_fit(data, spec, PI0, depth=0, fallback_to_baseline=False)
        exhaustive = min(
            worst_case_regret(ConstantPolicy(np.eye(2)[arm]), PI0, data, spec)
            for arm in range(2)
        )
        assert fit.objective == pytest.approx(exhaustive, abs=1e-12)

    def test_depth_one_recovers_separator(self):
        data = sign_instance(1)
        spec = UncertaintySpec.from_dataset(data, 1.0)
        fit = tree_partition_fit(data, spec, PI0, depth=1, min_leaf=5)
        node = fit.policy.root
        assert isinstance(node, TreeNode)
        assert node.feature == 0 and -0.5 < node.threshold < 0.5
        assert int(np.argmax(node.left.probs)) == 0
        assert int(np.argmax(node.right.probs)) == 1

    def test_no_improving_split_stays_depth_zero(self):
        # Treat-all attains the floor (every r_i = -1, so each arm's worst case
        # is exactly -1); no split can strictly improve, so no split is taken.
        rng = np.random.default_rng(2)
        T = rng.integers(0, 2, 40)
        data = Dataset(
            X=rng.standard_normal((40, 2)),
            T=T,
            Y=np.where(T == 1, -1.0, 1.0),
            m=2,
            e_hat=np.full(40, 0.5),
        )
        spec = UncertaintySpec.from_dataset(data, 1.1)
        fit = tree_partition_fit(data, spec, PI0, depth=3, fallback_to_baseline=False)
        assert isinstance(fit.policy, TreePolicy)
        assert fit.policy.depth() == 0
        assert fit.objective == pytest.approx(-2.0, abs=1e-12)

    def test_greedy_objective_monotone(self):
        # Deeper trees never have worse robust objectives on the same data.
        data = sign_instance(3)
        spec = UncertaintySpec.from_dataset(data, 1.3)
        objs = [
            tree_partition_fit(data, spec, PI0, depth=D, min_leaf=5, fallback_to_baseline=False).objective
            for D in (0, 1, 2)
        ]
        assert objs[1] <= objs[0] + 1e-12 and objs[2] <= objs[1] + 1e-12

    def test_min_leaf_respected(self):
        data = sign_instance(4, n=40)
        spec = UncertaintySpec.from_dataset(data, 1.0)
        fit = tree_partition_fit(data, spec, PI0, depth=3, min_leaf=10, fallback_to_baseline=False)

        def leaf_sizes(node, idx):
            if not isinstance(node, TreeNode):
                return [idx.size]
            mask = data.X[idx, node.feature] <= node.threshold
            return leaf_sizes(node.left, idx[mask]) + leaf_sizes(node.right, idx[~mask])

        for size in leaf_sizes(fit.policy.root, np.arange(data.n)):
            assert size >= 10

    def test_budgeted_spec_rejected(self):
        data = sign_instance(5)
        spec = UncertaintySpec.from_dataset(data, 1.5, rho=0.5)
        with pytest.raises(ValueError, match="box"):
            tree_partition_fit(data, spec, PI0, depth=1)

    def test_objective_consistency(self):
        data = sign_instance(6)
        spec = UncertaintySpec.from_dataset(data, 1.4)
        fit = tree_partition_fit(data, spec, PI0, depth=2, min_leaf=5, fallback_to_baseline=False)
        assert fit.objective == pytest.approx(
            worst_case_regret(fit.policy, PI0, data, spec), abs=1e-12
        )

    def test_deterministic(self):
        data = sign_instance(7)
        spec = UncertaintySpec.from_dataset(data, 1.2)
        f1 = tree_partition_fit(data, spec, PI0, depth=2, min_leaf=5)
        f2 = tree_partition_fit(data, spec, PI0, depth=2, min_leaf=5)
        assert f1.objective == f2.objective
        from crpolicy import policy_to_json

        assert policy_to_json(f1.policy) == policy_to_json(f2.policy)


def reference_best_split(self, node_idx, current_obj):
    """The exhaustive split scan: re-solve the whole tree for every
    (feature, cut, side, arm), keeping the first strict improvement."""
    data = self.data
    base_arm = int(self.assignment[node_idx[0]])
    best = None
    for j in range(data.d):
        xj = data.X[node_idx, j]
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        distinct = np.flatnonzero(np.diff(xs) > 0)
        for cut in distinct:
            thr = 0.5 * (xs[cut] + xs[cut + 1])
            left = node_idx[xj <= thr]
            right = node_idx[xj > thr]
            if left.size < self.min_leaf or right.size < self.min_leaf:
                continue
            for side_idx in (left, right):
                for arm in range(data.m):
                    if arm == base_arm:
                        continue
                    cand = self.assignment.copy()
                    cand[side_idx] = arm
                    obj = self.objective_for(cand)
                    if obj < current_obj and (best is None or obj < best[0]):
                        left_arm = arm if side_idx is left else base_arm
                        right_arm = arm if side_idx is right else base_arm
                        best = (obj, j, float(thr), left_arm, right_arm)
    return best


def fit_pair(monkeypatch, data, spec, pi0, depth, min_leaf):
    """(screened fit, reference fit) as FitResult JSON, without fallback."""
    def fit():
        return tree_partition_fit(
            data, spec, pi0, depth=depth, min_leaf=min_leaf, fallback_to_baseline=False
        ).to_json()

    screened = fit()
    with monkeypatch.context() as mp:
        mp.setattr(_TreeBuilder, "best_split", reference_best_split)
        reference = fit()
    return screened, reference


def random_tree_case(i):
    rng = np.random.default_rng(10_000 + i)
    n, m, d = int(rng.integers(20, 161)), int(rng.choice([2, 3])), int(rng.integers(1, 4))
    X = rng.standard_normal((n, d))
    if i % 3 == 0:
        X = np.round(X, 1)  # tied x values
    T = rng.permutation(np.arange(n) % m)
    Y = rng.standard_normal(n) + np.where(T == 1, X[:, 0], 0.0)
    if i % 5 == 0:
        Y = np.round(Y)  # zero and equal contrasts
    e_hat = rng.uniform(0.2, 0.9, n) if m == 2 else rng.uniform(0.1, 0.6, n)
    data = Dataset(X=X, T=T, Y=Y, m=m, e_hat=e_hat)
    spec = UncertaintySpec.from_dataset(data, float(rng.choice([1.0, 1.3, 2.0])))
    pi0 = control_baseline(m) if i % 2 else uniform_baseline(m)
    return data, spec, pi0, int(rng.integers(1, 4)), int(rng.integers(1, 8))


class TestScreenedSplitSearch:
    """The screened search picks the split the exhaustive scan picks."""

    def test_matches_reference_on_random_data(self, monkeypatch):
        differ = []
        for i in range(150):
            data, spec, pi0, depth, min_leaf = random_tree_case(i)
            screened, reference = fit_pair(monkeypatch, data, spec, pi0, depth, min_leaf)
            if screened != reference:
                differ.append(i)
        assert differ == []

    def test_adjacent_float_thresholds(self, monkeypatch):
        # Between 1 + 2**-52 (odd last bit) and the next float up, the
        # midpoint rounds up onto the larger value, so `xj <= thr` puts both
        # on the left: a side's size is not the cut's position plus one.
        x0 = 1.0 + 2.0**-52
        x1 = np.nextafter(x0, 2.0)
        assert 0.5 * (x0 + x1) == x1
        values = [x0]
        for _ in range(4):
            values.append(np.nextafter(values[-1], 2.0))
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(20, 80)), int(rng.choice([2, 3]))
            X = rng.choice(values, size=(n, 2))
            T = rng.permutation(np.arange(n) % m)
            data = Dataset(X=X, T=T, Y=rng.standard_normal(n), m=m,
                           e_hat=rng.uniform(0.2, 0.5, n))
            spec = UncertaintySpec.from_dataset(data, 1.3)
            screened, reference = fit_pair(
                monkeypatch, data, spec, control_baseline(m), 2, int(rng.integers(1, 8))
            )
            assert screened == reference, seed

    def test_adjacent_float_min_leaf(self, monkeypatch):
        # 3 units at x0, 10 at x1, 10 at 2.0; arm 1 helps the first 13 and
        # arm 0 the last 10. The cut after x0 has thr == x1, so its sides hold
        # 13 and 10 units, not 3 and 20: with min_leaf = 5 it is valid and,
        # first in scan order, beats the same partition at thr = 1.5; with
        # min_leaf = 11 its 10-unit side rules it out.
        x0 = 1.0 + 2.0**-52
        x1 = np.nextafter(x0, 2.0)
        X = np.array([x0] * 3 + [x1] * 10 + [2.0] * 10)[:, None]
        T = np.arange(23) % 2
        Y = np.where(X[:, 0] < 2.0, 1.0, -1.0) * np.where(T == 1, -1.0, 1.0)
        data = Dataset(X=X, T=T, Y=Y, m=2, e_hat=np.full(23, 0.5))
        spec = UncertaintySpec.from_dataset(data, 1.0)
        screened, reference = fit_pair(monkeypatch, data, spec, PI0, 1, 5)
        assert screened == reference
        node = FitResult.from_json(screened).policy.root
        assert isinstance(node, TreeNode) and node.threshold == x1
        assert int((X[:, 0] <= node.threshold).sum()) == 13
        screened, reference = fit_pair(monkeypatch, data, spec, PI0, 1, 11)
        assert screened == reference
        assert FitResult.from_json(screened).policy.depth() == 0

    def test_depth_two_at_n1600_in_seconds(self):
        # The exhaustive scan re-solves the tree once per candidate and takes
        # about 8-11 s on a 2-core Xeon; the screen, one batched sweep per
        # (feature, side, arm), well under a second.
        rng = np.random.default_rng(1600)
        n = 1600
        X = rng.standard_normal((n, 5))
        T = rng.permutation(np.arange(n) % 2)
        Y = X[:, 0] + np.where(T == 1, X[:, 1] - X[:, 2], 0.0) + rng.standard_normal(n)
        data = Dataset(X=X, T=T, Y=Y, m=2, e_hat=rng.uniform(0.3, 0.7, n))
        spec = UncertaintySpec.from_dataset(data, 1.5)
        t0 = time.perf_counter()
        fit = tree_partition_fit(data, spec, PI0, depth=2, min_leaf=20, fallback_to_baseline=False)
        elapsed = time.perf_counter() - t0
        assert fit.policy.depth() == 2
        assert elapsed < 4.0


def reference_sweep_values(r, a, b, pos, r_alt, rank):
    """The dense sweep: at every step, the arm's box value as the largest
    ratio over every prefix of the merged, sorted items."""
    merged = np.concatenate([r, r_alt])
    order = np.argsort(merged, kind="stable")
    span = np.concatenate([a - b, a[pos] - b[pos]])[order]
    span_c = span * merged[order] + 1j * span
    is_alt = order >= r.size
    L = rank.size
    flip_at = np.full(r.size, L)
    flip_at[pos] = rank
    flip_at = np.concatenate([flip_at, rank])[order]
    flip_br = np.zeros(L)
    flip_br[rank] = b[pos] * (r_alt - r[pos])
    sum_br = float(b @ r) + np.concatenate([[0.0], np.cumsum(flip_br)])
    out = np.empty(L + 1)
    rows = max(1, optimize._SWEEP_BLOCK // flip_at.size)
    block = np.empty((rows, flip_at.size), dtype=complex)
    for s0 in range(0, L + 1, rows):
        s = np.arange(s0, min(s0 + rows, L + 1))
        active = (s[:, None] <= flip_at) != is_alt
        frac = block[: s.size]
        np.multiply(active, span_c, out=frac)
        frac[:, 0] += sum_br[s] + 1j * float(b.sum())
        np.cumsum(frac, axis=1, out=frac)
        out[s] = (frac.real / frac.imag).max(axis=1)
    return out


def sweep_case(seed, k, L, gamma, y="normal", p0=None):
    """One arm's sweep as `best_split` builds it: k units, of which L (in a
    node, all at the same arm) flip; r = (match - p0) Y before and after."""
    rng = np.random.default_rng(seed)
    Y = {
        "normal": lambda: rng.standard_normal(k),
        "rounded": lambda: np.round(rng.standard_normal(k)),
        "binary": lambda: rng.integers(0, 2, k).astype(float),
    }[y]()
    p0 = float(rng.choice([0.0, 0.5, 1.0])) if p0 is None else p0
    pos = np.sort(rng.choice(k, L, replace=False))
    match = rng.integers(0, 2, k).astype(float)
    match[pos] = float(rng.integers(0, 2))
    r = (match - p0) * Y
    r_alt = (1.0 - match[pos] - p0) * Y[pos]
    a, b = weight_bounds(1.0 / rng.uniform(0.2, 0.9, k), gamma)
    return (r, a, b, pos, r_alt, rng.permutation(L)), 1e-9 * max(1.0, float(np.abs(Y).max()))


def cancelled_case(seed):
    """A sweep at gamma = 2^60 over integer contrasts, where each a - b rounds to -b."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(200, 600))
    L = int(rng.integers(1, k))
    r = rng.integers(-3, 4, k).astype(float)
    pos = np.sort(rng.choice(k, L, replace=False))
    r_alt = rng.integers(-3, 4, L).astype(float)
    a, b = weight_bounds(np.full(k, 2.0), 2.0**60)
    return r, a, b, pos, r_alt, rng.permutation(L)


def sweep_roundoff(r, a, b, pos, r_alt, values):
    """How far two sums of a sweep's ratios, in different orders, can part
    at each step: a numerator or denominator is a chain of at most 3N + 2
    roundings (of unit eps / 2) over terms of magnitudes adding up to at
    most twice the sum of their magnitudes, and no denominator is below
    sum a."""
    span = np.concatenate([a - b, a[pos] - b[pos]])
    num = np.abs(span * np.concatenate([r, r_alt])).sum() + np.abs(b * r).sum()
    num += np.abs(b[pos] * (r_alt - r[pos])).sum()
    den = b.sum() + np.abs(span).sum()
    return 2 * (3 * span.size + 2) * np.finfo(float).eps * (num + np.abs(values) * den) / a.sum()


# Contrasts for the property test: a few values that tie, zero among them, or any in a range.
_CONTRAST = st.one_of(st.sampled_from([0.0, -1.0, 1.0, -0.5, 0.5]), st.floats(-4.0, 4.0))


def hidden_peak_case(seed):
    """At step 0 the L alternatives, all inactive, fill several blocks past
    the rising part, so block ends tie across them; past them one unit
    raises the ratio and far larger contrasts pull it back down within a
    block: the peak sits two or more blocks past the first tied end."""
    rng = np.random.default_rng(seed)
    L, n_raise = int(rng.integers(100, 150)), int(rng.integers(1, 4))
    r = np.concatenate([
        -1.0 - rng.uniform(0, 0.1, 100),  # rising
        -0.3 + rng.uniform(0, 0.05, n_raise),  # raises again past the plateau
        500.0 + rng.uniform(0, 0.1, 100),  # falls
        -1.0 - rng.uniform(0, 0.1, L),  # the node's units, rising
    ])
    pos = np.arange(r.size - L, r.size)
    r_alt = -0.5 + 0.001 * np.arange(L)
    a, b = weight_bounds(1.0 / rng.uniform(0.45, 0.55, r.size), 2.0)
    return r, a, b, pos, r_alt, rng.permutation(L)


class TestArmSweep:
    """The block screen gives the dense sweep's values up to roundoff."""

    @pytest.mark.parametrize("y", ["normal", "rounded", "binary"])
    @pytest.mark.parametrize("gamma", [1.0, 1.3, 2.0])
    def test_matches_the_dense_sweep(self, y, gamma):
        for seed in range(40):
            k = int(np.random.default_rng(seed).integers(1, 400))
            L = int(np.random.default_rng(seed + 1).integers(0, k + 1))
            args, tol = sweep_case(seed, k, L, gamma, y)
            got, want = optimize._ArmSweep(*args[:5]).values(args[5]), reference_sweep_values(*args)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= tol, (seed, k, L)

    @pytest.mark.parametrize(
        "k, L", [(1, 0), (1, 1), (2, 1), (3, 3), (5, 0), (40, 0), (40, 1), (40, 40), (300, 300), (17_000, 0), (9_000, 1)]
    )
    def test_small_and_whole_arm_shapes(self, k, L):
        # Fewer items than one block, no unit or one unit flipping (on a
        # table too large to scan whole, too), and a node that is the whole arm.
        for seed in range(20):
            for y in ("normal", "binary"):
                args, tol = sweep_case(seed, k, L, 1.5, y)
                got, want = optimize._ArmSweep(*args[:5]).values(args[5]), reference_sweep_values(*args)
                assert np.abs(got - want).max() <= tol, (seed, y)

    def test_gamma_one_is_every_prefix_at_once(self):
        # Every span is 0: each step's value is its all-at-b ratio, exactly.
        for seed in range(20):
            args, _ = sweep_case(seed, 200, 120, 1.0, "rounded")
            assert np.array_equal(optimize._ArmSweep(*args[:5]).values(args[5]), reference_sweep_values(*args))

    def test_peak_hidden_past_a_plateau(self):
        # Block ends tie exactly across blocks with nothing active, and the
        # peak lies past them: the screen must not stop at the first of those
        # ends. The r of each block past it still lies below g, so the
        # one-sided test holds only past the peak.
        for seed in range(30):
            args = hidden_peak_case(seed)
            got, want = optimize._ArmSweep(*args[:5]).values(args[5]), reference_sweep_values(*args)
            assert np.abs(got - want).max() <= 1e-9 * 500.0, seed

    def test_plateau_ties_with_a_control_baseline(self):
        # With the control baseline every contrast of an all-control tree is
        # 0, so at step 0 every prefix ratio is 0 and all block ends tie.
        for seed in range(20):
            for y in ("normal", "binary"):
                args, tol = sweep_case(seed, 300, 150, 1.5, y, p0=1.0)
                args[0][:] = 0.0
                got, want = optimize._ArmSweep(*args[:5]).values(args[5]), reference_sweep_values(*args)
                assert np.abs(got - want).max() <= tol, (seed, y)


    def test_cancelled_denominators_take_the_dense_row(self):
        # At gamma = 2^60 each a - b rounds to -b, so the last block end's
        # numerator and denominator cancel to exactly 0: its ratio is NaN,
        # the sweep is guarded, and every step takes the dense row, which a
        # scan of the first two blocks would not match, and with no numpy
        # warning.
        for seed in range(10):
            args = cancelled_case(seed)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = optimize._ArmSweep(*args[:5]).values(args[5])
            with np.errstate(divide="ignore", invalid="ignore"):
                want = reference_sweep_values(*args)
            assert np.isnan(want).all()
            assert np.array_equal(got, want, equal_nan=True), seed

    @staticmethod
    def _rescanned_steps(monkeypatch, args):
        """The steps of one sweep that rescan every block, seen through `_prefix_max`."""
        steps, prefix_max = [], optimize._ArmSweep._prefix_max

        def spy(self, s, at, begin, flip_at):
            if at.shape[1] == self.n_blocks + 1 > 2:
                steps.extend(s.tolist())
            return prefix_max(self, s, at, begin, flip_at)

        monkeypatch.setattr(optimize._ArmSweep, "_prefix_max", spy)
        optimize._ArmSweep(*args[:5]).values(args[5])
        return sorted(steps)

    def test_plateaus_take_no_rescan(self, monkeypatch):
        # The inputs of test_plateau_ties_with_a_control_baseline: every block
        # end ties at step 0, but the one-sided test still places the peak.
        for seed in range(20):
            for y in ("normal", "binary"):
                args, _ = sweep_case(seed, 300, 150, 1.5, y, p0=1.0)
                args[0][:] = 0.0
                assert self._rescanned_steps(monkeypatch, args) == [], (seed, y)

    def test_cancelled_denominators_rescan_every_step(self, monkeypatch):
        # The inputs of test_cancelled_denominators_take_the_dense_row.
        for seed in range(10):
            args = cancelled_case(seed)
            assert self._rescanned_steps(monkeypatch, args) == list(range(args[5].size + 1)), seed

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(_CONTRAST, _CONTRAST, st.floats(1.0, 6.0), st.booleans()), min_size=1, max_size=80
        ),
        st.sampled_from([1.0, 1.5, 3.0, 1e6, 1e13, 2.0**60]),
        st.data(),
    )
    def test_matches_the_dense_sweep_hypothesis(self, units, gamma, data):
        # Ties and zero contrasts come from the sampled values; weights from
        # 1 to 6. A guarded sweep takes the dense row at every step, bit for
        # bit. Short of the guard, cancellation can already stretch the
        # roundoff of both sums past tol: on a plateau before a cancelled
        # prefix, the dense row's max picks up the noise the screen skips.
        r, r_alt, w, in_node = (np.array(col) for col in zip(*units))
        pos = np.flatnonzero(in_node)
        r_alt = r_alt[pos]
        a, b = weight_bounds(w, gamma)
        rank = np.array(data.draw(st.permutations(range(pos.size))), dtype=np.int64)
        sweep = optimize._ArmSweep(r, a, b, pos, r_alt)
        got = sweep.values(rank)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = reference_sweep_values(r, a, b, pos, r_alt, rank)
        if sweep.guarded:
            assert np.array_equal(got, want, equal_nan=True)
        else:
            tol = 1e-9 * max(1.0, float(np.abs(np.concatenate([r, r_alt])).max()))
            assert (np.abs(got - want) <= tol + sweep_roundoff(r, a, b, pos, r_alt, want)).all()


class TestTreeScaling:
    @staticmethod
    def _fit_at(n):
        # The data of test_depth_two_at_n1600_in_seconds at another size.
        rng = np.random.default_rng(1600)
        X = rng.standard_normal((n, 5))
        T = rng.permutation(np.arange(n) % 2)
        Y = X[:, 0] + np.where(T == 1, X[:, 1] - X[:, 2], 0.0) + rng.standard_normal(n)
        data = Dataset(X=X, T=T, Y=Y, m=2, e_hat=rng.uniform(0.3, 0.7, n))
        spec = UncertaintySpec.from_dataset(data, 1.5)
        return lambda: tree_partition_fit(data, spec, PI0, depth=2, min_leaf=20, fallback_to_baseline=False)

    def test_depth_two_at_n10k_in_seconds(self):
        # The dense sweep is quadratic in n and took 16.5 s on a 2-core Xeon;
        # the block screen takes 1.3 s.
        fit = self._fit_at(10_000)
        t0 = time.perf_counter()
        result = fit()
        elapsed = time.perf_counter() - t0
        assert result.policy.depth() == 2
        assert elapsed < 8.0

    def test_depth_two_at_n10k_memory_is_flat(self):
        # Sweeps run in blocks of _SWEEP_BLOCK entries: the fit peaks near
        # 5 MB, where one unchunked (steps x blocks) table of block totals
        # alone would take ~10 MB.
        fit = self._fit_at(10_000)
        tracemalloc.start()
        try:
            fit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak


def reference_subgradient_fit(data, spec, pi0, opts=FitOptions(), extra_inits=()):
    """The sequential restart loop: each restart runs all its iterations,
    one `worst_case_solution` per step, before the next one starts."""
    arms = data.arms()
    arms.require_nonempty("subgradient_fit")
    p0_obs = pi0.observed_prob(data.X, data.T)
    Z = np.hstack([np.ones((data.n, 1)), data.X])
    shape = (data.m - 1, data.d + 1)
    inits = [np.zeros(shape)]
    for th in extra_inits:
        th = np.asarray(th, dtype=float)
        if th.shape != shape:
            raise ValueError(f"warm start has shape {th.shape}, expected {shape}")
        inits.append(th)
    for j in range(1, opts.restarts):
        inits.append(_restart_rng(opts.seed, j).normal(0.0, opts.init_scale, size=shape))

    per_restart = []
    best_idx = 0
    for j, theta in enumerate(inits):
        theta = theta.copy()
        avg = np.zeros_like(theta)
        for k in range(opts.iters):
            eta_k = opts.eta0 * (k + 1) ** (-opts.kappa)
            probs = LogisticPolicy(theta).prob_matrix(data.X)
            r = (probs[np.arange(data.n), data.T] - p0_obs) * data.Y
            W, _ = worst_case_solution(r, spec, arms)
            norm = np.empty(data.n)
            for t in range(data.m):
                norm[arms[t]] = W[arms[t]].sum()
            # c_i d pi(T_i | X_i) / d s_u = c_i pi_T (1[T_i = u] - pi_u), u = 1..m-1
            pT = probs[np.arange(data.n), data.T]
            coef = ((W / norm) * data.Y * pT)[:, None] * ((data.T[:, None] == np.arange(1, data.m)) - probs[:, 1:])
            g = coef.T @ Z
            if not np.all(np.isfinite(g)):
                raise SolverError("non-finite subgradient")
            theta = theta - eta_k * g
            if opts.radius is not None:
                length = float(np.linalg.norm(theta))
                if length > opts.radius:
                    theta = theta * (opts.radius / length)
            avg += theta
        theta_bar = avg / opts.iters
        obj = worst_case_regret(LogisticPolicy(theta_bar), pi0, data, spec)
        per_restart.append((obj, theta_bar))
        if obj < per_restart[best_idx][0]:
            best_idx = j

    best_obj, best_theta = per_restart[best_idx]
    if opts.fallback_to_baseline and best_obj > 0.0:
        return FitResult(policy=pi0, objective=0.0, per_restart=tuple(per_restart), fell_back=True,
                         gamma=spec.gamma, options=opts)
    return FitResult(policy=LogisticPolicy(best_theta), objective=best_obj, per_restart=tuple(per_restart),
                     fell_back=False, gamma=spec.gamma, options=opts)


def random_fit_case(i):
    rng = np.random.default_rng(20_000 + i)
    n, m, d = int(rng.integers(12, 121)), 2 + i % 2, int(rng.integers(1, 4))
    X = rng.standard_normal((n, d))
    T = rng.permutation(np.arange(n) % m)
    Y = rng.standard_normal(n) + np.where(T == 1, X[:, 0], 0.0)
    if i % 5 == 0:
        Y = np.round(Y)  # zero and tied contrasts
    e_hat = rng.uniform(0.2, 0.9, n) if m == 2 else rng.uniform(0.15, 0.5, n)
    data = Dataset(X=X, T=T, Y=Y, m=m, e_hat=e_hat)
    rho = float(rng.choice([0.1, 0.5])) if i % 3 == 0 else None
    spec = UncertaintySpec.from_dataset(data, float(rng.choice([1.0, 1.3, 2.0])), rho=rho)
    opts = FitOptions(
        eta0=float(rng.choice([0.3, 1.0, 4.0])),
        iters=int(rng.integers(1, 25)),
        restarts=int(rng.integers(1, 7)),
        seed=i,
        fallback_to_baseline=i % 4 != 1,
        radius=0.8 if i % 4 == 2 else None,
    )
    extra = [rng.normal(0.0, 0.5, (m - 1, d + 1)) for _ in range(i % 3)]
    pi0 = control_baseline(m) if i % 2 else uniform_baseline(m)
    return data, spec, pi0, opts, extra


def fit_bytes(res):
    """The fit's JSON and the bytes of every restart's averaged iterate."""
    return res.to_json(), [theta.tobytes() for _, theta in res.per_restart]


class TestStackedRestarts:
    """Restarts stacked into one iterate give what a run of them in turn gives, to the bit."""

    def test_matches_reference_on_random_data(self, monkeypatch):
        differ = []
        for i in range(60):
            data, spec, pi0, opts, extra = random_fit_case(i)
            if i % 4 == 3:
                # Blocks of two restarts, so a fit spans several blocks.
                monkeypatch.setattr(optimize, "_RESTART_BLOCK", 2 * data.n + 1)
            stacked = subgradient_fit(data, spec, pi0, opts, extra_inits=extra)
            monkeypatch.undo()
            reference = reference_subgradient_fit(data, spec, pi0, opts, extra_inits=extra)
            if fit_bytes(stacked) != fit_bytes(reference):
                differ.append(i)
        assert differ == []

    def test_cases_cover_the_options(self):
        cases = [random_fit_case(i) for i in range(60)]
        assert {c[0].m for c in cases} == {2, 3}
        assert {c[1].budgeted for c in cases} == {False, True}
        assert {c[3].restarts for c in cases} == set(range(1, 7))
        assert {len(c[4]) for c in cases} == {0, 1, 2}
        assert {c[3].radius is None for c in cases} == {False, True}
        assert {c[3].fallback_to_baseline for c in cases} == {False, True}
        multi_block = [c for i, c in enumerate(cases) if i % 4 == 3 and c[3].restarts + len(c[4]) > 2]
        assert multi_block

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    @pytest.mark.parametrize(
        "extra, blocked",
        [
            ([np.array([[np.nan, 0.0, 0.0]])], False),  # a non-finite warm start
            ([np.full((1, 3), 1e308)], False),  # scores overflow: the contrasts are not finite
            # Restart 2 fails at the first step, restart 1 only once its
            # contrasts are formed: run in turn, restart 1 names the error.
            ([np.full((1, 3), 1e308), np.array([[0.0, np.inf, 0.0]])], False),
            ([np.zeros((1, 3)), np.array([[0.0, np.inf, 0.0]])], True),  # a later block fails
        ],
    )
    def test_errors_are_those_of_the_sequential_run(self, extra, blocked, monkeypatch):
        data = balanced_dataset(8)
        spec = UncertaintySpec.from_dataset(data, 1.5)
        opts = FitOptions(iters=5, restarts=3, seed=2)
        if blocked:
            monkeypatch.setattr(optimize, "_RESTART_BLOCK", 2 * data.n)
        with pytest.raises(Exception) as stacked:
            subgradient_fit(data, spec, PI0, opts, extra_inits=extra)
        with pytest.raises(Exception) as reference:
            reference_subgradient_fit(data, spec, PI0, opts, extra_inits=extra)
        assert (type(stacked.value), str(stacked.value)) == (type(reference.value), str(reference.value))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_subgradient(self):
        # Every term of the subgradient sum is near the float limit and of one sign.
        rng = np.random.default_rng(0)
        n = 60
        T = rng.permutation(np.arange(n) % 2)
        opts = FitOptions(iters=3, restarts=2)

        def data(x_low, y):
            return Dataset(X=rng.uniform(x_low, 2 * x_low, (n, 2)), T=T, Y=np.where(T == 1, y, -y), m=2,
                           e_hat=np.full(n, 0.5))

        # 4 n max(b) |Y| = 6e308 overflows: the outcomes are refused.
        big = data(1e3, 1e306)
        for fit in (subgradient_fit, reference_subgradient_fit):
            with pytest.raises(ValueError, match="up to .* overflow the weighted sums"):
                fit(big, UncertaintySpec.from_dataset(big, 1.5), PI0, opts)
        # At 6e307 the sums pass, but covariates near 1e5 carry the subgradient past the float range.
        wide = data(1e5, 1e305)
        for fit in (subgradient_fit, reference_subgradient_fit):
            with pytest.raises(SolverError, match="non-finite subgradient"):
                fit(wide, UncertaintySpec.from_dataset(wide, 1.5), PI0, opts)

    def test_memory_is_flat_in_the_restart_count(self):
        rng = np.random.default_rng(1)
        n, m = 20_000, 3
        X = rng.standard_normal((n, 5))
        data = Dataset(X=X, T=rng.integers(0, m, n), Y=rng.standard_normal(n), m=m,
                       e_hat=rng.uniform(0.2, 0.5, n))
        spec = UncertaintySpec.from_dataset(data, 1.2)

        def peak(restarts):
            tracemalloc.start()
            try:
                subgradient_fit(data, spec, control_baseline(m), FitOptions(iters=2, restarts=restarts))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, five = peak(1), peak(5)
        assert five <= 1.25 * one, (one, five)

    def test_one_step_at_n20k_peaks_no_higher_than_the_unit_major_step(self):
        # One step of one restart at n = 20 000, m = 3. The limit is the traced
        # peak of the unit-major step, where scores, probs and an (n, m-1)
        # difference and product live at once: 2,313,809-2,313,862 bytes with
        # numpy 2.4.6. The arm-major step writes its scores and probs into one
        # block reused across steps, and its gradient block directly.
        rng = np.random.default_rng(1)
        n, m = 20_000, 3
        data = Dataset(X=rng.standard_normal((n, 5)), T=rng.integers(0, m, n), Y=rng.standard_normal(n), m=m,
                       e_hat=rng.uniform(0.2, 0.5, n))
        problem = optimize._SubgradientProblem(data, UncertaintySpec.from_dataset(data, 1.2), control_baseline(m))
        theta = rng.normal(0.0, 1.0, (1, m - 1, 6))
        tracemalloc.start()
        try:
            problem.descend(theta, FitOptions(iters=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_313_809, peak
