import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crpolicy import (
    ConstantPolicy,
    LogisticPolicy,
    TreeLeaf,
    TreeNode,
    TreePolicy,
    control_baseline,
    harden,
    policy_from_json,
    policy_gradient,
    policy_probability,
    policy_to_json,
    uniform_baseline,
)
from crpolicy.exceptions import UnsupportedPolicyError


class TestProbabilities:
    def test_logistic_zero_theta_binary(self):
        pol = LogisticPolicy(np.zeros((1, 4)))
        for x in (np.zeros(3), np.array([5.0, -2.0, 1.0])):
            assert policy_probability(pol, 1, x) == pytest.approx(0.5)

    def test_logistic_zero_theta_three_arms(self):
        pol = LogisticPolicy(np.zeros((2, 3)))
        x = np.array([1.0, -1.0])
        for t in range(3):
            assert policy_probability(pol, t, x) == pytest.approx(1 / 3)

    def test_depth_one_tree(self):
        leaf_ctrl = TreeLeaf(np.array([1.0, 0.0]))
        leaf_treat = TreeLeaf(np.array([0.0, 1.0]))
        pol = TreePolicy(root=TreeNode(0, 0.0, leaf_ctrl, leaf_treat), m=2, d=2)
        assert policy_probability(pol, 1, np.array([-0.5, 9.0])) == 0.0
        assert policy_probability(pol, 1, np.array([0.0, 9.0])) == 0.0  # <= goes left
        assert policy_probability(pol, 1, np.array([0.2, -9.0])) == 1.0

    def test_index_error(self):
        pol = LogisticPolicy(np.zeros((1, 2)))
        with pytest.raises(IndexError):
            policy_probability(pol, 2, np.zeros(1))

    def test_simplex_property_random(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = int(rng.integers(2, 5))
            d = int(rng.integers(0, 4))
            pol = LogisticPolicy(rng.normal(0, 3, (m - 1, d + 1)))
            X = rng.normal(0, 5, (7, d))
            P = pol.prob_matrix(X)
            assert np.all(P >= 0) and np.all(P <= 1)
            assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 3))
    def test_simplex_property_hypothesis(self, seed, m, d):
        rng = np.random.default_rng(seed)
        pol = LogisticPolicy(rng.normal(0, 10, (m - 1, d + 1)))
        x = rng.normal(0, 10, d)
        p = [policy_probability(pol, t, x) for t in range(m)]
        assert all(0.0 <= v <= 1.0 for v in p)
        assert sum(p) == pytest.approx(1.0, abs=1e-12)

    def test_softmax_stability_extreme_scores(self):
        pol = LogisticPolicy(np.array([[700.0, 700.0]]))
        with np.errstate(over="raise"):
            assert policy_probability(pol, 1, np.array([1.0])) == pytest.approx(1.0)
            assert policy_probability(pol, 0, np.array([-1.0])) == pytest.approx(0.5)

    def test_constant_policy(self):
        pol = ConstantPolicy(np.array([0.2, 0.3, 0.5]))
        assert policy_probability(pol, 2, np.zeros(0)) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            ConstantPolicy(np.array([0.5, 0.6]))

    def test_baselines(self):
        assert control_baseline(3).p.tolist() == [1.0, 0.0, 0.0]
        assert uniform_baseline(4).p.tolist() == [0.25] * 4


class TestGradient:
    def test_zero_theta_binary_intercept(self):
        pol = LogisticPolicy(np.zeros((1, 3)))
        g = policy_gradient(pol, 1, np.zeros(2))
        assert g.shape == (1, 3)
        assert g[0, 0] == pytest.approx(0.25)  # sigma'(0)
        assert np.allclose(g[0, 1:], 0.0)

    def test_gradients_sum_to_zero_over_arms(self):
        rng = np.random.default_rng(1)
        pol = LogisticPolicy(rng.normal(0, 2, (2, 4)))
        x = rng.normal(0, 2, 3)
        total = sum(policy_gradient(pol, t, x) for t in range(3))
        assert np.allclose(total, 0.0, atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(60):
            m = int(rng.integers(2, 4))
            d = int(rng.integers(1, 4))
            theta = rng.normal(0, 1.5, (m - 1, d + 1))
            x = rng.normal(0, 1.5, d)
            t = int(rng.integers(0, m))
            g = policy_gradient(LogisticPolicy(theta), t, x)
            fd = np.zeros_like(theta)
            for i in range(theta.shape[0]):
                for j in range(theta.shape[1]):
                    up, dn = theta.copy(), theta.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    fd[i, j] = (
                        policy_probability(LogisticPolicy(up), t, x)
                        - policy_probability(LogisticPolicy(dn), t, x)
                    ) / (2 * h)
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(g - fd).max() / scale <= 1e-5

    def test_non_logistic_rejected(self):
        with pytest.raises(UnsupportedPolicyError):
            policy_gradient(ConstantPolicy(np.array([1.0, 0.0])), 0, np.zeros(1))


class TestSerialization:
    def test_logistic_roundtrip_bitfaithful(self):
        rng = np.random.default_rng(3)
        theta = rng.normal(0, 1, (2, 4)) * np.pi
        pol = LogisticPolicy(theta)
        restored = policy_from_json(policy_to_json(pol))
        assert isinstance(restored, LogisticPolicy)
        assert np.array_equal(restored.theta, theta)

    def test_tree_roundtrip(self):
        tree = TreePolicy(
            root=TreeNode(
                1,
                0.123456789012345,
                TreeLeaf(np.array([1.0, 0.0])),
                TreeNode(0, -2.5, TreeLeaf(np.array([0.0, 1.0])), TreeLeaf(np.array([0.5, 0.5]))),
            ),
            m=2,
            d=3,
        )
        restored = policy_from_json(policy_to_json(tree))
        assert isinstance(restored, TreePolicy)
        X = np.random.default_rng(4).normal(0, 2, (50, 3))
        assert np.array_equal(restored.prob_matrix(X), tree.prob_matrix(X))
        assert restored.depth() == 2

    def test_constant_roundtrip(self):
        pol = ConstantPolicy(np.array([1 / 3, 1 / 3, 1 / 3]))
        restored = policy_from_json(policy_to_json(pol))
        assert np.array_equal(restored.p, pol.p)

    def test_document_shape(self):
        doc = json.loads(policy_to_json(LogisticPolicy(np.zeros((1, 2)))))
        assert set(doc) == {"variant", "m", "d", "payload"}
        assert doc["variant"] == "logistic" and doc["m"] == 2 and doc["d"] == 1

    def test_unknown_variant(self):
        with pytest.raises(UnsupportedPolicyError):
            policy_from_json('{"variant": "mystery", "m": 2, "d": 1, "payload": {}}')


class TestTreeShape:
    """A tree refuses, when built, leaves of another length than m and splits outside [0, d)."""

    def _split(self, feature):
        return TreeNode(feature, 0.0, TreeLeaf(np.array([1.0, 0.0])), TreeLeaf(np.array([0.0, 1.0])))

    def test_leaf_of_wrong_length(self):
        with pytest.raises(ValueError, match="tree leaf has 1 probabilities for 2 arms"):
            TreePolicy(root=TreeNode(0, 0.0, TreeLeaf(np.array([1.0])), TreeLeaf(np.array([0.0, 1.0]))), m=2, d=1)
        with pytest.raises(ValueError, match="tree leaf has 2 probabilities for 3 arms"):
            TreePolicy(root=TreeLeaf(np.array([0.0, 1.0])), m=3, d=1)

    @pytest.mark.parametrize("feature", [-1, 3, 9])
    def test_feature_out_of_range(self, feature):
        with pytest.raises(ValueError, match=f"feature {feature}, outside \\[0, 3\\)"):
            TreePolicy(root=TreeNode(0, 1.0, self._split(feature), TreeLeaf(np.array([0.5, 0.5]))), m=2, d=3)

    def test_json_of_wrong_shape(self):
        for text in ("[1, 2]", '{"variant": "constant", "payload": [0.5, 0.5]}'):
            with pytest.raises(ValueError, match="must be JSON objects"):
                policy_from_json(text)
        doc = {"variant": "tree", "m": 2, "d": 1, "payload": {"root": [0.5, 0.5]}}
        with pytest.raises(ValueError, match="a tree node must be a JSON object"):
            policy_from_json(json.dumps(doc))


class TestHarden:
    def test_argmax_behavior(self):
        pol = LogisticPolicy(np.array([[0.0, 2.0]]))  # treat iff 2x > 0
        hard = harden(pol)
        assert hard.prob(1, np.array([0.1])) == 1.0
        assert hard.prob(1, np.array([-0.1])) == 0.0
        # ties go to the lowest arm
        assert hard.prob(0, np.array([0.0])) == 1.0

    def test_roundtrip(self):
        hard = harden(LogisticPolicy(np.array([[0.5, -1.0]])))
        restored = policy_from_json(policy_to_json(hard))
        assert np.array_equal(restored.theta, hard.theta)

    def test_requires_logistic(self):
        with pytest.raises(UnsupportedPolicyError):
            harden(ConstantPolicy(np.array([1.0, 0.0])))
