import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crpolicy import (
    ConstantPolicy,
    HardenedLogisticPolicy,
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

    def test_non_finite_probabilities_refused(self):
        for p in ([np.nan, 1.0], [np.inf, 1.0], [0.5, -np.inf]):
            with pytest.raises(ValueError, match="not a probability vector"):
                ConstantPolicy(np.array(p))
            with pytest.raises(ValueError, match="not a probability vector"):
                TreeLeaf(np.array(p))
        with pytest.raises(ValueError, match="not a probability vector"):
            policy_from_json('{"variant": "constant", "payload": {"p": [NaN, 1.0]}}')

    def test_one_unit_only(self):
        pol = LogisticPolicy(np.array([[0.3, 1.0]]))
        with pytest.raises(ValueError, match="one unit"):
            policy_probability(pol, 1, [[0.5], [2.0]])
        assert policy_probability(pol, 1, [[0.5]]) == policy_probability(pol, 1, [0.5])

    def test_covariate_count_must_match(self):
        leaves = TreeLeaf(np.array([1.0, 0.0])), TreeLeaf(np.array([0.0, 1.0]))
        tree = TreePolicy(root=TreeNode(0, 0.0, *leaves), m=2, d=2)
        logistic = LogisticPolicy(np.zeros((1, 2)))
        for pol, x in ((logistic, [0.5, 2.0]), (harden(logistic), []), (tree, [0.1]), (tree, [0.1, 0.2, 0.3])):
            with pytest.raises(ValueError, match="covariates, the policy reads"):
                policy_probability(pol, 0, x)
        # A constant policy reads no covariates, so any one unit will do.
        assert policy_probability(ConstantPolicy(np.array([0.2, 0.8])), 1, [1.0, 2.0, 3.0]) == 0.8

    def test_arm_range_checked_before_x(self):
        with pytest.raises(IndexError):
            policy_probability(LogisticPolicy(np.zeros((1, 2))), 2, [[0.5], [2.0]])

    def test_baselines(self):
        assert control_baseline(3).p.tolist() == [1.0, 0.0, 0.0]
        assert uniform_baseline(4).p.tolist() == [0.25] * 4


class TestArmMajorLayout:
    """The arm-major scores and softmax give the bits of the unit-major formula, written here as the reference."""

    @staticmethod
    def _unit_major_scores(theta, X):
        s = np.zeros((X.shape[0], theta.shape[0] + 1))
        np.add(theta[None, :, 0], X @ theta[:, 1:].T, out=s[:, 1:])
        return s

    @classmethod
    def _unit_major_probs(cls, theta, X):
        # Row max and normalizer folded column by column, left to right.
        s = cls._unit_major_scores(theta, X)
        s -= functools.reduce(np.maximum, s.T)[:, None]
        np.exp(s, out=s)
        s /= functools.reduce(np.add, s.T)[:, None]
        return s

    @staticmethod
    def _case(m, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((257, 4)) * rng.choice([1.0, 10.0], size=4)
        theta = rng.standard_normal((m - 1, 5)) * rng.choice([0.1, 1.0, 30.0])
        return theta, X

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_logistic_prob_matrix_bytes(self, m, seed):
        theta, X = self._case(m, seed)
        got = LogisticPolicy(theta).prob_matrix(X)
        assert got.shape == (257, m) and got.flags.c_contiguous
        assert got.tobytes() == self._unit_major_probs(theta, X).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_hardened_prob_matrix_bytes(self, m, seed):
        theta, X = self._case(m, seed)
        scores = self._unit_major_scores(theta, X)
        want = np.zeros_like(scores)
        want[np.arange(len(X)), np.argmax(scores, axis=1)] = 1.0
        got = HardenedLogisticPolicy(theta).prob_matrix(X)
        assert got.shape == (257, m) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_gradient_bytes(self, m):
        theta, X = self._case(m, m)
        probs = self._unit_major_probs(theta, X[:1])
        for t in range(m):
            delta = (t == np.arange(1, m)).astype(float)
            want = np.outer(probs[0, t] * (delta - probs[0, 1:]), np.r_[1.0, X[0]])
            assert policy_gradient(LogisticPolicy(theta), t, X[0]).tobytes() == want.tobytes()


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

    def test_one_unit_only(self):
        pol = LogisticPolicy(np.array([[0.3, 1.0]]))
        with pytest.raises(ValueError, match="one unit"):
            policy_gradient(pol, 1, [[0.5], [2.0]])
        with pytest.raises(ValueError, match="covariates, the policy reads"):
            policy_gradient(pol, 1, [0.5, 2.0])
        assert np.array_equal(policy_gradient(pol, 1, [[0.5]]), policy_gradient(pol, 1, [0.5]))

    def test_policy_type_and_arm_range_checked_before_x(self):
        with pytest.raises(UnsupportedPolicyError):
            policy_gradient(ConstantPolicy(np.array([1.0, 0.0])), 0, [[0.5], [2.0]])
        with pytest.raises(IndexError):
            policy_gradient(LogisticPolicy(np.array([[0.3, 1.0]])), 2, [[0.5], [2.0]])


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


class TestDocumentFields:
    """A document's m and d, when present, must be what its payload gives."""

    CONSTANT = {"variant": "constant", "payload": {"p": [0.5, 0.5]}}
    LOGISTIC = {"variant": "logistic", "payload": {"theta": [[0.1, 0.2]]}}
    HARDENED = {"variant": "hardened_logistic", "payload": {"theta": [[0.1, 0.2]]}}
    BAD = {
        "constant m": ({**CONSTANT, "m": 3}, "m = 3"),
        "logistic m and d": ({**LOGISTIC, "m": 5, "d": 9}, "m = 5"),
        "logistic d": ({**LOGISTIC, "m": 2, "d": 9}, "d = 9"),
        "hardened m": ({**HARDENED, "m": 3, "d": 1}, "m = 3"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_disagreeing_fields_refused(self, case):
        doc, message = self.BAD[case]
        with pytest.raises(ValueError, match=message):
            policy_from_json(json.dumps(doc))

    @pytest.mark.parametrize("doc", [CONSTANT, LOGISTIC, HARDENED])
    def test_agreeing_or_absent_fields_accepted(self, doc):
        pol = policy_from_json(json.dumps(doc))
        assert (pol.m, pol.d) == ((2, 0) if doc is self.CONSTANT else (2, 1))
        again = policy_from_json(json.dumps({**doc, "m": pol.m, "d": pol.d}))
        assert (again.m, again.d) == (pol.m, pol.d)

    def test_constant_takes_d_from_the_document(self):
        assert policy_from_json(json.dumps({**self.CONSTANT, "m": 2, "d": 4})).d == 4


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_refused_at_construction(self, bad):
        with pytest.raises(ValueError, match="theta must be finite"):
            HardenedLogisticPolicy(np.array([[0.0, bad]]))
        doc = {"variant": "hardened_logistic", "payload": {"theta": [[bad, 0.0]]}}
        with pytest.raises(ValueError, match="theta must be finite"):
            policy_from_json(json.dumps(doc))
