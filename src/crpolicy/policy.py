"""Policy classes: constant, multinomial logistic, and axis-aligned trees.

A policy maps covariates x to a probability vector over the m arms.
Logistic policies use arm 0 as the softmax reference class, so their
parameter block has shape (m-1, d+1) with the intercept first in each row.
Tree splits follow the fixed convention "x[feature] <= threshold goes to
the left child"; a reversed split sense is expressed by swapping children.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .data import _design_matrix, one_hot_arms, softmax
from .exceptions import UnsupportedPolicyError

__all__ = [
    "Policy",
    "ConstantPolicy",
    "LogisticPolicy",
    "HardenedLogisticPolicy",
    "TreeLeaf",
    "TreeNode",
    "TreePolicy",
    "policy_probability",
    "policy_gradient",
    "control_baseline",
    "uniform_baseline",
    "harden",
    "policy_to_json",
    "policy_from_json",
]


class Policy:
    """Base interface: prob_matrix(X) returns an (n, m) row-stochastic matrix."""

    m: int
    d: int

    def prob_matrix(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def prob(self, t: int, x: np.ndarray) -> float:
        if not 0 <= t < self.m:
            raise IndexError(f"arm {t} out of range for m={self.m}")
        return float(self.prob_matrix(_one_unit(self, x))[0, t])

    def observed_prob(self, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        """pi(T_i | X_i) for each row."""
        probs = self.prob_matrix(X)
        return probs[np.arange(len(T)), np.asarray(T, dtype=np.int64)]


def _one_unit(pol: Policy, x) -> np.ndarray:
    """x as one unit's (1, d) covariates; d is not checked for a constant policy, which reads none."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim != 2 or x.shape[0] != 1:
        raise ValueError(f"x must be one unit's covariates, got an array of shape {x.shape}")
    if not isinstance(pol, ConstantPolicy) and x.shape[1] != pol.d:
        raise ValueError(f"x has {x.shape[1]} covariates, the policy reads {pol.d}")
    return x


def _check_simplex(p: np.ndarray, m: int) -> np.ndarray:
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.shape[0] != m:
        raise ValueError(f"probability vector has length {p.shape[0]}, expected {m}")
    if not np.isfinite(p).all() or p.min() < 0 or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"not a probability vector: {p}")
    return p


@dataclass(frozen=True)
class ConstantPolicy(Policy):
    """Assigns the same arm probabilities to every unit."""

    p: np.ndarray
    d: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p", _check_simplex(self.p, len(np.atleast_1d(self.p))))

    @property
    def m(self) -> int:
        return self.p.shape[0]

    def prob_matrix(self, X: np.ndarray) -> np.ndarray:
        n = np.atleast_2d(X).shape[0]
        return np.tile(self.p, (n, 1))


@dataclass(frozen=True)
class _ThetaPolicy(Policy):
    """A policy set by a finite parameter block theta of shape (m-1, d+1):
    row t-1 holds (alpha_t, beta_t) for arm t, and arm 0 is the zero-score
    reference."""

    theta: np.ndarray

    def __post_init__(self):
        th = np.atleast_2d(np.asarray(self.theta, dtype=float))
        if not np.all(np.isfinite(th)):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "theta", th)

    @property
    def m(self) -> int:
        return self.theta.shape[0] + 1

    @property
    def d(self) -> int:
        return self.theta.shape[1] - 1


class LogisticPolicy(_ThetaPolicy):
    """Multinomial logistic policy pi(t | x) proportional to exp(alpha_t + beta_t' x)."""

    def prob_matrix(self, X: np.ndarray) -> np.ndarray:
        # In C order: callers reduce its rows, and numpy sums a strided row of 8 or more in another order.
        return np.ascontiguousarray(softmax(logistic_scores(self.theta, X), axis=-2).T)


class HardenedLogisticPolicy(_ThetaPolicy):
    """Deterministic argmax version of a logistic policy (evaluation-time only)."""

    def prob_matrix(self, X: np.ndarray) -> np.ndarray:
        return np.eye(self.m)[np.argmax(logistic_scores(self.theta, X), axis=0)]


def logistic_scores(theta: np.ndarray, X: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Arm-major scores (m, n) of a parameter block theta (m-1, d+1), or (R, m, n)
    of a stack of R blocks (R, m-1, d+1): row t holds every unit's score for
    arm t, and row 0, the reference arm, is zero. The BLAS forms X @ beta^T
    unit-major, (n, m-1); the intercepts are added through its transpose, so
    each arm's row is written whole. out, if given, receives the scores.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    s = np.empty(theta.shape[:-2] + (theta.shape[-2] + 1, X.shape[0])) if out is None else out
    s[..., 0, :] = 0.0
    np.add(theta[..., :, 0, None], np.swapaxes(X @ np.swapaxes(theta[..., 1:], -1, -2), -1, -2), out=s[..., 1:, :])
    return s


def score_grad_at(probs: np.ndarray, c: np.ndarray, pT: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """c_i * d pi(T_i | X_i) / d s_u for the non-reference scores u = 1..m-1, as (n, m-1).

    probs are arm-major, (m, n) as `logistic_scores` lays them out, pT holds
    them gathered at each T_i, and delta is `one_hot_arms(T, m)` transposed
    to (m-1, n). d pi_t / d s_u = pi_t (1[t=u] - pi_u); the gradient in theta
    is this row times (1, X_i), so sum_i c_i grad pi(T_i | X_i) is the
    result's transpose times the design matrix. The result is formed
    arm-major but stored unit-major and C-ordered: the BLAS product's
    operand, and so its rounding, are those of a unit-major gradient block.
    Stacked probs (R, m, n), c and pT (R, n) give (R, n, m-1).
    """
    out = np.empty(probs.shape[:-2] + (probs.shape[-1], probs.shape[-2] - 1))
    np.multiply(delta - probs[..., 1:, :], (c * pT)[..., None, :], out=np.swapaxes(out, -1, -2))
    return out


def harden(pol: "LogisticPolicy") -> HardenedLogisticPolicy:
    """Map a logistic policy to its deterministic argmax limit."""
    if not isinstance(pol, LogisticPolicy):
        raise UnsupportedPolicyError(f"harden expects a LogisticPolicy, got {type(pol).__name__}")
    return HardenedLogisticPolicy(pol.theta)


@dataclass(frozen=True)
class TreeLeaf:
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _check_simplex(self.probs, len(np.atleast_1d(self.probs))))


@dataclass(frozen=True)
class TreeNode:
    feature: int
    threshold: float
    left: Union["TreeNode", TreeLeaf]
    right: Union["TreeNode", TreeLeaf]

    def __post_init__(self):
        if not np.isfinite(self.threshold):
            raise ValueError("tree threshold must be finite")


@dataclass(frozen=True)
class TreePolicy(Policy):
    """Axis-aligned decision tree with a probability vector at each leaf."""

    root: Union[TreeNode, TreeLeaf]
    m: int
    d: int

    def __post_init__(self):
        nodes = [self.root]
        while nodes:
            node = nodes.pop()
            if isinstance(node, TreeLeaf):
                if node.probs.size != self.m:
                    raise ValueError(f"tree leaf has {node.probs.size} probabilities for {self.m} arms")
            elif not 0 <= node.feature < self.d:
                raise ValueError(f"tree splits on feature {node.feature}, outside [0, {self.d})")
            else:
                nodes += [node.left, node.right]

    def depth(self) -> int:
        def walk(node):
            if isinstance(node, TreeLeaf):
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def prob_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((X.shape[0], self.m))

        def walk(node, mask):
            if isinstance(node, TreeLeaf):
                out[mask] = node.probs
                return
            go_left = X[:, node.feature] <= node.threshold
            walk(node.left, mask & go_left)
            walk(node.right, mask & ~go_left)

        walk(self.root, np.ones(X.shape[0], dtype=bool))
        return out


def policy_probability(pol: Policy, t: int, x) -> float:
    """pi(t | x); raises IndexError when t >= m."""
    return pol.prob(t, x)


def policy_gradient(pol: Policy, t: int, x) -> np.ndarray:
    """Gradient of pi(t | x) in the logistic parameters, shape (m-1, d+1)."""
    if not isinstance(pol, LogisticPolicy):
        raise UnsupportedPolicyError(
            f"policy_gradient supports only logistic policies, got {type(pol).__name__}"
        )
    if not 0 <= t < pol.m:
        raise IndexError(f"arm {t} out of range for m={pol.m}")
    x = _one_unit(pol, x)
    probs = softmax(logistic_scores(pol.theta, x), axis=-2)
    coef = score_grad_at(probs, np.ones(1), probs[t], one_hot_arms(np.array([t]), pol.m).T)
    return np.outer(coef[0], _design_matrix(x)[0])


def control_baseline(m: int) -> ConstantPolicy:
    """The always-assign-arm-0 baseline."""
    return ConstantPolicy(np.eye(m)[0])


def uniform_baseline(m: int) -> ConstantPolicy:
    return ConstantPolicy(np.full(m, 1.0 / m))


def _node_to_obj(node):
    if isinstance(node, TreeLeaf):
        return {"leaf": list(map(float, node.probs))}
    return {
        "feature": int(node.feature),
        "threshold": float(node.threshold),
        "left": _node_to_obj(node.left),
        "right": _node_to_obj(node.right),
    }


def _node_from_obj(obj):
    if not isinstance(obj, dict):
        raise ValueError(f"a tree node must be a JSON object, not {obj!r}")
    if "leaf" in obj:
        return TreeLeaf(np.array(obj["leaf"], dtype=float))
    return TreeNode(
        feature=int(obj["feature"]),
        threshold=float(obj["threshold"]),
        left=_node_from_obj(obj["left"]),
        right=_node_from_obj(obj["right"]),
    )


def policy_to_json(pol: Policy) -> str:
    """Serialize to a JSON document {variant, m, d, payload}.

    Parameter round-trips are bit-faithful: floats are emitted via repr,
    which json restores exactly.
    """
    if isinstance(pol, ConstantPolicy):
        variant, payload = "constant", {"p": list(map(float, pol.p))}
    elif isinstance(pol, _ThetaPolicy):
        variant = "logistic" if isinstance(pol, LogisticPolicy) else "hardened_logistic"
        payload = {"theta": [list(map(float, row)) for row in pol.theta]}
    elif isinstance(pol, TreePolicy):
        variant, payload = "tree", {"root": _node_to_obj(pol.root)}
    else:
        raise UnsupportedPolicyError(f"cannot serialize {type(pol).__name__}")
    return json.dumps({"variant": variant, "m": pol.m, "d": pol.d, "payload": payload}, sort_keys=True)


def policy_from_json(text: str) -> Policy:
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("payload", {}), dict):
        raise ValueError("a policy JSON and its payload must be JSON objects")
    variant = doc.get("variant")
    payload = doc.get("payload", {})
    if variant == "constant":
        pol = ConstantPolicy(np.array(payload["p"], dtype=float), d=int(doc.get("d", 0)))
    elif variant == "logistic":
        pol = LogisticPolicy(np.array(payload["theta"], dtype=float))
    elif variant == "hardened_logistic":
        pol = HardenedLogisticPolicy(np.array(payload["theta"], dtype=float))
    elif variant == "tree":
        return TreePolicy(root=_node_from_obj(payload["root"]), m=int(doc["m"]), d=int(doc["d"]))
    else:
        raise UnsupportedPolicyError(f"unknown policy variant {variant!r}")
    # The payload sets m and d; a document that also states them must agree.
    for key, value in (("m", pol.m), ("d", pol.d)):
        if key in doc and doc[key] != value:
            raise ValueError(
                f"the {variant} policy document says {key} = {doc[key]!r}, its payload gives {value}"
            )
    return pol
