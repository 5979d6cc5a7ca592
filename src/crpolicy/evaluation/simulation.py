"""Synthetic data generators with known counterfactuals and confounded assignment.

Both generators hide a binary shock from the learner: assignment depends on
whether treatment would actually help the unit, which no function of X can
reproduce. Counterfactual outcomes are stored so the true regret of any
learned policy can be computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from ..data import Dataset, softmax
from ..uncertainty import weight_bounds

__all__ = [
    "SimParamsBinary",
    "SimParamsMulti",
    "SimulatedData",
    "simulate_binary",
    "simulate_multi",
]


@dataclass(frozen=True)
class SimParamsBinary:
    """Binary-treatment design: constant effect alpha plus a linear interaction.

    Defaults: alpha = 2.5, beta_treat = [-1.5, 1, -1.5, 1, 0.5],
    mu_x = [-1, .5, -1, 0, -1], nominal propensity sigma(beta_prop' [1, x])
    with beta_prop = [0, .75, -.5, 0, -1, 0], shock scale eta_tilde = -2,
    and confounding strength gamma_true = 1.5. The baseline slope default
    beta_tilde = -2.5 * beta_treat makes baseline severity anti-correlated
    with treatment benefit, which is what lets the confounded assignment
    mislead weighting-based learners at this sample size; override it to
    explore milder regimes.
    """

    n: int
    seed: int = 0
    mu_x: np.ndarray = field(default_factory=lambda: np.array([-1.0, 0.5, -1.0, 0.0, -1.0]))
    beta_tilde: np.ndarray = field(
        default_factory=lambda: -2.5 * np.array([-1.5, 1.0, -1.5, 1.0, 0.5])
    )
    beta_treat: np.ndarray = field(default_factory=lambda: np.array([-1.5, 1.0, -1.5, 1.0, 0.5]))
    alpha: float = 2.5
    eta_tilde: float = -2.0
    beta_prop: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.75, -0.5, 0.0, -1.0, 0.0]))
    gamma_true: float = 1.5

    def __post_init__(self):
        for name, size in (("mu_x", 5), ("beta_tilde", 5), ("beta_treat", 5), ("beta_prop", 6)):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if arr.shape[0] != size:
                raise ValueError(f"{name} must have length {size}")
            object.__setattr__(self, name, arr)
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.gamma_true < 1.0:
            raise ValueError("gamma_true must be >= 1")


@dataclass(frozen=True)
class SimulatedData:
    """A Dataset plus the generator's hidden quantities, for oracle checks.

    w_star holds the true inverse propensity of each unit's observed arm;
    e_treat is the nominal (X-only) treatment propensity used to build the
    uncertainty sets; g marks the units for which treatment strictly helps.
    """

    data: Dataset
    w_star: np.ndarray
    e_treat: np.ndarray
    g: np.ndarray
    xi: np.ndarray


def simulate_binary(params: SimParamsBinary) -> SimulatedData:
    """Draw the binary-treatment design with assignment confounded by benefit.

    Potential outcomes: Y(t) = beta_tilde'x + 1[t=1](beta_treat'x + alpha)
    + eta_tilde (1 + xi) + eps, with xi ~ Bern(1/2) and eps ~ N(0, 1). The
    benefit indicator g = 1[Y(1) < Y(0)] tilts the assignment so that the
    true inverse weight of the treated arm sits exactly on the
    gamma_true-bound around the nominal weight: the upper bound where
    treatment helps, the lower bound where it does not.

    The covariate mean shift (2T-1) mu_x is applied with a preliminary fair
    coin; the recorded treatment is then redrawn from the confounded
    propensity given the realized covariates, which keeps every recorded
    (nominal weight, true weight) pair exactly on the stated bounds.
    """
    p = params
    rng = np.random.default_rng(p.seed)
    n = p.n
    t_coin = rng.integers(0, 2, size=n)
    X = (2 * t_coin - 1)[:, None] * p.mu_x + rng.standard_normal((n, 5))
    xi = rng.integers(0, 2, size=n)
    eps = rng.standard_normal(n)
    base = X @ p.beta_tilde + p.eta_tilde + p.eta_tilde * xi + eps
    y0 = base
    y1 = base + X @ p.beta_treat + p.alpha
    g = (y1 < y0).astype(np.int64)

    e_treat = softmax(np.column_stack([np.zeros(n), p.beta_prop[0] + X @ p.beta_prop[1:]]))[:, 1]
    # True inverse weight of the *treated* arm: (4 + 5g + e(2 - 5g)) / (6e)
    # for gamma_true = 1.5; in general it equals the g-selected bound.
    w_tilde_treat = 1.0 / e_treat
    a1, b1 = weight_bounds(w_tilde_treat, p.gamma_true)
    w_star_treat = np.where(g == 1, b1, a1)
    e_true_treat = 1.0 / w_star_treat
    T = (rng.random(n) < e_true_treat).astype(np.int64)
    Y = np.where(T == 1, y1, y0)

    e_nominal_obs = np.where(T == 1, e_treat, 1.0 - e_treat)
    w_star_obs = np.where(T == 1, w_star_treat, 1.0 / (1.0 - e_true_treat))
    data = Dataset(
        X=X,
        T=T,
        Y=Y,
        m=2,
        e_hat=e_nominal_obs,
        potential_Y=np.column_stack([y0, y1]),
    )
    return SimulatedData(data=data, w_star=w_star_obs, e_treat=e_treat, g=g, xi=xi)


@dataclass(frozen=True)
class SimParamsMulti:
    """Three-arm design with one heterogeneous, confounded arm (t = 1).

    Outcomes: Y(t) = beta_tilde'x + eps + sum_{t'>=1} 1[t=t'] (beta_t''x
    + alpha_t' + eta_t' xi) over X ~ Unif(-3, 3)^5. Assignment follows a
    softmax over the per-arm selection scores beta_treat[t]'x, with the
    benefit shock U = 1[Y(1) < Y(0)] tilting the arm-1 logit by
    +-arm1_tilt; replace the whole mechanism via
    assignment_fn(X, U) -> (n, 3) probability rows if desired.
    """

    n: int
    seed: int = 0
    eta: np.ndarray = field(default_factory=lambda: np.array([0.0, -2.0, 0.0]))
    alpha: np.ndarray = field(default_factory=lambda: np.array([0.0, 2.0, 0.5]))
    beta_tilde: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.5, -0.5, 0.0, 0.0]))
    beta_t1: np.ndarray = field(
        default_factory=lambda: 0.75 * np.array([-1.0, 0.5, -1.0, 1.0, 0.5])
    )
    beta_treat: np.ndarray = field(
        default_factory=lambda: np.array(
            [
                [0.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 1.5, -1.0, 0.0, -2.0],
                [0.0, 0.0, 0.5, 0.0, 0.5],
            ]
        )
    )
    arm1_tilt: float = float(np.log(1.5))
    assignment_fn: Optional[Callable] = None

    def __post_init__(self):
        for name, shape in (
            ("eta", (3,)),
            ("alpha", (3,)),
            ("beta_tilde", (5,)),
            ("beta_t1", (5,)),
            ("beta_treat", (3, 5)),
        ):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(shape)
            object.__setattr__(self, name, arr)
        if self.n < 1:
            raise ValueError("n must be positive")

    @property
    def m(self) -> int:
        return 3


def _multi_assignment_probs(p: SimParamsMulti, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    scores = X @ p.beta_treat.T
    scores[:, 1] += p.arm1_tilt * (2.0 * U - 1.0)
    return softmax(scores)


def simulate_multi(params: SimParamsMulti) -> SimulatedData:
    """Draw the three-arm design; arm 1 is both heterogeneous and confounded."""
    p = params
    rng = np.random.default_rng(p.seed)
    n = p.n
    X = rng.uniform(-3.0, 3.0, size=(n, 5))
    xi = rng.integers(0, 2, size=n)
    eps = rng.standard_normal(n)
    base = X @ p.beta_tilde + eps
    # Arm 0 is the reference: the per-arm additive block applies to t >= 1 only.
    betas = [np.zeros(5), p.beta_t1, np.zeros(5)]
    potential = np.column_stack(
        [base]
        + [base + X @ betas[t] + p.alpha[t] + p.eta[t] * xi for t in (1, 2)]
    )
    U = (potential[:, 1] < potential[:, 0]).astype(np.int64)

    assign = p.assignment_fn if p.assignment_fn is not None else partial(_multi_assignment_probs, p)
    probs_true = np.asarray(assign(X, U), dtype=float)
    if probs_true.shape != (n, 3):
        raise ValueError("assignment_fn must return an (n, 3) probability matrix")
    cdf = np.cumsum(probs_true, axis=1)
    u = rng.random(n)
    T = (u[:, None] > cdf).sum(axis=1).astype(np.int64)
    Y = potential[np.arange(n), T]

    # Nominal propensities marginalize the shock out at fixed X. U depends on
    # xi only through 1[Y(1) < Y(0)], so average the two xi branches.
    gap = X @ p.beta_t1 + p.alpha[1]
    u_if_xi0 = (gap < 0).astype(float)
    u_if_xi1 = (gap + p.eta[1] < 0).astype(float)
    nominal = 0.5 * (np.asarray(assign(X, u_if_xi0)) + np.asarray(assign(X, u_if_xi1)))
    e_nominal_obs = nominal[np.arange(n), T]
    w_star_obs = 1.0 / probs_true[np.arange(n), T]

    data = Dataset(X=X, T=T, Y=Y, m=3, e_hat=e_nominal_obs, potential_Y=potential)
    return SimulatedData(
        data=data, w_star=w_star_obs, e_treat=nominal[:, 1], g=U, xi=xi
    )
