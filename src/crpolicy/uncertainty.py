"""Uncertainty sets for the true inverse propensity weights.

A sensitivity parameter gamma >= 1 bounds the odds ratio between nominal
and true propensities, which pins each unit's true inverse weight into
[a_i, b_i] around the nominal weight W_i = 1/e_hat_i. An optional per-arm
budget lambda_t additionally caps the mean absolute deviation of the
weights from nominal within each arm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .data import ArmIndex, Dataset

__all__ = ["UncertaintySpec", "weight_bounds", "budget_from_fraction"]


def weight_bounds(w_tilde: np.ndarray, gamma: float):
    """Per-unit inverse-propensity bounds a_i = 1 + (W_i - 1)/gamma, b_i = 1 + gamma (W_i - 1).

    Requires every nominal weight W_i >= 1 (a propensity above 1 signals
    corrupted input and is a hard error, not something to clamp), and a
    gamma small enough that n max b_i is a finite float.
    """
    w = np.asarray(w_tilde, dtype=float)
    if not np.isfinite(gamma) or gamma < 1.0:
        raise ValueError(f"gamma must be a finite real >= 1, got {gamma}")
    if w.size and (not np.all(np.isfinite(w)) or w.min() < 1.0):
        raise ValueError("nominal inverse weights must be finite and >= 1")
    dev = w - 1.0
    # The solvers sum the bounds, so their sum must be a finite float too.
    # Python floats overflow to inf without a warning: refuse before numpy multiplies.
    if w.size and not np.isfinite(w.size * (1.0 + float(dev.max()) * float(gamma))):
        raise ValueError(
            f"gamma={gamma:g} is too large: the upper weight bounds 1 + gamma (W - 1) "
            f"of {w.size} units, W up to {w.max():g}, overflow"
        )
    return 1.0 + dev / gamma, 1.0 + dev * gamma


@dataclass(frozen=True)
class UncertaintySpec:
    """Immutable bundle of (gamma, a, b, W_tilde) plus optional per-arm budgets.

    Bounds are computed once per (dataset, gamma) and shared by the solvers,
    which call into them thousands of times during policy optimization.
    """

    gamma: float
    w_tilde: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lam: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("w_tilde", "a", "b"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.w_tilde.shape == self.a.shape == self.b.shape):
            raise ValueError("w_tilde, a, b must have equal length")
        if self.lam is not None:
            lam = np.ascontiguousarray(self.lam, dtype=float)
            if not (np.isfinite(lam).all() and np.all(lam >= 0.0)):
                raise ValueError(f"per-arm budgets must be finite and non-negative, got {lam.tolist()}")
            lam.flags.writeable = False
            object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.w_tilde.shape[0]

    @property
    def budgeted(self) -> bool:
        return self.lam is not None

    @classmethod
    def from_weights(cls, w_tilde, gamma: float, lam=None) -> "UncertaintySpec":
        a, b = weight_bounds(w_tilde, gamma)
        return cls(gamma=float(gamma), w_tilde=np.asarray(w_tilde, dtype=float), a=a, b=b, lam=lam)

    @classmethod
    def from_propensities(cls, e_hat, gamma: float, lam=None) -> "UncertaintySpec":
        e = np.asarray(e_hat, dtype=float)
        if e.size and (not np.all(np.isfinite(e)) or e.min() <= 0.0 or e.max() > 1.0):
            raise ValueError("propensities must lie in (0, 1]")
        return cls.from_weights(1.0 / e, gamma, lam=lam)

    @classmethod
    def from_dataset(cls, data: Dataset, gamma: float, rho: Optional[float] = None) -> "UncertaintySpec":
        """Build bounds from data.e_hat; with rho given, attach fractional budgets."""
        if data.e_hat is None:
            raise ValueError("dataset has no propensities; call estimate_propensities first")
        spec = cls.from_propensities(data.e_hat, gamma)
        if rho is not None:
            spec = spec.with_budget(budget_from_fraction(spec, data.arms(), rho))
        return spec

    def with_budget(self, lam) -> "UncertaintySpec":
        return replace(self, lam=np.asarray(lam, dtype=float))

    def restrict(self, idx: np.ndarray):
        """Slice (w_tilde, a, b) to the given unit indices."""
        return self.w_tilde[idx], self.a[idx], self.b[idx]


def budget_from_fraction(spec: UncertaintySpec, arms: ArmIndex, rho: float) -> np.ndarray:
    """Per-arm budgets lambda_t = rho * mean over I_t of max(W_i - a_i, b_i - W_i).

    Linear in rho; identically zero at rho = 0 or gamma = 1.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    max_dev = np.maximum(spec.w_tilde - spec.a, spec.b - spec.w_tilde)
    arms.require_nonempty("cannot compute budget over an empty arm")
    return np.array([rho * float(max_dev[idx].mean()) for idx in arms.indices])
