"""Cross-gamma calibration: train at gamma_k, stress-test at gamma_k'."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..data import Dataset
from ..policy import Policy

__all__ = ["CalibrationMatrix", "calibration_matrix"]


@dataclass(frozen=True)
class CalibrationMatrix:
    """values[k][k'] = worst-case regret of the gamma_k policy under gamma_k'.

    Uncertainty sets are nested in gamma, so every row is nondecreasing,
    and the diagonal coincides with the fits' reported objectives.
    """

    gammas: np.ndarray
    values: np.ndarray
    policies: tuple = ()

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (g.size, g.size):
            raise ValueError(f"values must be {g.size}x{g.size}")
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "values", v)


def calibration_matrix(
    data: Dataset,
    gammas: Sequence[float],
    pi0: Policy,
    opts=None,
    rho: Optional[float] = None,
) -> CalibrationMatrix:
    """Fit the gamma path; its cross-gamma check already evaluated every policy at every gamma."""
    from ..optimize import FitOptions, _gamma_path

    fits, rows = _gamma_path(data, gammas, pi0, opts if opts is not None else FitOptions(), rho)
    return CalibrationMatrix(
        gammas=np.asarray(list(gammas), dtype=float),
        values=np.array(rows, dtype=float).reshape(len(fits), len(fits)),
        policies=tuple(fit.policy for fit in fits),
    )
