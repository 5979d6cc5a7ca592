"""Benchmark inputs, drawn with numpy alone.

The fit workloads read CSVs made here rather than by
`crpolicy.evaluation.simulation`, so a change to the package cannot change
what the benchmark feeds it. The design is confounded: a hidden binary
shock U lowers the loss of every treated arm, and assignment leans toward
arm 0 or away from it by whether some treatment helps the unit, which no
function of X reproduces. Arm sizes are fixed (equal up to one unit) so
that the per-arm solve sizes, and with them the cost of an op, do not
drift from seed to seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

D = 5
COVARIATES = [f"x{j}" for j in range(D)]

_BASE = np.array([0.5, -0.5, 0.3, 0.0, 0.0])
_EFFECT = np.array([1.0, -0.5, 0.5, 0.0, 0.0])
_SELECT = np.array([0.6, 0.0, -0.4, 0.3, 0.0])
_TILT = float(np.log(1.5))


@dataclass(frozen=True)
class Draw:
    """Covariates, observed arm and loss, and the loss under every arm."""

    X: np.ndarray
    T: np.ndarray
    Y: np.ndarray
    potential: np.ndarray


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=stream))


def draw(rng: np.random.Generator, n: int, m: int) -> Draw:
    """n units over m arms; arm t gets n // m units, plus one for t < n % m."""
    X = rng.standard_normal((n, D))
    U = rng.integers(0, 2, size=n)
    base = X @ _BASE + rng.standard_normal(n)
    potential = np.empty((n, m))
    potential[:, 0] = base
    for t in range(1, m):
        sign = 1.0 if t % 2 else -1.0
        potential[:, t] = base + sign * (X @ _EFFECT) + 0.3 * t - 1.5 * U
    helps = (potential[:, 1:].min(axis=1) < potential[:, 0]).astype(float)

    # Gumbel top-k: sampling without replacement in proportion to the odds of
    # each arm against arm 0 fills every arm to its fixed size.
    sizes = [n // m + (1 if t < n % m else 0) for t in range(m)]
    T = np.zeros(n, dtype=np.int64)
    free = np.arange(n)
    for t in range(m - 1, 0, -1):
        sign = 1.0 if t % 2 else -1.0
        logit = sign * (X[free] @ _SELECT) + _TILT * (2.0 * helps[free] - 1.0)
        keys = logit + rng.gumbel(size=free.size)
        chosen = np.argsort(-keys, kind="stable")[: sizes[t]]
        T[free[chosen]] = t
        free = np.delete(free, chosen)
    Y = potential[np.arange(n), T]
    return Draw(X=X, T=T, Y=Y, potential=potential)


def write_csv(path, sample: Draw) -> None:
    """Columns x0..x4, t, y; floats in repr form so they parse back exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COVARIATES + ["t", "y"])
        for x, t, y in zip(sample.X.tolist(), sample.T.tolist(), sample.Y.tolist()):
            w.writerow([repr(v) for v in x] + [str(t), repr(y)])
