"""Dataset container, CSV ingestion, arm partitioning, and nominal propensity estimation.

Outcomes are losses: lower is better. Treatment labels must be dense
integers 0..m-1; remapping arbitrary labels is the caller's job.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exceptions import ConvergenceError, CovariateOverflowError, DatasetError, DatasetWarning, EmptyArmError

__all__ = [
    "Dataset",
    "ArmIndex",
    "ColumnSchema",
    "load_dataset",
    "estimate_propensities",
    "softmax",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


def softmax(scores: np.ndarray, axis: int = -1, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax over the arm axis `axis` of scores, less each unit's largest score first.

    Every shifted score is at most 0 and the largest is 0, so exp cannot
    overflow and the normalizer is at least 1: safe for any finite scores.
    The arm axis may sit anywhere. Unit-major (n, m) rows take the default;
    the learner's arm-major (..., m, n) blocks pass axis=-2, so each arm is a
    contiguous row and every pass runs along the units. Either layout gives
    the bits of numpy's reduces over the last axis of (n, m). The row max
    and, for fewer than 8 arms, the normalizer are folded over the arm axis
    a slice (a view) at a time: a max is exact in any order, and numpy's
    pairwise sum adds fewer than 8 terms left to right, as the slices are
    added here. It sums 8 or more in another order, so there the normalizer
    is numpy's own sum, over a unit-major copy. out may be scores itself.
    """
    axis %= scores.ndim
    s = np.subtract(scores, _fold(np.maximum, scores, axis), out=out)
    np.exp(s, out=s)
    if s.shape[axis] < 8:
        s /= _fold(np.add, s, axis)
    else:
        s /= np.swapaxes(np.ascontiguousarray(np.swapaxes(s, axis, -1)).sum(axis=-1, keepdims=True), axis, -1)
    return s


def one_hot_arms(T: np.ndarray, m: int) -> np.ndarray:
    """1[T_i = u] for the non-reference arms u = 1..m-1, as (n, m-1) floats."""
    return (T[:, None] == np.arange(1, m)[None, :]).astype(float)


def _fold(ufunc, x: np.ndarray, axis: int) -> np.ndarray:
    """ufunc folded over `axis` of x from the left, a slice (a view) at a time; the axis is kept with length 1."""
    lead = (slice(None),) * axis
    out = np.array(x[lead + (slice(0, 1),)])
    for j in range(1, x.shape[axis]):
        ufunc(out, x[lead + (slice(j, j + 1),)], out=out)
    return out


@dataclass(frozen=True)
class Dataset:
    """Observational sample (X, T, Y) with optional propensities and counterfactuals.

    Attributes
    ----------
    X : (n, d) float array of covariates.
    T : (n,) integer treatment labels in {0, ..., m-1}.
    Y : (n,) float outcomes, interpreted as losses.
    m : number of treatment arms, at least 2.
    e_hat : optional (n,) nominal propensity of the *observed* arm,
        each value in (0, 1].
    potential_Y : optional (n, m) matrix of counterfactual outcomes
        (simulation only); must satisfy Y[i] == potential_Y[i, T[i]] exactly.
    """

    X: np.ndarray
    T: np.ndarray
    Y: np.ndarray
    m: int
    e_hat: Optional[np.ndarray] = None
    potential_Y: Optional[np.ndarray] = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        labels = np.asarray(self.T).reshape(-1)
        if labels.dtype.kind == "f" and not np.all(np.isfinite(labels) & (labels == np.trunc(labels))):
            raise DatasetError("treatment labels must be integers")
        Y = np.asarray(self.Y, dtype=float).reshape(-1)
        n = labels.shape[0]
        if X.shape[0] != n and not (n == 0 and X.size == 0):
            raise DatasetError(f"X has {X.shape[0]} rows but T has {n}")
        if X.shape[0] != n:
            X = X.reshape(n, -1)
        if Y.shape[0] != n:
            raise DatasetError(f"Y has {Y.shape[0]} entries but T has {n}")
        m = self.m
        if isinstance(m, (float, np.floating)) and float(m).is_integer():
            m = int(m)
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise DatasetError(f"treatment arity m={self.m!r} must be an integer")
        m = int(m)
        if m < 2:
            raise DatasetError(f"treatment arity m={m} must be >= 2")
        if not np.all(np.isfinite(X)):
            raise DatasetError("X contains non-finite values")
        if not np.all(np.isfinite(Y)):
            raise DatasetError("Y contains non-finite values")
        if n and (labels.min() < 0 or labels.max() >= m):
            raise DatasetError("treatment labels must lie in {0, ..., m-1}")
        T = labels.astype(np.int64, copy=False)

        e_hat = self.e_hat
        if e_hat is not None:
            e_hat = np.asarray(e_hat, dtype=float).reshape(-1)
            if e_hat.shape[0] != n:
                raise DatasetError("e_hat length does not match n")
            if n and (not np.all(np.isfinite(e_hat)) or e_hat.min() <= 0.0 or e_hat.max() > 1.0):
                raise DatasetError("e_hat values must lie in (0, 1]")
            e_hat = _frozen(e_hat)

        pY = self.potential_Y
        if pY is not None:
            pY = np.asarray(pY, dtype=float)
            if pY.shape != (n, m):
                raise DatasetError(f"potential_Y must have shape ({n}, {m})")
            if n and not np.array_equal(Y, pY[np.arange(n), T]):
                raise DatasetError("Y must equal potential_Y[i, T[i]] exactly")
            pY = _frozen(pY)

        for name, value in dict(X=_frozen(X), T=_frozen(T), Y=_frozen(Y), m=m, e_hat=e_hat, potential_Y=pY).items():
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.T.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def with_propensities(self, e_hat: np.ndarray) -> "Dataset":
        return Dataset(self.X, self.T, self.Y, self.m, e_hat=e_hat, potential_Y=self.potential_Y)

    def arms(self) -> "ArmIndex":
        return ArmIndex.from_labels(self.T, self.m)


@dataclass(frozen=True)
class ArmIndex:
    """Per-arm index sets I_t = {i : T_i = t}; disjoint with union {0, ..., n-1}."""

    indices: tuple

    @classmethod
    def from_labels(cls, T: Sequence[int], m: int) -> "ArmIndex":
        T = np.asarray(T, dtype=np.int64)
        return cls(tuple(_frozen(np.flatnonzero(T == t)) for t in range(m)))

    @property
    def m(self) -> int:
        return len(self.indices)

    def __getitem__(self, t: int) -> np.ndarray:
        return self.indices[t]

    def require_nonempty(self, context: str = "") -> None:
        for t, idx in enumerate(self.indices):
            if idx.size == 0:
                raise EmptyArmError(t, context)


@dataclass(frozen=True)
class ColumnSchema:
    """Column-name configuration for CSV ingestion."""

    covariates: Sequence[str]
    treatment: str
    outcome: str
    propensity: Optional[str] = None
    potential_outcomes: Optional[Sequence[str]] = field(default=None)


def _parse_cell(raw: str, column: str, row: int) -> float:
    raw = raw.strip()
    if raw == "":
        raise DatasetError(f"missing value in column '{column}' at data row {row}")
    try:
        value = float(raw)
    except ValueError:
        raise DatasetError(f"non-numeric value {raw!r} in column '{column}' at data row {row}") from None
    if not np.isfinite(value):
        raise DatasetError(f"non-finite value in column '{column}' at data row {row}")
    return value


# The rules for a finite treatment label, in the order they are checked: a
# test on one float label or an array of them, and how a refusal words it.
_LABEL_RULES = (
    (lambda t: (t == np.floor(t)) & (t >= 0), "is not a non-negative integer"),
    (lambda t: t < 2.0**63, "is past the int64 range"),
)

# Data rows read and converted at a time: memory stays bounded in the
# length of the file while each column converts at C speed.
_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class _Layout:
    """Where the wanted columns sit in the file's rows: `names[j]` is read
    from cell `pos[j]`, and the treatment is the one at `t_at`."""

    path: str
    width: int
    names: list
    pos: list
    t_at: int

    def parse_cells(self, rows, first: int) -> tuple:
        """Rows numbered from `first`, parsed cell by cell: each kept row's
        values and its label, skipping blank rows and raising at the first
        bad cell in file order."""
        values, labels = [], []
        cells = list(zip(self.names, self.pos))
        for row_num, row in enumerate(rows, start=first):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != self.width:
                raise DatasetError(
                    f"{self.path}: data row {row_num} has {len(row)} cells, expected {self.width}"
                )
            vals = [_parse_cell(row[j], name, row_num) for name, j in cells[: self.t_at + 1]]
            t_val = vals[-1]
            for rule, problem in _LABEL_RULES:
                if not rule(t_val):
                    raise DatasetError(f"{self.path}: treatment value {t_val!r} at data row {row_num} {problem}")
            vals += [_parse_cell(row[j], name, row_num) for name, j in cells[self.t_at + 1 :]]
            values.append(vals)
            labels.append(int(t_val))
        return values, labels

    def parse_chunk(self, rows, first: int) -> tuple:
        """The wanted columns of rows numbered from `first`, as (columns,
        kept rows) floats, and their labels. The cells convert column by
        column and are checked at once; a chunk that fails a check, or holds
        a blank row, is parsed by `parse_cells`, which raises the error or
        skips the rows as it does for any file."""
        try:
            if all(map(self.width.__eq__, map(len, rows))):
                cols = list(zip(*rows))
                vals = np.array([np.fromiter(map(float, cols[j]), float, len(rows)) for j in self.pos])
                t = vals[self.t_at]
                # A label that breaks a rule is left to `parse_cells`, which names its row.
                if np.isfinite(vals).all() and all(rule(t).all() for rule, _ in _LABEL_RULES):
                    return vals, t.astype(np.int64)
        except ValueError:
            pass
        values, labels = self.parse_cells(rows, first)
        return np.array(values, dtype=float).reshape(-1, len(self.pos)).T, labels


def load_dataset(path, schema: ColumnSchema) -> Dataset:
    """Read a UTF-8 CSV with a header row into a Dataset.

    The number of arms is inferred as 1 + max(T) (at least 2). A treatment
    label in {0, ..., m-1} that never occurs in the file triggers a
    DatasetWarning rather than an error; fitting on that arm later fails.
    A file in which more labels never occur than it has data rows is
    refused with a DatasetError.
    Rows are read in chunks of `_CHUNK_ROWS`.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: file is empty (no header row)") from None
        header = [h.strip() for h in header]
        col_pos = {name: i for i, name in enumerate(header)}

        wanted = list(schema.covariates) + [schema.treatment, schema.outcome]
        if schema.propensity:
            wanted.append(schema.propensity)
        if schema.potential_outcomes:
            wanted.extend(schema.potential_outcomes)
        for name in wanted:
            if name not in col_pos:
                raise DatasetError(f"{path}: column '{name}' not found in header {header}")
        d = len(schema.covariates)
        layout = _Layout(path, len(header), wanted, [col_pos[name] for name in wanted], d)

        chunks, first = [], 1
        while rows := list(itertools.islice(reader, _CHUNK_ROWS)):
            chunks.append(layout.parse_chunk(rows, first))
            first += len(rows)

    vals = np.concatenate([np.empty((len(wanted), 0))] + [v for v, _ in chunks], axis=1)
    T = np.concatenate([np.empty(0, np.int64)] + [np.array(labels, dtype=np.int64) for _, labels in chunks])
    n = T.shape[0]
    m = max(2, int(T.max()) + 1) if n else 2
    # A stray label makes m huge: refuse it before any work of size m. More
    # than n of the m labels can go unseen only when m > n + 1.
    if n and m > n + 1 and (unseen := m - np.unique(T).size) > n:
        raise DatasetError(
            f"{path}: {unseen} of the labels 0..{m - 1} never occur, more than the "
            f"{n} data rows; treatment labels must be dense integers"
        )
    if schema.potential_outcomes and len(schema.potential_outcomes) != m:
        raise DatasetError(
            f"{path}: {len(schema.potential_outcomes)} counterfactual columns given "
            f"but data implies m={m}"
        )
    if n:
        seen = np.bincount(T, minlength=m) > 0
        missing = [t for t in range(m) if not seen[t]]
        if missing:
            warnings.warn(
                f"{path}: treatment labels {missing} never occur; "
                "solvers invoked on those arms will fail",
                DatasetWarning,
                stacklevel=2,
            )
    pot_at = d + 2 + bool(schema.propensity)
    # Each array gets its own copy: a view into vals would keep all of vals alive.
    return Dataset(
        X=vals[:d].T.copy(),
        T=T,
        Y=vals[d + 1].copy(),
        m=m,
        e_hat=vals[d + 2].copy() if schema.propensity else None,
        potential_Y=vals[pot_at:].T.copy() if schema.potential_outcomes else None,
    )


def _design_matrix(X: np.ndarray) -> np.ndarray:
    n = X.shape[0]
    return np.hstack([np.ones((n, 1)), X])


def _propensity_scores(Z: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The propensity model's arm scores [0, Z theta^T]: arm 0 is the reference at 0."""
    return np.hstack([np.zeros((Z.shape[0], 1)), Z @ theta.T])


def fit_multinomial_logit(
    X: np.ndarray,
    T: np.ndarray,
    m: int,
    max_iter: int = 100,
    grad_tol: float = 1e-8,
) -> np.ndarray:
    """Maximum-likelihood multinomial logistic regression of T on [1, X].

    Arm 0 is the reference class. Returns theta with shape (m-1, d+1).
    Deterministic: Newton iterations from a zero initialization, with step
    halving; the Newton system is solved by least squares so collinear
    designs (e.g. duplicated columns) still yield the unique fitted
    probabilities.
    """
    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=np.int64)
    n = T.shape[0]
    if n < m:
        raise DatasetError(f"need at least m={m} observations to fit propensities, got {n}")
    counts = np.bincount(T, minlength=m)
    if np.count_nonzero(counts) < 2:
        raise DatasetError("treatment column is single-class; propensity model is degenerate")
    Z = _design_matrix(X)
    p = Z.shape[1]
    theta = np.zeros((m - 1, p))
    delta = one_hot_arms(T, m)

    def nll(th: np.ndarray) -> float:
        scores = _propensity_scores(Z, th)
        logz = np.log(np.exp(scores - scores.max(axis=1, keepdims=True)).sum(axis=1))
        logz += scores.max(axis=1)
        return float(np.sum(logz - scores[np.arange(n), T]))

    scale = max(1.0, float(n))
    current = nll(theta)
    grad_norm = np.inf
    # Covariates near the float limit overflow the gradient or the Hessian.
    # LAPACK must not see that: it prints to fd 2 and fails without naming
    # the input. So the system is checked, and the largest covariate blamed.
    for _ in range(max_iter):
        probs = softmax(_propensity_scores(Z, theta))
        with np.errstate(over="ignore", invalid="ignore"):
            grad = Z.T @ (probs[:, 1:] - delta)  # (p, m-1)
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= grad_tol * scale:
            return theta
        # Full Newton system over the (m-1) blocks.
        k = (m - 1) * p
        H = np.empty((k, k))
        with np.errstate(over="ignore", invalid="ignore"):
            for u in range(1, m):
                for v in range(1, m):
                    w = probs[:, u] * ((u == v) - probs[:, v])
                    H[(u - 1) * p : u * p, (v - 1) * p : v * p] = Z.T @ (Z * w[:, None])
        g = grad.T.reshape(-1)  # (m-1, p) flattened row-major
        if not (np.isfinite(H).all() and np.isfinite(g).all()):
            raise CovariateOverflowError(int(np.abs(X).max(axis=0).argmax()))
        step, *_ = np.linalg.lstsq(H, g, rcond=None)
        step = step.reshape(m - 1, p)
        # Backtracking keeps the NLL monotone even far from the optimum.
        alpha = 1.0
        for _ in range(60):
            cand = theta - alpha * step
            cand_nll = nll(cand)
            if cand_nll <= current + 1e-12:
                theta, current = cand, cand_nll
                break
            alpha *= 0.5
        else:
            raise ConvergenceError("propensity Newton step failed to reduce the loss", grad_norm)
    raise ConvergenceError(
        f"propensity fit did not converge in {max_iter} iterations", grad_norm
    )


def propensity_matrix(X: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Fitted arm probabilities, one row per unit; rows sum to 1."""
    return softmax(_propensity_scores(_design_matrix(np.asarray(X, dtype=float)), theta))


def estimate_propensities(data: Dataset, clip_eps: float = 1e-3, max_iter: int = 100) -> np.ndarray:
    """Estimate nominal propensities of the observed arms by multinomial logit.

    Fits an intercept-plus-linear multinomial logistic regression of T on X
    and returns e_hat[i] = P(T = T_i | X_i), clipped into
    [clip_eps, 1 - clip_eps] when clip_eps > 0. Clipping keeps the inverse
    weights 1/e_hat finite; pass clip_eps=0 to disable it.
    """
    check_clip_eps(clip_eps)
    theta = fit_multinomial_logit(data.X, data.T, data.m, max_iter=max_iter)
    probs = propensity_matrix(data.X, theta)
    e = probs[np.arange(data.n), data.T]
    if clip_eps > 0.0:
        e = np.clip(e, clip_eps, 1.0 - clip_eps)
    return e


def check_clip_eps(clip_eps: float) -> None:
    if not 0.0 <= clip_eps < 0.5:
        raise ValueError(f"clip_eps must lie in [0, 0.5), got {clip_eps}")
