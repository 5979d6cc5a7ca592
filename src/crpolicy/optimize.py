"""Minimax policy learners.

`subgradient_fit` runs the projected subgradient method with random
restarts over logistic policies: each iteration solves the worst-case
weight subproblem exactly, then steps against the resulting subgradient of
the worst-case regret. The restarts advance together as one stacked
iterate, in blocks, and end exactly where runs one after another would.
`gamma_path_fit` chains fits over an ascending sensitivity grid with warm
starts and cross-gamma objective checks, which `calibration_matrix`
reports. `tree_partition_fit` greedily grows an axis-aligned decision
tree, taking at each leaf the split that most lowers the robust objective
of the whole tree: one batched sweep per (feature, side, arm) screens
every candidate split of the leaf, and the exact objective confirms the
few screened within roundoff of the best, so the choice is the one an
exact scan makes. A sweep over L units of an arm with N sorted items costs
O(L sqrt(N)): a square-root block decomposition locates each step's peak.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .data import Dataset, _design_matrix, one_hot_arms, softmax
from .exceptions import SolverError
from .policy import (
    LogisticPolicy,
    Policy,
    TreeLeaf,
    TreeNode,
    TreePolicy,
    logistic_scores,
    policy_from_json,
    policy_to_json,
    score_grad_at,
)
# Not called here: perfbench's tracer self-test reads this binding.
from .subproblem import solve_box  # noqa: F401
from .uncertainty import UncertaintySpec
from .evaluation.estimators import ArmKernel, _arm_parts, worst_case_regret, worst_case_solution

__all__ = [
    "FitOptions",
    "FitResult",
    "subgradient_fit",
    "gamma_path_fit",
    "tree_partition_fit",
    "CalibrationMatrix",
    "calibration_matrix",
]


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the subgradient method.

    eta0 and kappa set the step schedule eta_k = eta0 * (k+1)^(-kappa);
    restart 0 always starts from theta = 0 and the remaining restarts draw
    theta ~ Normal(0, init_scale^2) from a per-restart stream derived from
    (seed, restart index). The restarts run stacked; each gives, bit for
    bit, what it gives run alone. `radius` optionally projects each restart's
    theta onto a Euclidean ball for conditioning; by default the parameter
    space is unconstrained and the projection is the identity.
    """

    eta0: float = 1.0
    kappa: float = 0.5
    iters: int = 500
    restarts: int = 5
    seed: int = 0
    init_scale: float = 1.0
    fallback_to_baseline: bool = True
    radius: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.eta0 < np.inf:
            raise ValueError("eta0 must be positive and finite")
        if not 0 < self.kappa <= 1:
            raise ValueError("kappa must lie in (0, 1]")
        if self.iters < 1 or self.restarts < 1:
            raise ValueError("iters and restarts must be >= 1")
        if not 0 <= self.init_scale < np.inf:
            raise ValueError("init_scale must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.radius is not None and not 0 < self.radius < np.inf:
            raise ValueError("radius must be None, or positive and finite")


@dataclass(frozen=True)
class FitResult:
    """A fitted policy with its recomputed worst-case objective.

    per_restart records (objective, averaged theta) for each restart of the
    subgradient method; tree fits leave it empty. When the best achievable
    objective is positive and fallback is enabled, the baseline policy is
    returned instead with objective 0 and fell_back=True.
    """

    policy: Policy
    objective: float
    per_restart: Tuple = ()
    fell_back: bool = False
    gamma: Optional[float] = None
    options: Optional[FitOptions] = None

    def to_doc(self) -> dict:
        """The fit as the JSON document that fit.json holds; `to_json` encodes it."""
        return {
            "policy": json.loads(policy_to_json(self.policy)),
            "objective": self.objective,
            "fell_back": self.fell_back,
            "gamma": self.gamma,
            "options": None if self.options is None else asdict(self.options),
            "per_restart": [obj for obj, _ in self.per_restart],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FitResult":
        doc = json.loads(text)
        opts = doc.get("options")
        if opts is not None:
            if not isinstance(opts, dict):
                raise ValueError(f"a fit result's options must be a JSON object, not {opts!r}")
            unknown = sorted(set(opts) - {f.name for f in fields(FitOptions)})
            if unknown:
                raise ValueError(f"a fit result's options have unknown keys {', '.join(map(repr, unknown))}")
        return cls(
            policy=policy_from_json(json.dumps(doc["policy"])),
            objective=float(doc["objective"]),
            per_restart=tuple((obj, None) for obj in doc.get("per_restart", [])),
            fell_back=bool(doc.get("fell_back", False)),
            gamma=doc.get("gamma"),
            options=None if opts is None else FitOptions(**opts),
        )


def _certified(policy: Policy, objective: float, pi0: Policy, fallback: bool, **fit_fields) -> FitResult:
    """`policy` at its worst-case regret `objective`, or, with fallback on and that regret
    positive, the baseline at objective 0: always feasible, so no fit certifies worse."""
    if fallback and objective > 0.0:
        return FitResult(policy=pi0, objective=0.0, fell_back=True, **fit_fields)
    return FitResult(policy=policy, objective=objective, fell_back=False, **fit_fields)


def _restart_rng(seed: int, restart: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(restart,)))


class _SubgradientProblem:
    """Precomputed quantities shared by every restart on one dataset/spec."""

    def __init__(self, data: Dataset, spec: UncertaintySpec, pi0: Policy):
        self.data = data
        self.spec = spec
        self.pi0 = pi0
        self.arms = data.arms()
        self.arms.require_nonempty("subgradient_fit")
        self.p0_obs = pi0.observed_prob(data.X, data.T)
        self.Z = _design_matrix(data.X)
        self.shape = (data.m - 1, data.d + 1)
        self.at_T = data.T * data.n + np.arange(data.n)  # (T_i, i) in a flattened (m, n) block
        self.delta = np.ascontiguousarray(one_hot_arms(data.T, data.m).T)

    def descend(self, theta: np.ndarray, opts: FitOptions) -> np.ndarray:
        """The averaged iterates of the runs from each row of theta (R, m-1, d+1). A step
        of row j takes g_j = sum_i (W_i / sum_{l in arm} W_l) Y_i grad pi_j(T_i | X_i)
        at the row's pessimal W."""
        data, kernel = self.data, ArmKernel(self.spec, self.arms)
        theta, avg = theta.copy(), np.zeros_like(theta)
        probs = np.empty((len(theta), data.m, data.n))  # each step's arm-major scores, then probs
        for k in range(opts.iters):
            if not np.isfinite(theta).all():
                raise ValueError("theta must be finite")
            softmax(logistic_scores(theta, data.X, out=probs), axis=-2, out=probs)
            pT = probs.reshape(len(theta), -1).take(self.at_T, axis=1)
            c = kernel.shares((pT - self.p0_obs) * data.Y) * data.Y
            g = np.swapaxes(score_grad_at(probs, c, pT, self.delta), 1, 2) @ self.Z
            if not np.isfinite(g).all():
                raise SolverError("non-finite subgradient")
            g *= opts.eta0 * (k + 1) ** (-opts.kappa)
            theta -= g
            if opts.radius is not None:
                for row, norm in zip(theta, map(np.linalg.norm, theta)):
                    row *= opts.radius / norm if norm > opts.radius else 1.0
            avg += theta
        avg /= opts.iters
        return avg

    def objective(self, pol: Policy) -> float:
        return worst_case_regret(pol, self.pi0, self.data, self.spec)


def subgradient_fit(
    data: Dataset,
    spec: UncertaintySpec,
    pi0: Policy,
    opts: FitOptions = FitOptions(),
    extra_inits: Sequence[np.ndarray] = (),
) -> FitResult:
    """Learn a logistic policy minimizing the worst-case Hajek regret.

    Each restart returns its iterate average; the restart whose average
    attains the smallest recomputed objective wins, unless `_certified`
    falls back to the baseline.

    extra_inits prepends additional warm-start parameter blocks (used by the
    gamma path); they run after restart 0 and before the random restarts.
    """
    problem = _SubgradientProblem(data, spec, pi0)
    shape = problem.shape
    inits = [np.zeros(shape)]
    for th in extra_inits:
        th = np.asarray(th, dtype=float)
        if th.shape != shape:
            raise ValueError(f"warm start has shape {th.shape}, expected {shape}")
        inits.append(th)
    for j in range(1, opts.restarts):
        inits.append(_restart_rng(opts.seed, j).normal(0.0, opts.init_scale, size=shape))

    per_restart = []
    rows = max(1, _RESTART_BLOCK // data.n)
    for block in np.split(np.stack(inits), range(rows, len(inits), rows)):
        try:
            thetas = problem.descend(block, opts)
        except (ValueError, SolverError):
            # Run in turn, the restarts stop at the first that fails: it names the error.
            for theta0 in block:
                problem.objective(LogisticPolicy(problem.descend(theta0[None], opts)[0]))
            raise
        per_restart.extend((problem.objective(LogisticPolicy(th)), th) for th in thetas)

    best_obj, best_theta = min(per_restart, key=lambda pr: pr[0])
    return _certified(LogisticPolicy(best_theta), best_obj, pi0, opts.fallback_to_baseline,
                      per_restart=tuple(per_restart), gamma=spec.gamma, options=opts)


def gamma_path_fit(
    data: Dataset,
    gammas: Sequence[float],
    pi0: Policy,
    opts: FitOptions = FitOptions(),
    rho: Optional[float] = None,
) -> List[FitResult]:
    """Fit one policy per gamma along an ascending grid, with refinements.

    Two stabilizers exploit the nesting of the uncertainty sets: each fit
    after the first is warm-started from the previous gamma's solution, and
    every fitted policy is cross-evaluated at every other gamma so each grid
    entry keeps the best policy seen for that gamma. The returned objectives
    are therefore nondecreasing in gamma. A single gamma is one
    `subgradient_fit`.
    """
    return _gamma_path(data, gammas, pi0, opts, rho)[0]


def _gamma_path(data, gammas, pi0, opts, rho):
    """`gamma_path_fit`'s results, and for each the worst-case regret of its
    policy at every gamma of the grid (all zeros for a fallen-back entry,
    whose policy is the baseline itself)."""
    gammas = [float(g) for g in gammas]
    if any(g < 1.0 for g in gammas):
        raise ValueError("every gamma must be >= 1")
    if any(g2 <= g1 for g1, g2 in zip(gammas, gammas[1:])):
        raise ValueError("gammas must be strictly ascending")

    specs = [UncertaintySpec.from_dataset(data, g, rho=rho) for g in gammas]
    fits: List[FitResult] = []
    candidates: List[LogisticPolicy] = []
    # cross[c][i] = objective of candidate c evaluated under gamma_i.
    cross: List[List[float]] = []
    for k, (gamma, spec) in enumerate(zip(gammas, specs)):
        warm = []
        if k and candidates:
            prev_best = min(range(len(candidates)), key=lambda c: cross[c][k - 1])
            warm.append(candidates[prev_best].theta)
        try:
            res = subgradient_fit(data, spec, pi0, opts, extra_inits=warm)
        except Exception as exc:
            raise SolverError(f"gamma path failed at gamma={gamma}: {exc}") from exc
        fits.append(res)
        # Even a fit that fell back contributes its best iterate as a candidate;
        # the fit already evaluated it at its own gamma.
        obj, theta = min(res.per_restart, key=lambda pr: pr[0])
        new = LogisticPolicy(theta)
        candidates.append(new)
        cross.append(
            [obj if i == k else worst_case_regret(new, pi0, data, specs[i]) for i in range(len(specs))]
        )

    # Cross-gamma check: each grid entry keeps the best candidate for its own
    # gamma (the appendix's replace-by-previous rule, applied symmetrically so
    # the reported objectives are nondecreasing), with fallback on top.
    results, rows = [], []
    for i, fit in enumerate(fits):
        best_c = min(range(len(candidates)), key=lambda c: cross[c][i])
        res = _certified(candidates[best_c], cross[best_c][i], pi0, opts.fallback_to_baseline,
                         per_restart=fit.per_restart, gamma=fit.gamma, options=fit.options)
        results.append(res)
        rows.append([0.0] * len(gammas) if res.fell_back else cross[best_c])
    return results, rows


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
    opts: Optional[FitOptions] = None,
    rho: Optional[float] = None,
) -> CalibrationMatrix:
    """Train at each gamma_k, stress-test at every gamma_k': the gamma path's cross-gamma check."""
    fits, rows = _gamma_path(data, gammas, pi0, opts if opts is not None else FitOptions(), rho)
    return CalibrationMatrix(
        gammas=np.asarray(list(gammas), dtype=float),
        values=np.array(rows, dtype=float).reshape(len(fits), len(fits)),
        policies=tuple(fit.policy for fit in fits),
    )


# Entries of one block of a screening sweep, (row, item), or of stacked
# restarts, (restart, unit). Rows are taken in blocks of about this many
# entries, so memory stays flat in n and in the number of restarts.
_SWEEP_BLOCK = 1 << 14
_RESTART_BLOCK = 1 << 15


class _ArmSweep:
    """One arm's box value at every step of a sweep across a node.

    A split candidate moves one side of a node from its arm to another,
    which changes the contrast r_i = (1[A_i = T_i] - pi0(T_i | X_i)) Y_i of
    exactly the node's units in the arms left and entered. Within one arm,
    the candidates of one (feature, side) are the steps s = 0..L of a sweep
    that flips the arm's L node units from their current contrast to their
    alternative one in feature order. The arm's k current contrasts and the
    L alternatives are merged and sorted once per node. At step s an item is
    active when it is the current contrast of a unit not yet flipped or the
    alternative of one that is, and the box value is the largest threshold
    ratio g(p) over the active items: (sum b r + prefix sum of (a - b) r)
    over (sum b + prefix sum of (a - b)), inactive items adding nothing.

    An active item raises g exactly when its r lies below g, and r ascends,
    so g peaks at the first item with r >= g, active or not: the test fails
    before it and holds from it on. So the N = k + L sorted items are cut
    into blocks of about sqrt(N / 2), and each step takes g at the block
    ends, from per-block totals that change by two items a step. The peak
    lies in the block before the first end where the next item's r >= g;
    that block and the next, a margin for roundoff, are scanned in full. A
    step with a NaN or infinite block-end ratio, and every step of a
    `guarded` sweep, rescans every block through the same pass. Elsewhere
    the value is the dense row's up to roundoff. A sweep costs O(L sqrt(N))
    rather than the dense O(L N); at gamma = 1 every span is 0, every prefix
    ratio is the same, and it costs O(L).
    """

    def __init__(self, r, a, b, pos, r_alt):
        merged = np.concatenate([r, r_alt])
        self.width = max(1, int((merged.size / 2) ** 0.5))
        self.n_blocks = -(-merged.size // self.width)
        # Item arrays run on with zero spans to an empty block past the last,
        # so that the block after any block is there to scan.
        size = (self.n_blocks + 1) * self.width
        order = np.argsort(merged, kind="stable")
        span, r_sorted = np.zeros(size), np.zeros(size)
        span[: merged.size] = np.concatenate([a - b, a[pos] - b[pos]])[order]
        r_sorted[: merged.size] = merged[order]
        # The r of each block's first item, and +inf past the last item.
        self.r_start = np.append(r_sorted[: merged.size: self.width], np.inf)
        self.span_c = span * r_sorted + 1j * span
        self.is_alt = np.zeros(size, dtype=bool)
        self.is_alt[: merged.size] = order >= r.size
        self.sum_b = float(b.sum())
        self.sum_br = float(b @ r)
        self.flip_br = b[pos] * (r_alt - r[pos])
        # Sorted position of each node unit's current item and of its alternative.
        sorted_at = np.empty(merged.size, dtype=np.int64)
        sorted_at[order] = np.arange(merged.size)
        self.cur_at, self.alt_at = sorted_at[pos], sorted_at[r.size:].copy()
        # Per-block totals of the active spans at step 0: the current items'.
        self.totals0 = np.where(self.is_alt, 0.0, self.span_c).reshape(-1, self.width)[:-1].sum(axis=1)
        # A denominator, sum b plus a prefix of a - b, is a chain of at most
        # 3N + 2 roundings (of unit eps / 2) over terms of magnitudes adding up
        # to at most 2 (sum b + sum |a - b|) (a flipped unit's current item
        # goes in, then comes out). Once that bound reaches the denominators'
        # least value, sum a, block ends cannot place the peak: every step rescans.
        self.abs_span = float(np.abs(span).sum())
        roundoff = (3 * merged.size + 2) * np.finfo(float).eps * (self.sum_b + self.abs_span)
        self.guarded = roundoff >= float(a.sum())

    def values(self, rank: np.ndarray) -> np.ndarray:
        """V[s], s = 0..L: the box value once the node units of rank < s
        (rank[i] for the i-th entry of pos) have flipped."""
        L = rank.size
        # Numerator and denominator ride as the real and imaginary parts of
        # one array, so one prefix-sum pass makes both, starting from the
        # all-at-b totals.
        flip_br = np.zeros(L)
        flip_br[rank] = self.flip_br
        start = self.sum_br + np.concatenate([[0.0], np.cumsum(flip_br)]) + 1j * self.sum_b
        if not self.abs_span:
            # Every span is 0 (gamma = 1), so every prefix ratio is the start's.
            return start.real / start.imag
        # Step from which each item's unit counts as flipped: its current item
        # is active at s <= flip_at, its alternative at s > flip_at. Units
        # outside the node never flip.
        flip_at = np.full(self.span_c.size, L)
        flip_at[self.cur_at] = rank
        flip_at[self.alt_at] = rank
        out = np.empty(L + 1)
        dense = [np.arange(L + 1)] if self.guarded else []
        if not self.guarded:
            flips = np.empty(L, dtype=np.int64)  # flips[s - 1]: the unit that flips at step s
            flips[rank] = np.arange(L)
            totals = self.totals0
            rows = max(1, _SWEEP_BLOCK // (self.n_blocks + 1 + 2 * self.width))
            for s0 in range(0, L + 1, rows):
                s = np.arange(s0, min(s0 + rows, L + 1))
                first, begin, finite, totals = self._block_ends(s, flips, start, totals)
                out[s] = self._prefix_max(s, first[:, None] + np.arange(2), begin, flip_at)
                dense.append(s[~finite])
        # Steps with a non-finite block end, or all of a guarded sweep, rescan every block.
        dense, rows = np.concatenate(dense), max(1, _SWEEP_BLOCK // flip_at.size)
        for c in range(0, dense.size, rows):
            s = dense[c: c + rows]
            out[s] = self._prefix_max(s, np.arange(self.n_blocks + 1)[None], start[s], flip_at)
        return out

    def _block_ends(self, s, flips, start, totals):
        """For steps s: the block before the first block end where r_start >= g
        holds (block 0 if it holds at the start), the prefix sum before that
        block, whether every block-end ratio is finite, and the per-block
        totals at the last step."""
        # ends[:, q] sums through block q - 1 from the start in ends[:, 0].
        # A block's total is the previous step's, less the flipped unit's
        # current item, plus its alternative.
        ends = np.zeros((s.size, self.n_blocks + 1), dtype=complex)
        at, moved = np.arange(s.size), s > 0
        cur, alt = (i[flips[s[moved] - 1]] for i in (self.cur_at, self.alt_at))
        ends[at[moved], cur // self.width + 1] -= self.span_c[cur]
        ends[at[moved], alt // self.width + 1] += self.span_c[alt]
        ends[0, 1:] += totals
        np.cumsum(ends[:, 1:], axis=0, out=ends[:, 1:])
        totals = ends[-1, 1:].copy()
        ends[:, 0] = start[s]
        np.cumsum(ends, axis=1, out=ends)
        # A NaN or infinite ratio leaves the test meaningless: the step
        # rescans every block.
        with np.errstate(divide="ignore", invalid="ignore"):
            g = ends.real / ends.imag
        first = np.maximum((self.r_start >= g).argmax(axis=1) - 1, 0)
        return first, ends[at, first], np.isfinite(g).all(axis=1), totals

    def _prefix_max(self, s, at, begin, flip_at):
        """For steps s, the largest prefix ratio over the items of blocks
        `at` (a row of block indices per step, or one row for all), whose
        prefix sums start at `begin`."""
        w = self.width
        inactive = (s[:, None, None] <= flip_at.reshape(-1, w)[at]) == self.is_alt.reshape(-1, w)[at]
        frac = np.where(inactive, 0j, self.span_c.reshape(-1, w)[at]).reshape(s.size, -1)
        frac[:, 0] += begin
        np.cumsum(frac, axis=1, out=frac)
        # Denominators cancelled at a very large gamma give NaN or inf: values, not warnings.
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(frac.real, frac.imag, out=frac.real).max(axis=1)


class _TreeBuilder:
    """Greedy recursive partitioning against the whole-tree robust objective.

    Candidate splits reassign one side of a leaf to a new arm while every
    other leaf keeps its current assignment; the winning (feature,
    threshold, sense, arm) is the one minimizing the full worst-case regret,
    the first in scan order (feature, cut, left then right, arm) on ties.

    `best_split` screens every candidate of a node at once with one
    `_ArmSweep` per arm, then re-scores with the exact `objective_for` only
    the candidates whose screened value lies within `tol` of the smallest.
    The screen sums in another order than `solve_box` (per block, then
    across block ends), so it may differ from the exact objective in the
    last digits, far inside `tol`; every other candidate is exactly worse,
    and the choice is the one an exact scan of all candidates makes. Not so
    where the denominators cancel (gamma from about 1e9, by the arm's size):
    there the roundoff of the screen and of the exact objective alike can
    pass `tol`. A node of L units costs O(d L sqrt(n)) in its sweeps, where
    the dense sweep cost O(d L n).
    """

    def __init__(self, data: Dataset, spec: UncertaintySpec, pi0: Policy, min_leaf: int):
        if spec.budgeted:
            raise ValueError(
                "tree_partition_fit supports only the box uncertainty set; "
                "the budget couples the objective across leaves"
            )
        self.data = data
        self.spec = spec
        self.pi0 = pi0
        self.min_leaf = int(min_leaf)
        self.arms = data.arms()
        self.parts = _arm_parts(spec, self.arms, data.n, "tree_partition_fit")
        self.p0_obs = pi0.observed_prob(data.X, data.T)
        # arm_pos[i] = position of unit i within its arm's index set
        self.arm_pos = np.empty(data.n, dtype=np.int64)
        for idx, *_ in self.parts:
            self.arm_pos[idx] = np.arange(idx.size)
        # Width of the band of screened values re-scored exactly. Short of
        # cancelling denominators, the screen is off by roundoff only, orders
        # of magnitude inside it; contrasts scale with Y.
        self.tol = 1e-9 * max(1.0, float(np.abs(data.Y).max()))
        # assignment[i] = arm currently prescribed to unit i by the tree
        self.assignment = np.zeros(data.n, dtype=np.int64)

    def contrast(self, assignment: np.ndarray) -> np.ndarray:
        return ((assignment == self.data.T).astype(float) - self.p0_obs) * self.data.Y

    def objective_for(self, assignment: np.ndarray) -> float:
        return worst_case_solution(self.contrast(assignment), self.spec, self.arms)[1]

    def best_constant(self):
        best_arm, best_obj = 0, np.inf
        for arm in range(self.data.m):
            obj = self.objective_for(np.full(self.data.n, arm, dtype=np.int64))
            if obj < best_obj:
                best_arm, best_obj = arm, obj
        return best_arm, best_obj

    def best_split(self, node_idx: np.ndarray, current_obj: float):
        """Scan (feature, midpoint threshold, sense, arm) over one leaf's units.

        Returns (obj, feature, threshold, left_arm, right_arm) or None when
        nothing strictly improves within the min_leaf constraint.
        """
        data = self.data
        base_arm = int(self.assignment[node_idx[0]])
        others = [t for t in range(data.m) if t != base_arm]
        r = self.contrast(self.assignment)
        in_arm = [data.T[node_idx] == t for t in range(data.m)]
        sweeps = []
        for t, (idx, _, a, b) in enumerate(self.parts):
            members = node_idx[in_arm[t]]
            # A flipped unit leaves base_arm, so it matches T in arm t iff t != base_arm.
            r_alt = (float(t != base_arm) - self.p0_obs[members]) * data.Y[members]
            sweeps.append(_ArmSweep(r[idx], a, b, self.arm_pos[members], r_alt))

        blocks = []
        for j in range(data.d):
            xj = data.X[node_idx, j]
            order = np.argsort(xj, kind="stable")
            xs = xj[order]
            cut = np.flatnonzero(np.diff(xs) > 0)
            thr = 0.5 * (xs[cut] + xs[cut + 1])
            # Side sizes as `xj <= thr` counts them: the midpoint of two
            # adjacent floats can round onto the larger one.
            n_left = np.searchsorted(xs, thr, side="right")
            keep = (n_left >= self.min_leaf) & (node_idx.size - n_left >= self.min_leaf)
            if not keep.any():
                continue
            thr, n_left = thr[keep], n_left[keep]
            # arm_values[t, c, side] = arm t's value with that side of cut c flipped
            arm_values = np.empty((data.m, thr.size, 2))
            current = np.empty(data.m)
            for t, sweep in enumerate(sweeps):
                member = in_arm[t][order]
                L = int(member.sum())
                rank = np.empty(node_idx.size, dtype=np.int64)
                rank[order[member]] = np.arange(L)
                rank = rank[in_arm[t]]
                flipped = np.concatenate([[0], np.cumsum(member)])[n_left]
                left = sweep.values(rank)
                current[t] = left[0]
                arm_values[t, :, 0] = left[flipped]
                arm_values[t, :, 1] = sweep.values(L - 1 - rank)[L - flipped]
            screened = np.empty((thr.size, 2, len(others)))
            for k, arm in enumerate(others):
                fixed = sum(current[t] for t in others if t != arm)
                screened[:, :, k] = fixed + arm_values[base_arm] + arm_values[arm]
                # A flip changes r only where Y != 0. A side that moves no
                # such unit, or the same ones as the previous cut, leaves r as
                # the current tree or an earlier candidate has it, so it
                # cannot strictly improve: it is not re-scored.
                changes = (in_arm[base_arm] | in_arm[arm])[order] & (data.Y[node_idx[order]] != 0)
                moved = np.concatenate([[0], np.cumsum(changes)])
                left_moved = moved[n_left]
                for side, count in enumerate((left_moved, moved[-1] - left_moved)):
                    screened[(count == 0) | (np.diff(count, prepend=-1) == 0), side, k] = np.inf
            blocks.append((j, thr, screened))
        if not blocks:
            return None

        limit = min(min(s.min() for _, _, s in blocks), current_obj) + self.tol
        best = None
        for j, thr, screened in blocks:
            xj = data.X[node_idx, j]
            for c, side, k in zip(*np.nonzero(screened <= limit)):
                on_left = xj <= thr[c]
                cand = self.assignment.copy()
                cand[node_idx[on_left if side == 0 else ~on_left]] = others[k]
                obj = self.objective_for(cand)
                if obj < current_obj and (best is None or obj < best[0]):
                    left_arm = others[k] if side == 0 else base_arm
                    right_arm = others[k] if side == 1 else base_arm
                    best = (obj, j, float(thr[c]), left_arm, right_arm)
        return best

    def grow(self, node_idx: np.ndarray, depth_left: int, current_obj: float):
        base_arm = int(self.assignment[node_idx[0]])
        if depth_left == 0 or node_idx.size < 2 * self.min_leaf:
            return self._leaf(base_arm), current_obj
        found = self.best_split(node_idx, current_obj)
        if found is None:
            return self._leaf(base_arm), current_obj
        obj, feature, thr, left_arm, right_arm = found
        left_idx = node_idx[self.data.X[node_idx, feature] <= thr]
        right_idx = node_idx[self.data.X[node_idx, feature] > thr]
        self.assignment[left_idx] = left_arm
        self.assignment[right_idx] = right_arm
        left_node, obj = self.grow(left_idx, depth_left - 1, obj)
        right_node, obj = self.grow(right_idx, depth_left - 1, obj)
        return TreeNode(feature=feature, threshold=thr, left=left_node, right=right_node), obj

    def _leaf(self, arm: int) -> TreeLeaf:
        p = np.zeros(self.data.m)
        p[arm] = 1.0
        return TreeLeaf(p)


def tree_partition_fit(
    data: Dataset,
    spec: UncertaintySpec,
    pi0: Policy,
    depth: int,
    min_leaf: int = 1,
    fallback_to_baseline: bool = True,
) -> FitResult:
    """Greedy recursive partitioning over depth-limited axis-aligned trees.

    Starts from the best constant arm; each accepted split strictly lowers
    the worst-case regret of the whole tree, so the objective is
    non-increasing along the construction. Box uncertainty sets only.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")
    builder = _TreeBuilder(data, spec, pi0, min_leaf)
    arm0, obj = builder.best_constant()
    builder.assignment[:] = arm0
    root, obj = builder.grow(np.arange(data.n), depth, obj)
    policy = TreePolicy(root=root, m=data.m, d=data.d)
    objective = worst_case_regret(policy, pi0, data, spec)
    return _certified(policy, objective, pi0, fallback_to_baseline, gamma=spec.gamma)
