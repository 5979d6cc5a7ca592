"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines as they complete.
"""

import filecmp
import os
import time

import numpy as np
from crpolicy import (
    ConstantPolicy,
    Dataset,
    FitOptions,
    LogisticPolicy,
    SimParamsBinary,
    TreeNode,
    TreePolicy,
    UncertaintySpec,
    calibration_matrix,
    control_baseline,
    gamma_path_fit,
    oracle_box,
    oracle_budgeted,
    policy_gradient,
    policy_probability,
    simulate_binary,
    solve_box,
    solve_budgeted,
    subgradient_fit,
    tree_partition_fit,
    true_regret,
    weight_bounds,
    worst_case_regret,
)
from crpolicy.cli import main as cli_main
from crpolicy.subproblem import threshold_values

PI0 = control_baseline(2)


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _box_instances(n_instances=10_000, seed=20240101):
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        k = int(rng.integers(1, 13))
        gamma = float(rng.choice([1.0, 1.5, 3.0]))
        e = rng.uniform(0.05, 0.95, k)
        a, b = weight_bounds(1.0 / e, gamma)
        r = rng.standard_normal(k)
        yield r, a, b


def test_criterion_01_solver_exactness():
    t0 = time.perf_counter()
    max_err = 0.0
    for r, a, b in _box_instances():
        err = abs(solve_box(r, a, b).value - oracle_box(r, a, b))
        max_err = max(max_err, err)
    elapsed = time.perf_counter() - t0
    ok = max_err <= 1e-9 and elapsed < 5.0
    _line(1, ok, f"solve_box vs oracle on 10,000 instances: max err {max_err:.2e}, {elapsed:.2f}s")


def test_criterion_02_budgeted_consistency():
    rng = np.random.default_rng(7)
    max_nominal_err = max_cap_err = max_oracle_gap = 0.0
    for _ in range(2_000):
        k = int(rng.integers(1, 11))
        gamma = float(rng.uniform(1.0, 3.0))
        e = rng.uniform(0.08, 0.95, k)
        w = 1.0 / e
        a, b = weight_bounds(w, gamma)
        r = rng.standard_normal(k)
        cap = float(np.maximum(w - a, b - w).mean())
        nominal = float(np.dot(r, w) / w.sum())
        max_nominal_err = max(max_nominal_err, abs(solve_budgeted(r, a, b, w, 0.0).value - nominal))
        box_val = solve_box(r, a, b).value
        max_cap_err = max(max_cap_err, abs(solve_budgeted(r, a, b, w, cap).value - box_val))
        lam = float(rng.uniform(0.0, 1.2)) * cap
        v_solver = solve_budgeted(r, a, b, w, lam).value
        v_oracle = oracle_budgeted(r, a, b, w, lam).value
        max_oracle_gap = max(max_oracle_gap, abs(v_solver - v_oracle))
    ok = max_nominal_err <= 1e-9 and max_cap_err <= 1e-7 and max_oracle_gap <= 1e-7
    _line(
        2,
        ok,
        f"budgeted: nominal err {max_nominal_err:.2e}, cap-vs-box err {max_cap_err:.2e}, "
        f"LP-oracle gap {max_oracle_gap:.2e} over 2,000 instances",
    )


def test_criterion_03_unimodality_and_monotonicity():
    unimodal = True
    for r, a, b in _box_instances():
        lams, _ = threshold_values(r, a, b)
        d = np.diff(lams)
        signs = np.sign(np.where(np.abs(d) <= 1e-12 * (1 + np.abs(lams[:-1])), 0.0, d))
        signs = signs[signs != 0]
        if not np.all(np.diff(signs) <= 0):
            unimodal = False
            break
    rng = np.random.default_rng(11)
    n = 80
    data = Dataset(
        X=rng.standard_normal((n, 3)),
        T=rng.integers(0, 2, n),
        Y=rng.standard_normal(n),
        m=2,
        e_hat=rng.uniform(0.2, 0.8, n),
    )
    grid = [1.0, 1.2, 1.5, 2.0, 3.0]
    specs = [UncertaintySpec.from_dataset(data, g) for g in grid]
    monotone = True
    for _ in range(100):
        pol = LogisticPolicy(rng.normal(0, 2, (1, 4)))
        vals = [worst_case_regret(pol, PI0, data, spec) for spec in specs]
        if not np.all(np.diff(vals) >= -1e-9):
            monotone = False
            break
    ok = unimodal and monotone
    _line(3, ok, f"lambda(k) unimodal on all instances: {unimodal}; regret monotone in gamma: {monotone}")


def test_criterion_04_gradient_check():
    rng = np.random.default_rng(13)
    h = 1e-5
    worst = 0.0
    for _ in range(1_000):
        m = int(rng.choice([2, 3]))
        d = int(rng.integers(1, 5))
        theta = rng.normal(0, 1.5, (m - 1, d + 1))
        x = rng.normal(0, 1.5, d)
        t = int(rng.integers(0, m))
        g = policy_gradient(LogisticPolicy(theta), t, x)
        fd = np.zeros_like(theta)
        for i in range(m - 1):
            for j in range(d + 1):
                up, dn = theta.copy(), theta.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd[i, j] = (
                    policy_probability(LogisticPolicy(up), t, x)
                    - policy_probability(LogisticPolicy(dn), t, x)
                ) / (2 * h)
        rel = np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-10)
        worst = max(worst, rel)
    ok = worst <= 1e-5
    _line(4, ok, f"policy gradient vs central differences over 1,000 draws: max rel err {worst:.2e}")


def test_criterion_05_perturbation_bound():
    rng = np.random.default_rng(17)
    checked = 0
    ok = True
    worst_margin = -np.inf
    while checked < 500:
        n = int(rng.integers(20, 70))
        T = rng.integers(0, 2, n)
        if min((T == 0).sum(), (T == 1).sum()) == 0:
            continue
        data = Dataset(
            X=rng.standard_normal((n, 3)),
            T=T,
            Y=rng.uniform(-4, 4, n),
            m=2,
            e_hat=rng.uniform(0.1, 0.9, n),
        )
        gamma = float(rng.choice([1.5, 2.0]))
        pol = LogisticPolicy(rng.normal(0, 2, (1, 4)))
        e2 = np.clip(data.e_hat * rng.uniform(0.8, 1.2, n), 1e-9, 1.0)
        data2 = data.with_propensities(e2)
        shift = abs(
            worst_case_regret(pol, PI0, data, UncertaintySpec.from_dataset(data, gamma))
            - worst_case_regret(pol, PI0, data2, UncertaintySpec.from_dataset(data2, gamma))
        )
        B = float(np.abs(data.Y).max())
        bound = 2.0 * B * (gamma + 1.0 / gamma) * float(np.mean(np.abs(1.0 / data.e_hat - 1.0 / e2)))
        worst_margin = max(worst_margin, shift - bound)
        if shift > bound + 1e-9:
            ok = False
            break
        checked += 1
    _line(5, ok, f"propensity perturbation bound held on 500 draws (max shift-bound {worst_margin:.2e})")


def test_criterion_06_improvement_at_desk_scale():
    t0 = time.perf_counter()
    nav, rob = [], []
    for rep in range(50):
        train = simulate_binary(SimParamsBinary(n=200, seed=10_000 + rep)).data
        test = simulate_binary(SimParamsBinary(n=20_000, seed=900_000 + rep)).data
        naive_opts = FitOptions(iters=400, restarts=5, seed=rep, fallback_to_baseline=False)
        robust_opts = FitOptions(iters=400, restarts=5, seed=rep, fallback_to_baseline=True)
        f_naive = subgradient_fit(train, UncertaintySpec.from_dataset(train, 1.0), PI0, naive_opts)
        f_robust = subgradient_fit(train, UncertaintySpec.from_dataset(train, 1.5), PI0, robust_opts)
        nav.append(true_regret(f_naive.policy, PI0, test))
        rob.append(true_regret(f_robust.policy, PI0, test))
    elapsed = time.perf_counter() - t0
    nav_mean, rob_mean = float(np.mean(nav)), float(np.mean(rob))
    ok = rob_mean <= 0.05 and nav_mean > rob_mean and elapsed < 600.0
    _line(
        6,
        ok,
        f"50-rep binary design: robust(G=1.5) mean true regret {rob_mean:+.4f} <= 0.05, "
        f"naive(G=1) {nav_mean:+.4f} strictly larger, {elapsed:.0f}s",
    )


def test_criterion_07_fallback_guarantee():
    rng = np.random.default_rng(23)
    ok = True
    worst = -np.inf
    for seed in range(10):
        n = 60
        data = Dataset(
            X=rng.standard_normal((n, 2)),
            T=rng.integers(0, 2, n),
            Y=rng.standard_normal(n),
            m=2,
            e_hat=rng.uniform(0.25, 0.75, n),
        )
        spec = UncertaintySpec.from_dataset(data, 1.0 + 0.3 * seed)
        res = subgradient_fit(data, spec, PI0, FitOptions(iters=50, restarts=2, seed=seed))
        tree = tree_partition_fit(data, spec, PI0, depth=1, min_leaf=5)
        worst = max(worst, res.objective, tree.objective)
        ok = ok and res.objective <= 0.0 and tree.objective <= 0.0
    path = gamma_path_fit(
        simulate_binary(SimParamsBinary(n=100, seed=1)).data,
        [1.0, 1.5, 2.0],
        PI0,
        FitOptions(iters=50, restarts=2, seed=0),
    )
    for fit in path:
        worst = max(worst, fit.objective)
        ok = ok and fit.objective <= 0.0
    _line(7, ok, f"control baseline + fallback keeps every reported objective <= 0 (max {worst:+.3e})")


def test_criterion_08_calibration_matrix():
    data = simulate_binary(SimParamsBinary(n=200, seed=42)).data
    gammas = [1.05, 1.1, 1.2, 1.5]
    mat = calibration_matrix(data, gammas, PI0, opts=FitOptions(iters=150, restarts=3, seed=0))
    rows_monotone = all(np.all(np.diff(row) >= -1e-9) for row in mat.values)
    diag_ok = True
    for k, gamma in enumerate(gammas):
        spec = UncertaintySpec.from_dataset(data, gamma)
        recomputed = worst_case_regret(mat.policies[k], PI0, data, spec)
        if abs(mat.values[k, k] - recomputed) > 1e-8:
            diag_ok = False
    ok = rows_monotone and diag_ok
    _line(8, ok, f"calibration rows nondecreasing: {rows_monotone}; diagonal matches fits to 1e-8: {diag_ok}")


def _sign_instance(seed, n=120, gap=0.5):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(gap, 2.0, n) * rng.choice([-1.0, 1.0], n)
    X = np.column_stack([x0, rng.standard_normal(n)])
    T = rng.integers(0, 2, n)
    y0 = 0.5 * np.sign(x0) + 0.05 * rng.standard_normal(n)
    y1 = y0 + np.where(x0 > 0, -1.0, 1.0)
    Y = np.where(T == 1, y1, y0)
    return Dataset(X=X, T=T, Y=Y, m=2, e_hat=np.full(n, 0.5),
                   potential_Y=np.column_stack([y0, y1]))


def test_criterion_09_tree_learner():
    depth0_ok = True
    for seed in range(5):
        data = _sign_instance(seed)
        spec = UncertaintySpec.from_dataset(data, 1.0 + 0.2 * seed)
        fit = tree_partition_fit(data, spec, PI0, depth=0, fallback_to_baseline=False)
        exhaustive = min(
            worst_case_regret(ConstantPolicy(np.eye(2)[arm]), PI0, data, spec) for arm in range(2)
        )
        if abs(fit.objective - exhaustive) > 1e-12:
            depth0_ok = False
    hits = 0
    for seed in range(50):
        data = _sign_instance(seed)
        spec = UncertaintySpec.from_dataset(data, 1.0)
        fit = tree_partition_fit(data, spec, PI0, depth=1, min_leaf=5)
        pol = fit.policy
        if isinstance(pol, TreePolicy) and isinstance(pol.root, TreeNode):
            node = pol.root
            if (
                node.feature == 0
                and -0.5 < node.threshold < 0.5
                and int(np.argmax(node.left.probs)) == 0
                and int(np.argmax(node.right.probs)) == 1
            ):
                hits += 1
    ok = depth0_ok and hits >= 45
    _line(9, ok, f"tree: depth-0 equals best constant; separator recovered {hits}/50 (need >= 45)")


def test_criterion_10_determinism(tmp_path):
    args = ["simulate", "--preset", "binary-sec7", "--seed", "7", "--reps", "5"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = cli_main([*args, "--output-dir", str(out1)])
    rc2 = cli_main([*args, "--output-dir", str(out2)])
    names = sorted(os.listdir(out1))
    same_names = names == sorted(os.listdir(out2))
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    ok = rc1 == 0 and rc2 == 0 and same_names and not mismatch and not errors
    _line(10, ok, f"two identical simulate runs emit byte-identical files ({len(names)} files)")
