import csv
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crpolicy import (
    ColumnSchema,
    FitOptions,
    SimParamsBinary,
    UncertaintySpec,
    control_baseline,
    load_dataset,
    simulate_binary,
    true_regret,
)
from crpolicy import cli
from crpolicy.cli import _build_parser, _options, main
from crpolicy.evaluation.reports import write_dataset_csv
from crpolicy.policy import policy_to_json, uniform_baseline

COVS = "x0,x1,x2,x3,x4"
SCHEMA = ColumnSchema(
    covariates=COVS.split(","),
    treatment="t",
    outcome="y",
    propensity="e_nominal",
    potential_outcomes=["y_cf0", "y_cf1"],
)


@pytest.fixture()
def sim_csv(tmp_path):
    sim = simulate_binary(SimParamsBinary(n=120, seed=0))
    path = tmp_path / "sim.csv"
    write_dataset_csv(path, sim.data, w_star=sim.w_star)
    return path


def _data_args(path):
    return [
        "--input", str(path),
        "--covariates", COVS,
        "--treatment-col", "t",
        "--outcome-col", "y",
        "--propensity-col", "e_nominal",
    ]


class TestFit:
    def test_fallback_guarantee_objective_nonpositive(self, sim_csv, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            ["fit", *_data_args(sim_csv), "--gamma", "1.0", "--baseline", "control",
             "--iters", "60", "--restarts", "2", "--seed", "0", "--output-dir", str(out)]
        )
        assert rc == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["objective"] <= 0.0
        assert "policy" in doc and doc["policy"]["variant"] in {"logistic", "constant"}

    def test_gamma_path_csv(self, sim_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["fit", *_data_args(sim_csv), "--gamma", "1.0,1.2,1.5",
             "--iters", "40", "--restarts", "2", "--seed", "1", "--output-dir", str(out)]
        )
        assert rc == 0
        rows = list(csv.DictReader(open(out / "gamma_path.csv")))
        assert [float(r["gamma"]) for r in rows] == [1.0, 1.2, 1.5]
        objs = [float(r["objective"]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))

    def test_log_gamma_scale(self, sim_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["fit", *_data_args(sim_csv), "--gamma", "0.0", "--log-gamma",
             "--iters", "20", "--restarts", "1", "--seed", "0", "--output-dir", str(out)]
        )
        assert rc == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["gamma"] == pytest.approx(1.0)

    def test_tree_policy(self, sim_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["fit", *_data_args(sim_csv), "--gamma", "1.2", "--policy", "tree",
             "--depth", "1", "--min-leaf", "10", "--output-dir", str(out)]
        )
        assert rc == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["policy"]["variant"] in {"tree", "constant"}
        assert doc["objective"] <= 0.0


class TestEvaluate:
    def test_report_fields(self, sim_csv, tmp_path):
        out = tmp_path / "out"
        assert main(
            ["fit", *_data_args(sim_csv), "--gamma", "1.2", "--iters", "40",
             "--restarts", "2", "--output-dir", str(out)]
        ) == 0
        rc = main(
            ["evaluate", *_data_args(sim_csv),
             "--counterfactual-cols", "y_cf0,y_cf1",
             "--policy-file", str(out / "fit.json"),
             "--gamma", "1.0,1.2,1.5", "--ht-probs", "0.5,0.5",
             "--output-dir", str(out)]
        )
        assert rc == 0
        rep = json.loads((out / "evaluation.json").read_text())
        for key in ("worst_case", "hajek_nominal", "ipw_value", "ht_test_regret", "true_regret"):
            assert key in rep
        wc = [rep["worst_case"][g] for g in ("1", "1.2", "1.5")]
        assert all(b >= a - 1e-9 for a, b in zip(wc, wc[1:]))


class TestSimulate:
    ARGS = ["simulate", "--preset", "binary-sec7", "--reps", "2", "--seed", "7",
            "--n", "60", "--gamma", "1.0,1.5", "--iters", "30", "--restarts", "2"]

    def test_outputs_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main([*self.ARGS, "--output-dir", str(out1)]) == 0
        assert main([*self.ARGS, "--output-dir", str(out2)]) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        assert set(names) >= {"dataset_rep000.csv", "dataset_rep001.csv", "regret_curves.csv", "summary.json"}
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_dataset_csv_roundtrips(self, tmp_path):
        out = tmp_path / "o"
        assert main([*self.ARGS, "--output-dir", str(out)]) == 0
        data = load_dataset(out / "dataset_rep000.csv", SCHEMA)
        assert data.n == 60 and data.m == 2
        assert data.potential_Y is not None
        # exact float round trip through repr
        sim = simulate_binary(SimParamsBinary(n=60, seed=int(np.random.SeedSequence(entropy=7, spawn_key=(0, 0)).generate_state(1)[0])))
        assert np.array_equal(data.X, sim.data.X)
        assert np.array_equal(data.Y, sim.data.Y)

    def test_summary_schema(self, tmp_path):
        out = tmp_path / "o"
        assert main([*self.ARGS, "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert isinstance(summary, list) and summary
        for entry in summary:
            assert set(entry) == {"method", "gamma", "mean_regret", "stderr", "n_reps"}
            assert entry["n_reps"] == 2

    def test_multi_arm_preset(self, tmp_path):
        out = tmp_path / "multi"
        rc = main(
            ["simulate", "--preset", "multi-sec7", "--reps", "1", "--seed", "1",
             "--n", "150", "--gamma", "1.0,1.3", "--iters", "25", "--restarts", "2",
             "--output-dir", str(out)]
        )
        assert rc == 0
        schema = ColumnSchema(
            covariates=[f"x{j}" for j in range(5)],
            treatment="t",
            outcome="y",
            propensity="e_nominal",
            potential_outcomes=["y_cf0", "y_cf1", "y_cf2"],
        )
        data = load_dataset(out / "dataset_rep000.csv", schema)
        assert data.m == 3 and data.n == 150

    def test_budgeted_fit_path(self, sim_csv, tmp_path):
        out = tmp_path / "rho"
        rc = main(
            ["fit", *_data_args(sim_csv), "--gamma", "1.2,1.5", "--rho", "0.5",
             "--iters", "30", "--restarts", "2", "--output-dir", str(out)]
        )
        assert rc == 0
        rows = list(csv.DictReader(open(out / "gamma_path.csv")))
        objs = [float(r["objective"]) for r in rows]
        assert len(objs) == 2 and all(o <= 0 for o in objs)
        assert objs[1] >= objs[0] - 1e-12

    @pytest.mark.parametrize("grid, direct_fits", [("1.0,1.5", 0), ("1.2,1.5", 1)])
    def test_naive_comparator(self, grid, direct_fits, tmp_path, monkeypatch):
        # ipw-logistic is the gamma = 1 fit without fallback. A grid from gamma = 1
        # has made that fit already, so it is taken from there, not fitted again.
        calls, fit = [], cli.subgradient_fit
        monkeypatch.setattr(cli, "subgradient_fit", lambda *args: calls.append(1) or fit(*args))
        out = tmp_path / "o"
        argv = ["simulate", "--reps", "1", "--seed", "7", "--n", "60", "--test-n", "300",
                "--gamma", grid, "--iters", "30", "--restarts", "3", "--output-dir", str(out)]
        assert main(argv) == 0
        assert len(calls) == direct_fits
        sim = simulate_binary(SimParamsBinary(n=60, seed=cli._rep_seed(7, 0)))
        test = simulate_binary(SimParamsBinary(n=300, seed=cli._rep_seed(7, 0, stream=1))).data
        spec = UncertaintySpec.from_dataset(sim.data, 1.0)
        opts = FitOptions(iters=30, restarts=3, seed=7, fallback_to_baseline=False)
        naive = fit(sim.data, spec, control_baseline(2), opts).policy
        rows = [r for r in csv.DictReader(open(out / "regret_curves.csv")) if r["method"] == "ipw-logistic"]
        assert [float(r["true_regret"]) for r in rows] == [true_regret(naive, control_baseline(2), test)] * 2

    def test_budgeted_rows_per_gamma(self, tmp_path):
        out = tmp_path / "o"
        argv = ["simulate", "--reps", "1", "--n", "60", "--test-n", "100", "--gamma", "1.0,1.5",
                "--rho", "0.5", "--iters", "5", "--restarts", "1", "--output-dir", str(out)]
        assert main(argv) == 0
        rows = [r for r in csv.DictReader(open(out / "regret_curves.csv")) if r["method"] == "robust-budgeted-0.5"]
        assert [r["gamma"] for r in rows] == ["1.0", "1.5"]

    def test_workers_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGS, "--workers", "2", "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCalibrate:
    def test_matrix_csv(self, sim_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["calibrate", *_data_args(sim_csv), "--gamma", "1.05,1.1,1.2",
             "--iters", "30", "--restarts", "2", "--output-dir", str(out)]
        )
        assert rc == 0
        rows = list(csv.reader(open(out / "calibration.csv")))
        assert rows[0] == ["train_gamma", "eval_1.05", "eval_1.1", "eval_1.2"]
        assert len(rows) == 4
        for row in rows[1:]:
            vals = [float(v) for v in row[1:]]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


class TestAudit:
    def test_audit_csv(self, sim_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["audit", "--input", str(sim_csv), "--covariates", COVS,
             "--treatment-col", "t", "--outcome-col", "y", "--output-dir", str(out)]
        )
        assert rc == 0
        rows = list(csv.reader(open(out / "audit_odds_ratios.csv")))
        assert rows[0] == COVS.split(",")
        assert len(rows) == 1 + 120
        assert all(float(v) > 0 for v in rows[1])


class TestConfigAndErrors:
    def test_config_merge_flags_win(self, sim_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "covariates": COVS.split(","),
            "treatment_col": "t",
            "outcome_col": "y",
            "propensity_col": "e_nominal",
            "gamma": [1.5],
            "iters": 10,
            "restarts": 1,
        }))
        out = tmp_path / "out"
        rc = main(["fit", "--input", str(sim_csv), "--config", str(cfg),
                   "--gamma", "1.0", "--output-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["gamma"] == 1.0  # flag overrode the config

    def test_missing_column_exits_nonzero(self, sim_csv, tmp_path, capsys):
        rc = main(["fit", "--input", str(sim_csv), "--covariates", "nope",
                   "--treatment-col", "t", "--outcome-col", "y",
                   "--gamma", "1.0", "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_gamma_order(self, sim_csv, tmp_path, capsys):
        rc = main(["fit", *_data_args(sim_csv), "--gamma", "2.0,1.5",
                   "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "ascending" in capsys.readouterr().err

    def test_empty_gamma_list(self, sim_csv, tmp_path, capsys):
        rc = main(["fit", *_data_args(sim_csv), "--gamma", ",", "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "--gamma" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, entry, name",
        [
            ("fit", {"itres": 7, "gama": 3}, "--itres"),
            ("simulate", {"workers": 2}, "--workers"),
            ("audit", {"seed": 1}, "--seed"),
            ("evaluate", {"seed": 1}, "--seed"),
        ],
    )
    def test_unknown_config_key(self, command, entry, name, sim_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        argv = {
            "fit": ["fit", *_data_args(sim_csv), "--gamma", "1.2", "--iters", "5", "--restarts", "1"],
            "simulate": TestTreeOptionsRejected.SIMULATE,
            "audit": ["audit", *_data_args(sim_csv)[:-2]],
            "evaluate": ["evaluate", *_data_args(sim_csv), "--policy-file", str(cfg)],
        }[command]
        rc = main([*argv, "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert name in err and str(cfg) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["audit", "evaluate"])
    def test_seed_refused_where_unused(self, command, sim_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *_data_args(sim_csv), "--seed", "1", "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given", [["--reps", "-1"], ["--reps", "0"], {"reps": 0}])
    def test_reps_below_one_refused(self, given, tmp_path, capsys):
        # No run can honour them, so nothing is written.
        if isinstance(given, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(given))
            given = ["--config", str(cfg)]
        assert main(["simulate", *given, "--output-dir", str(tmp_path / "out")]) == 2
        assert "--reps must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--eta0", "nan"), ("--eta0", "inf"), ("--init-scale", "inf")])
    def test_fit_option_no_fit_can_honour_refused_up_front(self, flag, value, sim_csv, tmp_path, capsys):
        argv = ["fit", *_data_args(sim_csv), "--gamma", "1.0", flag, value]
        rc = main([*argv, "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert flag[2:].replace("-", "_") + " must be" in err and "gamma path failed" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, given, message",
        [
            ("simulate", ["--n", "0"], "--n must be >= 1, not 0"),
            ("simulate", ["--n", "-5"], "--n must be >= 1, not -5"),
            ("simulate", ["--test-n", "0"], "--test-n must be >= 1, not 0"),
            ("simulate", {"test_n": 0}, "--test-n must be >= 1, not 0"),
            ("simulate", ["--kappa", "1.5"], "--kappa: kappa must lie in (0, 1]"),
            ("fit", ["--eta0", "nan"], "--eta0: eta0 must be positive and finite"),
            ("fit", {"eta0": -1.0}, "--eta0: eta0 must be positive and finite"),
            ("fit", ["--iters", "0"], "--iters: "),
            ("fit", {"restarts": 0}, "--restarts: "),
            ("fit", ["--init-scale", "-1"], "--init-scale: init_scale must be"),
            ("calibrate", ["--kappa", "0"], "--kappa: kappa must lie in (0, 1]"),
            ("fit", ["--seed", "-1", "--restarts", "1"], "--seed: seed must be >= 0"),
            ("simulate", {"seed": -3}, "--seed: seed must be >= 0"),
            ("fit", ["--policy", "tree", "--depth", "-1"], "--depth must be >= 0, not -1"),
            ("fit", {"policy": "tree", "min_leaf": 0}, "--min-leaf must be >= 1, not 0"),
        ],
    )
    def test_refusal_names_the_option(self, command, given, message, sim_csv, tmp_path, capsys):
        # From a flag or from the config, a value refused below the CLI is named by its flag.
        if isinstance(given, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(given))
            given = ["--config", str(cfg)]
        data = [] if command == "simulate" else [*_data_args(sim_csv), "--gamma", "1.0,1.5"]
        assert main([command, *data, *given, "--output-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "evaluate", "calibrate", "simulate"])
    @pytest.mark.parametrize(
        "grid, pair",
        [
            (["--gamma", "1.0000001,1.0000002,1.5"], "1.0000001 and 1.0000002"),
            (["--gamma", "1.5,2.0000001,2.0000002"], "2.0000001 and 2.0000002"),
            ({"gamma": [1.0000001, 1.0000002]}, "1.0000001 and 1.0000002"),
            (["--gamma", "0,1e-9", "--log-gamma"], "1.0 and 1.000000001"),
        ],
    )
    def test_gammas_sharing_an_output_label_refused(self, command, grid, pair, sim_csv, tmp_path, capsys):
        # Outputs label a gamma by %g: two such gammas would share one key or column.
        if isinstance(grid, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(grid))
            grid = ["--config", str(cfg)]
        policy = tmp_path / "policy.json"
        policy.write_text(policy_to_json(uniform_baseline(2)))
        argv = {
            "fit": ["fit", *_data_args(sim_csv), "--iters", "3"],
            "evaluate": ["evaluate", *_data_args(sim_csv), "--policy-file", str(policy)],
            "calibrate": ["calibrate", *_data_args(sim_csv), "--iters", "3"],
            "simulate": ["simulate", "--reps", "1", "--n", "60", "--test-n", "100", "--iters", "3"],
        }[command]
        assert main([*argv, *grid, "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "--gamma" in err and pair in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, given, message",
        [
            ("fit", ["--treatment-col", ""], "missing required column option --treatment-col"),
            ("fit", ["--baseline", "file"], "--baseline file requires --baseline-file"),
            ("evaluate", [], "evaluate requires --policy-file"),
            ("calibrate", ["--covariates", ","], "missing required column option --covariates"),
        ],
    )
    def test_missing_option_named(self, command, given, message, sim_csv, tmp_path, capsys):
        argv = [command, *_data_args(sim_csv), "--gamma", "1.0", *given, "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_not_an_object(self, sim_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["audit", *_data_args(sim_csv)[:-2], "--config", str(cfg)]) == 2
        assert f"{cfg}: config must be a JSON object" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["audit", "--input", str(tmp_path / "none.csv"), "--covariates", "x0",
                   "--treatment-col", "t", "--outcome-col", "y", "--output-dir", str(tmp_path)])
        assert rc == 2

    def test_stray_label_fails_with_short_stderr(self, tmp_path):
        # In a child process, so a DatasetWarning would reach stderr as it does for a user.
        path = tmp_path / "stray.csv"
        path.write_text("x0,t,y\n1.0,0,1\n2.0,1,2\n3.0,0,3\n4.0,100000,4\n")
        proc = _child(["fit", "--input", str(path), "--covariates", "x0", "--treatment-col", "t",
                       "--outcome-col", "y", "--gamma", "1.0", "--output-dir", str(tmp_path / "out")])
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr) < 1024
        assert b"never occur, more than the 4 data rows" in proc.stderr
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _csv(path, x0_scale=1.0, n=60):
        rng = np.random.default_rng(0)
        X, Y = rng.standard_normal((n, 2)), rng.standard_normal(n)
        rows = [f"{float(X[i, 0] * x0_scale)!r},{float(X[i, 1])!r},{i % 2},{float(Y[i])!r}" for i in range(n)]
        path.write_text("x0,x1,t,y\n" + "\n".join(rows) + "\n")
        return ["--input", str(path), "--covariates", "x0,x1", "--treatment-col", "t", "--outcome-col", "y"]

    @pytest.mark.parametrize("policy", [["--iters", "5", "--restarts", "1"], ["--policy", "tree"]])
    def test_overflowing_gamma_named(self, policy, tmp_path):
        # b = 1 + gamma (W - 1) overflows: refused before any numpy overflow
        # warning, naming --gamma rather than r.
        data = self._csv(tmp_path / "ok.csv")
        proc = _child(["fit", *data, "--gamma", "1e308", *policy, "--output-dir", str(tmp_path / "out")])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count(b"\n") == 1, proc.stderr
        assert proc.stderr.startswith(b"error: --gamma: gamma=1e+308 is too large"), proc.stderr
        assert not (tmp_path / "out").exists()

    def test_overflowing_covariate_named(self, tmp_path):
        # x0 ~ 1e300 overflows the propensity fit's Newton system: refused
        # naming the file and the column, with no LAPACK text on fd 2.
        path = tmp_path / "big.csv"
        proc = _child(["fit", *self._csv(path, x0_scale=1e300), "--gamma", "1.5", "--iters", "5",
                       "--restarts", "1", "--output-dir", str(tmp_path / "out")])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count(b"\n") == 1, proc.stderr
        assert f"error: {path}: column 'x0' is too large in magnitude".encode() in proc.stderr
        assert b"DLASCL" not in proc.stderr

    def test_stalled_propensity_fit_names_the_file(self, tmp_path):
        # x0 ~ 1e100 does not overflow the Newton system but stops the fit
        # from converging: refused naming the file and --propensity-col.
        path = tmp_path / "stall.csv"
        proc = _child(["fit", *self._csv(path, x0_scale=1e100), "--gamma", "1.5", "--iters", "5",
                       "--restarts", "1", "--output-dir", str(tmp_path / "out")])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count(b"\n") == 1, proc.stderr
        assert proc.stderr.startswith(f"error: {path}: propensity fit did not converge".encode()), proc.stderr
        assert b"--propensity-col" in proc.stderr
        assert not (tmp_path / "out").exists()


class TestPolicyFiles:
    """A policy or fit-result JSON that lacks a field is refused, naming the file and the field."""

    LOGISTIC = {"variant": "logistic", "m": 2, "d": 5, "payload": {"theta": [[0.1, 0.2, 0.0, 0.0, 0.0, -0.3]]}}
    DOCS = {
        "constant": ({"variant": "constant", "probs": [0.5, 0.5]}, "'p'"),
        "logistic": ({"variant": "logistic"}, "'theta'"),
        "tree": (
            {"variant": "tree", "m": 2, "d": 5,
             "payload": {"root": {"feature": 0, "left": {"leaf": [1.0, 0.0]}, "right": {"leaf": [0.0, 1.0]}}}},
            "'threshold'",
        ),
        "fit result": ({"policy": LOGISTIC, "fell_back": False}, "'objective'"),
    }

    @staticmethod
    def _argv(command, sim_csv, path):
        if command == "fit":
            return ["fit", *_data_args(sim_csv), "--gamma", "1.2", "--iters", "3", "--restarts", "1",
                    "--baseline", "file", "--baseline-file", str(path)]
        return ["evaluate", *_data_args(sim_csv), "--policy-file", str(path)]

    @pytest.mark.parametrize("variant", sorted(DOCS))
    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_missing_field(self, command, variant, sim_csv, tmp_path, capsys):
        doc, field = self.DOCS[variant]
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        rc = main([*self._argv(command, sim_csv, path), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert f"{path}: " in err and field in err
        assert not (tmp_path / "out").exists()

    def test_fit_result_as_baseline(self, sim_csv, tmp_path):
        # Both options read a policy file alike: a fit result stands for its policy.
        policy, result = tmp_path / "policy.json", tmp_path / "fit.json"
        policy.write_text(json.dumps(self.LOGISTIC))
        result.write_text(json.dumps({"policy": self.LOGISTIC, "objective": 0.0}))
        for path in (policy, result):
            assert main([*self._argv("fit", sim_csv, path), "--output-dir", str(tmp_path / path.stem)]) == 0
        assert (tmp_path / "policy" / "fit.json").read_bytes() == (tmp_path / "fit" / "fit.json").read_bytes()

    @pytest.mark.parametrize("given", [["--ht-probs", ","], {"ht_probs": []}, {"ht_probs": ","}])
    def test_empty_ht_probs(self, given, sim_csv, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text(policy_to_json(uniform_baseline(2)))
        argv = [*self._argv("evaluate", sim_csv, policy), "--output-dir", str(tmp_path / "out")]
        if isinstance(given, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(given))
            given = ["--config", str(cfg)]
        assert main([*argv, *given]) == 2
        assert "--ht-probs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given", [["--ht-probs", "nan,1"], ["--ht-probs", "0.5,inf"], {"ht_probs": ["nan", 1]}])
    def test_non_finite_ht_probs(self, given, sim_csv, tmp_path, capsys):
        # Refused before evaluation.json is written: JSON has no NaN.
        policy = tmp_path / "policy.json"
        policy.write_text(policy_to_json(uniform_baseline(2)))
        argv = [*self._argv("evaluate", sim_csv, policy), "--output-dir", str(tmp_path / "out")]
        if isinstance(given, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(given))
            given = ["--config", str(cfg)]
        assert main([*argv, *given]) == 2
        assert "error: --ht-probs: randomization probabilities must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _tree_doc(root, m=2, d=5):
    return {"variant": "tree", "m": m, "d": d, "payload": {"root": root}}


class TestPolicyFitsData:
    """A policy file whose arms or covariates differ from the data's is refused, naming
    the file and the mismatch; sim_csv has 2 arms and 5 covariates."""

    SPLIT = {"feature": 0, "threshold": 0.0, "left": {"leaf": [1.0, 0.0]}, "right": {"leaf": [0.0, 1.0]}}
    DOCS = {
        "constant 3 arms": ({"variant": "constant", "m": 3, "payload": {"p": [0.2, 0.3, 0.5]}}, "3 arms"),
        "constant 1 arm": ({"variant": "constant", "m": 1, "payload": {"p": [1.0]}}, "1 arms"),
        "logistic 2 covariates": (
            {"variant": "logistic", "m": 2, "d": 2, "payload": {"theta": [[0.1, 0.2, -0.3]]}},
            "reads 2 covariates",
        ),
        "tree short leaf": (_tree_doc({"leaf": [1.0]}), "tree leaf has 1 probabilities for 2 arms"),
        "tree feature -1": (_tree_doc({**SPLIT, "feature": -1}), "feature -1, outside [0, 5)"),
        "tree feature 9": (_tree_doc({**SPLIT, "feature": 9}), "feature 9, outside [0, 5)"),
        "tree 2 covariates": (_tree_doc(SPLIT, d=2), "reads 2 covariates"),
        "tree 3 arms": (_tree_doc({"leaf": [0.2, 0.3, 0.5]}, m=3), "3 arms"),
    }

    @pytest.mark.parametrize("case", sorted(DOCS))
    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_mismatch_refused(self, command, case, sim_csv, tmp_path, capsys):
        doc, mismatch = self.DOCS[case]
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        rc = main([*TestPolicyFiles._argv(command, sim_csv, path), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert f"{path}: " in err and mismatch in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_matching_tree_accepted(self, command, sim_csv, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(_tree_doc(self.SPLIT)))
        assert main([*TestPolicyFiles._argv(command, sim_csv, path), "--output-dir", str(tmp_path / "out")]) == 0


class TestPolicyShape:
    """A policy file of the wrong JSON shape exits 2 naming the file; a fit result's
    options are not read, so neither their keys nor their values matter."""

    LOGISTIC = TestPolicyFiles.LOGISTIC
    BAD = {
        "list document": ([1, 2], "must be JSON objects"),
        "list payload": ({"variant": "constant", "payload": [0.5, 0.5]}, "must be JSON objects"),
        "list policy of a fit result": ({"policy": [1, 2], "objective": 0.0}, "must be JSON objects"),
        "list tree node": (
            {"variant": "tree", "m": 2, "d": 5,
             "payload": {"root": {"feature": 0, "threshold": 0.0, "left": [1.0, 0.0], "right": {"leaf": [0.0, 1.0]}}}},
            "a tree node must be a JSON object",
        ),
        "text theta": ({"variant": "logistic", "payload": {"theta": "abc"}}, "abc"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_wrong_shape_refused(self, command, case, sim_csv, tmp_path, capsys):
        doc, message = self.BAD[case]
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        rc = main([*TestPolicyFiles._argv(command, sim_csv, path), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert f"{path}: " in err and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("options", [{"eta0": 1.0, "extra": 3}, {"eta0": -1.0}, [1, 2]])
    def test_fit_result_options_not_read(self, options, sim_csv, tmp_path):
        policy, result = tmp_path / "policy.json", tmp_path / "fit.json"
        policy.write_text(json.dumps(self.LOGISTIC))
        result.write_text(json.dumps({"policy": self.LOGISTIC, "objective": 0.0, "options": options}))
        for path in (policy, result):
            argv = TestPolicyFiles._argv("evaluate", sim_csv, path)
            assert main([*argv, "--output-dir", str(tmp_path / path.stem)]) == 0
        assert (tmp_path / "policy" / "evaluation.json").read_bytes() == (
            tmp_path / "fit" / "evaluation.json"
        ).read_bytes()


class TestPolicyDocumentFields:
    """A policy file whose m or d disagrees with its own payload exits 2 naming the file,
    before it is compared with the data."""

    DOCS = {
        "constant": ({"variant": "constant", "m": 3, "payload": {"p": [0.5, 0.5]}}, "m = 3"),
        "logistic": (
            {"variant": "logistic", "m": 5, "d": 9, "payload": {"theta": [[0.1, 0.2, 0.0, 0.0, 0.0, -0.3]]}},
            "m = 5",
        ),
        "hardened_logistic": (
            {"variant": "hardened_logistic", "m": 2, "d": 9,
             "payload": {"theta": [[0.1, 0.2, 0.0, 0.0, 0.0, -0.3]]}},
            "d = 9",
        ),
    }

    @pytest.mark.parametrize("variant", sorted(DOCS))
    def test_evaluate_refuses(self, variant, sim_csv, tmp_path, capsys):
        doc, message = self.DOCS[variant]
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        rc = main([*TestPolicyFiles._argv("evaluate", sim_csv, path), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert f"{path}: the {variant} policy document says {message}" in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_hardened_theta_names_the_file(self, sim_csv, tmp_path, capsys):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"variant": "hardened_logistic", "payload": {"theta": [[np.nan, 0, 0, 0, 0, 0]]}}))
        rc = main([*TestPolicyFiles._argv("evaluate", sim_csv, path), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {path}: theta must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"variant": "constant", "payload": {"p": [np.nan, 1.0]}},
            _tree_doc({"feature": 0, "threshold": 0.0, "left": {"leaf": [1.0, 0.0]}, "right": {"leaf": [np.nan, 1.0]}}),
        ],
    )
    def test_non_finite_probabilities_name_the_file(self, doc, sim_csv, tmp_path, capsys):
        # Refused at load, where the error can name the file.
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        rc = main([*TestPolicyFiles._argv("evaluate", sim_csv, path), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {path}: not a probability vector" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTreeOptionsRejected:
    """simulate and calibrate fit logistic policies only, so tree options are errors."""

    SIMULATE = ["simulate", "--reps", "1", "--n", "60", "--iters", "5", "--restarts", "1"]

    def _calibrate(self, sim_csv):
        return ["calibrate", *_data_args(sim_csv), "--gamma", "1.0,1.2", "--iters", "5", "--restarts", "1"]

    @pytest.mark.parametrize(
        "command, flags, name",
        [
            ("simulate", ["--policy", "tree"], "--policy"),
            ("simulate", ["--depth", "2"], "--depth"),
            ("calibrate", ["--policy", "tree"], "--policy"),
            ("calibrate", ["--min-leaf", "5"], "--min-leaf"),
        ],
    )
    def test_flag(self, command, flags, name, sim_csv, tmp_path, capsys):
        argv = self.SIMULATE if command == "simulate" else self._calibrate(sim_csv)
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flags, "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, entry, name",
        [
            ("simulate", {"policy": "tree"}, "--policy"),
            ("simulate", {"min_leaf": 5}, "--min-leaf"),
            ("calibrate", {"depth": 3}, "--depth"),
            ("calibrate", {"policy": "tree", "depth": 1}, "--policy"),
        ],
    )
    def test_config(self, command, entry, name, sim_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        argv = self.SIMULATE if command == "simulate" else self._calibrate(sim_csv)
        rc = main([*argv, "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_logistic_policy_still_accepted(self, sim_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"policy": "logistic"}))
        rc = main([*self._calibrate(sim_csv), "--policy", "logistic", "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 0


class TestFitPolicyOptions:
    """fit refuses the options of the policy class it is not fitting."""

    def _fit(self, sim_csv, tmp_path, *extra):
        return ["fit", *_data_args(sim_csv), "--gamma", "1.2", *extra,
                "--output-dir", str(tmp_path / "out")]

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--policy", "tree", "--iters", "7"], "--iters"),
            (["--policy", "tree", "--restarts", "9"], "--restarts"),
            (["--policy", "tree", "--eta0", "3"], "--eta0"),
            (["--policy", "tree", "--kappa", "0.7"], "--kappa"),
            (["--policy", "tree", "--init-scale", "2"], "--init-scale"),
            (["--depth", "3"], "--depth"),
            (["--policy", "logistic", "--min-leaf", "4"], "--min-leaf"),
            (["--policy", "tree", "--seed", "3"], "--seed"),
            (["--policy", "tree", "--rho", "0.2"], "--rho"),
        ],
    )
    def test_flag(self, flags, name, sim_csv, tmp_path, capsys):
        rc = main(self._fit(sim_csv, tmp_path, *flags))
        assert rc == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "entry, flags, name",
        [
            ({"policy": "tree", "iters": 7}, [], "--iters"),
            ({"restarts": 9}, ["--policy", "tree"], "--restarts"),
            ({"init-scale": 2.0}, ["--policy", "tree"], "--init-scale"),
            ({"depth": 3, "min_leaf": 4}, [], "--depth"),
            ({"policy": "tree", "min_leaf": 4}, ["--policy", "logistic"], "--min-leaf"),
            ({"policy": "forest"}, [], "--policy"),
            ({"policy": "tree", "seed": 3}, [], "--seed"),
            ({"rho": 0.2}, ["--policy", "tree"], "--rho"),
        ],
    )
    def test_config(self, entry, flags, name, sim_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        rc = main(self._fit(sim_csv, tmp_path, *flags, "--config", str(cfg)))
        assert rc == 2
        err = capsys.readouterr().err
        assert name in err and str(cfg) in err
        assert not (tmp_path / "out").exists()

    def test_each_policy_keeps_its_own_options(self, sim_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"policy": "tree", "depth": 1, "min_leaf": 10}))
        assert main(self._fit(sim_csv, tmp_path, "--config", str(cfg))) == 0
        doc = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert doc["options"] is None
        assert main(self._fit(sim_csv, tmp_path, "--iters", "7", "--restarts", "1",
                              "--eta0", "0.5", "--kappa", "0.6", "--init-scale", "2")) == 0
        doc = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert doc["options"]["iters"] == 7 and doc["options"]["init_scale"] == 2.0


def _child(argv):
    """`python -m crpolicy.cli argv` in a child process, on this checkout's
    package, so warnings and anything written to fd 2 show as a user sees them."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, "-m", "crpolicy.cli", *argv], env=env, capture_output=True, timeout=120)


def _run(argv):
    """main's exit code, whether the error came from argparse or from main."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestOptionSurface:
    """Each subcommand defines exactly the options its handler reads."""

    PROBLEM = ["gamma", "log_gamma", "rho", "baseline", "baseline_file"]
    FITTING = ["policy", "restarts", "iters", "eta0", "kappa", "init_scale", "seed", "no_fallback"]
    COLUMNS = ["input", "covariates", "treatment_col", "outcome_col", "output_dir", "config"]
    OPTIONS = {
        "fit": COLUMNS + ["propensity_col", "clip_eps"] + PROBLEM + FITTING + ["depth", "min_leaf"],
        "evaluate": COLUMNS + ["propensity_col", "clip_eps"] + PROBLEM
        + ["counterfactual_cols", "policy_file", "ht_probs"],
        "simulate": ["output_dir", "config"] + PROBLEM + FITTING + ["preset", "reps", "n", "test_n"],
        "calibrate": COLUMNS + ["propensity_col", "clip_eps"] + PROBLEM + FITTING,
        "audit": COLUMNS,
    }

    def test_option_sets(self):
        _, commands = _build_parser()
        assert {name: sorted(_options(p)) for name, p in commands.items()} == {
            name: sorted(options) for name, options in self.OPTIONS.items()
        }
        assert sum(len(options) for options in self.OPTIONS.values()) == 85

    def _argv(self, command, sim_csv):
        columns = _data_args(sim_csv)[:-2]  # without --propensity-col
        return {
            "audit": ["audit", *columns],
            "fit": ["fit", *columns, "--gamma", "1.2", "--iters", "5", "--restarts", "1"],
            "calibrate": ["calibrate", *columns, "--gamma", "1.0,1.2", "--iters", "5", "--restarts", "1"],
        }[command]

    @pytest.mark.parametrize(
        "command, flags, name",
        [
            ("audit", ["--clip-eps", "0.2"], "--clip-eps"),
            ("audit", ["--propensity-col", "e_nominal"], "--propensity-col"),
            ("audit", ["--counterfactual-cols", "y_cf0,y_cf1"], "--counterfactual-cols"),
            ("fit", ["--counterfactual-cols", "y_cf0,y_cf1"], "--counterfactual-cols"),
            ("calibrate", ["--counterfactual-cols", "y_cf0,y_cf1"], "--counterfactual-cols"),
            ("fit", ["--baseline-file", "/nonexistent.json"], "--baseline-file"),
            ("fit", ["--baseline", "uniform", "--baseline-file", "/nonexistent.json"], "--baseline-file"),
            ("fit", ["--propensity-col", "e_nominal", "--clip-eps", "0.3"], "--clip-eps"),
        ],
    )
    def test_unread_flag(self, command, flags, name, sim_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run([*self._argv(command, sim_csv), *flags, "--output-dir", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, entry, flags, name",
        [
            ("audit", {"clip_eps": 0.2}, [], "--clip-eps"),
            ("audit", {"propensity_col": "e_nominal"}, [], "--propensity-col"),
            ("audit", {"counterfactual_cols": ["y_cf0", "y_cf1"]}, [], "--counterfactual-cols"),
            ("fit", {"counterfactual_cols": ["y_cf0", "y_cf1"]}, [], "--counterfactual-cols"),
            ("calibrate", {"counterfactual-cols": "y_cf0,y_cf1"}, [], "--counterfactual-cols"),
            ("fit", {"baseline_file": "/nonexistent.json"}, [], "--baseline-file"),
            ("fit", {"baseline_file": "/nonexistent.json"}, ["--baseline", "control"], "--baseline-file"),
            ("fit", {"propensity_col": "e_nominal", "clip_eps": 0.3}, [], "--clip-eps"),
            ("fit", {"clip_eps": 0.3}, ["--propensity-col", "e_nominal"], "--clip-eps"),
        ],
    )
    def test_unread_config_key(self, command, entry, flags, name, sim_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        out = tmp_path / "out"
        rc = main([*self._argv(command, sim_csv), *flags, "--config", str(cfg), "--output-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert name in err and str(cfg) in err
        assert not out.exists()

    def test_read_options_still_accepted(self, sim_csv, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(policy_to_json(uniform_baseline(2)))
        argv = self._argv("fit", sim_csv)
        assert main([*argv, "--clip-eps", "0.05", "--baseline", "file", "--baseline-file", str(baseline),
                     "--output-dir", str(tmp_path / "a")]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"clip_eps": 0.05, "baseline": "file", "baseline_file": str(baseline)}))
        assert main([*argv, "--config", str(cfg), "--output-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "fit.json").read_bytes() == (tmp_path / "b" / "fit.json").read_bytes()


class TestConfigValues:
    """A config value is read as the flag reads its argument."""

    def _fit(self, sim_csv, out, *extra):
        return ["fit", *_data_args(sim_csv), "--iters", "5", "--restarts", "1", *extra,
                "--output-dir", str(out)]

    @pytest.mark.parametrize(
        "entry, flags",
        [
            ({"gamma": 1.5}, ["--gamma", "1.5"]),
            ({"rho": 0.2}, ["--rho", "0.2"]),
            ({"rho": "0.2"}, ["--rho", "0.2"]),
            ({"gamma": [1.2, 1.5], "eta0": 1}, ["--gamma", "1.2,1.5", "--eta0", "1"]),
            ({"gamma": "1.2,1.5", "no_fallback": True}, ["--gammas", "1.2,1.5", "--no-fallback"]),
        ],
    )
    def test_same_bytes_as_the_flag(self, entry, flags, sim_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        assert main(self._fit(sim_csv, tmp_path / "flag", *flags)) == 0
        assert main(self._fit(sim_csv, tmp_path / "cfg", "--config", str(cfg))) == 0
        names = sorted(os.listdir(tmp_path / "flag"))
        assert names == sorted(os.listdir(tmp_path / "cfg")) and "fit.json" in names
        for name in names:
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "cfg" / name).read_bytes()

    @pytest.mark.parametrize(
        "entry, flags, name",
        [
            ({"iters": 7.9}, ["--iters", "7.9"], "--iters"),
            ({"gamma": [1.2, "x"]}, ["--gamma", "1.2,x"], "--gamma"),
            ({"baseline": "treat"}, ["--baseline", "treat"], "--baseline"),
            ({"rho": None}, [], "--rho"),
            ({"no_fallback": "yes"}, [], "--no-fallback"),
        ],
    )
    def test_rejected_as_the_flag(self, entry, flags, name, sim_csv, tmp_path, capsys):
        if flags:
            assert _run(self._fit(sim_csv, tmp_path / "out", *flags)) == 2
            assert name in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        assert main(self._fit(sim_csv, tmp_path / "out", "--config", str(cfg))) == 2
        err = capsys.readouterr().err
        assert name in err and str(cfg) in err and repr(next(iter(entry))) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, entry, name",
        [("simulate", {"preset": "nope"}, "--preset"), ("audit", {"covariates": {"x0": 1}}, "--covariates")],
    )
    def test_other_commands(self, command, entry, name, sim_csv, tmp_path, capsys):
        argv = {
            "simulate": TestTreeOptionsRejected.SIMULATE,
            "audit": ["audit", *_data_args(sim_csv)[:-2]],
        }[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        assert main([*argv, "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert name in err and str(cfg) in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("policy", ["logistic", "tree"])
def test_gamma_grid_strictly_ascending(policy, sim_csv, tmp_path, capsys):
    rc = main(["fit", *_data_args(sim_csv), "--policy", policy, "--gamma", "1.5,1.5",
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "ascending" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
