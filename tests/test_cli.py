import csv
import filecmp
import json
import os

import numpy as np
import pytest

from crpolicy import ColumnSchema, SimParamsBinary, load_dataset, simulate_binary
from crpolicy.cli import main
from crpolicy.evaluation.reports import write_dataset_csv

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

    def test_workers_do_not_change_bytes(self, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main([*self.ARGS, "--output-dir", str(out1)]) == 0
        assert main([*self.ARGS, "--workers", "2", "--output-dir", str(out2)]) == 0
        names = sorted(os.listdir(out1))
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
        assert mismatch == [] and errors == []


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

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["audit", "--input", str(tmp_path / "none.csv"), "--covariates", "x0",
                   "--treatment-col", "t", "--outcome-col", "y", "--output-dir", str(tmp_path)])
        assert rc == 2


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
