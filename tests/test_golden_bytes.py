"""Byte pins on the CLI's outputs: small commands, each output file's sha256,
and each subcommand's --help text at a fixed terminal width.

A change that keeps the outputs (a speed-up, a refactor) must leave every
digest here as it is. The digests were recorded with the Python and numpy
versions below; float roundoff depends on numpy's kernels and the BLAS, so
on other versions the test is skipped rather than compared. An intended
output change regenerates the table with

    PYTHONPATH=src python tests/test_golden_bytes.py

and says so where it is reviewed.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import sys
from unittest import mock

import numpy as np
import pytest

from crpolicy.cli import main

PYTHON = "3.11.7"
NUMPY = "2.4.6"

COVS = ["x0", "x1", "x2"]
_FIT = ["--covariates", ",".join(COVS), "--treatment-col", "t", "--outcome-col", "y"]
_POLICY = {
    "variant": "logistic",
    "m": 3,
    "d": 3,
    "payload": {"theta": [[0.3, -0.5, 0.2, 0.1], [-0.2, 0.4, 0.0, -0.3]]},
}


def _write_input(path, seed, n, m, binary=False):
    """n confounded units over m arms, floats in repr form; binary losses tie at 0 and 1."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, len(COVS)))
    T = rng.integers(0, m, size=n)
    base = X @ np.array([0.5, -0.5, 0.3]) + 0.3 * T - 0.8 * (T > 0) * X[:, 0]
    noisy = base + rng.standard_normal(n)
    Y = (noisy > 0).astype(float) if binary else noisy
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COVS + ["t", "y"])
        for x, t, y in zip(X.tolist(), T.tolist(), Y.tolist()):
            w.writerow([repr(v) for v in x] + [str(t), repr(y)])


def _inputs(tmp):
    """Each command's input CSVs and policy file, written under tmp."""
    designs = {  # name: (seed, n, m, binary)
        "box": (7, 600, 3, False),
        "rho": (8, 150, 2, False),
        "binary": (9, 3000, 3, True),
        "tree": (10, 200, 2, False),
        "box4": (11, 400, 4, False),
        "box-n20k": (12, 20000, 3, False),
    }
    for name, args in designs.items():
        _write_input(os.path.join(tmp, f"{name}.csv"), *args)
    with open(os.path.join(tmp, "policy.json"), "w", encoding="utf-8") as fh:
        json.dump(_POLICY, fh)


def _commands(tmp):
    """The argv of each pinned command, by name; each writes to its own directory."""
    inp = lambda name: ["--input", os.path.join(tmp, f"{name}.csv"), *_FIT]
    return {
        "fit-box": ["fit", *inp("box"), "--gamma", "1.2", "--iters", "30", "--restarts", "2"],
        "fit-box4": ["fit", *inp("box4"), "--gamma", "1.3", "--iters", "20", "--restarts", "3", "--no-fallback"],
        "fit-box-n20k": ["fit", *inp("box-n20k"), "--gamma", "1.2", "--iters", "5", "--restarts", "2", "--no-fallback"],
        "fit-rho": ["fit", *inp("rho"), "--gamma", "1.5", "--rho", "0.2", "--iters", "10", "--restarts", "1"],
        "fit-rho0": ["fit", *inp("rho"), "--gamma", "1.5", "--rho", "0", "--iters", "10", "--restarts", "1"],
        "fit-rho-binary": ["fit", *inp("binary"), "--gamma", "1.5", "--rho", "0.2", "--iters", "10", "--restarts", "3"],
        "fit-binary": ["fit", *inp("binary"), "--gamma", "1,1.5", "--iters", "25", "--restarts", "2", "--seed", "3"],
        "fit-tree": ["fit", *inp("tree"), "--policy", "tree", "--depth", "2", "--min-leaf", "10", "--gamma", "1.5"],
        "fit-tree-binary": ["fit", *inp("binary"), "--policy", "tree", "--depth", "2", "--min-leaf", "20", "--gamma", "1.5"],
        "fit-tree-1e13": ["fit", *inp("tree"), "--policy", "tree", "--depth", "2", "--min-leaf", "10", "--gamma", "1e13"],
        "fit-tree-1e16": ["fit", *inp("tree"), "--policy", "tree", "--depth", "2", "--min-leaf", "10", "--gamma", "1e16"],
        "simulate": [
            "simulate", "--preset", "binary-sec7", "--reps", "1", "--n", "60", "--test-n", "200",
            "--gamma", "1,1.5", "--iters", "10", "--restarts", "2", "--seed", "5",
        ],
        "simulate-rho": [
            "simulate", "--preset", "binary-sec7", "--reps", "1", "--n", "60", "--test-n", "200",
            "--gamma", "1,1.5", "--rho", "0.3", "--iters", "10", "--restarts", "2", "--seed", "5",
        ],
        "calibrate": ["calibrate", *inp("box"), "--gamma", "1,1.5,2", "--iters", "10", "--restarts", "1"],
        "evaluate": [
            "evaluate", *inp("box"), "--gamma", "1,1.5", "--policy-file", os.path.join(tmp, "policy.json"),
            "--baseline", "uniform",
        ],
        "audit": ["audit", *inp("tree")],
    }


def _digests(argv, out_dir):
    """sha256 of the command's stdout and of each file it writes, by name."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main([*argv, "--output-dir", out_dir])
    assert rc == 0, f"{argv[0]} exited {rc}"
    digests = {"stdout": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _help_digest(command):
    """sha256 of the subcommand's --help text on a terminal 80 columns wide."""
    stdout = io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(stdout):
        try:
            main([command, "--help"])
        except SystemExit as exc:
            assert exc.code == 0, f"{command} --help exited {exc.code}"
    return hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()


GOLDEN = {
    "fit-box": {
        "stdout": "12c6686a5e41b517053414b7e8e0d8c627927a9a28942ba66fcd26d7a96d5fda",
        "fit.json": "095be9806aadea999b9192d3b598c20c2b8c2e0f9c2d2a89bc96fe52cdcb95aa",
    },
    "fit-box4": {
        "stdout": "01ad2b394a4b3801242b406e3ea5bfa992d2a1b57f07772201ff0a7187e6f419",
        "fit.json": "5c62dd8d4c6373747361d92464966a6f666d13d06c5ea6497b9a8d88da015084",
    },
    "fit-box-n20k": {
        "stdout": "9cbaf9abb11016925857f925091b9d159a6e2667bfa0c9e0d3e2dadc533db77d",
        "fit.json": "4f0620fae7d76ddc2aec68e08504ec6bbf30c3cdb10ff2ec2314a798bf6b526b",
    },
    "fit-rho": {
        "stdout": "32eda3f917fc4e4852074bdb9da140266c6bc0b7ab3c956c72b81a362d536020",
        "fit.json": "760da546fbade1aeb395b408eb0a3d97846e0ab11c0b0ecb66b882198c56cd46",
    },
    "fit-rho0": {
        "stdout": "32eda3f917fc4e4852074bdb9da140266c6bc0b7ab3c956c72b81a362d536020",
        "fit.json": "67507241a3feaccf228c25b2810ccc153c890fe1896aa27bbe1841f55557ac2d",
    },
    "fit-rho-binary": {
        "stdout": "32eda3f917fc4e4852074bdb9da140266c6bc0b7ab3c956c72b81a362d536020",
        "fit.json": "5d41a80ab2462d3010ca1f3cdfb2ced1bc4b86e2135f3054287167dd36f3ed18",
    },
    "fit-binary": {
        "stdout": "b4f19cbdcac19800ae5ceb9aa0a66458f404445b6c67ba46484e58adc6327500",
        "fit.json": "3bedd2d3b27747387ca6c2007b56e0d7c16ce767547fe470b032aef0ae7179a4",
        "gamma_path.csv": "d562c9af20e63197fe3d0ede00ba8bb6bbf5a26113cd9ef933d46ed38838fe48",
    },
    "fit-tree": {
        "stdout": "75a64e8653540ad5a430f7a13cd0f311d8c97cc497933e5dfdaf57c08b16d0f0",
        "fit.json": "c85295d63162966ac9688ba12241e3483774cf6dcc6391804b1e68db9cef5a11",
    },
    "fit-tree-binary": {
        "stdout": "93d38f1ae37839ec6b30f92f6c564999c22e095f8c9c63429cacc5cd22bab7a1",
        "fit.json": "60fb73176ff42f47ce83c33fa919d2b6108d8b5bb13c8a8d8848514e6feb9a70",
    },
    "fit-tree-1e13": {
        "stdout": "db6559cdcbca0c67c99788175f1631310454fcf204d0274ea087aa3f8e65391e",
        "fit.json": "4008e80fa808d39d3d1b7362cebbcab494a14e774a73a5d8439d6f0e552a68e3",
    },
    "fit-tree-1e16": {
        "stdout": "327cb3026dc022c77aee2e31756f71e707d8d26ff0d3b10b11ef082d8de66b12",
        "fit.json": "df1482d53ddcd45747243628d7b3ed6e0802c62d02fdd857f0a14d74bf00baf0",
    },
    "simulate": {
        "stdout": "94aeaf2250a8f2d44ef83a787b72534df6738631e2d7d7e55d2b6d1678621a61",
        "dataset_rep000.csv": "270e1bb0138911e978f15045641cf8d1df6d7b7cd3d06d61be83090e32892978",
        "regret_curves.csv": "63de77f0cc2f34b30883d751009089fdf49da93cfcac22b2d7bb971ce8e1d78a",
        "summary.json": "cd0b76764ca56643100ec6dd0cdbf348e77133a89cfcff706c575229f5e700fd",
    },
    "simulate-rho": {
        "stdout": "af7380b0e3918734e522332dc4fd4dece0f511ff867c2e465976d8027de1dc4d",
        "dataset_rep000.csv": "270e1bb0138911e978f15045641cf8d1df6d7b7cd3d06d61be83090e32892978",
        "regret_curves.csv": "75512d37a95384b0d044c4d63d8ce4d740322b1f5d677f8c9c0886b8bdb80c67",
        "summary.json": "5437933bed5b98b755a31f2f7a16cb46a8e19ba7933eb92149cd47d2cdb08359",
    },
    "calibrate": {
        "stdout": "0aa5989f3e82f71496bbf3f5f99537ae9fa861d37d92109bc9a22f0498897b44",
        "calibration.csv": "a0b8fadc15759a58b5df774b88ea622b37cfb81a844087f651e99e9f44090048",
    },
    "evaluate": {
        "stdout": "c52b4165b2918b5c20e723f80f0ea41a1193ea08402854bd2fabddfe59096a5f",
        "evaluation.json": "c52b4165b2918b5c20e723f80f0ea41a1193ea08402854bd2fabddfe59096a5f",
    },
    "audit": {
        "stdout": "7aa32f307bf7bb7de9ac3dc5c06dbd3a24b764b96d26ced106b044e48b9b2bf1",
        "audit_odds_ratios.csv": "bfa89c961d07223fcd6bdfaf5eb481f8b8b737616e4be130ae1650699d336abc",
    },
}

# argparse lays out help text differently across Python versions, so these
# are compared under PYTHON only.
HELP = {
    "fit": "1d5d093be0c0b5f150169354fcc25812b01d5923b86e6369ef320f12d7431791",
    "evaluate": "6d1e2d5a2a2ed33dff70472b09dbe911d57e036a96fcf10ee81ee23052aad014",
    "simulate": "d417cabeee984338b8a6797a2ccb478763188493e481cb3ce53a1bee82ca2ba7",
    "calibrate": "330a6a6da47d44edaf65741ee5b27212cfcf4927d1e25c27ac070d00734f4a07",
    "audit": "acf570b8c29817f0ae55a52cfcd1377f0cdc0b73dfabb4b06ef6cc76e850ab69",
}

_SAME_VERSIONS = platform.python_version() == PYTHON and np.__version__ == NUMPY


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("golden"))
    _inputs(tmp)
    return tmp


@pytest.mark.skipif(not _SAME_VERSIONS, reason=f"digests recorded with Python {PYTHON}, numpy {NUMPY}")
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_bytes(name, workdir):
    out_dir = os.path.join(workdir, "out-" + name)
    assert _digests(_commands(workdir)[name], out_dir) == GOLDEN[name]


@pytest.mark.skipif(platform.python_version() != PYTHON, reason=f"help text recorded with Python {PYTHON}")
@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text_bytes(command):
    assert _help_digest(command) == HELP[command]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _inputs(tmp)
        table = {name: _digests(argv, os.path.join(tmp, "out-" + name)) for name, argv in _commands(tmp).items()}
    print(f"# Python {platform.python_version()}, numpy {np.__version__}", file=sys.stderr)
    print(json.dumps(table, indent=4))
    print(json.dumps({command: _help_digest(command) for command in HELP}, indent=4))
