import csv
import re
import warnings

import numpy as np
import pytest

from crpolicy import ColumnSchema, Dataset, estimate_propensities, load_dataset
from crpolicy.data import ArmIndex, _parse_cell, fit_multinomial_logit, propensity_matrix, softmax
from crpolicy.exceptions import ConvergenceError, DatasetError, DatasetWarning


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SCHEMA = ColumnSchema(covariates=["x0"], treatment="t", outcome="y")


class TestLoadDataset:
    def test_two_row_file(self, tmp_path):
        data = load_dataset(_write(tmp_path, "x0,t,y\n1.0,1,-2\n0.5,0,1\n"), SCHEMA)
        assert data.n == 2 and data.d == 1 and data.m == 2
        assert data.Y.tolist() == [-2.0, 1.0]
        assert data.T.tolist() == [1, 0]

    def test_header_only_gives_empty_dataset(self, tmp_path):
        data = load_dataset(_write(tmp_path, "x0,t,y\n"), SCHEMA)
        assert data.n == 0 and data.m == 2

    def test_unseen_intermediate_labels_set_m(self, tmp_path):
        with pytest.warns(DatasetWarning):
            data = load_dataset(_write(tmp_path, "x0,t,y\n1.0,3,0.5\n2.0,0,1.5\n"), SCHEMA)
        assert data.m == 4

    def test_missing_cell_reports_row(self, tmp_path):
        with pytest.raises(DatasetError, match="row 2"):
            load_dataset(_write(tmp_path, "x0,t,y\n1.0,1,2.0\n,0,1.0\n"), SCHEMA)

    def test_non_numeric_cell_reports_row(self, tmp_path):
        with pytest.raises(DatasetError, match="row 1"):
            load_dataset(_write(tmp_path, "x0,t,y\nfoo,1,2.0\n"), SCHEMA)

    def test_missing_column_is_an_error(self, tmp_path):
        with pytest.raises(DatasetError, match="outcome"):
            load_dataset(
                _write(tmp_path, "x0,t\n1.0,1\n"),
                ColumnSchema(covariates=["x0"], treatment="t", outcome="outcome"),
            )

    def test_fractional_treatment_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="non-negative integer"):
            load_dataset(_write(tmp_path, "x0,t,y\n1.0,0.5,2.0\n"), SCHEMA)

    def test_propensity_column(self, tmp_path):
        schema = ColumnSchema(covariates=["x0"], treatment="t", outcome="y", propensity="e")
        data = load_dataset(_write(tmp_path, "x0,t,y,e\n1.0,1,2.0,0.25\n0.0,0,1.0,0.5\n"), schema)
        assert np.allclose(data.e_hat, [0.25, 0.5])

    # Odd but valid files, and malformed ones. Each body repeats its rows past
    # the parser's first chunk of rows, so row numbers there are global ones.
    ODD = {
        "blank rows": "1.0,a,1,2\n\n,,,\n  ,\t, ,\n0.5,b,0,-1\n",
        "whitespace and quotes": '" 1.5 ",a, 1 ,"2.0"\n\t0.25\t,"b","0",-0.0\n',
        "underscores, -0 and 1e308": "1_0,a,0_1,1e308\n-0,b,-0,-1e-308\n1.5,c,0,2\n",
        "unread column": "1.0,not a number,1,2\n2.0,,0,3\n",
    }
    BAD = {
        "missing cell": (",x,1,2", "missing value in column 'x0'"),
        "non-numeric cell": ("1.0,x,1,abc", "non-numeric value 'abc' in column 'y'"),
        "inf": ("inf,x,1,2", "non-finite value in column 'x0'"),
        "nan": ("1.0,x,1,nan", "non-finite value in column 'y'"),
        "overflow": ("1e400,x,1,2", "non-finite value in column 'x0'"),
        "short row": ("1.0,x,1", "has 3 cells, expected 4"),
        "long row": ("1.0,x,1,2,3", "has 5 cells, expected 4"),
        "negative T": ("1.0,x,-1,2", "treatment value -1.0"),
        "fractional T": ("1.0,x,0.5,2", "treatment value 0.5"),
        "fractional T before a bad Y": ("1.0,x,2.5,abc", "treatment value 2.5"),
    }

    @pytest.mark.parametrize("case", sorted(ODD))
    def test_odd_valid_file_parses_as_cell_by_cell(self, case, tmp_path):
        path = _write(tmp_path, "x0,name,t,y\n" + self.ODD[case] * 1500)
        _assert_same_as_reference(load_dataset(path, SCHEMA), path, SCHEMA)

    def test_propensities_and_counterfactuals_parse_as_cell_by_cell(self, tmp_path):
        rng = np.random.default_rng(3)
        x, c0, c1 = rng.standard_normal((3, 5000)).tolist()
        e = rng.uniform(0.1, 0.9, 5000).tolist()
        rows = [f"{x[i]!r},{i % 2},{(c0, c1)[i % 2][i]!r},{e[i]!r},{c0[i]!r},{c1[i]!r}" for i in range(5000)]
        path = _write(tmp_path, "x0,t,y,e,c0,c1\n" + "\n".join(rows) + "\n")
        schema = ColumnSchema(["x0"], "t", "y", propensity="e", potential_outcomes=["c0", "c1"])
        _assert_same_as_reference(load_dataset(path, schema), path, schema)

    def test_arrays_hold_only_their_own_values(self, tmp_path):
        # A view into the parsed block would keep every column of the file alive.
        path = _write(tmp_path, "x0,t,y,e,c0,c1\n" + "0.5,1,2.0,0.4,1.0,2.0\n1.5,0,1.0,0.6,1.0,3.0\n" * 1500)
        schema = ColumnSchema(["x0"], "t", "y", propensity="e", potential_outcomes=["c0", "c1"])
        data = load_dataset(path, schema)
        for arr in (data.X, data.T, data.Y, data.e_hat, data.potential_Y):
            owner = arr if arr.base is None else arr.base
            assert owner.nbytes == arr.nbytes

    @pytest.mark.parametrize("row", [1, 2048, 2049, 3001, 4500])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_malformed_row_raises_as_cell_by_cell(self, case, row, tmp_path):
        rows = ["1.0,x,1,2.5", "-0.5,y,0,1e-3"] * 2250
        cell, message = self.BAD[case]
        rows[row - 1] = cell
        path = _write(tmp_path, "x0,name,t,y\n" + "\n".join(rows) + "\n")
        with pytest.raises(DatasetError) as ref:
            _reference_load(path, SCHEMA)
        with pytest.raises(DatasetError) as got:
            load_dataset(path, SCHEMA)
        assert str(got.value) == str(ref.value)
        assert message in str(got.value) and re.search(rf"data row {row}\b", str(got.value))

    def test_label_past_int64_fails_as_cell_by_cell(self, tmp_path):
        path = _write(tmp_path, "x0,name,t,y\n" + "1.0,a,1,2\n" * 3000 + "1.0,a,1e19,2\n")
        with pytest.raises(DatasetError) as ref:
            _reference_load(path, SCHEMA)
        with pytest.raises(DatasetError) as got:
            load_dataset(path, SCHEMA)
        assert str(got.value) == str(ref.value)
        assert "treatment value 1e+19 at data row 3001 is past the int64 range" in str(got.value)

    @pytest.mark.parametrize(
        "body, message",
        [
            # 4 rows; 99,998 of the labels 0..100000 never occur.
            ("1.0,0,1\n2.0,1,2\n3.0,0,3\n4.0,100000,4\n", "99998 of the labels 0..100000 never occur"),
            # One unseen label more than rows; labels 3 and 0 leave 2 unseen, which is allowed.
            ("1.0,4,0.5\n2.0,0,1.5\n", "3 of the labels 0..4 never occur, more than the 2 data rows"),
        ],
    )
    def test_stray_label_refused_before_work_of_size_m(self, body, message, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match=message) as got:
                load_dataset(_write(tmp_path, "x0,t,y\n" + body), SCHEMA)
        assert len(str(got.value)) < 300


def _reference_load(path, schema):
    """The cell-by-cell CSV parse: (X, T, Y, e_hat, potential_Y, m), blank rows
    skipped, the first bad cell in file order raising."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        pos = {name: i for i, name in enumerate(header)}
        cov, pot = list(schema.covariates), list(schema.potential_outcomes or [])
        X, T, Y, e, P = [], [], [], [], []
        for row_num, row in enumerate(reader, start=1):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(header):
                raise DatasetError(f"{path}: data row {row_num} has {len(row)} cells, expected {len(header)}")
            X.append([_parse_cell(row[pos[c]], c, row_num) for c in cov])
            t = _parse_cell(row[pos[schema.treatment]], schema.treatment, row_num)
            if t != int(t) or t < 0:
                raise DatasetError(
                    f"{path}: treatment value {t!r} at data row {row_num} is not a non-negative integer"
                )
            if t >= 2.0**63:
                raise DatasetError(f"{path}: treatment value {t!r} at data row {row_num} is past the int64 range")
            T.append(int(t))
            Y.append(_parse_cell(row[pos[schema.outcome]], schema.outcome, row_num))
            if schema.propensity:
                e.append(_parse_cell(row[pos[schema.propensity]], schema.propensity, row_num))
            P.append([_parse_cell(row[pos[c]], c, row_num) for c in pot])
    T = np.array(T, dtype=np.int64)
    m = max(2, int(T.max()) + 1) if T.size else 2
    e_hat = np.array(e, dtype=float) if schema.propensity else None
    pot_Y = np.array(P, dtype=float).reshape(T.size, len(pot)) if pot else None
    return np.array(X, dtype=float).reshape(T.size, len(cov)), T, np.array(Y, dtype=float), e_hat, pot_Y, m


def _assert_same_as_reference(data, path, schema):
    *arrays, m = _reference_load(path, schema)
    for got, want in zip((data.X, data.T, data.Y, data.e_hat, data.potential_Y), arrays):
        if want is None:
            assert got is None
        else:
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert data.m == m


class TestDatasetInvariants:
    def test_consistency_with_counterfactuals(self):
        pY = np.array([[1.0, 2.0], [3.0, 4.0]])
        data = Dataset(X=np.zeros((2, 1)), T=[1, 0], Y=[2.0, 3.0], m=2, potential_Y=pY)
        assert data.potential_Y is not None

    def test_inconsistent_counterfactuals_rejected(self):
        pY = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(DatasetError, match="exactly"):
            Dataset(X=np.zeros((2, 1)), T=[1, 0], Y=[2.0, 3.5], m=2, potential_Y=pY)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(X=np.zeros((2, 1)), T=[0, 2], Y=[0.0, 0.0], m=2)

    def test_propensity_domain(self):
        with pytest.raises(DatasetError):
            Dataset(X=np.zeros((1, 1)), T=[0], Y=[0.0], m=2, e_hat=[0.0])
        Dataset(X=np.zeros((1, 1)), T=[0], Y=[0.0], m=2, e_hat=[1.0])  # 1.0 allowed

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"X": np.zeros((3, 1))}, "X has 3 rows but T has 2"),
            ({"Y": [0.0]}, "Y has 1 entries but T has 2"),
            ({"m": 1, "T": [0, 0]}, "m=1 must be >= 2"),
            ({"m": 2.5}, "m=2.5 must be an integer"),
            ({"m": float("inf")}, "m=inf must be an integer"),
            ({"T": [0.5, 1.7]}, "treatment labels must be integers"),
            ({"T": [0.0, np.nan]}, "treatment labels must be integers"),
            ({"T": [0.0, 1e300]}, r"treatment labels must lie in \{0, ..., m-1\}"),
            ({"X": [[0.0], [np.inf]]}, "X contains non-finite values"),
            ({"Y": [np.nan, 0.0]}, "Y contains non-finite values"),
            ({"e_hat": [0.5]}, "e_hat length does not match n"),
            ({"potential_Y": np.zeros((2, 3))}, r"potential_Y must have shape \(2, 2\)"),
        ],
    )
    def test_field_refused(self, fields, message):
        with pytest.raises(DatasetError, match=message):
            Dataset(**{"X": np.zeros((2, 1)), "T": [0, 1], "Y": [0.0, 0.0], "m": 2, **fields})

    @pytest.mark.parametrize("m", [2, np.int64(2), 2.0, np.float64(2.0)])
    def test_whole_float_labels_and_arity_accepted(self, m):
        data = Dataset(X=np.zeros((2, 1)), T=[0.0, 1.0], Y=[0.0, 1.0], m=m)
        assert data.T.dtype == np.int64 and data.T.tolist() == [0, 1]
        assert type(data.m) is int and data.m == 2

    def test_arrays_frozen(self):
        data = Dataset(X=np.zeros((1, 1)), T=[0], Y=[0.0], m=2)
        with pytest.raises(ValueError):
            data.Y[0] = 1.0


class TestArmIndex:
    def test_partition_property(self):
        rng = np.random.default_rng(0)
        T = rng.integers(0, 3, 50)
        arms = ArmIndex.from_labels(T, 3)
        assert sum(arms[t].size for t in range(3)) == 50
        all_idx = np.concatenate([arms[t] for t in range(3)])
        assert np.array_equal(np.sort(all_idx), np.arange(50))
        for t in range(3):
            assert np.all(T[arms[t]] == t)


class TestSoftmax:
    """The column-wise row max and normalizer give the bits of numpy's own reduces."""

    @staticmethod
    def _reduced(scores):
        s = scores - scores.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        return s

    @pytest.mark.parametrize("m", list(range(1, 13)) + [130])
    def test_bits_of_the_reduce_form(self, m):
        rng = np.random.default_rng(m)
        for shape in [(m,), (50, m), (3, 40, m)]:
            x = rng.standard_normal(shape) * rng.choice([1.0, 30.0, 700.0, 1e5], size=shape)
            x[rng.random(shape) < 0.2] = 0.0
            x[rng.random(shape) < 0.1] = -0.0
            assert softmax(x).tobytes() == self._reduced(x).tobytes()

    @pytest.mark.parametrize("R", [1, 2, 3])
    @pytest.mark.parametrize("m", list(range(1, 13)) + [130])
    def test_arm_axis_gives_the_rows_transposed(self, m, R):
        # The learner's arm-major (R, m, n) block, and a single (m, n) block.
        rng = np.random.default_rng(100 * m + R)
        shape = (R, m, 37)
        x = rng.standard_normal(shape) * rng.choice([1.0, 30.0, 700.0, 1e5], size=shape)
        x[rng.random(shape) < 0.2] = 0.0
        x[rng.random(shape) < 0.1] = -0.0
        arm_major = softmax(x, axis=-2)
        for r in range(R):
            rows = softmax(np.ascontiguousarray(x[r].T))
            assert arm_major[r].tobytes() == np.ascontiguousarray(rows.T).tobytes()
            assert softmax(x[r], axis=0).tobytes() == arm_major[r].tobytes()
        in_place = x.copy()
        assert softmax(in_place, axis=1, out=in_place) is in_place
        assert in_place.tobytes() == arm_major.tobytes()

    def test_large_scores_do_not_overflow(self):
        p = softmax(np.array([[1e6, 1e6 - 1.0, -1e6]]))
        assert np.isfinite(p).all() and p[0, 0] > p[0, 1] > p[0, 2] == 0.0


class TestEstimatePropensities:
    def test_intercept_only_matches_frequency(self):
        # 30% treated, no covariates: the MLE is the empirical rate.
        T = np.array([1] * 3 + [0] * 7)
        data = Dataset(X=np.zeros((10, 0)), T=T, Y=np.zeros(10), m=2)
        e = estimate_propensities(data, clip_eps=0.0)
        assert np.allclose(e[T == 1], 0.3, atol=1e-8)
        assert np.allclose(e[T == 0], 0.7, atol=1e-8)

    def test_balanced_independent_treatment(self):
        rng = np.random.default_rng(7)
        n = 2000
        X = rng.standard_normal((n, 3))
        T = rng.integers(0, 2, n)
        data = Dataset(X=X, T=T, Y=np.zeros(n), m=2)
        e = estimate_propensities(data, clip_eps=0.0)
        assert np.all(np.abs(e - 0.5) <= 0.05)

    def test_clipping(self):
        # A strongly separated-ish design pushes fitted values to the clip edge.
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.normal(-4, 0.5, 60), rng.normal(4, 0.5, 60)])
        T = (x > 0).astype(int)
        T[:3] = 1 - T[:3]  # keep the MLE finite
        data = Dataset(X=x[:, None], T=T, Y=np.zeros(120), m=2)
        e = estimate_propensities(data, clip_eps=1e-3)
        assert e.max() <= 1 - 1e-3 + 1e-12 and e.min() >= 1e-3 - 1e-12

    def test_explicit_clip_rule(self):
        assert np.clip(0.9995, 1e-3, 1 - 1e-3) == pytest.approx(0.999)

    def test_probabilities_sum_to_one_before_clipping(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((300, 2))
        logits = np.column_stack([np.zeros(300), X @ [1.0, -1.0], X @ [0.5, 0.5]])
        T = np.array([np.argmax(row + rng.gumbel(size=3)) for row in logits])
        theta = fit_multinomial_logit(X, T, 3)
        probs = propensity_matrix(X, theta)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-10)

    def test_single_class_errors(self):
        data = Dataset(X=np.zeros((5, 1)), T=[0] * 5, Y=np.zeros(5), m=2)
        with pytest.raises(DatasetError, match="single-class"):
            estimate_propensities(data)

    def test_nonconvergence_carries_gradient_norm(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((200, 2))
        T = (X @ [2.0, -1.0] + 0.3 * rng.standard_normal(200) > 0).astype(int)
        data = Dataset(X=X, T=T, Y=np.zeros(200), m=2)
        with pytest.raises(ConvergenceError) as err:
            estimate_propensities(data, max_iter=2)
        assert err.value.gradient_norm > 0.0

    def test_invalid_clip_eps(self):
        data = Dataset(X=np.zeros((4, 0)), T=[0, 1, 0, 1], Y=np.zeros(4), m=2)
        with pytest.raises(ValueError):
            estimate_propensities(data, clip_eps=0.5)
