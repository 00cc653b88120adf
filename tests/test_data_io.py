import math
import re

import numpy as np
import pytest

from apxcp.data_io import (Dataset, check_int, check_real, check_sample, check_vector,
                           friedman1, load_csv, save_csv, write_json, write_table)

from oracles import friedman1_mean


# --- generator ---

def test_mean_function_golden_values():
    mid = friedman1_mean(np.full((1, 10), 0.5))
    assert mid[0] == pytest.approx(10 * np.sin(np.pi / 4) + 7.5)
    assert mid[0] == pytest.approx(14.571067811865476)
    x = np.zeros((1, 10))
    x[0, 2] = 0.5
    assert friedman1_mean(x)[0] == 0.0


def test_noiseless_targets_match_independent_formula():
    ds = friedman1(60, seed=11)
    np.testing.assert_array_equal(ds.Y, friedman1_mean(ds.X))
    assert ds.X.shape == (60, 10)


def test_formula_agrees_with_sklearn():
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    X_sk, y_sk = sklearn_datasets.make_friedman1(n_samples=64, noise=0.0,
                                                 random_state=3)
    np.testing.assert_allclose(friedman1_mean(X_sk), y_sk, rtol=1e-12)


def test_identical_seeds_identical_datasets():
    a = friedman1(40, noise_sd=0.7, seed=7)
    b = friedman1(40, noise_sd=0.7, seed=7)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.Y, b.Y)


def test_noise_rides_on_top_of_shared_features():
    clean = friedman1(30, noise_sd=0.0, seed=5)
    noisy = friedman1(30, noise_sd=1.5, seed=5)
    np.testing.assert_array_equal(clean.X, noisy.X)
    assert not np.array_equal(clean.Y, noisy.Y)
    resid = noisy.Y - clean.Y
    assert np.abs(resid).max() > 0.0


def test_feature_marginals_centered():
    ds = friedman1(10_000, seed=0)
    np.testing.assert_allclose(ds.X.mean(axis=0), np.full(10, 0.5), atol=0.02)


def test_generator_validation():
    with pytest.raises(ValueError, match="positive"):
        friedman1(0)
    with pytest.raises(ValueError, match="noise_sd"):
        friedman1(5, noise_sd=-1.0)


@pytest.mark.parametrize("n", [2.5, 3.0, "5", None, True])
def test_generator_rejects_a_non_integer_size(n):
    # a float size used to pass the n < 1 check, then fail inside numpy,
    # and True there with "an integer is required"
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
        friedman1(n)


def test_generator_accepts_a_numpy_integer_size():
    ds = friedman1(np.int64(5), seed=1)
    np.testing.assert_array_equal(ds.Y, friedman1(5, seed=1).Y)


@pytest.mark.parametrize("noise_sd", [math.nan, math.inf, "x", True, 10**400])
def test_generator_rejects_nonfinite_noise(noise_sd):
    # a nan noise_sd used to skip the noise draw and return noiseless data,
    # "x" failed in a comparison TypeError, and a 400-digit int in an
    # OverflowError
    with pytest.raises(ValueError, match=re.escape(f"noise_sd must be a finite number, "
                                                   f"got {noise_sd!r}")):
        friedman1(5, noise_sd=noise_sd)


def test_generator_accepts_numpy_scalars():
    ds = friedman1(np.int64(5), noise_sd=np.float32(0.5), seed=1)
    np.testing.assert_array_equal(ds.Y, friedman1(5, noise_sd=0.5, seed=1).Y)
    assert type(ds.meta["n"]) is int and type(ds.meta["noise_sd"]) is float


def test_generator_metadata():
    ds = friedman1(5, noise_sd=0.25, seed=9)
    assert ds.meta["generator"] == "friedman1"
    assert ds.meta["seed"] == 9
    assert ds.meta["noise_sd"] == 0.25
    assert ds.meta["rng"] == "numpy-pcg64"


# --- the input rules ---

@pytest.mark.parametrize("value", [True, False, np.True_, "1.0", None, [1.0],
                                   math.nan, math.inf, -math.inf, 10**400, -10**400])
def test_check_real_rejects_what_is_not_a_finite_number(value):
    with pytest.raises(ValueError, match=re.escape(f"width must be a finite number, "
                                                   f"got {value!r}")):
        check_real("width", value)


@pytest.mark.parametrize("value", [0.25, 3, np.float64(0.25), np.float32(0.25),
                                   np.int64(3), -1e308, -10**308])
def test_check_real_returns_a_plain_float(value):
    out = check_real("width", value)
    assert type(out) is float and out == float(value)


@pytest.mark.parametrize("value", [True, np.True_, 3.0, np.float64(3.0), "3", None])
def test_check_int_rejects_what_is_not_an_integer(value):
    with pytest.raises(ValueError, match=re.escape(f"size must be an integer, got {value!r}")):
        check_int("size", value)


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), -2])
def test_check_int_returns_a_plain_int(value):
    out = check_int("size", value)
    assert type(out) is int and out == int(value)


@pytest.mark.parametrize("value, message", [
    (np.zeros(2), r"init must have length 3, got shape \(2,\)"),
    (np.zeros((3, 1)), r"init must have length 3, got shape \(3, 1\)"),
    (0.0, r"init must have length 3, got shape \(\)"),
    ([0.0, math.nan, 1.0], "init must be finite"),
    ([0.0, 1.0, -math.inf], "init must be finite"),
])
def test_check_vector_names_the_vector_that_breaks_the_rule(value, message):
    with pytest.raises(ValueError, match=message):
        check_vector("init", value, 3)


def test_check_vector_returns_a_new_float_array():
    value = np.array([1, 2, 3])
    out = check_vector("init", value, 3)
    assert out.dtype == float and out.flags.writeable
    np.testing.assert_array_equal(out, value)
    out[0] = 7.0
    assert value[0] == 1


@pytest.mark.parametrize("shape, message", [
    ({"X": (5,)}, r"X must be a 2-d \(n, d\) array, got shape \(5,\)"),
    ({"X": (6, 2)}, r"Y must be 1-d, matching the 6 rows of X, got shape \(5,\)"),
    ({"Y": (6,)}, r"Y must be 1-d, matching the 5 rows of X, got shape \(6,\)"),
    ({"Y": (5, 1)}, r"Y must be 1-d, matching the 5 rows of X, got shape \(5, 1\)"),
    ({"x_query": (3,)}, r"x_query must be one point of width 2 .*got shape \(3,\)"),
    ({"x_query": (2, 2)}, r"x_query must be one point of width 2 .*got shape \(2, 2\)"),
])
def test_check_sample_names_the_input_of_the_wrong_shape(shape, message):
    sample = {"X": (5, 2), "Y": (5,), "x_query": (2,)} | shape
    with pytest.raises(ValueError, match=message):
        check_sample(*(np.ones(sample[name]) for name in ("X", "Y", "x_query")))


@pytest.mark.parametrize("name", ["X", "Y", "x_query"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_check_sample_names_the_input_that_is_not_finite(name, bad):
    sample = {"X": np.ones((5, 2)), "Y": np.ones(5), "x_query": np.ones(2)}
    sample[name].flat[1] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        check_sample(*sample.values())


def test_check_sample_returns_float_arrays_and_a_query_row():
    X, Y, xq = check_sample([[1, 2], [3, 4]], [1, 2], [5, 6])
    assert X.dtype == Y.dtype == xq.dtype == float
    assert X.shape == (2, 2) and Y.shape == (2,) and xq.shape == (1, 2)
    assert check_sample(X, Y)[2] is None


# --- dataset container ---

def test_dataset_validation_and_immutability():
    with pytest.raises(ValueError, match="matching"):
        Dataset(X=np.zeros((3, 2)), Y=np.zeros(4))
    # the sample rule of check_sample, finiteness included
    with pytest.raises(ValueError, match="Y must be 1-d"):
        Dataset(X=np.zeros((3, 2)), Y=np.zeros((3, 1)))
    with pytest.raises(ValueError, match="X must be finite"):
        Dataset(X=np.full((3, 2), np.nan), Y=np.zeros(3))
    ds = Dataset(X=np.ones((2, 2)), Y=np.ones(2))
    with pytest.raises(ValueError):
        ds.X[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.Y[0] = 5.0


def test_split_query():
    ds = friedman1(8, seed=1)
    X, Y, xq, ytrue = ds.split_query()
    assert X.shape == (7, 10) and Y.shape == (7,)
    np.testing.assert_array_equal(xq, ds.X[-1])
    assert ytrue == ds.Y[-1]
    with pytest.raises(ValueError, match="two rows"):
        friedman1(1, seed=1).split_query()


# --- CSV round trip ---

def test_round_trip_exact(tmp_path):
    ds = friedman1(50, noise_sd=0.3, seed=12)
    path = tmp_path / "data.csv"
    save_csv(path, ds, comment={"generator": "friedman1", "seed": 12})
    loaded = load_csv(path)
    np.testing.assert_array_equal(loaded.X, ds.X)
    np.testing.assert_array_equal(loaded.Y, ds.Y)
    assert loaded.meta["source"] == str(path)
    first = path.read_text().splitlines()[0]
    assert first == "# generator=friedman1 seed=12"


def test_write_table_cells_and_stamp(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ["a", "b", "c", "d", "e"],
                [[np.float64(0.5), 0.1, np.float32(0.25), 3, "ok"]],
                {"version": "1", "config_hash": "abc"})
    # numpy floats print as plain reprs, keys of the stamp sorted
    assert path.read_text() == ("# config_hash=abc version=1\n"
                                "a,b,c,d,e\n0.5,0.1,0.25,3,ok\n")
    write_table(path, ["a"], [], None)
    assert path.read_text() == "a\n"


def test_write_json_layout(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": 1, "a": [0.5]})
    assert path.read_text() == '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'


def test_single_row_file(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("x1,x2,y\n0.25,0.5,1.5\n")
    ds = load_csv(path)
    assert ds.n == 1
    np.testing.assert_array_equal(ds.X, [[0.25, 0.5]])
    np.testing.assert_array_equal(ds.Y, [1.5])


def test_comment_lines_skipped(tmp_path):
    path = tmp_path / "commented.csv"
    path.write_text("# first\nx1,y\n# interleaved\n1.0,2.0\n3.0,4.0\n")
    ds = load_csv(path)
    assert ds.n == 2
    np.testing.assert_array_equal(ds.Y, [2.0, 4.0])


def test_ragged_row_reports_line_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("x1,x2,y\n1.0,2.0,3.0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path)


def test_unparsable_field_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n1.0,2.0\noops,3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path)


@pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN"])
@pytest.mark.parametrize("row", ["{},2.0", "1.0,{}"])
def test_nonfinite_field_reports_line_number(tmp_path, field, row):
    path = tmp_path / "nonfinite.csv"
    path.write_text("x1,y\n1.0,2.0\n# note\n" + row.format(field) + "\n")
    with pytest.raises(ValueError, match="line 4 has a non-finite field"):
        load_csv(path)


def test_missing_target_column(tmp_path):
    path = tmp_path / "narrow.csv"
    path.write_text("x1\n1.0\n")
    with pytest.raises(ValueError, match="target column"):
        load_csv(path)


def test_empty_and_header_only_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("x1,y\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(header_only)
