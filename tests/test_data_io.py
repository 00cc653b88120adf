import math
import re

import numpy as np
import pytest

from apxcp.data_io import (Dataset, friedman1, load_csv, save_csv, write_json,
                           write_table)

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


@pytest.mark.parametrize("n", [2.5, 3.0, "5", None])
def test_generator_rejects_a_non_integer_size(n):
    # a float size used to pass the n < 1 check, then fail inside numpy
    with pytest.raises(ValueError, match=re.escape(f"n must be a positive integer, got {n!r}")):
        friedman1(n)


def test_generator_accepts_a_numpy_integer_size():
    ds = friedman1(np.int64(5), seed=1)
    np.testing.assert_array_equal(ds.Y, friedman1(5, seed=1).Y)


@pytest.mark.parametrize("noise_sd", [math.nan, math.inf])
def test_generator_rejects_nonfinite_noise(noise_sd):
    # a nan noise_sd used to skip the noise draw and return noiseless data
    with pytest.raises(ValueError, match="noise_sd must be finite"):
        friedman1(5, noise_sd=noise_sd)


def test_generator_metadata():
    ds = friedman1(5, noise_sd=0.25, seed=9)
    assert ds.meta["generator"] == "friedman1"
    assert ds.meta["seed"] == 9
    assert ds.meta["noise_sd"] == 0.25
    assert ds.meta["rng"] == "numpy-pcg64"


# --- dataset container ---

def test_dataset_validation_and_immutability():
    with pytest.raises(ValueError, match="matching"):
        Dataset(X=np.zeros((3, 2)), Y=np.zeros(4))
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
