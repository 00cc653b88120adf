"""Synthetic regression data, file persistence, and the input rules.

write_table and write_json are the only writers of output files: every
CSV table and JSON sidecar of the package goes through them, so the
comment-line stamp, the float format and the JSON layout live here.

check_real, check_int, check_vector and check_sample are the only
checks of what a number, a vector and a sample are: every function
taking one from a caller calls them, and keeps only its range rule
(positive, at least 2, ...) to itself.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def check_real(name: str, value) -> float:
    """value as a float if it is a finite real number, else a ValueError
    naming name. A bool is not a number here; numpy floats and integers
    pass, and so does a Python int within the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            abs(value) <= sys.float_info.max if isinstance(value, int)
            else math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def check_int(name: str, value) -> int:
    """value as an int if it is an integer, else a ValueError naming name.
    A bool or an integral float is not an integer here; numpy integers
    pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_vector(name: str, value, size: int) -> np.ndarray:
    """value as a new float array if it is a finite vector of shape
    (size,), else a ValueError naming name."""
    vec = np.array(value, dtype=float)
    if vec.shape != (size,):
        raise ValueError(f"{name} must have length {size}, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} must be finite")
    return vec


def check_sample(X, Y, x_query=None):
    """(X, Y, x_query) as float arrays if they form a sample, else a
    ValueError naming the first input that breaks the rule: X is 2-d
    (n, d), Y is 1-d of length n, x_query (when given) is one point of
    width d, returned as a (1, d) row, and all of them are finite."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    xq = None if x_query is None else np.atleast_2d(np.asarray(x_query, dtype=float))
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-d (n, d) array, got shape {X.shape}")
    if Y.shape != X.shape[:1]:
        raise ValueError(f"Y must be 1-d, matching the {X.shape[0]} rows of X, "
                         f"got shape {Y.shape}")
    if xq is not None and xq.shape != (1, X.shape[1]):
        raise ValueError(f"x_query must be one point of width {X.shape[1]} "
                         f"like the rows of X, got shape {np.shape(x_query)}")
    for name, arr in (("X", X), ("Y", Y), ("x_query", xq)):
        if arr is not None and not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
    return X, Y, xq


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, targets, and generation metadata; X and Y follow
    check_sample."""

    X: np.ndarray
    Y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        X, Y, _ = check_sample(self.X, self.Y)
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.Y.size

    def split_query(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Last row becomes the query point: (X_train, Y_train, x_query, y_true)."""
        if self.n < 2:
            raise ValueError("need at least two rows to split off a query point")
        return (self.X[:-1], self.Y[:-1], self.X[-1], float(self.Y[-1]))


def friedman1(n: int, noise_sd: float = 0.0, seed: int | None = None) -> Dataset:
    """Friedman #1 benchmark: ten uniform features, five informative.

    mean(x) = 10 sin(pi x1 x2) + 20 (x3 - 1/2)^2 + 10 x4 + 5 x5, plus
    independent Gaussian noise scaled by noise_sd. Deterministic given
    the seed; noise_sd = 0 skips the noise draw entirely so noiseless
    datasets share the feature stream of their noisy counterparts.
    """
    n, noise_sd = check_int("n", n), check_real("noise_sd", noise_sd)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be nonnegative, got {noise_sd}")
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 10))
    Y = (10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
         + 20.0 * (X[:, 2] - 0.5) ** 2
         + 10.0 * X[:, 3] + 5.0 * X[:, 4])
    if noise_sd > 0:
        Y = Y + noise_sd * rng.standard_normal(n)
    meta = {"generator": "friedman1", "n": n, "noise_sd": noise_sd,
            "seed": seed, "rng": "numpy-pcg64"}
    return Dataset(X=X, Y=Y, meta=meta)


def write_table(path, header, rows, comment: dict | None = None) -> None:
    """Write a CSV table: an optional '# k=v ...' comment line (keys
    sorted), the header, then the rows, floats as their repr."""
    with open(path, "w", newline="") as fh:
        if comment:
            stamp = " ".join(f"{k}={v}" for k, v in sorted(comment.items()))
            fh.write(f"# {stamp}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        # repr round-trips exactly; float() first so numpy floats print plainly
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)


def write_json(path, payload: dict) -> None:
    """Write a JSON document, keys sorted and indented, newline-terminated."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_csv(path, dataset: Dataset, comment: dict | None = None) -> None:
    """Write features and target with an x1..xd,y header, bit exact on a
    round trip. An optional comment dict becomes a leading '#' line;
    load_csv skips it."""
    d = dataset.X.shape[1]
    write_table(path, [f"x{j + 1}" for j in range(d)] + ["y"],
                (list(row) + [y] for row, y in zip(dataset.X, dataset.Y)), comment)


def load_csv(path) -> Dataset:
    """Read a dataset written by save_csv; the last column is the target.

    Lines starting with '#' are skipped. Raises ValueError with the
    offending line number on ragged rows, unparsable fields or nan/inf
    fields.
    """
    path = Path(path)
    rows: list[list[float]] = []
    width = None
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        for lineno, record in enumerate(reader, start=1):
            if not record or record[0].lstrip().startswith("#"):
                continue
            if width is None:
                # header row
                width = len(record)
                if width < 2:
                    raise ValueError(
                        f"{path}: need at least one feature column and a "
                        f"target column, found {width}")
                continue
            if len(record) != width:
                raise ValueError(f"{path}: line {lineno} has {len(record)} "
                                 f"fields, expected {width}")
            try:
                row = [float(v) for v in record]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if not np.isfinite(row).all():
                raise ValueError(f"{path}: line {lineno} has a non-finite field")
            rows.append(row)
    if width is None or not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return Dataset(X=arr[:, :-1], Y=arr[:, -1],
                   meta={"source": str(path), "n": arr.shape[0]})
