"""Synthetic regression data and CSV persistence."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, targets, and generation metadata."""

    X: np.ndarray
    Y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 2 or Y.ndim != 1 or X.shape[0] != Y.size:
            raise ValueError("X must be (n, d) and Y (n,) with matching n")
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
    if n < 1:
        raise ValueError("n must be positive")
    if noise_sd < 0:
        raise ValueError("noise_sd must be nonnegative")
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


def save_csv(path, dataset: Dataset, comment: str | None = None) -> None:
    """Write features and target with an x1..xd,y header. Floats use repr
    so a round-trip is bit exact. An optional '#' comment line goes first;
    load_csv skips it."""
    path = Path(path)
    d = dataset.X.shape[1]
    with path.open("w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(d)] + ["y"])
        for row, y in zip(dataset.X, dataset.Y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(y))])


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
