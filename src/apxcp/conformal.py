"""Exact conformal machinery: p-values, the brute-force full conformal
region, the oracle region, split and cross-conformal baselines, and
coverage accounting over synthetic repetitions.

All regions are computed over an explicit uniform y-grid; measures are
Lebesgue measures of the discretized set (step times cell count).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .kernels import KernelSpec, gram_between
from .losses import LossSpec
from .solver import (Predictor, SolverError, WeightedProblem, anchor_y_weights,
                     anchor_z_weights, augmented_problem, fit)


@dataclass(frozen=True)
class YGrid:
    """Uniform candidate-output grid with m points spanning [lo, hi]."""

    lo: float
    hi: float
    m: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"need finite lo < hi, got [{self.lo}, {self.hi}]")
        if self.m < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.m}")

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.m - 1)

    @cached_property
    def values(self) -> np.ndarray:
        vals = np.linspace(self.lo, self.hi, self.m)
        vals.setflags(write=False)
        return vals

    @classmethod
    def from_targets(cls, Y, m: int = 512, margin: float = 0.5) -> "YGrid":
        """Default grid: the observed output range padded by margin*range
        on each side, so regions are unlikely to be clipped."""
        Y = np.asarray(Y, dtype=float)
        lo, hi = float(Y.min()), float(Y.max())
        span = hi - lo
        if span <= 0.0:
            span = max(1.0, abs(hi))
        return cls(lo - margin * span, hi + margin * span, m)

    def nearest_index(self, y: float) -> int:
        """Index of the grid cell whose center is closest to y."""
        idx = int(round((float(y) - self.lo) / self.step))
        return min(max(idx, 0), self.m - 1)


@dataclass(frozen=True)
class PValueCurve:
    """Upper and lower p-values over a grid; equal for exact methods."""

    grid: YGrid
    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self) -> None:
        up = np.asarray(self.upper, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        if up.shape != (self.grid.m,) or lo.shape != (self.grid.m,):
            raise ValueError("p-value arrays must match the grid size")
        if (lo > up).any():
            raise ValueError("lower p-values must not exceed upper p-values")
        up.setflags(write=False)
        lo.setflags(write=False)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)


@dataclass(frozen=True)
class PredictionRegion:
    """Boolean mask over a grid plus its interval form and measure."""

    grid: YGrid
    mask: np.ndarray
    intervals: tuple
    measure: float

    @classmethod
    def from_mask(cls, grid: YGrid, mask: np.ndarray,
                  warn_clipped: bool = True) -> "PredictionRegion":
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (grid.m,):
            raise ValueError("mask must match the grid size")
        if warn_clipped and mask.size and (mask[0] or mask[-1]):
            warnings.warn("prediction region touches the grid boundary and may be clipped",
                          RuntimeWarning, stacklevel=2)
        padded = np.r_[False, mask, False]
        starts = np.flatnonzero(padded[1:-1] & ~padded[:-2])
        ends = np.flatnonzero(padded[1:-1] & ~padded[2:])
        vals = grid.values
        intervals = tuple((float(vals[s]), float(vals[e])) for s, e in zip(starts, ends))
        measure = grid.step * int(mask.sum())
        mask = mask.copy()
        mask.setflags(write=False)
        return cls(grid=grid, mask=mask, intervals=intervals, measure=measure)

    def contains(self, y: float) -> bool:
        """Membership by nearest grid cell."""
        return bool(self.mask[self.grid.nearest_index(y)])


def region_from_curve(curve: PValueCurve, alpha: float,
                      side: str = "upper") -> PredictionRegion:
    """Threshold a p-value curve at alpha: region = {y : p(y) > alpha}."""
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    pvals = curve.upper if side == "upper" else curve.lower
    return PredictionRegion.from_mask(curve.grid, pvals > alpha)


def conformal_pvalue(train_scores, test_score: float) -> float:
    """Rank-based p-value (1 + #{scores >= test}) / (n + 1), ties counted."""
    scores = np.asarray(train_scores, dtype=float)
    return (1.0 + int(np.sum(scores >= test_score))) / (scores.size + 1.0)


def _count_at_least(sorted_scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """#{s in scores : s >= t} for each threshold t, via binary search."""
    return sorted_scores.size - np.searchsorted(sorted_scores, thresholds, side="left")


def full_conformal_pvalues(X, Y, x_query, grid: YGrid, lam: float,
                           loss: LossSpec, kernel: KernelSpec) -> PValueCurve:
    """Exact full conformal p-values by refitting at every grid point.

    Each candidate y is attached to the query input and the augmented
    sample is refit, warm-started from the previous grid point's
    coefficients (the fixed gradient tolerance makes this agree with a
    refit from scratch).
    """
    Y = np.asarray(Y, dtype=float)
    n = Y.size
    weights = anchor_y_weights(n)
    pvals = np.empty(grid.m)
    init = None
    problem = None
    for j, y in enumerate(grid.values):
        y = float(y)
        problem = augmented_problem(X, Y, x_query, (y, y), weights, lam, loss, kernel) \
            if problem is None else _with_anchors(problem, (y, y))
        try:
            pred = fit(problem, init=init)
        except SolverError as err:
            raise SolverError(f"refit failed at grid index {j} (y={y}): {err}",
                              err.coeffs, err.grad_norm) from err
        preds = pred.predictions()
        scores = np.abs(Y - preds[:n])
        pvals[j] = conformal_pvalue(scores, abs(y - preds[n]))
        init = pred.coeffs
    return PValueCurve(grid=grid, upper=pvals, lower=pvals.copy())


def _with_anchors(problem, anchors):
    """Same problem, new anchor pair; reuses the Gram matrix and its cache."""
    return WeightedProblem(gram=problem.gram, targets=problem.targets,
                           anchors=anchors, weights=problem.weights,
                           lam=problem.lam, loss=problem.loss)


def full_region_bruteforce(X, Y, x_query, grid: YGrid, alpha: float, lam: float,
                           loss: LossSpec, kernel: KernelSpec) -> PredictionRegion:
    """Exact full conformal region {y : p(y) > alpha} by brute force."""
    curve = full_conformal_pvalues(X, Y, x_query, grid, lam, loss, kernel)
    return region_from_curve(curve, alpha)


def oracle_pvalues(X, Y, x_query, y_true: float, grid: YGrid, lam: float,
                   loss: LossSpec, kernel: KernelSpec) -> PValueCurve:
    """Benchmark p-value curve from a single fit that uses the true output.

    The augmented sample with the true (x_query, y_true) pair is fit
    once; the training scores stay fixed while the test score varies
    over the grid.
    """
    Y = np.asarray(Y, dtype=float)
    n = Y.size
    problem = augmented_problem(X, Y, x_query, (float(y_true), float(y_true)),
                                anchor_z_weights(n), lam, loss, kernel)
    pred = fit(problem)
    preds = pred.predictions()
    scores_sorted = np.sort(np.abs(Y - preds[:n]))
    test = np.abs(grid.values - preds[n])
    pvals = (1.0 + _count_at_least(scores_sorted, test)) / (n + 1.0)
    return PValueCurve(grid, pvals, pvals.copy())


def oracle_region(X, Y, x_query, y_true: float, grid: YGrid, alpha: float,
                  lam: float, loss: LossSpec, kernel: KernelSpec) -> PredictionRegion:
    """Region of the single-fit benchmark that uses the true output."""
    return region_from_curve(
        oracle_pvalues(X, Y, x_query, y_true, grid, lam, loss, kernel), alpha)


def _subsample_fit(X, Y, keep_idx, x_query, lam: float, loss: LossSpec,
                   kernel: KernelSpec) -> Predictor:
    """Fit on a subset of the data (both anchors switched off)."""
    X_keep = np.atleast_2d(np.asarray(X, dtype=float))[keep_idx]
    Y_keep = np.asarray(Y, dtype=float)[keep_idx]
    weights = np.r_[np.ones(Y_keep.size), 0.0, 0.0]
    problem = augmented_problem(X_keep, Y_keep, x_query, (0.0, 0.0),
                                weights, lam, loss, kernel)
    return fit(problem)


def _holdout_scores(pred: Predictor, X_keep, x_query, X_out, Y_out,
                    kernel: KernelSpec) -> np.ndarray:
    """Absolute residuals of a subset fit on held-out points."""
    pts = np.vstack([np.atleast_2d(X_keep), np.atleast_2d(x_query)])
    rows = gram_between(kernel, pts, np.atleast_2d(X_out))
    return np.abs(np.asarray(Y_out, dtype=float) - pred.coeffs @ rows)


def split_pvalues(X, Y, x_query, grid: YGrid, lam: float,
                  loss: LossSpec, kernel: KernelSpec,
                  split_fraction: float = 0.5, seed=None) -> PValueCurve:
    """Split conformal p-values: train on one part, calibrate on the rest."""
    if not (0.0 < split_fraction < 1.0):
        raise ValueError(f"split_fraction must lie in (0, 1), got {split_fraction}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    n = Y.size
    if n < 2:
        raise ValueError("split conformal needs at least 2 points so calibration is nonempty")
    n_train = min(max(int(round(split_fraction * n)), 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    train_idx, cal_idx = perm[:n_train], perm[n_train:]
    pred = _subsample_fit(X, Y, train_idx, x_query, lam, loss, kernel)
    cal_scores = np.sort(_holdout_scores(pred, X[train_idx], x_query,
                                         X[cal_idx], Y[cal_idx], kernel))
    test = np.abs(grid.values - pred.query_prediction())
    pvals = (1.0 + _count_at_least(cal_scores, test)) / (cal_scores.size + 1.0)
    return PValueCurve(grid, pvals, pvals.copy())


def split_region(X, Y, x_query, grid: YGrid, alpha: float, lam: float,
                 loss: LossSpec, kernel: KernelSpec,
                 split_fraction: float = 0.5, seed=None) -> PredictionRegion:
    """Split conformal region: train on one part, calibrate on the rest."""
    return region_from_curve(
        split_pvalues(X, Y, x_query, grid, lam, loss, kernel, split_fraction, seed),
        alpha)


def cross_pvalues(X, Y, x_query, grid: YGrid, lam: float,
                  loss: LossSpec, kernel: KernelSpec, V: int,
                  seed=None) -> PValueCurve:
    """Cross-conformal p-values with V folds (V = n is the jackknife case).

    Every point is scored by the fit that left its fold out; the pooled
    indicator count feeds a single p-value with denominator n+1.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    n = Y.size
    if not (2 <= V <= n):
        raise ValueError(f"fold count must satisfy 2 <= V <= n={n}, got {V}")
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, V)
    counts = np.zeros(grid.m, dtype=np.int64)
    for fold in folds:
        keep = np.setdiff1d(perm, fold, assume_unique=True)
        pred = _subsample_fit(X, Y, keep, x_query, lam, loss, kernel)
        fold_scores = np.sort(_holdout_scores(pred, X[keep], x_query,
                                              X[fold], Y[fold], kernel))
        test = np.abs(grid.values - pred.query_prediction())
        counts += _count_at_least(fold_scores, test)
    pvals = (1.0 + counts) / (n + 1.0)
    return PValueCurve(grid, pvals, pvals.copy())


@dataclass(frozen=True)
class CoverageResult:
    """Monte Carlo coverage estimate with a 3-sigma binomial band."""

    coverage: float
    ci_lo: float
    ci_hi: float
    reps: int
    alpha: float


def empirical_coverage(region_builder, generator, reps: int, alpha: float,
                       seed: int = 0) -> CoverageResult:
    """Fraction of repetitions whose true output lands in the built region.

    generator(rng) must return (X, Y, x_query, y_true); region_builder
    (X, Y, x_query) must return a PredictionRegion. Each repetition owns
    the seed derived from (seed, repetition index), so results do not
    depend on execution order.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    hits = 0
    for i in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        X, Y, x_query, y_true = generator(rng)
        region = region_builder(X, Y, x_query)
        hits += int(region.contains(y_true))
    coverage = hits / reps
    sd = float(np.sqrt(coverage * (1.0 - coverage) / reps))
    return CoverageResult(coverage=coverage, ci_lo=max(0.0, coverage - 3 * sd),
                          ci_hi=min(1.0, coverage + 3 * sd), reps=reps, alpha=alpha)


def write_region_csv(path, curve: PValueCurve, region: PredictionRegion,
                     extras: dict | None = None, meta: dict | None = None) -> None:
    """Dump a p-value curve and region mask as CSV.

    Columns are y, upper_p, lower_p, in_region, then any extra columns.
    An optional metadata dict becomes a single leading comment line.
    """
    extras = extras or {}
    header = ["y", "upper_p", "lower_p", "in_region"] + list(extras)
    columns = [curve.grid.values, curve.upper, curve.lower,
               region.mask.astype(int)] + [np.asarray(v) for v in extras.values()]
    with open(path, "w", newline="") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items())) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else int(v) for v in row])


def write_region_json(path, region: PredictionRegion, alpha: float, method: str,
                      meta: dict | None = None) -> None:
    """Interval summary sidecar: intervals, measure, alpha, method."""
    payload = {
        "intervals": [[a, b] for a, b in region.intervals],
        "measure": region.measure,
        "alpha": alpha,
        "method": method,
    }
    if meta:
        payload.update(meta)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
