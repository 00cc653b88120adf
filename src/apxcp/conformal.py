"""Exact conformal machinery: p-values, the brute-force full conformal
region, the oracle region, split and cross-conformal baselines, and
coverage accounting over synthetic repetitions.

All regions are computed over an explicit uniform y-grid; measures are
Lebesgue measures of the discretized set (step times cell count).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data_io import (check_int, check_real, check_sample, write_json,
                      write_table)
from .kernels import KernelSpec, gram_between
from .losses import LossSpec
from .solver import (SolverError, WeightedProblem, _ChordFactor, augmented_problem,
                     check_z_anchored, fit, z_anchored_problem)


@dataclass(frozen=True)
class YGrid:
    """Uniform candidate-output grid with m >= 2 points spanning [lo, hi],
    lo < hi finite numbers a finite distance apart."""

    lo: float
    hi: float
    m: int

    def __post_init__(self) -> None:
        for name in ("lo", "hi"):
            object.__setattr__(self, name, check_real(f"grid bound {name}", getattr(self, name)))
        object.__setattr__(self, "m", check_int("grid size m", self.m))
        # a span that overflows to inf would make the grid values inf and nan
        if not 0.0 < self.hi - self.lo < np.inf:
            raise ValueError(f"need lo < hi a finite distance apart, "
                             f"got lo={self.lo}, hi={self.hi}")
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
        """Default grid: the observed output range [min Y, max Y] padded
        by margin * (max Y - min Y) on each side (margin a finite number
        at least 0; a range of zero width counts as max(1, |max Y|)).
        The padding follows the targets, not the regions, which are
        centred on the query prediction: at the CLI defaults every region
        reaches the grid's lower end. PredictionRegion.clipped tells
        whether a region does."""
        margin = check_real("margin", margin)
        if margin < 0:
            raise ValueError(f"margin must be nonnegative, got {margin}")
        Y = np.asarray(Y, dtype=float)
        bad = np.flatnonzero(~np.isfinite(Y))
        if bad.size:
            raise ValueError(f"targets must be finite, got {Y[bad[:5]].tolist()} "
                             f"at indices {bad[:5].tolist()} ({bad.size} in all)")
        lo, hi = float(Y.min()), float(Y.max())
        span = hi - lo
        if span <= 0.0:
            span = max(1.0, abs(hi))
        pad = margin * span
        # a padded span past the float range would fail YGrid's span rule
        if not (hi + pad) - (lo - pad) < np.inf:
            raise ValueError(f"margin {margin} pads the targets' range [{lo}, {hi}] "
                             f"beyond the float range")
        return cls(lo - pad, hi + pad, m)

    def nearest_index(self, y: float) -> int:
        """Index of the grid cell whose center is closest to y."""
        idx = int(round((check_real("y", y) - self.lo) / self.step))
        return min(max(idx, 0), self.m - 1)


@dataclass(frozen=True)
class PValueCurve:
    """Upper and lower p-values over a grid; equal for exact methods."""

    grid: YGrid
    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self) -> None:
        # copies, so freezing them leaves the caller's arrays writeable; an
        # exact method's one array for both sides stays one
        up = np.array(self.upper, dtype=float)
        lo = up if self.lower is self.upper else np.array(self.lower, dtype=float)
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
    def from_mask(cls, grid: YGrid, mask: np.ndarray) -> "PredictionRegion":
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (grid.m,):
            raise ValueError("mask must match the grid size")
        # the mask changes at each run's first cell and one past its last
        edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
        starts, ends = edges[::2], edges[1::2] - 1
        vals = grid.values
        intervals = tuple((float(vals[s]), float(vals[e])) for s, e in zip(starts, ends))
        measure = grid.step * int(np.count_nonzero(mask))
        mask = mask.copy()
        mask.setflags(write=False)
        return cls(grid=grid, mask=mask, intervals=intervals, measure=measure)

    @property
    def clipped(self) -> bool:
        """Whether the region reaches either end of the grid, so that the
        region over the real line may extend past what the grid shows."""
        return bool(self.mask[0] or self.mask[-1])

    def contains(self, y: float) -> bool:
        """Membership by nearest grid cell."""
        return bool(self.mask[self.grid.nearest_index(y)])


def region_from_curve(curve: PValueCurve, alpha: float,
                      side: str = "upper") -> PredictionRegion:
    """Threshold a p-value curve at alpha: region = {y : p(y) > alpha}."""
    _check_alpha(alpha)
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    pvals = curve.upper if side == "upper" else curve.lower
    return PredictionRegion.from_mask(curve.grid, pvals > alpha)


def _count_at_least(sorted_scores: np.ndarray, thresholds) -> np.ndarray:
    """#{s in scores : s >= t} for each threshold t, via binary search."""
    return sorted_scores.size - np.searchsorted(sorted_scores, thresholds, side="left")


def _rank_pvalues(counts, n: int) -> np.ndarray:
    """Rank p-values (1 + count) / (n + 1), count being the number of the
    n calibration scores at least the test score (ties counted)."""
    return (1.0 + counts) / (n + 1.0)


def _check_alpha(alpha) -> None:
    if not 0.0 < check_real("alpha", alpha) < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def _min_count(n: int, alpha: float) -> int:
    """c*, the least count c in 0..n whose rank p-value exceeds alpha: a
    rank p-value exceeds alpha exactly when its count is at least c*. The
    count n has p-value 1, so c* exists for every alpha in (0, 1)."""
    _check_alpha(alpha)
    return int(np.argmax(_rank_pvalues(np.arange(n + 1), n) > alpha))


def _refit_counts(problem: WeightedProblem, y: float, tests, init=None,
                  chord: _ChordFactor | None = None):
    """The exact refit at y: problem, z-anchored on the sample, re-anchored
    at y and fit from init (zero when None), by chord steps with the given
    factor or, without one, by full Newton (solver.fit). Returns, for each
    test value t, the count of data scores at least |t - query prediction|,
    and the fit."""
    pred = fit(replace(problem, anchors=(y, y)), init=init, chord=chord)
    preds = pred.predictions()
    scores = np.sort(np.abs(problem.targets - preds[:problem.n]))
    return _count_at_least(scores, np.abs(tests - preds[problem.n])), pred


def full_conformal_pvalues(X, Y, x_query, grid: YGrid, lam: float,
                           loss: LossSpec, kernel: KernelSpec) -> PValueCurve:
    """Exact full conformal p-values by refitting at every grid point.

    Each candidate y is attached to the query input and the augmented
    sample is refit (_refit_counts, the oracle's refit at y), warm-started
    from the previous grid point's coefficients (the fixed gradient
    tolerance makes this agree with a refit from scratch). One Gram
    matrix serves every refit, and one chord factor (solver._ChordFactor)
    their steps: the refits differ only in the query anchor, so one
    inverse of the Newton matrix serves many of them, rebuilt only when a
    chord step contracts the gradient poorly.
    """
    problem = z_anchored_problem(X, Y, x_query, grid.lo, lam, loss, kernel)
    counts = np.empty(grid.m, dtype=np.int64)
    init = None
    chord = _ChordFactor()
    for j, y in enumerate(grid.values):
        y = float(y)
        try:
            counts[j], pred = _refit_counts(problem, y, y, init, chord)
        except SolverError as err:
            raise SolverError(f"refit failed at grid index {j} (y={y}): {err}",
                              err.coeffs, err.grad_norm) from err
        init = pred.coeffs
    pvals = _rank_pvalues(counts, problem.n)
    return PValueCurve(grid=grid, upper=pvals, lower=pvals)


def full_region_bruteforce(X, Y, x_query, grid: YGrid, alpha: float, lam: float,
                           loss: LossSpec, kernel: KernelSpec) -> PredictionRegion:
    """Exact full conformal region {y : p(y) > alpha} by brute force."""
    curve = full_conformal_pvalues(X, Y, x_query, grid, lam, loss, kernel)
    return region_from_curve(curve, alpha)


def oracle_pvalues(problem: WeightedProblem, y_true: float,
                   grid: YGrid) -> PValueCurve:
    """Benchmark p-value curve from a single fit that uses the true output.

    problem, z_anchored_problem on the sample at any z, gets the exact
    refit at y_true (_refit_counts, the refit full conformal makes at each
    grid point), reusing its Gram matrix; the training scores stay fixed
    while the test score varies over the grid. A problem with other
    weights, or whose two anchors differ, raises ValueError (see
    solver.check_z_anchored).
    """
    check_z_anchored(problem, problem.anchors[0], "oracle problem")
    counts, _ = _refit_counts(problem, check_real("y_true", y_true), grid.values)
    pvals = _rank_pvalues(counts, problem.n)
    return PValueCurve(grid, pvals, pvals)


def oracle_region(X, Y, x_query, y_true: float, grid: YGrid, alpha: float,
                  lam: float, loss: LossSpec, kernel: KernelSpec) -> PredictionRegion:
    """Region of the single-fit benchmark that uses the true output."""
    problem = z_anchored_problem(X, Y, x_query, y_true, lam, loss, kernel)
    return region_from_curve(oracle_pvalues(problem, y_true, grid), alpha)


def _holdout_counts(X, Y, keep, held_out, x_query, grid: YGrid, lam: float,
                    loss: LossSpec, kernel: KernelSpec) -> np.ndarray:
    """Fit the kept rows (both anchors switched off), score the held-out
    rows by absolute residual, and count per grid point the held-out
    scores at least |y - query prediction|."""
    X_keep = X[keep]
    weights = np.r_[np.ones(keep.size), 0.0, 0.0]
    pred = fit(augmented_problem(X_keep, Y[keep], x_query, (0.0, 0.0), weights,
                                 lam, loss, kernel))
    pts = np.vstack([X_keep, x_query])
    rows = gram_between(kernel, pts, X[held_out])
    scores = np.sort(np.abs(Y[held_out] - pred.coeffs @ rows))
    return _count_at_least(scores, np.abs(grid.values - pred.query_prediction()))


def split_pvalues(X, Y, x_query, grid: YGrid, lam: float,
                  loss: LossSpec, kernel: KernelSpec,
                  split_fraction: float = 0.5, seed=None) -> PValueCurve:
    """Split conformal p-values: train on one part, calibrate on the rest."""
    if not 0.0 < check_real("split_fraction", split_fraction) < 1.0:
        raise ValueError(f"split_fraction must lie in (0, 1), got {split_fraction}")
    X, Y, x_query = check_sample(X, Y, x_query)
    n = Y.size
    if n < 2:
        raise ValueError("split conformal needs at least 2 points so calibration is nonempty")
    n_train = min(max(int(round(split_fraction * n)), 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    train_idx, cal_idx = perm[:n_train], perm[n_train:]
    counts = _holdout_counts(X, Y, train_idx, cal_idx, x_query, grid, lam, loss, kernel)
    pvals = _rank_pvalues(counts, cal_idx.size)
    return PValueCurve(grid, pvals, pvals)


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
    X, Y, x_query = check_sample(X, Y, x_query)
    n = Y.size
    if not 2 <= check_int("fold count V", V) <= n:
        raise ValueError(f"fold count V must lie in 2 <= V <= n={n}, got {V!r}")
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, V)
    counts = np.zeros(grid.m, dtype=np.int64)
    for fold in folds:
        keep = np.setdiff1d(perm, fold, assume_unique=True)
        counts += _holdout_counts(X, Y, keep, fold, x_query, grid, lam, loss, kernel)
    pvals = _rank_pvalues(counts, n)
    return PValueCurve(grid, pvals, pvals)


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
    depend on execution order. alpha must lie in (0, 1) and seed be an
    integer at least 0, or a ValueError names it.
    """
    if check_int("reps", reps) < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    _check_alpha(alpha)
    if check_int("seed", seed) < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
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
    write_table(path, header, zip(*columns), meta)


def write_region_json(path, region: PredictionRegion, alpha: float, method: str,
                      meta: dict | None = None) -> None:
    """Interval summary sidecar: intervals, measure, alpha, method."""
    write_json(path, {"intervals": [[a, b] for a, b in region.intervals],
                      "measure": region.measure, "alpha": alpha,
                      "method": method, **(meta or {})})
