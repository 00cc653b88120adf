import csv
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apxcp import conformal, solver
from apxcp.cli import ExperimentConfig
from apxcp.conformal import (CoverageResult, PredictionRegion, PValueCurve,
                             YGrid, _count_at_least, _min_count, _rank_pvalues,
                             cross_pvalues, empirical_coverage,
                             full_conformal_pvalues, full_region_bruteforce,
                             oracle_pvalues, oracle_region, region_from_curve,
                             split_pvalues, split_region, write_region_csv,
                             write_region_json)
from apxcp.data_io import friedman1
from apxcp.kernels import KernelSpec
from apxcp.losses import LossSpec
from apxcp.solver import (SolverError, anchor_y_weights, anchor_z_weights,
                           augmented_problem, z_anchored_problem)

from oracles import (bruteforce_ridge_region, conformal_pvalue, laplacian_gram,
                     newton_grid_pvalues, pvalue_by_hand)

KERNEL = KernelSpec("laplacian", 0.5)
LOGCOSH = LossSpec("logcosh")


def _instance(seed, n):
    ds = friedman1(n + 1, seed=seed)
    return ds.split_query()


# --- grids ---

def test_grid_validation():
    with pytest.raises(ValueError):
        YGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        YGrid(0.0, 1.0, 1)


@pytest.mark.parametrize("m", [10.0, 51.0, 2.5, "10"])
@pytest.mark.parametrize("make", [lambda m: YGrid(0.0, 1.0, m),
                                  lambda m: YGrid.from_targets([1.0, 2.0], m=m)],
                         ids=["YGrid", "from_targets"])
def test_grid_rejects_a_non_integral_size(make, m):
    # a float size used to construct, then fail inside np.linspace on the
    # first read of .values
    with pytest.raises(ValueError, match=re.escape(f"grid size m must be an integer, got {m!r}")):
        make(m)


def test_grid_accepts_a_numpy_integer_size():
    grid = YGrid(0.0, 1.0, np.int64(11))
    assert grid == YGrid(0.0, 1.0, 11)
    np.testing.assert_array_equal(grid.values, YGrid(0.0, 1.0, 11).values)


def test_grid_step_and_values():
    g = YGrid(0.0, 1.0, 11)
    assert g.step == pytest.approx(0.1)
    assert g.values[0] == 0.0 and g.values[-1] == 1.0
    assert g.values.size == 11


def test_grid_from_targets_default_margin():
    Y = np.array([2.0, 6.0])
    g = YGrid.from_targets(Y)
    assert g.m == 512
    assert g.lo == pytest.approx(0.0)  # min - 0.5*range
    assert g.hi == pytest.approx(8.0)  # max + 0.5*range


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_from_targets_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match=r"targets must be finite.*indices \[1\]"):
        YGrid.from_targets([1.0, bad, 2.0])


@pytest.mark.parametrize("Y, shape", [([], (0,)), ([[1.0, 2.0], [3.0, 4.0]], (2, 2)),
                                      (3.0, ())])
def test_grid_from_targets_rejects_empty_or_not_1d_targets(Y, shape):
    # an empty array used to fail inside numpy's min, and 2-d targets
    # were flattened without a word
    with pytest.raises(ValueError, match=re.escape(
            f"targets must be a nonempty 1-d array, got shape {shape}")):
        YGrid.from_targets(Y)


def test_grid_nearest_index_clips():
    g = YGrid(0.0, 1.0, 11)
    assert g.nearest_index(0.51) == 5
    assert g.nearest_index(-99.0) == 0
    assert g.nearest_index(99.0) == 10
    # (y - lo) / step overflows to infinity here before any clamp
    assert g.nearest_index(-1e308) == 0
    assert g.nearest_index(1e308) == 10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_region_contains_rejects_nonfinite_y(bad):
    g = YGrid(0.0, 1.0, 11)
    region = PredictionRegion.from_mask(g, np.arange(11) == 5)
    with pytest.raises(ValueError, match=f"y must be a finite number, got {bad}"):
        region.contains(bad)
    with pytest.raises(ValueError, match="y must be a finite number"):
        g.nearest_index(bad)


# --- p-values ---

def _pvalue(scores, test: float) -> float:
    """The package's rank p-value: one sorted count, one rank rule."""
    scores = np.sort(np.asarray(scores, dtype=float))
    return float(_rank_pvalues(_count_at_least(scores, test), scores.size))


def test_pvalue_hand_example():
    assert _pvalue([0.5, 1.5, 2.5], 1.0) == pytest.approx(0.75)


def test_pvalue_all_ties():
    assert _pvalue(np.full(9, 2.0), 2.0) == 1.0


def test_pvalue_empty_scores():
    assert _pvalue(np.zeros(0), 3.0) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 100), max_size=20), st.floats(0, 100))
def test_pvalue_matches_loop_oracle(scores, test):
    p = _pvalue(scores, test)
    assert p == conformal_pvalue(scores, test)
    assert p == pytest.approx(pvalue_by_hand(scores, test))
    n = len(scores)
    assert round(p * (n + 1)) == pytest.approx(p * (n + 1))  # integer numerator


# --- curves and regions ---

def test_curve_rejects_crossed_bounds():
    g = YGrid(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="lower"):
        PValueCurve(g, upper=np.array([0.1, 0.1, 0.1]), lower=np.array([0.2, 0.1, 0.1]))


@pytest.mark.parametrize("upper, lower", [(np.zeros(2), np.zeros(3)),
                                          (np.zeros(3), np.zeros(4)),
                                          (np.zeros((3, 1)), np.zeros((3, 1)))])
def test_curve_rejects_the_wrong_size(upper, lower):
    # the message names the first side off the grid's size
    side, bad = ("upper", upper) if upper.shape != (3,) else ("lower", lower)
    with pytest.raises(ValueError, match=re.escape(
            f"{side} p-values must have length 3, got shape {bad.shape}")):
        PValueCurve(YGrid(0.0, 1.0, 3), upper=upper, lower=lower)


@pytest.mark.parametrize("side", ["upper", "lower"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_curve_rejects_nonfinite_pvalues(side, bad):
    # a NaN p-value used to pass and threshold into an empty region
    pvals = {"upper": np.full(3, 0.5), "lower": np.full(3, 0.25)}
    pvals[side][1] = bad
    with pytest.raises(ValueError, match=f"{side} p-values must be finite"):
        PValueCurve(YGrid(0.0, 1.0, 3), **pvals)


def test_curve_freezes_copies_and_leaves_the_callers_arrays_writeable():
    p, q = np.array([0.5, 0.2, 0.1]), np.array([0.25, 0.2, 0.0])
    same, apart = (PValueCurve(YGrid(0.0, 1.0, 3), p, lower) for lower in (p, q))
    assert p.flags.writeable and q.flags.writeable
    for curve in (same, apart):
        assert not curve.upper.flags.writeable and not curve.lower.flags.writeable
    p[0] = q[0] = 0.0
    assert same.upper[0] == same.lower[0] == apart.upper[0] == 0.5
    assert apart.lower[0] == 0.25


@pytest.mark.parametrize("mask", [np.zeros(2, bool), np.zeros(4, bool),
                                  np.zeros((3, 1), bool)])
def test_region_from_mask_rejects_the_wrong_size(mask):
    with pytest.raises(ValueError, match="mask must match the grid size"):
        PredictionRegion.from_mask(YGrid(0.0, 1.0, 3), mask)


@pytest.mark.parametrize("side", ["both", "Upper", ""])
def test_region_from_curve_rejects_a_bad_side(side):
    curve = PValueCurve(YGrid(0.0, 1.0, 3), np.full(3, 0.5), np.full(3, 0.5))
    with pytest.raises(ValueError, match=f"side must be 'upper' or 'lower', got {side!r}"):
        region_from_curve(curve, 0.1, side)


def test_region_mask_interval_round_trip():
    g = YGrid(0.0, 1.0, 11)
    mask = np.array([0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0], dtype=bool)
    region = PredictionRegion.from_mask(g, mask)
    assert region.measure == pytest.approx(g.step * 6)
    assert len(region.intervals) == 3
    rebuilt = np.zeros(11, dtype=bool)
    for a, b in region.intervals:
        rebuilt |= (g.values >= a - 1e-12) & (g.values <= b + 1e-12)
    np.testing.assert_array_equal(rebuilt, mask)


def _runs_by_loop(mask):
    """(first, last) cell index of each run of True cells, one cell at a
    time."""
    runs, start = [], None
    for i, cell in enumerate(mask):
        if cell and start is None:
            start = i
        if not cell and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(mask) - 1))
    return runs


_MASKS = {"all False": [False] * 7, "all True": [True] * 7,
          "first cell": [True] + [False] * 6, "last cell": [False] * 6 + [True],
          "alternating": [True, False] * 4, "alternating from False": [False, True] * 4}


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(sorted(_MASKS)).map(_MASKS.get),
                 st.lists(st.booleans(), min_size=2, max_size=60)))
def test_region_intervals_match_run_length_loop(cells):
    g = YGrid(-1.0, 2.0, len(cells))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # clipping is data, not a warning
        region = PredictionRegion.from_mask(g, np.array(cells, dtype=bool))
    assert region.clipped == (cells[0] or cells[-1])
    runs = _runs_by_loop(cells)
    assert region.intervals == tuple((float(g.values[a]), float(g.values[b]))
                                     for a, b in runs)
    assert region.measure == g.step * sum(b - a + 1 for a, b in runs)


def test_region_clipped_flags_the_grid_ends():
    # a region from a mask or a curve says whether it reaches an end of
    # the grid, and building it raises no warning
    g = YGrid(0.0, 1.0, 5)
    for cells, clipped in (([1, 1, 0, 0, 0], True), ([0, 0, 0, 0, 1], True),
                           ([1, 1, 1, 1, 1], True), ([0, 1, 1, 1, 0], False),
                           ([0, 0, 0, 0, 0], False)):
        pvals = np.where(cells, 0.5, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            regions = [PredictionRegion.from_mask(g, np.array(cells, dtype=bool)),
                       region_from_curve(PValueCurve(g, pvals, pvals), 0.1)]
        assert [r.clipped for r in regions] == [clipped, clipped], cells


def test_region_contains_uses_nearest_cell():
    g = YGrid(0.0, 1.0, 11)
    mask = np.zeros(11, dtype=bool)
    mask[5] = True
    region = PredictionRegion.from_mask(g, mask)
    assert region.contains(0.52)
    assert not region.contains(0.56)


def test_region_contains_nothing_past_half_a_step_outside_the_grid():
    # the nearest cell of a y far off the grid is an end cell: a region
    # touching that end used to contain it, and coverage counted it
    region = PredictionRegion.from_mask(YGrid(0.0, 1.0, 11), np.ones(11, dtype=bool))
    assert region.contains(1.04) and region.contains(-0.04)
    for y in (1.06, -0.06, 100.0, 1e6, -1e6):
        assert not region.contains(y), y


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, np.nan, np.inf, "0.1", True])
def test_region_rejects_alpha_outside_unit_interval(alpha):
    g = YGrid(0.0, 1.0, 5)
    curve = PValueCurve(g, np.full(5, 0.5), np.full(5, 0.25))
    message = ("alpha must lie in" if isinstance(alpha, float) and math.isfinite(alpha)
               else "alpha must be a finite number")
    for side in ("upper", "lower"):
        with pytest.raises(ValueError, match=message):
            region_from_curve(curve, alpha, side)
    with pytest.raises(ValueError, match=message):
        _min_count(10, alpha)


@pytest.mark.parametrize("n", [1, 2, 9, 20, 133, 999])
def test_min_count_is_the_order_statistic_of_the_rank_rule(n):
    # c* is the least count whose rank p-value exceeds alpha, so a p-value
    # exceeds alpha exactly when its count reaches c*; alphas on a rank
    # p-value exactly (a tie) need the next count
    counts = np.arange(n + 1)
    pvals = _rank_pvalues(counts, n)
    alphas = [0.5 / (n + 1), 0.1, 0.5, 0.999, 1.0 - 1e-12,
              *pvals[:-1], *np.nextafter(pvals[:-1], 0.0)]
    for alpha in alphas:
        c_star = _min_count(n, alpha)
        np.testing.assert_array_equal(pvals > alpha, counts >= c_star)
    assert _min_count(n, 0.5 / (n + 1)) == 0
    assert _min_count(n, 1.0 / (n + 1)) == 1
    assert _min_count(n, n / (n + 1.0)) == n


@pytest.mark.parametrize("lo, hi, name", [("a", 1.0, "lo"), (0.0, "b", "hi"),
                                         (None, 1.0, "lo"), (0.0, [1.0], "hi")])
def test_grid_rejects_a_non_real_bound(lo, hi, name):
    # a string bound used to fail inside np.isfinite with a ufunc TypeError
    bad = lo if name == "lo" else hi
    message = re.escape(f"grid bound {name} must be a finite number, got {bad!r}")
    with pytest.raises(ValueError, match=message):
        YGrid(lo, hi, 5)


@pytest.mark.parametrize("margin, message", [
    ("x", "margin must be a finite number, got 'x'"),
    (True, "margin must be a finite number, got True"),
    (math.nan, "margin must be a finite number, got nan"),
    (math.inf, "margin must be a finite number, got inf"),
    (-0.2, "margin must be nonnegative, got -0.2"),
    (1e308, "margin 1e+308 pads the targets' range [2.0, 6.0] beyond the float range"),
])
def test_grid_from_targets_rejects_a_bad_margin(margin, message):
    # "x" used to fail with "can't multiply sequence", nan without naming
    # margin, -0.2 returned a grid narrower than the data, and 1e308 failed
    # the grid's span rule, naming neither margin nor the targets
    with pytest.raises(ValueError, match=re.escape(message)):
        YGrid.from_targets([2.0, 6.0], m=11, margin=margin)


def test_grid_from_targets_accepts_a_numpy_margin():
    assert (YGrid.from_targets([2.0, 6.0], m=11, margin=np.float32(0.25))
            == YGrid.from_targets([2.0, 6.0], m=11, margin=0.25))


def test_grid_rejects_bounds_a_non_finite_distance_apart():
    # hi - lo overflowed to inf, and .values read [nan, inf, 1.5e308]
    with pytest.raises(ValueError, match=re.escape("got lo=-1.5e+308, hi=1.5e+308")):
        YGrid(-1.5e308, 1.5e308, 3)
    wide = YGrid(-8e307, 8e307, 3)
    np.testing.assert_array_equal(wide.values, [-8e307, 0.0, 8e307])


def test_grid_accepts_numpy_float_bounds():
    grid = YGrid(np.float32(-1.0), np.float64(1.0), 5)
    np.testing.assert_array_equal(grid.values, YGrid(-1.0, 1.0, 5).values)


def test_region_monotone_in_alpha():
    X, Y, xq, _ = _instance(0, 15)
    grid = YGrid.from_targets(Y, m=101)
    curve = full_conformal_pvalues(X, Y, xq, grid, 0.5, LOGCOSH, KERNEL)
    r_small = region_from_curve(curve, 0.05)
    r_large = region_from_curve(curve, 0.3)
    assert np.all(r_large.mask <= r_small.mask)


# --- exact full conformal ---

def test_full_conformal_matches_independent_ridge_implementation():
    # same refit-per-candidate region out of two entirely separate code paths
    rng = np.random.default_rng(42)
    for n in (6, 10):
        X = rng.uniform(size=(n, 4))
        Y = rng.normal(scale=1.5, size=n)
        xq = rng.uniform(size=4)
        grid = YGrid(float(Y.min() - 3), float(Y.max() + 3), 101)
        lam = 0.3
        region = full_region_bruteforce(X, Y, xq, grid, 0.1, lam,
                                        LossSpec("squared"), KERNEL)
        expected = bruteforce_ridge_region(X, Y, xq, grid.values, 0.1, lam, 0.5)
        np.testing.assert_array_equal(region.mask, expected)


def test_full_conformal_refit_error_names_the_grid_point(monkeypatch):
    X, Y, xq, _ = _instance(3, 8)
    grid = YGrid.from_targets(Y, m=7)
    real, calls = conformal.fit, []

    def fail_on_the_third(problem, *args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise SolverError("stalled", np.full(problem.gram.n, 0.25), 1.5)
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(conformal, "fit", fail_on_the_third)
    y = float(grid.values[2])
    message = re.escape(f"refit failed at grid index 2 (y={y}): stalled")
    with pytest.raises(SolverError, match=message) as info:
        full_conformal_pvalues(X, Y, xq, grid, 0.5, LOGCOSH, KERNEL)
    np.testing.assert_array_equal(info.value.coeffs, np.full(Y.size + 1, 0.25))
    assert info.value.grad_norm == 1.5


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("lam", [0.433, 0.01, 1e-4])
@pytest.mark.parametrize("kernel", [KernelSpec("laplacian"), KernelSpec("gaussian_rbf")])
@pytest.mark.parametrize("loss", [LOGCOSH, LossSpec("pseudo_huber"),
                                  LossSpec("smoothed_pinball")])
def test_full_conformal_chord_refits_match_plain_newton(loss, kernel, lam, seed):
    # the informative regime (noise_sd 1), where small lambda makes the
    # chord factor go stale and be rebuilt along the curve
    X, Y, xq, _ = friedman1(41, 1.0, seed=seed).split_query()
    grid = YGrid.from_targets(Y, m=41)
    curve = full_conformal_pvalues(X, Y, xq, grid, lam, loss, kernel)
    problem = z_anchored_problem(X, Y, xq, grid.lo, lam, loss, kernel)
    expected = newton_grid_pvalues(problem, grid.values, solver.fit)
    np.testing.assert_array_equal(curve.upper, expected)
    np.testing.assert_array_equal(curve.lower, expected)


def test_exact_refit_curve_factors_the_newton_matrix_a_handful_of_times(monkeypatch):
    # the exact-refit benchmark's config: n = 200, a grid of 200 points,
    # the default loss, kernel and lambda rule. Full Newton factors about
    # 100 times along such a curve; the chord factor is built a handful of
    # times, and the block of refits (solver.refit_block) hands almost
    # every fit a start that already meets its tolerance (199 of 200 fits
    # took no step at seed 3; the first starts from zero)
    cfg = ExperimentConfig(method="full", n=200, grid_m=200)
    X, Y, xq, _ = friedman1(cfg.n + 1, seed=3).split_query()
    real, fits = conformal.fit, []
    real_rebuild, rebuilds = solver._ChordFactor.rebuild, []

    def counted(*args, **kwargs):
        fits.append(real(*args, **kwargs))
        return fits[-1]

    def rebuild(self, *args):
        rebuilds.append(None)
        real_rebuild(self, *args)

    monkeypatch.setattr(conformal, "fit", counted)
    monkeypatch.setattr(solver._ChordFactor, "rebuild", rebuild)
    full_conformal_pvalues(X, Y, xq, cfg.grid_for(Y), cfg.lambda_for(Y.size + 1),
                           cfg.loss, cfg.kernel)
    assert len(fits) == 200
    assert 1 <= len(rebuilds) <= 5
    assert sum(p.n_iters == 0 for p in fits) >= 190


def _oracle_curve(X, Y, xq, grid, lam, loss, kernel):
    problem = z_anchored_problem(X, Y, xq, grid.lo, lam, loss, kernel)
    return newton_grid_pvalues(problem, grid.values, solver.fit)


def _spy_blocks(monkeypatch):
    """Record (ys, converged) of every solver.refit_block call."""
    real, blocks = conformal.refit_block, []

    def spy(start, ys, chord):
        coeffs, converged = real(start, ys, chord)
        blocks.append((np.array(ys), converged.copy()))
        return coeffs, converged

    monkeypatch.setattr(conformal, "refit_block", spy)
    return blocks


@pytest.mark.parametrize("lam", [0.01, 1e-4])
def test_exact_refit_block_matches_plain_newton_at_n_200(lam):
    # the informative regime at the exact-refit benchmark's size; at
    # lambda 1e-4 the block drops many columns, which fit then finishes
    # by chord steps from the previous grid point
    X, Y, xq, _ = friedman1(200, 1.0, seed=1).split_query()
    grid = YGrid.from_targets(Y, m=200)
    loss, kernel = LossSpec("pseudo_huber"), KernelSpec("laplacian")
    curve = full_conformal_pvalues(X, Y, xq, grid, lam, loss, kernel)
    np.testing.assert_array_equal(curve.upper,
                                  _oracle_curve(X, Y, xq, grid, lam, loss, kernel))


def test_exact_refits_match_plain_newton_across_block_chunks(monkeypatch):
    # three full chunks and seven more points after the first, which is
    # fit alone; each chunk starts from the last certified fit before it
    X, Y, xq, _ = friedman1(41, 1.0, seed=0).split_query()
    m = 3 * conformal.REFIT_CHUNK + 7 + 1
    grid = YGrid.from_targets(Y, m=m)
    blocks = _spy_blocks(monkeypatch)
    curve = full_conformal_pvalues(X, Y, xq, grid, 0.01, LOGCOSH, KERNEL)
    assert [ys.size for ys, _ in blocks] == [conformal.REFIT_CHUNK] * 3 + [7]
    np.testing.assert_array_equal(np.concatenate([ys for ys, _ in blocks]),
                                  grid.values[1:])
    dropped = sum(int((~converged).sum()) for _, converged in blocks)
    assert 0 < dropped < m - 1  # both starts occur
    np.testing.assert_array_equal(curve.upper,
                                  _oracle_curve(X, Y, xq, grid, 0.01, LOGCOSH, KERNEL))


def test_exact_refits_match_plain_newton_when_the_block_drops_every_column(monkeypatch):
    # with a contraction ratio of 0 a column that one chord step does not
    # take to the tolerance leaves the block, here every column, so every
    # fit after the first starts from its grid neighbour
    X, Y, xq, _ = friedman1(41, 1.0, seed=0).split_query()
    grid = YGrid.from_targets(Y, m=41)
    monkeypatch.setattr(solver, "CHORD_REBUILD_RATIO", 0.0)
    blocks = _spy_blocks(monkeypatch)
    real, fits = conformal.fit, []

    def counted(*args, **kwargs):
        fits.append(real(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(conformal, "fit", counted)
    curve = full_conformal_pvalues(X, Y, xq, grid, 1e-4, LOGCOSH, KERNEL)
    assert not any(converged.any() for _, converged in blocks)
    assert len(fits) == grid.m
    np.testing.assert_array_equal(curve.upper,
                                  _oracle_curve(X, Y, xq, grid, 1e-4, LOGCOSH, KERNEL))


def test_full_conformal_fits_once_per_grid_point_in_grid_order(monkeypatch):
    X, Y, xq, _ = friedman1(41, 1.0, seed=1).split_query()
    grid = YGrid.from_targets(Y, m=3 * conformal.REFIT_CHUNK)
    real, calls = conformal.fit, []

    def spy(problem, init=None, chord=None):
        calls.append((problem.anchors, init is None))
        return real(problem, init=init, chord=chord)

    monkeypatch.setattr(conformal, "fit", spy)
    full_conformal_pvalues(X, Y, xq, grid, 0.01, LOGCOSH, KERNEL)
    assert [anchors for anchors, _ in calls] == [(float(y), float(y)) for y in grid.values]
    # only the first grid point is fit from zero
    assert [cold for _, cold in calls] == [True] + [False] * (grid.m - 1)


def test_full_conformal_low_alpha_gives_full_grid():
    X, Y, xq, _ = _instance(1, 12)
    grid = YGrid.from_targets(Y, m=41)
    # p >= 1/(n+1) everywhere, so alpha below that floor keeps every cell
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        region = full_region_bruteforce(X, Y, xq, grid, 1.0 / 26, 0.5,
                                        LOGCOSH, KERNEL)
    assert region.mask.all()
    assert region.clipped


def test_full_conformal_pvalue_range():
    X, Y, xq, _ = _instance(2, 10)
    grid = YGrid.from_targets(Y, m=31)
    curve = full_conformal_pvalues(X, Y, xq, grid, 1.0, LOGCOSH, KERNEL)
    numerators = curve.upper * 11
    np.testing.assert_allclose(numerators, np.round(numerators), atol=1e-9)
    assert curve.upper.min() >= 1 / 11 - 1e-12
    assert curve.upper.max() <= 1.0 + 1e-12
    np.testing.assert_array_equal(curve.upper, curve.lower)


def test_full_conformal_warm_start_matches_cold():
    # the first point of a grid is refit from scratch: a two-point grid
    # starting at y gives the cold-refit p-value at y
    X, Y, xq, _ = _instance(3, 10)
    grid = YGrid.from_targets(Y, m=31)
    warm = full_conformal_pvalues(X, Y, xq, grid, 0.5, LOGCOSH, KERNEL)
    cold = [full_conformal_pvalues(X, Y, xq, YGrid(float(y), float(y) + grid.step, 2),
                                   0.5, LOGCOSH, KERNEL).upper[0]
            for y in grid.values]
    np.testing.assert_array_equal(warm.upper, cold)


def test_full_conformal_and_oracle_share_the_exact_refit():
    # both are the refit of the sample plus the query input carrying y: on
    # a two-point grid starting at y (a cold refit at y), the full
    # conformal p-value at y is the oracle's at y_true = y, bit for bit
    X, Y, xq, _ = _instance(5, 12)
    grid = YGrid.from_targets(Y, m=11)
    problem = z_anchored_problem(X, Y, xq, 0.0, 0.5, LOGCOSH, KERNEL)
    for y in map(float, grid.values):
        pair = YGrid(y, y + grid.step, 2)
        full = full_conformal_pvalues(X, Y, xq, pair, 0.5, LOGCOSH, KERNEL)
        assert full.upper[0] == oracle_pvalues(problem, y, pair).upper[0], y


# --- oracle region ---

def test_oracle_region_is_interval_with_order_statistic_halfwidth():
    X, Y, xq, ytrue = _instance(4, 20)
    # wide explicit grid so the interval cannot clip
    grid = YGrid(-35.0, 35.0, 1401)
    alpha = 0.1
    n = Y.size
    region = oracle_region(X, Y, xq, ytrue, grid, alpha, 0.5, LOGCOSH, KERNEL)
    assert len(region.intervals) == 1
    curve = oracle_pvalues(z_anchored_problem(X, Y, xq, ytrue, 0.5, LOGCOSH, KERNEL),
                           ytrue, grid)
    # reconstruct the fit center and score ranks independently of the mask
    from apxcp.solver import anchor_z_weights, augmented_problem, fit
    problem = augmented_problem(X, Y, xq, (ytrue, ytrue), anchor_z_weights(n),
                                0.5, LOGCOSH, KERNEL)
    pred = fit(problem)
    center = pred.query_prediction()
    scores = np.sort(np.abs(Y - pred.predictions()[:n]))
    k = int(np.ceil((n + 1) * (1 - alpha)))
    halfwidth = scores[k - 1]
    lo, hi = region.intervals[0]
    assert lo == pytest.approx(center - halfwidth, abs=grid.step)
    assert hi == pytest.approx(center + halfwidth, abs=grid.step)
    assert np.array_equal(curve.upper, curve.lower)


def test_oracle_region_alpha_near_one_limit():
    # under the >= tie rule the p-value hits 1.0 on cells closer to the
    # fit center than every training score, so the region shrinks to
    # exactly those cells instead of emptying out
    X, Y, xq, ytrue = _instance(5, 10)
    n = Y.size
    grid = YGrid.from_targets(Y, m=101)
    region = oracle_region(X, Y, xq, ytrue, grid, 0.999, 0.5, LOGCOSH, KERNEL)

    from apxcp.solver import anchor_z_weights, augmented_problem, fit
    problem = augmented_problem(X, Y, xq, (ytrue, ytrue), anchor_z_weights(n),
                                0.5, LOGCOSH, KERNEL)
    pred = fit(problem)
    center = pred.query_prediction()
    s_min = np.abs(Y - pred.predictions()[:n]).min()
    expected = np.abs(grid.values - center) <= s_min
    np.testing.assert_array_equal(region.mask, expected)


def test_oracle_region_grid_refinement_stability():
    X, Y, xq, ytrue = _instance(6, 12)
    g1 = YGrid.from_targets(Y, m=256)
    g2 = YGrid.from_targets(Y, m=512)
    r1 = oracle_region(X, Y, xq, ytrue, g1, 0.1, 0.5, LOGCOSH, KERNEL)
    r2 = oracle_region(X, Y, xq, ytrue, g2, 0.1, 0.5, LOGCOSH, KERNEL)
    assert abs(r1.measure - r2.measure) <= 2 * g1.step + 1e-12



def test_oracle_reuses_a_supplied_problem_bit_for_bit():
    X, Y, xq, ytrue = _instance(8, 16)
    grid = YGrid.from_targets(Y, m=101)
    # from scratch: the problem anchored at y_true, as oracle_region builds it
    want = oracle_pvalues(z_anchored_problem(X, Y, xq, ytrue, 0.5, LOGCOSH, KERNEL),
                          ytrue, grid)
    for z in (0.0, 2.5):  # the supplied anchors are replaced by y_true
        problem = z_anchored_problem(X, Y, xq, z, 0.5, LOGCOSH, KERNEL)
        got = oracle_pvalues(problem, ytrue, grid)
        np.testing.assert_array_equal(got.upper, want.upper)
        np.testing.assert_array_equal(got.lower, want.lower)
        assert problem.anchors == (z, z)  # the supplied problem is untouched


@pytest.mark.parametrize("field", ["anchors", "weights"])
def test_oracle_names_the_field_a_supplied_problem_differs_in(field):
    X, Y, xq, ytrue = _instance(8, 16)
    grid = YGrid.from_targets(Y, m=21)
    anchors, weights = (((0.0, 1.0), anchor_z_weights(Y.size)) if field == "anchors"
                        else ((0.0, 0.0), anchor_y_weights(Y.size)))
    problem = augmented_problem(X, Y, xq, anchors, weights, 0.5, LOGCOSH, KERNEL)
    with pytest.raises(ValueError, match=f"oracle problem .*mismatch in {field}"):
        oracle_pvalues(problem, ytrue, grid)


# --- split conformal ---

def test_split_rejects_degenerate_inputs():
    X, Y, xq, _ = _instance(7, 10)
    grid = YGrid.from_targets(Y, m=21)
    with pytest.raises(ValueError, match="split_fraction"):
        split_region(X, Y, xq, grid, 0.1, 0.5, LOGCOSH, KERNEL, split_fraction=1.0)
    with pytest.raises(ValueError, match="calibration"):
        split_region(X[:1], Y[:1], xq, grid, 0.1, 0.5, LOGCOSH, KERNEL)


def test_split_deterministic_given_seed():
    X, Y, xq, _ = _instance(8, 16)
    grid = YGrid.from_targets(Y, m=51)
    r1 = split_region(X, Y, xq, grid, 0.1, 0.5, LOGCOSH, KERNEL, seed=5)
    r2 = split_region(X, Y, xq, grid, 0.1, 0.5, LOGCOSH, KERNEL, seed=5)
    np.testing.assert_array_equal(r1.mask, r2.mask)


def test_split_coverage_within_binomial_band():
    # coverage in [1-a - 3s, 1-a + 1/(ncal+1) + 3s] over 200 repetitions
    alpha = 0.2
    reps = 200
    n = 24
    n_cal = n - 12
    calls = [0]

    def builder(X, Y, xq):
        calls[0] += 1
        grid = YGrid.from_targets(Y, m=201)
        return split_region(X, Y, xq, grid, alpha, 0.7, LOGCOSH, KERNEL,
                            seed=calls[0])

    def generator(rng):
        ds = friedman1(n + 1, noise_sd=1.0, seed=rng.integers(2**32))
        return ds.split_query()

    result = empirical_coverage(builder, generator, reps, alpha, seed=99)
    sigma = np.sqrt(alpha * (1 - alpha) / reps)
    assert result.coverage >= 1 - alpha - 3 * sigma
    assert result.coverage <= 1 - alpha + 1.0 / (n_cal + 1) + 3 * sigma


# --- cross conformal ---

def test_cross_fold_count_validation():
    X, Y, xq, _ = _instance(9, 6)
    grid = YGrid.from_targets(Y, m=21)
    with pytest.raises(ValueError, match="fold"):
        cross_pvalues(X, Y, xq, grid, 0.5, LOGCOSH, KERNEL, V=7)
    with pytest.raises(ValueError, match="fold"):
        cross_pvalues(X, Y, xq, grid, 0.5, LOGCOSH, KERNEL, V=1)


@pytest.mark.parametrize("V", [2.5, 3.0, "3", True])
def test_cross_rejects_a_non_integral_fold_count(V):
    # V = 2.5 used to run 2 folds, as np.array_split truncates the count
    X, Y, xq, _ = _instance(9, 6)
    grid = YGrid.from_targets(Y, m=21)
    with pytest.raises(ValueError, match=re.escape(f"fold count V must be an integer, "
                                                   f"got {V!r}")):
        cross_pvalues(X, Y, xq, grid, 0.5, LOGCOSH, KERNEL, V=V)
    same = cross_pvalues(X, Y, xq, grid, 0.5, LOGCOSH, KERNEL, V=np.int64(3), seed=1)
    np.testing.assert_array_equal(
        same.upper, cross_pvalues(X, Y, xq, grid, 0.5, LOGCOSH, KERNEL, V=3, seed=1).upper)


@pytest.mark.parametrize("rows, targets, message", [
    (6, (5,), r"Y must be 1-d, matching the 6 rows of X, got shape \(5,\)"),
    (5, (6,), r"Y must be 1-d, matching the 5 rows of X, got shape \(6,\)"),
    (5, (5, 1), r"Y must be 1-d, matching the 5 rows of X, got shape \(5, 1\)"),
])
@pytest.mark.parametrize("method", ["split", "cross", "full"])
def test_exact_methods_name_x_and_y_on_a_size_mismatch(method, rows, targets, message):
    # split and cross used to drop a row silently (6 rows, 5 targets) or
    # raise IndexError (5 rows, 6 targets); full named the Gram matrix
    X, Y, xq, _ = _instance(12, 8)
    Xs, Ys = X[:rows], Y[:int(np.prod(targets))].reshape(targets)
    grid = YGrid.from_targets(Y, m=11)
    calls = {"split": lambda: split_pvalues(Xs, Ys, xq, grid, 0.5, LOGCOSH, KERNEL),
             "cross": lambda: cross_pvalues(Xs, Ys, xq, grid, 0.5, LOGCOSH, KERNEL, V=2),
             "full": lambda: full_conformal_pvalues(Xs, Ys, xq, grid, 0.5, LOGCOSH, KERNEL)}
    with pytest.raises(ValueError, match=message):
        calls[method]()


@pytest.mark.parametrize("fraction", ["0.5", True, math.nan])
def test_split_rejects_a_fraction_that_is_not_a_number(fraction):
    X, Y, xq, _ = _instance(12, 8)
    with pytest.raises(ValueError, match=re.escape(f"split_fraction must be a finite "
                                                   f"number, got {fraction!r}")):
        split_pvalues(X, Y, xq, YGrid.from_targets(Y, m=11), 0.5, LOGCOSH, KERNEL, fraction)


def test_split_accepts_a_numpy_fraction():
    X, Y, xq, _ = _instance(12, 8)
    grid = YGrid.from_targets(Y, m=11)
    same = split_pvalues(X, Y, xq, grid, 0.5, LOGCOSH, KERNEL, np.float32(0.25), seed=2)
    np.testing.assert_array_equal(
        same.upper, split_pvalues(X, Y, xq, grid, 0.5, LOGCOSH, KERNEL, 0.25, seed=2).upper)


def test_exact_curves_share_one_pvalue_array():
    # exact methods have equal upper and lower p-values: one frozen array
    X, Y, xq, y_true = _instance(11, 8)
    grid = YGrid.from_targets(Y, m=11)
    problem = z_anchored_problem(X, Y, xq, 0.0, 0.5, LOGCOSH, KERNEL)
    curves = [full_conformal_pvalues(X, Y, xq, grid, 0.5, LOGCOSH, KERNEL),
              oracle_pvalues(problem, y_true, grid),
              split_pvalues(X, Y, xq, grid, 0.5, LOGCOSH, KERNEL, seed=0),
              cross_pvalues(X, Y, xq, grid, 0.5, LOGCOSH, KERNEL, V=3, seed=0)]
    for curve in curves:
        assert curve.upper is curve.lower
        assert not curve.upper.flags.writeable


def test_cross_jackknife_limit_runs():
    X, Y, xq, _ = _instance(10, 8)
    grid = YGrid.from_targets(Y, m=31)
    curve = cross_pvalues(X, Y, xq, grid, 0.5, LOGCOSH, KERNEL, V=8, seed=3)
    numerators = curve.upper * 9  # denominator n+1 with one score per fold
    np.testing.assert_allclose(numerators, np.round(numerators), atol=1e-9)


def test_cross_pooled_count_matches_hand_computation():
    # V=2 on 4 points, squared loss: every fold fit has a closed form
    rng = np.random.default_rng(12)
    X = rng.uniform(size=(4, 2))
    Y = rng.normal(size=4)
    xq = rng.uniform(size=2)
    grid = YGrid(float(Y.min() - 2), float(Y.max() + 2), 41)
    lam, seed = 0.4, 77
    curve = cross_pvalues(X, Y, xq, grid, lam, LossSpec("squared"), KERNEL,
                          V=2, seed=seed)

    perm = np.random.default_rng(seed).permutation(4)
    folds = np.array_split(perm, 2)
    counts = np.zeros(grid.m, dtype=int)
    for fold in folds:
        keep = np.setdiff1d(perm, fold, assume_unique=True)
        K_keep = laplacian_gram(X[keep], 0.5)
        w, V_ = np.linalg.eigh(K_keep)
        sel = w > 1e-12 * w.max()
        # data term is normalized by (n_keep + 1): the query row rides along
        # with zero weight in the package's augmented formulation
        b = V_[:, sel] @ (V_[:, sel].T @ Y[keep] / (w[sel] + lam * (len(keep) + 1)))
        cross_K = np.exp(-0.5 * np.abs(X[fold][:, None, :] - X[keep][None, :, :]).sum(-1))
        fold_scores = np.abs(Y[fold] - cross_K @ b)
        q_row = np.exp(-0.5 * np.abs(np.atleast_2d(xq)[:, None, :] - X[keep][None, :, :]).sum(-1))
        test = np.abs(grid.values - (q_row @ b).item())
        counts += (fold_scores[None, :] >= test[:, None]).sum(axis=1)
    expected = (1.0 + counts) / 5.0
    np.testing.assert_allclose(curve.upper, expected, atol=1e-9)


# --- coverage accounting ---

def test_empirical_coverage_full_and_empty():
    grid = YGrid(0.0, 1.0, 11)

    def generator(rng):
        return np.zeros((2, 1)), np.zeros(2), np.zeros(1), 0.5

    full = empirical_coverage(
        lambda X, Y, xq: PredictionRegion.from_mask(grid, np.ones(11, bool)),
        generator, reps=13, alpha=0.1)
    empty = empirical_coverage(
        lambda X, Y, xq: PredictionRegion.from_mask(grid, np.zeros(11, bool)),
        generator, reps=13, alpha=0.1)
    assert full.coverage == 1.0
    assert empty.coverage == 0.0
    assert isinstance(full, CoverageResult)
    assert full.ci_hi >= full.ci_lo


@pytest.mark.parametrize("reps", [0, -3])
def test_empirical_coverage_needs_a_repetition(reps):
    def never_called(*args):
        raise AssertionError("no repetition may run")

    with pytest.raises(ValueError, match=f"reps must be >= 1, got {reps}"):
        empirical_coverage(never_called, never_called, reps, 0.1)


@pytest.mark.parametrize("reps", [2.5, 3.0, "3", True])
def test_empirical_coverage_needs_an_integer_count(reps):
    # a float count used to pass the reps < 1 check, then fail inside range
    def never_called(*args):
        raise AssertionError("no repetition may run")

    with pytest.raises(ValueError, match=re.escape(f"reps must be an integer, got {reps!r}")):
        empirical_coverage(never_called, never_called, reps, 0.1)


@pytest.mark.parametrize("alpha, seed, message", [
    (5.0, 0, "alpha must lie in (0, 1), got 5.0"),
    (0.0, 0, "alpha must lie in (0, 1), got 0.0"),
    (float("nan"), 0, "alpha must be a finite number, got nan"),
    ("0.1", 0, "alpha must be a finite number, got '0.1'"),
    (0.1, -1, "seed must be nonnegative, got -1"),
    (0.1, 1.5, "seed must be an integer, got 1.5"),
    (0.1, None, "seed must be an integer, got None"),
])
def test_empirical_coverage_checks_alpha_and_seed(alpha, seed, message):
    # alpha=5.0 used to pass into the result and seed=-1 to fail inside
    # numpy without naming the argument
    def never_called(*args):
        raise AssertionError("no repetition may run")

    with pytest.raises(ValueError, match=re.escape(message)):
        empirical_coverage(never_called, never_called, 3, alpha, seed=seed)


def test_empirical_coverage_accepts_a_numpy_integer_count():
    grid = YGrid(0.0, 1.0, 11)
    mask = np.arange(11) == 5

    def generator(rng):
        return np.zeros((2, 1)), np.zeros(2), np.zeros(1), 0.5

    result = empirical_coverage(lambda X, Y, xq: PredictionRegion.from_mask(grid, mask),
                                generator, np.int64(4), 0.1)
    assert result.coverage == 1.0 and result.reps == 4


def test_empirical_coverage_deterministic_in_seed():
    def generator(rng):
        ds = friedman1(13, noise_sd=0.5, seed=rng.integers(2**32))
        return ds.split_query()

    def builder(X, Y, xq):
        grid = YGrid.from_targets(Y, m=101)
        return oracle_region(X, Y, xq, float(Y.mean()), grid, 0.1, 0.5,
                             LOGCOSH, KERNEL)

    a = empirical_coverage(builder, generator, 11, 0.1, seed=4)
    b = empirical_coverage(builder, generator, 11, 0.1, seed=4)
    assert a.coverage == b.coverage


# --- serialization ---

def test_region_csv_and_json_round_trip(tmp_path):
    X, Y, xq, ytrue = _instance(11, 10)
    grid = YGrid.from_targets(Y, m=21)
    curve = oracle_pvalues(z_anchored_problem(X, Y, xq, ytrue, 0.5, LOGCOSH, KERNEL),
                           ytrue, grid)
    region = region_from_curve(curve, 0.1)
    csv_path = tmp_path / "region.csv"
    json_path = tmp_path / "region.json"
    write_region_csv(csv_path, curve, region, extras={"tau_test": np.zeros(21)},
                     meta={"config_hash": "abc"})
    write_region_json(json_path, region, 0.1, "oracle", meta={"config_hash": "abc"})

    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=abc")
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 21
    assert set(rows[0]) == {"y", "upper_p", "lower_p", "in_region", "tau_test"}
    ys = np.array([float(r["y"]) for r in rows])
    np.testing.assert_array_equal(ys, grid.values)
    in_region = np.array([r["in_region"] == "1" for r in rows])
    np.testing.assert_array_equal(in_region, region.mask)

    blob = json.loads(json_path.read_text())
    assert blob["alpha"] == 0.1
    assert blob["method"] == "oracle"
    assert blob["measure"] == pytest.approx(region.measure)
    assert blob["config_hash"] == "abc"
    np.testing.assert_allclose(np.asarray(blob["intervals"], dtype=float),
                               np.asarray(region.intervals, dtype=float))


@pytest.mark.parametrize("column", [np.zeros(3), np.zeros(12), np.zeros((11, 1)), 0.0])
def test_region_csv_rejects_an_extra_column_off_the_grid(tmp_path, column):
    # zip(*columns) used to stop at the shortest column: 3 entries wrote 3 rows
    grid = YGrid(0.0, 1.0, 11)
    curve = PValueCurve(grid, np.full(11, 0.5), np.full(11, 0.25))
    with pytest.raises(ValueError, match="extra column 'tau_test' must have 11 entries"):
        write_region_csv(tmp_path / "region.csv", curve, region_from_curve(curve, 0.1),
                         extras={"tau_test": column})
    assert not (tmp_path / "region.csv").exists()


def test_region_csv_rejects_a_region_on_another_grid(tmp_path):
    curve = PValueCurve(YGrid(0.0, 1.0, 11), np.full(11, 0.5), np.full(11, 0.25))
    region = PredictionRegion.from_mask(YGrid(0.0, 2.0, 11), np.ones(11, dtype=bool))
    with pytest.raises(ValueError, match="region lies on YGrid.*not on the curve's"):
        write_region_csv(tmp_path / "region.csv", curve, region)
