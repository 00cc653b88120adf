import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apxcp.conformal import (CoverageResult, PredictionRegion, PValueCurve,
                             YGrid, _count_at_least, _min_count, _rank_pvalues,
                             cross_pvalues, empirical_coverage,
                             full_conformal_pvalues, full_region_bruteforce,
                             oracle_pvalues, oracle_region, region_from_curve,
                             split_region, write_region_csv, write_region_json)
from apxcp.data_io import friedman1
from apxcp.kernels import KernelSpec
from apxcp.losses import LossSpec
from apxcp.solver import (anchor_y_weights, augmented_problem,
                           z_anchored_problem)

from oracles import (bruteforce_ridge_region, conformal_pvalue, laplacian_gram,
                     pvalue_by_hand)

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


def test_grid_nearest_index_clips():
    g = YGrid(0.0, 1.0, 11)
    assert g.nearest_index(0.51) == 5
    assert g.nearest_index(-99.0) == 0
    assert g.nearest_index(99.0) == 10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_region_contains_rejects_nonfinite_y(bad):
    g = YGrid(0.0, 1.0, 11)
    region = PredictionRegion.from_mask(g, np.arange(11) == 5)
    with pytest.raises(ValueError, match=f"y must be finite.*got {bad}"):
        region.contains(bad)
    with pytest.raises(ValueError, match="y must be finite"):
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
        warnings.simplefilter("ignore", RuntimeWarning)  # runs at the edges
        region = PredictionRegion.from_mask(g, np.array(cells, dtype=bool))
    runs = _runs_by_loop(cells)
    assert region.intervals == tuple((float(g.values[a]), float(g.values[b]))
                                     for a, b in runs)
    assert region.measure == g.step * sum(b - a + 1 for a, b in runs)


def test_region_boundary_warning():
    # a warning naming a library line would show once per run under the
    # default once-per-location filter, whoever clips a region later
    g = YGrid(0.0, 1.0, 5)
    pvals = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
    with pytest.warns(RuntimeWarning, match="boundary") as caught:
        PredictionRegion.from_mask(g, np.array([1, 1, 0, 0, 0], dtype=bool))
        region_from_curve(PValueCurve(g, pvals, pvals), 0.1)
    assert [w.filename for w in caught] == [__file__, __file__]


def test_region_contains_uses_nearest_cell():
    g = YGrid(0.0, 1.0, 11)
    mask = np.zeros(11, dtype=bool)
    mask[5] = True
    region = PredictionRegion.from_mask(g, mask)
    assert region.contains(0.52)
    assert not region.contains(0.56)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, np.nan, np.inf])
def test_region_rejects_alpha_outside_unit_interval(alpha):
    g = YGrid(0.0, 1.0, 5)
    curve = PValueCurve(g, np.full(5, 0.5), np.full(5, 0.25))
    for side in ("upper", "lower"):
        with pytest.raises(ValueError, match="alpha must lie in"):
            region_from_curve(curve, alpha, side)
    with pytest.raises(ValueError, match="alpha must lie in"):
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


def test_full_conformal_low_alpha_gives_full_grid():
    X, Y, xq, _ = _instance(1, 12)
    grid = YGrid.from_targets(Y, m=41)
    # p >= 1/(n+1) everywhere, so alpha below that floor keeps every cell
    with pytest.warns(RuntimeWarning, match="boundary"):
        region = full_region_bruteforce(X, Y, xq, grid, 1.0 / 26, 0.5,
                                        LOGCOSH, KERNEL)
    assert region.mask.all()


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


@pytest.mark.parametrize("field", ["weights"])
def test_oracle_names_the_field_a_supplied_problem_differs_in(field):
    X, Y, xq, ytrue = _instance(8, 16)
    grid = YGrid.from_targets(Y, m=21)
    problem = augmented_problem(X, Y, xq, (0.0, 0.0), anchor_y_weights(Y.size),
                                0.5, LOGCOSH, KERNEL)
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

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the full mask touches the edge
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
