import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apxcp.approx import (APPROX_KINDS, DEFAULT_CHUNK, ApproxMethod,
                          TauProfile, _sandwich_scan, approx_pvalue_curves,
                          base_fit, if_error_bound, if_predictor,
                          influence_direction, influence_vector, rho1, rho2,
                          rho_tilde1, tau_profile, thickness_bound,
                          thickness_gap)
from apxcp.conformal import (PredictionRegion, YGrid, conformal_pvalue,
                             region_from_curve)
from apxcp.data_io import friedman1
from apxcp.kernels import GramMatrix, KernelSpec
from apxcp.losses import (LossSpec, SmoothnessConstants, loss_d,
                          smoothness_constants)
from apxcp.solver import (WeightedProblem, anchor_y_weights, anchor_z_weights,
                          augmented_problem, fit, hessian, rkhs_norm_diff)

from oracles import dense_sandwich_curves, laplacian_gram, sandwich_pvalues

KERNEL = KernelSpec("laplacian", 0.5)
LOGCOSH = LossSpec("logcosh")

UNIT_GRAM = GramMatrix(np.eye(10))  # n+1 = 10, every diagonal entry 1
LOGCOSH_CONSTANTS = smoothness_constants(LOGCOSH)  # rho=beta=xi=1 at a=1


def _instance(seed, n):
    return friedman1(n + 1, seed=seed).split_query()


# --- method / profile containers ---

def test_method_validation():
    with pytest.raises(ValueError, match="kind"):
        ApproxMethod("jackknife")
    with pytest.raises(ValueError, match="z_anchor"):
        ApproxMethod("uniform_stability", z_anchor=np.inf)
    assert [ApproxMethod(k).level for k in APPROX_KINDS] == [0, 1, 2]


def test_tau_profile_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        TauProfile(scale=np.array([1.0, -1.0]), radial=np.array([0.5]))
    with pytest.raises(ValueError, match="finite"):
        TauProfile(scale=np.array([1.0]), radial=np.array([np.nan]))


def test_tau_profile_factored_views():
    profile = TauProfile(scale=np.array([2.0, 1.0, 3.0]),
                         radial=np.array([0.5, 4.0]))
    mat = profile.tau_matrix()
    assert mat.shape == (2, 3)
    np.testing.assert_allclose(mat[1], [8.0, 4.0, 12.0])
    np.testing.assert_allclose(profile.test_tau, [1.5, 12.0])
    assert profile.sup_tau() == 12.0
    assert profile.sup_tau() == mat.max()


# --- uniform-stability envelope ---

def _taus(level, gram, lam, m=1, rho1_val=None, constants=LOGCOSH_CONSTANTS):
    """Dense (m, n+1) envelope matrix of one level from the builder."""
    return tau_profile(level, gram, constants, lam, m, rho1_val).tau_matrix()


def test_tau0_unit_diagonal_value():
    profile = tau_profile(0, UNIT_GRAM, LOGCOSH_CONSTANTS, lam=0.1, m=4)
    np.testing.assert_allclose(profile.tau_matrix(), np.ones((4, 10)))
    assert profile.rho1 is None and profile.rho2 is None


def test_tau0_zero_lipschitz_constant():
    flat = SmoothnessConstants(rho=0.0, beta2=1.0, beta1=1.0, xi=1.0)
    np.testing.assert_array_equal(_taus(0, UNIT_GRAM, 0.1, constants=flat),
                                  np.zeros((1, 10)))


def test_tau0_inverse_in_lambda():
    np.testing.assert_allclose(_taus(0, UNIT_GRAM, 0.2),
                               0.5 * _taus(0, UNIT_GRAM, 0.1))


# --- local-stability radius and envelope ---

def _base(seed=0, n=15, lam=0.5, loss=LOGCOSH):
    X, Y, xq, _ = _instance(seed, n)
    return base_fit(X, Y, xq, 0.0, lam, loss, KERNEL)


def test_rho1_vanishes_at_anchor():
    base = _base()
    assert rho1(0.0, 0.0, base, LOGCOSH) == 0.0


def test_rho1_logcosh_closed_form():
    # with the query prediction forced to 0 the radius is tanh(1)/2
    X = np.array([[0.0], [100.0]])
    Y = np.array([0.0, 0.0])
    base = base_fit(X, Y, np.array([50.0]), 0.0, 1.0, LOGCOSH, KERNEL)
    assert base.query_prediction() == pytest.approx(0.0, abs=1e-12)
    assert rho1(1.0, 0.0, base, LOGCOSH) == pytest.approx(np.tanh(1.0) / 2, abs=1e-12)


def test_rho1_never_exceeds_rho():
    base = _base(seed=3)
    ys = np.linspace(-50, 50, 301)
    vals = rho1(ys, 0.0, base, LOGCOSH)
    assert vals.shape == ys.shape
    assert np.all(vals <= LOGCOSH_CONSTANTS.rho + 1e-12)


def test_tau1_shapes_and_golden_value():
    single = _taus(1, UNIT_GRAM, 0.1, rho1_val=np.array([0.5]))
    np.testing.assert_allclose(single, np.full((1, 10), 0.5))
    r1 = np.array([0.5, 0.0, 1.0])
    profile = tau_profile(1, UNIT_GRAM, LOGCOSH_CONSTANTS, 0.1, 3, r1)
    arr = profile.tau_matrix()
    assert arr.shape == (3, 10)
    np.testing.assert_allclose(arr[:, 0], [0.5, 0.0, 1.0])
    np.testing.assert_array_equal(profile.rho1, r1)
    assert profile.rho1_tilde is None and profile.rho2 is None


def test_tau1_below_tau0():
    base = _base(seed=4)
    gram = base.problem.gram
    ys = np.linspace(-30, 30, 101)
    r1 = rho1(ys, 0.0, base, LOGCOSH)
    t1 = _taus(1, gram, 0.5, ys.size, r1)
    t0 = _taus(0, gram, 0.5, ys.size)
    assert np.all(t1 <= t0 + 1e-12)


# --- second-order radii ---

def test_rho_tilde1_golden_value():
    assert rho_tilde1(UNIT_GRAM, LOGCOSH_CONSTANTS, 1.0, 0.5) == pytest.approx(0.55)


def test_rho2_golden_value():
    rt = rho_tilde1(UNIT_GRAM, LOGCOSH_CONSTANTS, 1.0, 0.5)
    assert rho2(UNIT_GRAM, LOGCOSH_CONSTANTS, 1.0, rt) == pytest.approx(
        1.2512500000000002)


def test_rho2_monotone_in_third_derivative_bound():
    lo = SmoothnessConstants(rho=1.0, beta2=1.0, beta1=1.0, xi=0.5)
    hi = SmoothnessConstants(rho=1.0, beta2=1.0, beta1=1.0, xi=2.0)
    assert rho2(UNIT_GRAM, lo, 1.0, 0.55) < rho2(UNIT_GRAM, hi, 1.0, 0.55)


def test_tau2_vanishes_at_anchor_and_caps_at_twice_tau1():
    base = _base(seed=5)
    gram = base.problem.gram
    ys = np.linspace(-30, 30, 101)
    r1 = rho1(ys, 0.0, base, LOGCOSH)
    profile = tau_profile(2, gram, LOGCOSH_CONSTANTS, 0.5, ys.size, r1)
    t1 = _taus(1, gram, 0.5, ys.size, r1)
    assert np.all(profile.tau_matrix() <= 2.0 * t1 + 1e-12)
    at_anchor = _taus(2, gram, 0.5, rho1_val=np.array([rho1(0.0, 0.0, base, LOGCOSH)]))
    np.testing.assert_array_equal(at_anchor, np.zeros((1, gram.n)))
    # the radii are the standalone ones, and the influence-function error
    # bound is the level-2 radius on the query's kernel scale
    rt = rho_tilde1(gram, LOGCOSH_CONSTANTS, 0.5, r1)
    np.testing.assert_array_equal(profile.rho1_tilde, rt)
    np.testing.assert_array_equal(profile.rho2, rho2(gram, LOGCOSH_CONSTANTS, 0.5, rt))
    np.testing.assert_array_equal(if_error_bound(gram, LOGCOSH_CONSTANTS, 0.5, r1),
                                  np.sqrt(gram.diagonal[-1]) * profile.radial)


# --- influence function ---

def test_influence_direction_solves_hessian_system():
    base = _base(seed=6, n=12)
    direction = influence_direction(base)
    H = hessian(base.problem, base.coeffs)
    np.testing.assert_allclose(H @ direction, base.problem.gram.query_column,
                               atol=1e-8)


def test_influence_vector_zero_derivative():
    base = _base(seed=7)
    m_q = base.query_prediction()
    # logcosh first derivative vanishes exactly at the query prediction
    np.testing.assert_array_equal(influence_vector(m_q, base),
                                  np.zeros(base.coeffs.size))


def test_influence_vector_squared_loss_hand_computation():
    rng = np.random.default_rng(8)
    X = rng.uniform(size=(2, 2))
    xq = rng.uniform(size=2)
    Y = rng.normal(size=2)
    lam = 0.3
    problem = augmented_problem(X, Y, xq, (0.5, 0.5), anchor_z_weights(2),
                                lam, LossSpec("squared"), KERNEL)
    base = fit(problem)
    K = problem.gram.entries
    # squared loss: constant second derivative 2 at every active point
    H = (2.0 / 3.0) * K @ K + 2.0 * lam * K
    expected_dir = np.linalg.solve(H, K[:, -1])
    z_prime = 1.7
    d1 = -2.0 * (z_prime - base.query_prediction())
    expected = (-d1 / 3.0) * expected_dir
    np.testing.assert_allclose(influence_vector(z_prime, base), expected,
                               rtol=1e-8, atol=1e-10)


def test_if_predictor_identity_at_anchor_and_direction():
    base = _base(seed=9)
    direction = influence_direction(base)
    np.testing.assert_array_equal(if_predictor(0.0, 0.0, base, direction),
                                  base.coeffs)
    shifted = if_predictor(3.0, 0.0, base, direction)
    diff = shifted - base.coeffs
    # the update moves along the cached direction only
    cos = diff @ direction / (np.linalg.norm(diff) * np.linalg.norm(direction))
    assert abs(abs(cos) - 1.0) < 1e-12


def test_influence_matches_weight_path_finite_difference():
    # d/dt fit(u + t (w - u)) at t=0 equals -I(z) + I(y)
    X, Y, xq, _ = _instance(10, 30)
    z, y, lam, t = 0.0, 2.0, 0.5, 1e-4
    n = Y.size
    u = anchor_z_weights(n)
    w = anchor_y_weights(n)
    prob_u = augmented_problem(X, Y, xq, (z, y), u, lam, LOGCOSH, KERNEL)
    base = fit(prob_u)
    prob_t = augmented_problem(X, Y, xq, (z, y), u + t * (w - u), lam,
                               LOGCOSH, KERNEL)
    moved = fit(prob_t, init=base.coeffs)
    fd = (moved.coeffs - base.coeffs) / t
    direction = influence_direction(base)
    expected = -influence_vector(z, base, direction) + influence_vector(y, base, direction)
    gram = base.problem.gram
    rel = rkhs_norm_diff(fd, expected, gram) / rkhs_norm_diff(
        expected, np.zeros_like(expected), gram)
    assert rel <= 1e-3


def test_if_error_bound_dominates_exact_refit_gap():
    X, Y, xq, _ = _instance(11, 20)
    z, lam = 0.0, 0.5
    n = Y.size
    base = base_fit(X, Y, xq, z, lam, LOGCOSH, KERNEL)
    gram = base.problem.gram
    direction = influence_direction(base)
    for y in (-4.0, 1.0, 7.5, 20.0):
        refit = fit(augmented_problem(X, Y, xq, (z, y), anchor_y_weights(n),
                                      lam, LOGCOSH, KERNEL))
        approx = if_predictor(y, z, base, direction)
        gap = rkhs_norm_diff(refit.coeffs, approx, gram)
        bound = if_error_bound(gram, LOGCOSH_CONSTANTS, lam,
                               rho1(y, z, base, LOGCOSH))
        assert gap <= bound + 1e-9


# --- sandwich p-values ---

def test_sandwich_collapses_without_envelopes():
    data = np.array([0.5, 1.5, 2.5])
    upper, lower = sandwich_pvalues(data, np.array([1.0]), np.zeros(3), np.zeros(1))
    assert upper[0] == lower[0] == pytest.approx(0.75)


def test_sandwich_zero_tau_equals_exact_pvalues_of_base_scores():
    rng = np.random.default_rng(12)
    data = rng.uniform(size=9)
    tests = rng.uniform(size=31)
    upper, lower = sandwich_pvalues(data, tests, np.zeros(9), np.zeros(31))
    expected = np.array([conformal_pvalue(data, t) for t in tests])
    np.testing.assert_array_equal(upper, expected)
    np.testing.assert_array_equal(lower, expected)


def test_sandwich_orders_and_widens_with_tau():
    rng = np.random.default_rng(13)
    data = rng.uniform(size=8)
    tests = rng.uniform(size=11)
    taus = np.full(8, 0.1)
    upper, lower = sandwich_pvalues(data, tests, taus, np.full(11, 0.1))
    exact = np.array([conformal_pvalue(data, t) for t in tests])
    assert np.all(lower <= exact) and np.all(exact <= upper)


# --- end-to-end curves ---

def test_curves_nest_across_levels():
    X, Y, xq, _ = _instance(14, 20)
    grid = YGrid.from_targets(Y, m=101)
    lam = 0.5
    res0 = approx_pvalue_curves(X, Y, xq, grid, ApproxMethod("uniform_stability"),
                                lam, LOGCOSH, KERNEL)
    res1 = approx_pvalue_curves(X, Y, xq, grid, ApproxMethod("local_stability"),
                                lam, LOGCOSH, KERNEL, base=res0.base)
    assert np.all(res1.curve.upper <= res0.curve.upper + 1e-15)
    assert np.all(res1.curve.lower >= res0.curve.lower - 1e-15)


def _scan_shift(res, kind, grid):
    """The influence-function prediction shift shift[j] * k_dir of a
    curve's scan, or (None, None) for the levels that shift nothing."""
    if kind != "influence_function":
        return None, None
    n = res.base.problem.n
    m_q = float(res.base.predictions()[n])
    k_dir = res.base.problem.gram.entries @ influence_direction(res.base)
    shift = (loss_d(LOGCOSH, 1, 0.0, m_q)
             - loss_d(LOGCOSH, 1, grid.values, m_q)) / (n + 1)
    return k_dir, shift


def test_curves_chunking_is_invisible():
    X, Y, xq, _ = _instance(15, 12)
    grid = YGrid.from_targets(Y, m=53)
    for kind in APPROX_KINDS:
        res = approx_pvalue_curves(X, Y, xq, grid, ApproxMethod(kind), 0.5,
                                   LOGCOSH, KERNEL)
        k_dir, shift = _scan_shift(res, kind, grid)
        if k_dir is None:
            k_dir, shift = np.zeros(Y.size + 1), np.zeros(grid.m)
        for chunk in (1, 7):
            upper, lower = _sandwich_scan(Y, res.base.predictions(), k_dir, shift,
                                          res.taus.radial, res.taus.scale,
                                          grid.values, chunk)
            np.testing.assert_array_equal(res.curve.upper, upper)
            np.testing.assert_array_equal(res.curve.lower, lower)


# exact quarter and eighth steps make sums of scores and envelopes exact,
# so data scores tie with each other and land exactly on thresholds
_QUARTERS = st.integers(-12, 12).map(lambda k: k / 4.0)
_EIGHTHS = st.integers(0, 8).map(lambda k: k / 8.0)
_FLOATS = st.floats(-10.0, 10.0, allow_subnormal=False)
_RADII = st.floats(0.0, 5.0, allow_subnormal=False)


@st.composite
def _scan_inputs(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 40))
    exact = draw(st.booleans())
    values, radii = (_QUARTERS, _EIGHTHS) if exact else (_FLOATS, _RADII)

    def vector(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    Y = vector(values, n)
    preds = vector(values, n + 1)
    level = draw(st.sampled_from([0, 1, 2]))
    radial = np.full(m, draw(radii)) if level == 0 else vector(radii, m)
    scale = np.full(n + 1, draw(st.sampled_from([0.5, 1.0, 2.0])))
    scale[n] = draw(st.sampled_from([0.5, 1.0, 2.0]))
    k_dir = shift = None
    if level == 2:
        k_dir = vector(values, n + 1)
        # shifts from none to far past the score spread: the band of
        # undecided indices ranges from empty to all n
        sizes = st.floats(-8.0, 3.0).map(lambda e: 10.0 ** e)
        shift = vector(st.one_of(st.just(0.0), values, sizes), m)
        shift *= vector(st.sampled_from([-1.0, 1.0]), m)
    # grid points whose test score sits on an upper or lower threshold of
    # a data base score: exactly with quarter steps, within rounding else
    base = np.abs(Y - preds[:n])
    width = radial * (scale[0] + scale[n])
    picks = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-1, 1),
                                    st.sampled_from([-1.0, 1.0])),
                          min_size=m, max_size=m))
    hits = [preds[n] + sign * (base[i] + side * width[j])
            for j, (i, side, sign) in enumerate(picks)]
    ys = np.where(vector(st.booleans(), m), hits, vector(values, m))
    return Y, preds, k_dir, shift, radial, scale, ys


@settings(max_examples=300, deadline=None)
@given(_scan_inputs(), st.sampled_from([1, 7, DEFAULT_CHUNK]))
# 0.1 + 0.2 >= 0.1 + 0.2 holds, but 0.1 >= (0.1 + 0.2) - 0.2 does not: a
# search on the rearranged threshold alone would miss this index
@example((np.array([0.1]), np.zeros(2), None, None, np.array([0.2]),
          np.array([1.0, 0.0]), np.array([0.1 + 0.2])), 1)
def test_sorted_scan_matches_dense_oracle(inputs, chunk):
    Y, preds, k_dir, shift, radial, scale, ys = inputs
    upper, lower = dense_sandwich_curves(Y, preds, radial, scale, ys, k_dir, shift)
    if k_dir is None:  # levels 0 and 1 are the zero shift
        k_dir, shift = np.zeros(Y.size + 1), np.zeros(ys.size)
    got_upper, got_lower = _sandwich_scan(Y, preds, k_dir, shift, radial, scale,
                                          ys, chunk)
    np.testing.assert_array_equal(got_upper, upper)
    np.testing.assert_array_equal(got_lower, lower)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(4, 14), m=st.integers(2, 80),
       log_lam=st.floats(-6.0, 2.0), kind=st.sampled_from(APPROX_KINDS),
       family=st.sampled_from(["laplacian", "gaussian_rbf"]),
       ties=st.booleans())
def test_curves_match_dense_oracle(seed, n, m, log_lam, kind, family, ties):
    X, Y, xq, _ = _instance(seed, n)
    if ties:
        Y = np.round(Y)  # duplicate targets
    lam = 10.0 ** log_lam
    kernel = KernelSpec(family, 0.5)
    grid = YGrid.from_targets(Y, m=m)
    res = approx_pvalue_curves(X, Y, xq, grid, ApproxMethod(kind), lam,
                               LOGCOSH, kernel)
    k_dir, shift = _scan_shift(res, kind, grid)
    upper, lower = dense_sandwich_curves(Y, res.base.predictions(), res.taus.radial,
                                         res.taus.scale, grid.values, k_dir, shift)
    np.testing.assert_array_equal(res.curve.upper, upper)
    np.testing.assert_array_equal(res.curve.lower, lower)


@pytest.mark.parametrize("kind", APPROX_KINDS)
def test_curves_reject_nonconstant_kernel_diagonal(kind):
    X, Y, xq, _ = _instance(20, 8)
    d = np.sqrt(np.linspace(1.0, 2.0, 9))
    K = d[:, None] * laplacian_gram(np.vstack([X, xq]), 0.5) * d[None, :]
    base = fit(WeightedProblem(GramMatrix(K), Y, (0.0, 0.0), anchor_z_weights(8),
                               0.5, LOGCOSH))
    grid = YGrid.from_targets(Y, m=11)
    with pytest.raises(ValueError, match="constant diagonal"):
        approx_pvalue_curves(X, Y, xq, grid, ApproxMethod(kind), 0.5, LOGCOSH,
                             KERNEL, base=base)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_curves_reject_nonfinite_targets_with_supplied_base(bad):
    X, Y, xq, _ = _instance(21, 8)
    base = base_fit(X, Y, xq, 0.0, 0.5, LOGCOSH, KERNEL)
    Y = Y.copy()
    Y[3] = bad
    with pytest.raises(ValueError, match="Y must be finite"):
        approx_pvalue_curves(X, Y, xq, YGrid(-1.0, 1.0, 5),
                             ApproxMethod("local_stability"), 0.5, LOGCOSH,
                             KERNEL, base=base)


def test_curves_reuse_supplied_base_fit():
    X, Y, xq, _ = _instance(16, 10)
    grid = YGrid.from_targets(Y, m=21)
    base = base_fit(X, Y, xq, 0.0, 0.5, LOGCOSH, KERNEL)
    res = approx_pvalue_curves(X, Y, xq, grid, ApproxMethod("influence_function"),
                               0.5, LOGCOSH, KERNEL, base=base)
    assert res.base is base


def test_curve_profile_carries_radii_per_level():
    X, Y, xq, _ = _instance(17, 10)
    grid = YGrid.from_targets(Y, m=21)
    res0 = approx_pvalue_curves(X, Y, xq, grid, ApproxMethod("uniform_stability"),
                                0.5, LOGCOSH, KERNEL)
    assert res0.taus.rho1 is None and res0.taus.rho2 is None
    assert np.ptp(res0.taus.radial) == 0.0  # constant in y
    res2 = approx_pvalue_curves(X, Y, xq, grid, ApproxMethod("influence_function"),
                                0.5, LOGCOSH, KERNEL, base=res0.base)
    assert res2.taus.rho1.shape == (grid.m,)
    assert res2.taus.rho2.shape == (grid.m,)
    assert np.all(res2.taus.rho1_tilde >= res2.taus.rho1)


def test_level_scores_are_sound_at_module_scale():
    # per-index exact-refit scores stay inside every envelope
    X, Y, xq, _ = _instance(18, 10)
    n = Y.size
    lam = 1.0
    grid = YGrid.from_targets(Y, m=21)
    exact_scores = np.empty((grid.m, n + 1))
    for j, y in enumerate(grid.values):
        refit = fit(augmented_problem(X, Y, xq, (0.0, y), anchor_y_weights(n),
                                      lam, LOGCOSH, KERNEL))
        preds = refit.predictions()
        exact_scores[j, :n] = np.abs(Y - preds[:n])
        exact_scores[j, n] = np.abs(y - preds[n])
    for kind in APPROX_KINDS:
        res = approx_pvalue_curves(X, Y, xq, grid, ApproxMethod(kind), lam,
                                   LOGCOSH, KERNEL)
        taus = res.taus.tau_matrix()
        if res.base.problem is not None and res.taus.rho2 is None:
            base_preds = res.base.predictions()
            approx_scores = np.empty_like(exact_scores)
            approx_scores[:, :n] = np.abs(Y - base_preds[:n])[None, :]
            approx_scores[:, n] = np.abs(grid.values - base_preds[n])
        else:
            direction = influence_direction(res.base)
            approx_scores = np.empty_like(exact_scores)
            for j, y in enumerate(grid.values):
                coeffs = if_predictor(y, 0.0, res.base, direction)
                preds = res.base.problem.gram.entries @ coeffs
                approx_scores[j, :n] = np.abs(Y - preds[:n])
                approx_scores[j, n] = np.abs(y - preds[n])
        assert np.all(np.abs(exact_scores - approx_scores) <= taus + 1e-9), kind


# --- thickness ---

def _region(mask, grid):
    return PredictionRegion.from_mask(grid, mask, warn_clipped=False)


def test_thickness_gap_examples():
    grid = YGrid(0.0, 10.0, 101)  # step 0.1
    full = _region(np.ones(101, bool), grid)
    empty = _region(np.zeros(101, bool), grid)
    assert thickness_gap(full, full) == 0.0
    assert thickness_gap(full, empty) == pytest.approx(10.1)
    other = YGrid(0.0, 10.0, 51)
    with pytest.raises(ValueError, match="grid"):
        thickness_gap(full, _region(np.ones(51, bool), other))


def test_thickness_gap_brackets_regions_from_curves():
    X, Y, xq, _ = _instance(19, 15)
    grid = YGrid.from_targets(Y, m=101)
    res = approx_pvalue_curves(X, Y, xq, grid, ApproxMethod("local_stability"),
                               0.5, LOGCOSH, KERNEL)
    upper = region_from_curve(res.curve, 0.1, side="upper")
    lower = region_from_curve(res.curve, 0.1, side="lower")
    assert np.all(lower.mask <= upper.mask)
    gap = thickness_gap(upper, lower)
    assert gap == pytest.approx(upper.measure - lower.measure)


def test_thickness_bound_uniform_golden_value():
    bound = thickness_bound(ApproxMethod("uniform_stability"), UNIT_GRAM,
                            LOGCOSH_CONSTANTS, lam=0.1)
    assert bound.value == pytest.approx(8.0)
    assert bound.refined is None and bound.beta is None
    # sup_tau plays no role below the influence-function level
    also = thickness_bound(ApproxMethod("local_stability"), UNIT_GRAM,
                           LOGCOSH_CONSTANTS, lam=0.1, sup_tau=123.0)
    assert also.value == pytest.approx(8.0)


def test_thickness_bound_influence_function_branches():
    with pytest.raises(ValueError, match="supremum"):
        thickness_bound(ApproxMethod("influence_function"), UNIT_GRAM,
                        LOGCOSH_CONSTANTS, lam=1.0)
    refined = thickness_bound(ApproxMethod("influence_function"), UNIT_GRAM,
                              LOGCOSH_CONSTANTS, lam=1.0, sup_tau=0.2)
    assert refined.refined is True
    assert refined.beta == pytest.approx(0.1)
    assert refined.value == pytest.approx(12.0 / 0.9 * 0.2)
    crude = thickness_bound(ApproxMethod("influence_function"), UNIT_GRAM,
                            LOGCOSH_CONSTANTS, lam=0.01, sup_tau=0.2)
    assert crude.refined is False
    assert crude.beta == pytest.approx(10.0)
    assert crude.value == pytest.approx(8.0 * (0.2 + 10.0))
