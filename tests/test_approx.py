import itertools
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apxcp import approx, solver
from apxcp.approx import (APPROX_KINDS, DEFAULT_CHUNK, ApproxMethod,
                          TauProfile, _sandwich_masks, _ScanBlock, _SortedScan, approx_pvalue_curves,
                          approx_regions, base_fit, if_error_bound,
                          if_predictor, influence_direction,
                          influence_vector, rho1, rho2, rho_tilde1,
                          tau_profile, thickness_bound, thickness_gap)
from apxcp.conformal import (PredictionRegion, YGrid, _min_count,
                             _rank_pvalues, empirical_coverage, full_conformal_pvalues,
                             region_from_curve)
from apxcp.data_io import friedman1
from apxcp.kernels import GramMatrix, KernelSpec, pseudo_inverse_apply
from apxcp.losses import (LossSpec, SmoothnessConstants, loss_d,
                          smoothness_constants)
from apxcp.solver import (WeightedProblem, anchor_y_weights, anchor_z_weights,
                          augmented_problem, fit, hessian, rkhs_norm_diff)

from oracles import (conformal_pvalue, dense_sandwich_curves, laplacian_gram,
                     sandwich_pvalues)

KERNEL = KernelSpec("laplacian", 0.5)
ROOT = Path(__file__).resolve().parents[1]
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


@pytest.mark.parametrize("z_anchor", ["x", None, "0.5", True])
def test_method_rejects_a_non_real_anchor(z_anchor):
    # a string anchor used to fail inside np.isfinite with a ufunc TypeError
    message = re.escape(f"z_anchor must be a finite number, got {z_anchor!r}")
    with pytest.raises(ValueError, match=message):
        ApproxMethod("uniform_stability", z_anchor)


def test_method_accepts_a_numpy_float_anchor():
    assert ApproxMethod("local_stability", np.float32(0.5)).z_anchor == 0.5


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
    assert profile.rho2 is None


def test_tau1_below_tau0():
    base = _base(seed=4)
    gram = base.problem.gram
    ys = np.linspace(-30, 30, 101)
    r1 = rho1(ys, 0.0, base, LOGCOSH)
    t1 = _taus(1, gram, 0.5, ys.size, r1)
    t0 = _taus(0, gram, 0.5, ys.size)
    assert np.all(t1 <= t0 + 1e-12)


@pytest.mark.parametrize("family", ["laplacian", "gaussian_rbf"])
@pytest.mark.parametrize("loss", [LOGCOSH, LossSpec("pseudo_huber"),
                                  LossSpec("smoothed_pinball", a=0.5, t=0.3),
                                  LossSpec("squared")], ids=lambda loss: loss.family)
def test_every_reader_centres_on_the_fits_own_query_prediction(family, loss):
    # one prediction vector per fit: the query prediction is its last
    # entry, the derivative gap (rho1, the influence update) and the
    # scan's test scores are centred on it, and at full rank it is K a
    X, Y, xq, _ = friedman1(21, noise_sd=1.0, seed=3).split_query()
    base = base_fit(X, Y, xq, 1.5, 0.3, loss, KernelSpec(family, "auto"))
    preds = base.predictions()
    m_q = base.query_prediction()
    assert m_q == preds[-1]
    assert np.array_equal(preds, base.problem.gram.entries @ base.coeffs)
    ys = np.linspace(-20.0, 40.0, 31)
    np.testing.assert_array_equal(approx._derivative_gap(ys, 1.5, base, loss),
                                  loss_d(loss, 1, 1.5, m_q) - loss_d(loss, 1, ys, m_q))
    if loss.family != "squared":  # the squared loss has no envelope to scan
        scan = approx._ProblemScan(base, YGrid(-20.0, 40.0, 31), APPROX_KINDS).scan
        assert scan.test_pred == m_q
        np.testing.assert_array_equal(scan.test_scores(ys, 0.0), np.abs(ys - m_q))


# --- second-order radii ---

def test_rho_tilde1_golden_value():
    assert rho_tilde1(UNIT_GRAM, LOGCOSH_CONSTANTS, 1.0, 0.5) == pytest.approx(0.55)


def test_rho2_golden_value():
    rt = rho_tilde1(UNIT_GRAM, LOGCOSH_CONSTANTS, 1.0, 0.5)
    assert rho2(UNIT_GRAM, LOGCOSH_CONSTANTS, 1.0, rt) == pytest.approx(
        1.2512500000000002)


def test_rho2_pinned_on_a_fixed_gram_matrix():
    # the curvature constant mean_i K_ii^{3/2} is computed once per Gram
    # matrix (GramMatrix.diag_curvature) by the expression rho2 used to
    # evaluate on every call, so the radii stay bit-identical
    K = np.array([[0.5, 0.1, 0.0, 0.2], [0.1, 1.0, 0.3, 0.0],
                  [0.0, 0.3, 2.0, 0.4], [0.2, 0.0, 0.4, 1.5]])
    gram = GramMatrix(K)
    assert gram.diag_curvature == float(np.mean(np.diag(K) ** 1.5))
    rt = np.array([0.0, 0.25, 3.0])
    expected = {LossSpec("logcosh"): [0.0, 0.2825926499095434, 10.993341586974257],
                LossSpec("pseudo_huber", a=2.0): [0.0, 0.24972596739880054,
                                                  6.260539305427281]}
    for loss, values in expected.items():
        got = rho2(gram, smoothness_constants(loss), 0.3, rt)
        assert got.tolist() == values, loss


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
    np.testing.assert_array_equal(profile.rho2, rho2(gram, LOGCOSH_CONSTANTS, 0.5, rt))
    np.testing.assert_array_equal(if_error_bound(gram, LOGCOSH_CONSTANTS, 0.5, r1),
                                  np.sqrt(gram.diagonal[-1]) * profile.radial)


# --- influence function ---

def test_influence_direction_solves_hessian_system():
    base = _base(seed=6, n=12)
    direction = influence_direction(base)
    H = hessian(base.problem, base.coeffs)
    np.testing.assert_allclose(H @ direction, base.problem.gram.entries[:, -1],
                               atol=1e-8)


@pytest.mark.parametrize("family", ["laplacian", "gaussian_rbf"])
@pytest.mark.parametrize("loss", [LOGCOSH, LossSpec("pseudo_huber"),
                                  LossSpec("smoothed_pinball", a=0.5, t=0.3)],
                         ids=lambda loss: loss.family)
def test_influence_direction_agrees_with_hessian_pseudo_inverse(family, loss):
    kernel = KernelSpec(family, "auto")
    for n, seed in ((12, 0), (100, 1)):
        X, Y, xq, _ = friedman1(n + 1, noise_sd=1.0, seed=seed).split_query()
        for lam in (1e-4, 1e-2, 1.0, 10.0):
            base = base_fit(X, Y, xq, 1.5, lam, loss, kernel)
            K = base.problem.gram.entries
            direction = influence_direction(base)
            old = pseudo_inverse_apply(hessian(base.problem, base.coeffs), K[:, -1])
            rel = np.linalg.norm(K @ (direction - old)) / np.linalg.norm(K @ old)
            # at lam = 1e-4 on the gaussian kernel the eigh pseudo-inverse
            # itself leaves a residual up to 3e-8 in the system below,
            # against 2e-13 for the prediction-space solve
            assert rel <= (1e-10 if lam >= 1e-2 else 1e-9)
            # (diag(d) K/(n+1) + 2 lam I) x = e_q, the system H x = K e_q
            # with the common factor K taken off
            d = loss_d(loss, 2, np.append(Y, 1.5), K @ base.coeffs)
            system = d[:, None] * K / (n + 1) + 2.0 * lam * np.eye(n + 1)
            assert np.linalg.norm(system @ direction - np.eye(n + 1)[-1]) <= 1e-11


# the sweep --desk base fit at n = 190 and its influence direction
_DESK_DIRECTION = """
from apxcp.approx import base_fit, influence_direction
from apxcp.cli import ExperimentConfig
from apxcp.data_io import friedman1
cfg = ExperimentConfig()
X, Y, xq, _ = friedman1(191, 0.0, seed=(2, 190, 0)).split_query()
direction = influence_direction(base_fit(X, Y, xq, cfg.z_anchor, cfg.lambda_for(191),
                                         cfg.loss, cfg.kernel))
"""


def test_influence_direction_independent_of_blas_threads():
    # an LU solve of the Newton matrix varied by ulps with the BLAS thread
    # count at this size; the conjugate-gradient solve must not
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    one_thread = subprocess.run(
        [sys.executable, "-c", _DESK_DIRECTION + "print(direction.tobytes().hex())"],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    here = {}
    exec(_DESK_DIRECTION, here)
    assert here["direction"].size == 191
    assert one_thread == here["direction"].tobytes().hex()


def test_only_fit_reads_the_gram_spectrum(monkeypatch):
    # once the base fit is made, neither the influence direction nor a
    # level-2 region scan reads the Gram eigendecomposition or projects
    # onto its range: fit is the spectrum's only reader
    X, Y, xq, _ = _instance(41, 12)
    base = base_fit(X, Y, xq, 0.0, 0.5, LOGCOSH, KERNEL)

    def forbidden(*args, **kwargs):
        raise AssertionError("the Gram spectrum is read outside fit")

    monkeypatch.setattr(GramMatrix, "project_onto_range", forbidden)
    monkeypatch.setattr(GramMatrix, "eigenpairs", property(forbidden))
    assert influence_direction(base).shape == (Y.size + 1,)
    [result] = approx_regions(base, YGrid.from_targets(Y, m=51),
                              ["influence_function"], 0.1)
    assert result.upper.mask.any()


def test_influence_vector_zero_derivative():
    base = _base(seed=7)
    m_q = base.query_prediction()
    # logcosh first derivative vanishes exactly at the query prediction
    np.testing.assert_array_equal(influence_vector(m_q, base, influence_direction(base)),
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
    np.testing.assert_allclose(influence_vector(z_prime, base, influence_direction(base)),
                               expected,
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


@pytest.mark.parametrize("level", [5, -1, 3, "local_stability", 1.0, True])
def test_tau_profile_accepts_only_the_levels_0_1_and_2(level):
    # every other level used to fall through to the influence-function
    # envelope
    with pytest.raises(ValueError, match="level must be"):
        tau_profile(level, UNIT_GRAM, LOGCOSH_CONSTANTS, 0.1, 2, np.array([0.5, 0.2]))


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("rho1_val", [np.array([0.5, 0.2]), None, np.full((3, 1), 0.5)],
                         ids=["two radii", "none", "a column"])
def test_tau_profile_needs_m_local_radii(level, rho1_val):
    # m = 3 with two radii used to return a two-point profile
    with pytest.raises(ValueError, match="rho1_val must have length 3"):
        tau_profile(level, UNIT_GRAM, LOGCOSH_CONSTANTS, 0.1, 3, rho1_val)


@pytest.mark.parametrize("m", [0, -2, 2.0])
def test_tau_profile_checks_m(m):
    with pytest.raises(ValueError, match="m must be"):
        tau_profile(0, UNIT_GRAM, LOGCOSH_CONSTANTS, 0.1, m)


@pytest.mark.parametrize("lam, message", [(-1.0, "lam must be positive"),
                                          (0.0, "lam must be positive"),
                                          (np.nan, "lam must be a finite number")])
def test_envelope_builders_name_a_bad_lam(lam, message):
    # a bad lam used to fail as "tau factors must be nonnegative" or "finite"
    r1 = np.array([0.5, 0.2])
    for level in (0, 1, 2):
        with pytest.raises(ValueError, match=message):
            tau_profile(level, UNIT_GRAM, LOGCOSH_CONSTANTS, lam, 2, r1)
    with pytest.raises(ValueError, match=message):
        if_error_bound(UNIT_GRAM, LOGCOSH_CONSTANTS, lam, r1)


def test_if_error_bound_keeps_the_shape_of_its_radii():
    r1 = np.array([[0.5, 0.2], [0.0, 0.1]])
    bound = if_error_bound(UNIT_GRAM, LOGCOSH_CONSTANTS, 0.5, r1)
    assert bound.shape == (2, 2)
    np.testing.assert_array_equal(bound.ravel(),
                                  if_error_bound(UNIT_GRAM, LOGCOSH_CONSTANTS, 0.5, r1.ravel()))
    assert np.ndim(if_error_bound(UNIT_GRAM, LOGCOSH_CONSTANTS, 0.5, 0.5)) == 0


@pytest.mark.parametrize("direction, message", [
    (np.ones(3), re.escape("direction must have length 16, got shape (3,)")),
    (np.ones((16, 1)), re.escape("direction must have length 16, got shape (16, 1)")),
    (np.r_[np.ones(15), np.nan], "direction must be finite"),
    (np.r_[np.ones(15), np.inf], "direction must be finite"),
], ids=["three entries", "a column", "nan", "inf"])
def test_influence_helpers_check_the_direction(direction, message):
    # a 3-entry direction at n + 1 = 16 used to give a 3-vector from
    # influence_vector and fail inside numpy broadcasting in if_predictor
    base = _base(seed=12)
    with pytest.raises(ValueError, match=message):
        influence_vector(1.0, base, direction)
    with pytest.raises(ValueError, match=message):
        if_predictor(1.0, 0.0, base, direction)


@pytest.mark.parametrize("bad", [np.nan, np.inf, "1.0", None])
def test_influence_helpers_and_rho1_name_a_bad_output(bad):
    # a NaN output used to give NaN coefficients or radii
    base = _base(seed=12)
    direction = influence_direction(base)
    with pytest.raises(ValueError, match="z_prime must be a finite number"):
        influence_vector(bad, base, direction)
    with pytest.raises(ValueError, match="y must be a finite number"):
        if_predictor(bad, 0.0, base, direction)
    with pytest.raises(ValueError, match="z must be a finite number"):
        if_predictor(1.0, bad, base, direction)
    with pytest.raises(ValueError, match="z must be a finite number"):
        rho1(np.linspace(-1.0, 1.0, 5), bad, base, LOGCOSH)


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
    m_q = res.base.query_prediction()
    k_dir = res.base.problem.gram.entries @ influence_direction(res.base)
    shift = (loss_d(LOGCOSH, 1, 0.0, m_q)
             - loss_d(LOGCOSH, 1, grid.values, m_q)) / (n + 1)
    return k_dir, shift


def _block(scan, ys, shift, radial):
    """The scan block of grid values ys shifted by shift."""
    return _ScanBlock(scan, scan.test_scores(ys, shift), radial, shift)


def _scan_blocks(Y, preds, k_dir, shift, radial, scale, ys, chunk, reduce):
    """Upper and lower results of reduce over the sorted scan's blocks of
    chunk grid points, from whole-grid shifts and radii."""
    scan = _SortedScan(Y, preds, k_dir, scale)
    sides = []
    for start in range(0, ys.size, chunk):
        sl = slice(start, start + chunk)
        sides.append(reduce(_block(scan, ys[sl], shift[sl], radial[sl])))
    return tuple(np.concatenate(side) for side in zip(*sides))


def _block_pvalues(block):
    """Upper and lower rank p-values of one block's counts, each grid
    point counted within its bracket, as _ProblemScan.pvalues counts."""
    pvalues = []
    for offsets, thresholds in block.sides:
        lo, hi = block.bracket(offsets, thresholds)
        counts = block.counts(slice(None), lo, hi, offsets, thresholds)
        pvalues.append(_rank_pvalues(counts, block.scan.n))
    return tuple(pvalues)


def _order_statistic(scan, c_star):
    """The base score of sorted index n - c_star, inf when c_star is 0."""
    return scan.sorted_scores[scan.n - c_star] if c_star else np.inf


def _scan_curves(Y, preds, k_dir, shift, radial, scale, ys, chunk):
    """Upper and lower p-values of the sorted scan in blocks of chunk."""
    return _scan_blocks(Y, preds, k_dir, shift, radial, scale, ys, chunk,
                        _block_pvalues)


def _scan_masks(Y, preds, k_dir, shift, radial, scale, ys, c_star, chunk):
    """Upper and lower masks of the sorted scan in blocks of chunk."""
    return _scan_blocks(Y, preds, k_dir, shift, radial, scale, ys, chunk,
                        lambda block: _sandwich_masks(
                            block, _order_statistic(block.scan, c_star), c_star))


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
            upper, lower = _scan_curves(Y, res.base.predictions(), k_dir, shift,
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
    got_upper, got_lower = _scan_curves(Y, preds, k_dir, shift, radial, scale,
                                        ys, chunk)
    np.testing.assert_array_equal(got_upper, upper)
    np.testing.assert_array_equal(got_lower, lower)


# alphas giving c* = 0 (below the least rank p-value), c* = 1 (on it, a
# tie), c* = n (on the second largest) and alpha = 0.999
_ALPHAS = {"c*=0": lambda n: 0.5 / (n + 1), "c*=1": lambda n: 1.0 / (n + 1),
           "c*=n": lambda n: n / (n + 1.0), "0.999": lambda n: 0.999}


@settings(max_examples=300, deadline=None)
@given(_scan_inputs(), st.one_of(st.sampled_from(sorted(_ALPHAS)),
                                 st.floats(0.01, 0.99)),
       st.sampled_from([1, 7, DEFAULT_CHUNK]))
@example((np.array([0.1]), np.zeros(2), None, None, np.array([0.2]),
          np.array([1.0, 0.0]), np.array([0.1 + 0.2])), "c*=1", 1)
def test_order_statistic_masks_match_counted_curves(inputs, alpha, chunk):
    Y, preds, k_dir, shift, radial, scale, ys = inputs
    n = Y.size
    if isinstance(alpha, str):
        alpha = _ALPHAS[alpha](n)
    c_star = _min_count(n, alpha)
    dense = dense_sandwich_curves(Y, preds, radial, scale, ys, k_dir, shift)
    if k_dir is None:  # levels 0 and 1 are the zero shift
        k_dir, shift = np.zeros(n + 1), np.zeros(ys.size)
    counted = _scan_curves(Y, preds, k_dir, shift, radial, scale, ys, chunk)
    masks = _scan_masks(Y, preds, k_dir, shift, radial, scale, ys, c_star, chunk)
    for mask, pvals, dense_pvals in zip(masks, counted, dense):
        counts = np.rint(pvals * (n + 1)) - 1
        np.testing.assert_array_equal(mask, counts >= c_star)
        np.testing.assert_array_equal(mask, dense_pvals > alpha)


def _assert_settled_as_exact(Y, preds, k_dir, scale, ys, shift, radial, alpha):
    """settle, from the extremes of radial and shift over the sorted grid
    values ys, with the exact verdict filled into its band, gives the
    exact comparison's masks, and those are the dense oracle's curves
    thresholded at alpha."""
    scan = _SortedScan(Y, preds, k_dir, scale)
    c_star = _min_count(Y.size, alpha)
    s = _order_statistic(scan, c_star)
    exact = _sandwich_masks(_block(scan, ys, shift, radial), s, c_star)
    dense = dense_sandwich_curves(Y, preds, radial, scale, ys, k_dir, shift)
    settled = (np.zeros(ys.size, bool), np.zeros(ys.size, bool))
    band = scan.settle(ys, s, np.min(radial), np.max(radial),
                       np.max(np.abs(shift)), settled)
    if band is not None:
        assert np.all(np.diff(band) > 0) and 0 <= band[0] and band[-1] < ys.size
    for mask, want, pvalues in zip(settled, exact, dense):
        np.testing.assert_array_equal(want, pvalues > alpha)
        if band is not None:
            mask[band] = want[band]
        np.testing.assert_array_equal(mask, want)


@settings(max_examples=300, deadline=None)
@given(_scan_inputs(), st.one_of(st.sampled_from(sorted(_ALPHAS)),
                                 st.floats(0.01, 0.99)))
@example((np.array([0.1]), np.zeros(2), None, None, np.array([0.2]),
          np.array([1.0, 0.0]), np.array([0.1 + 0.2])), "c*=1")
def test_settle_decides_only_what_the_exact_comparison_does(inputs, alpha):
    Y, preds, k_dir, shift, radial, scale, ys = inputs
    n = Y.size
    if isinstance(alpha, str):
        alpha = _ALPHAS[alpha](n)
    if k_dir is None:  # levels 0 and 1 are the zero shift
        k_dir, shift = np.zeros(n + 1), np.zeros(ys.size)
    order = np.argsort(ys, kind="stable")
    _assert_settled_as_exact(Y, preds, k_dir, scale, ys[order], shift[order],
                             radial[order], alpha)


def test_settle_leaves_grid_points_ulps_from_a_threshold_to_the_band():
    # grid values within 3 ulps of p +- (s +- tau): where rounding decides
    # the comparison, only the exact comparison may; a settle without its
    # rounding slack got some of them wrong in almost every trial. The
    # shift is zero, so the exact comparison is _sandwich_masks' one
    # comparison with s per grid point, checked against the dense oracle
    rng = np.random.default_rng(47)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        Y, preds = rng.uniform(-10, 10, n), rng.uniform(-10, 10, n + 1)
        scale = np.full(n + 1, rng.choice([0.3, 0.7, 1.3]))
        scale[n] = rng.choice([0.3, 0.7, 1.1])
        scan = _SortedScan(Y, preds, np.zeros(n + 1), scale)
        radius, c_star = rng.uniform(0.0, 3.0), int(rng.integers(1, n + 1))
        s, p = scan.sorted_scores[n - c_star], preds[n]
        edges = [p + sign * (s + side * radius * (scale[0] + scale[n]))
                 for sign in (-1.0, 1.0) for side in (-1.0, 1.0)]
        ys = np.unique([edge + k * np.spacing(edge) for edge in edges
                        for k in range(-3, 4)])
        alpha = (c_star + 0.5) / (n + 1)  # between the p-values of c* - 1 and c*
        assert _min_count(n, alpha) == c_star
        _assert_settled_as_exact(Y, preds, np.zeros(n + 1), scale, ys, np.zeros(ys.size),
                                 np.full(ys.size, radius), alpha)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(4, 14), m=st.integers(2, 80),
       log_lam=st.floats(-6.0, 2.0), kind=st.sampled_from(APPROX_KINDS),
       family=st.sampled_from(["laplacian", "gaussian_rbf"]),
       ties=st.booleans())
# fits that need hundreds of damped Newton steps at the smallest lam
# (371, 166 and 480 of them)
@example(seed=69, n=14, m=2, log_lam=-6.0, kind="uniform_stability",
         family="gaussian_rbf", ties=False)
@example(seed=2, n=14, m=2, log_lam=-5.560546875, kind="uniform_stability",
         family="gaussian_rbf", ties=False)
@example(seed=5593, n=14, m=2, log_lam=-5.78125, kind="uniform_stability",
         family="laplacian", ties=False)
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


# every non-empty subset of the levels, in every order
_METHOD_ORDERS = [order for size in (1, 2, 3)
                  for order in itertools.permutations(APPROX_KINDS, size)]


def _assert_same_region(got: PredictionRegion, want: PredictionRegion, label):
    np.testing.assert_array_equal(got.mask, want.mask)
    assert got.intervals == want.intervals, label
    assert got.measure == want.measure, label


def _assert_joint_regions_match(base, grid, alpha, single):
    """approx_regions over every order of every subset of the levels
    returns, per level, the single-level result single[kind]."""
    for order in _METHOD_ORDERS:
        joint = approx_regions(base, grid, order, alpha)
        assert len(joint) == len(order)
        for kind, res in zip(order, joint):
            assert res.sup_tau == single[kind].sup_tau, (order, kind)
            for side in ("upper", "lower"):
                _assert_same_region(getattr(res, side), getattr(single[kind], side),
                                    (order, kind, side))


@pytest.mark.parametrize("family", ["laplacian", "gaussian_rbf"])
@pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0, 10.0])
def test_regions_match_thresholded_curves(family, lam):
    kernel = KernelSpec(family, 0.5)
    for seed, n, alpha in ((30, 25, 0.1), (31, 40, 0.3), (32, 12, 0.999)):
        X, Y, xq, _ = _instance(seed, n)
        grid = YGrid.from_targets(Y, m=301)
        base = base_fit(X, Y, xq, 0.0, lam, LOGCOSH, kernel)
        single = {}
        for kind in APPROX_KINDS:
            method = ApproxMethod(kind)
            [res] = approx_regions(base, grid, [kind], alpha)
            curves = approx_pvalue_curves(X, Y, xq, grid, method, lam,
                                          LOGCOSH, kernel, base=base)
            assert res.sup_tau == curves.taus.sup_tau()
            for side in ("upper", "lower"):
                _assert_same_region(getattr(res, side),
                                    region_from_curve(curves.curve, alpha, side),
                                    (seed, kind, side))
            single[kind] = res
        _assert_joint_regions_match(base, grid, alpha, single)


def test_regions_report_clipping_as_data_without_a_warning():
    # a narrow grid clips both sides; whether a region is clipped is read
    # from the region, and neither the scan nor a read of a region warns
    X, Y, xq, _ = _instance(33, 10)
    base = base_fit(X, Y, xq, 0.0, 0.5, LOGCOSH, KERNEL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [result] = approx_regions(base, YGrid(-1.0, 1.0, 5),
                                  ["uniform_stability"], 0.1)
        assert result.upper.clipped and result.lower.clipped
        [result] = approx_regions(base, YGrid.from_targets(Y, m=51, margin=2.0),
                                  ["uniform_stability"], 0.4)
        assert not result.upper.clipped and not result.lower.clipped


def test_regions_are_built_once_and_only_when_read(monkeypatch):
    X, Y, xq, _ = _instance(33, 10)
    base = base_fit(X, Y, xq, 0.0, 0.5, LOGCOSH, KERNEL)
    built = []
    real = PredictionRegion.from_mask.__func__

    def counted(cls, grid, mask):
        built.append(mask)
        return real(cls, grid, mask)

    monkeypatch.setattr(PredictionRegion, "from_mask", classmethod(counted))
    results = approx_regions(base, YGrid.from_targets(Y, m=51),
                             APPROX_KINDS, 0.1)
    assert not built
    for res in results:
        assert res.upper is res.upper
    assert len(built) == 3
    results[0].lower
    assert len(built) == 4


@pytest.mark.parametrize("kinds, error, message", [
    ("local_stability", TypeError, "sequence of level names"),
    ([], ValueError, "at least one"),
    (["local_stability", "jackknife"], ValueError, "unknown approximation kind 'jackknife'"),
    ([ApproxMethod("local_stability")], ValueError, "unknown approximation kind"),
])
def test_regions_reject_bad_kinds(kinds, error, message):
    X, Y, xq, _ = _instance(36, 10)
    base = base_fit(X, Y, xq, 0.0, 0.5, LOGCOSH, KERNEL)
    with pytest.raises(error, match=message):
        approx_regions(base, YGrid.from_targets(Y, m=21), kinds, 0.1)


def test_thickness_bound_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown approximation kind 'jackknife'"):
        thickness_bound("jackknife", UNIT_GRAM, LOGCOSH_CONSTANTS, lam=0.1)


@pytest.mark.parametrize("kind", APPROX_KINDS)
@pytest.mark.parametrize("bad, message", [(np.nan, "finite"), (np.inf, "finite"),
                                          (-1.0, "nonnegative")])
def test_regions_reject_a_bad_envelope_in_any_block(monkeypatch, kind, bad, message):
    # a radius is checked per level in every block: here only the radii
    # of the second block are bad, at their last entry (the block's
    # largest radius where the regions take two extremes per block)
    X, Y, xq, _ = _instance(37, 10)
    base = base_fit(X, Y, xq, 0.0, 0.5, LOGCOSH, KERNEL)
    grid = YGrid.from_targets(Y, m=DEFAULT_CHUNK + 5)
    real, real_blocks = approx._level_radial, approx._ProblemScan._blocks
    block = []

    def blocks(self):
        for index, item in enumerate(real_blocks(self)):
            block[:] = [index]
            yield item

    def poisoned(level, *args):
        radial, r2 = real(level, *args)
        if level == ApproxMethod(kind).level and block == [1]:
            radial = np.array(radial, dtype=float)
            radial.flat[-1] = bad
        return radial, r2

    monkeypatch.setattr(approx._ProblemScan, "_blocks", blocks)
    monkeypatch.setattr(approx, "_level_radial", poisoned)
    with pytest.raises(ValueError, match=f"tau factors must be {message}"):
        approx_regions(base, grid, APPROX_KINDS, 0.1)
    assert block == [1]
    block.clear()
    with pytest.raises(ValueError, match=f"tau factors must be {message}"):
        approx_pvalue_curves(X, Y, xq, grid, ApproxMethod(kind), 0.5, LOGCOSH,
                             KERNEL, base=base)
    assert block == [1]


def test_one_joint_scan_shares_the_per_problem_and_per_block_work(monkeypatch):
    # one influence direction and one sort per call, and per block one
    # derivative gap (levels 1 and 2), for the three levels together;
    # test scores only at the few grid points the band leaves open
    X, Y, xq, _ = _instance(38, 12)
    base = base_fit(X, Y, xq, 0.0, 0.5, LOGCOSH, KERNEL)
    grid = YGrid.from_targets(Y, m=2 * DEFAULT_CHUNK + 3)  # three blocks
    calls = {"influence": 0, "sort": 0, "gap": 0, "test_scores": 0}
    scored = []

    def counter(name, func):
        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return counted

    def test_scores(self, ys, shift):
        scored.append(ys.size)
        return real_test_scores(self, ys, shift)

    real_test_scores = _SortedScan.test_scores
    monkeypatch.setattr(approx, "influence_direction",
                        counter("influence", approx.influence_direction))
    monkeypatch.setattr(approx, "_derivative_gap", counter("gap", approx._derivative_gap))
    monkeypatch.setattr(_SortedScan, "test_scores",
                        counter("test_scores", test_scores))
    monkeypatch.setattr(approx, "_SortedScan", counter("sort", _SortedScan))
    approx_regions(base, grid, APPROX_KINDS, 0.1)
    assert {k: calls[k] for k in ("influence", "sort", "gap")} == {
        "influence": 1, "sort": 1, "gap": 3}
    # a full scan scored every grid point twice (zero shift, level-2 shift)
    assert calls["test_scores"] <= 9 and sum(scored) < 0.05 * grid.m
    calls.update(dict.fromkeys(calls, 0))
    approx_regions(base, grid, ["uniform_stability", "local_stability"], 0.1)
    assert {k: calls[k] for k in ("influence", "sort", "gap")} == {
        "influence": 0, "sort": 1, "gap": 3}


def _assert_same_envelope(got: TauProfile, want: TauProfile):
    for name in ("scale", "radial", "rho1", "rho2"):
        got_arr, want_arr = getattr(got, name), getattr(want, name)
        assert (got_arr is None) == (want_arr is None), name
        if want_arr is not None:
            np.testing.assert_array_equal(got_arr, want_arr)


@pytest.mark.parametrize("m", [DEFAULT_CHUNK - 1, DEFAULT_CHUNK,
                               DEFAULT_CHUNK + 1, 2 * DEFAULT_CHUNK + 3])
def test_blocks_are_invisible_at_block_boundaries(m):
    B = DEFAULT_CHUNK
    X, Y, xq, _ = _instance(40, 12)
    n, lam = Y.size, 0.05
    base = base_fit(X, Y, xq, 0.0, lam, LOGCOSH, KERNEL)
    alphas = {0: 0.5 / (n + 1), 1: 1.0 / (n + 1), n: n / (n + 1.0)}  # by c*
    # a grid step that puts the upper end of the level-2 upper region for
    # c* = 1 between grid points B - 1 and B
    coarse = YGrid.from_targets(Y, m=2001)
    [edge] = approx_regions(base, coarse, ["influence_function"],
                            alphas[1])
    edge = edge.upper.intervals[0][1]
    step = (coarse.hi - coarse.lo) / (2 * B + 2)
    lo = edge - (B - 0.5) * step
    grid = YGrid(lo, lo + (m - 1) * step, m)
    single = {alpha: {} for alpha in alphas.values()}
    for kind in APPROX_KINDS:
        method = ApproxMethod(kind)
        res = approx_pvalue_curves(X, Y, xq, grid, method, lam, LOGCOSH,
                                   KERNEL, base=base)
        # the envelope and the scan of the whole grid at once
        want = tau_profile(method.level, base.problem.gram, LOGCOSH_CONSTANTS,
                           lam, m, None if method.level == 0
                           else rho1(grid.values, 0.0, base, LOGCOSH))
        _assert_same_envelope(res.taus, want)
        k_dir, shift = _scan_shift(res, kind, grid)
        dense = dense_sandwich_curves(Y, base.predictions(), want.radial,
                                      want.scale, grid.values, k_dir, shift)
        np.testing.assert_array_equal(res.curve.upper, dense[0])
        np.testing.assert_array_equal(res.curve.lower, dense[1])
        for c_star, alpha in alphas.items():
            assert _min_count(n, alpha) == c_star
            [regions] = approx_regions(base, grid, [kind], alpha)
            single[alpha][kind] = regions
            assert regions.sup_tau == want.sup_tau()
            for side, pvals in zip(("upper", "lower"), dense):
                mask = getattr(regions, side).mask
                np.testing.assert_array_equal(mask, pvals > alpha)
                np.testing.assert_array_equal(
                    mask, region_from_curve(res.curve, alpha, side).mask)
        if kind == "influence_function" and m > B:
            # the shift leaves the upper side undecided for c* = 1 on
            # both sides of the boundary, so both blocks count exactly
            scan = _SortedScan(Y, base.predictions(), k_dir, want.scale)
            block = _block(scan, grid.values, shift, want.radial)
            lo, hi = block.bracket(*block.sides[0])
            s = scan.sorted_scores[n - 1]
            assert lo[B - 1] <= s <= hi[B - 1] and lo[B] <= s <= hi[B]
    for alpha, results in single.items():
        _assert_joint_regions_match(base, grid, alpha, results)


@pytest.mark.parametrize("kind", APPROX_KINDS)
def test_region_scan_holds_blocks_not_grids(kind):
    # over 100 000 grid points, grid-length temporaries took 7 MB beyond
    # the result; blocks of DEFAULT_CHUNK points take well under 1 MB.
    # The result holds the two masks (0.1 MB each) and no envelope, which
    # took 0.8 MB per radius kept
    X, Y, xq, _ = _instance(35, 120)
    grid = YGrid.from_targets(Y, m=100_000)
    grid.values  # cached by the grid, before the measurement
    base = base_fit(X, Y, xq, 0.0, 0.5, LOGCOSH, KERNEL)
    tracemalloc.start()
    try:
        [result] = approx_regions(base, grid, [kind], 0.1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.upper.mask.size == grid.m
    assert retained < 0.5e6, retained / 1e6
    assert peak - retained < 1e6, (peak - retained) / 1e6


# --- band-only region scan: far grid points settled from block extremes ---

SMOOTH_LOSSES = [LOGCOSH, LossSpec("pseudo_huber"),
                 LossSpec("smoothed_pinball", a=0.5, t=0.3)]


def _band_alphas(n):
    """An alpha for c* = 0, c* = 1, c* = n and a middle one."""
    return [0.5 / (n + 1), 1.0 / (n + 1), n / (n + 1.0), 0.1]


def _assert_band_scan_matches_curves(X, Y, xq, grid, lam, loss, kernel, z=0.0):
    """approx_regions of all three levels equals region_from_curve of each
    level's approx_pvalue_curves, mask for mask, with the same sup_tau,
    at every alpha of _band_alphas."""
    base = base_fit(X, Y, xq, z, lam, loss, kernel)
    curves = [approx_pvalue_curves(X, Y, xq, grid, ApproxMethod(kind, z), lam,
                                   loss, kernel, base=base) for kind in APPROX_KINDS]
    for alpha in _band_alphas(Y.size):
        results = approx_regions(base, grid, APPROX_KINDS, alpha)
        for kind, res, cur in zip(APPROX_KINDS, results, curves):
            assert res.sup_tau == cur.taus.sup_tau(), (kind, alpha)
            for side in ("upper", "lower"):
                np.testing.assert_array_equal(
                    getattr(res, side).mask,
                    region_from_curve(cur.curve, alpha, side).mask,
                    err_msg=f"{kind} {side} alpha={alpha}")
    return base


@pytest.mark.parametrize("family", ["laplacian", "gaussian_rbf"])
@pytest.mark.parametrize("loss", SMOOTH_LOSSES, ids=lambda loss: loss.family)
@pytest.mark.parametrize("lam", [1e-4, 1e-2, 0.43, 10.0])
def test_band_scan_matches_thresholded_curves(family, loss, lam):
    # four blocks, the last of 7 points
    X, Y, xq, _ = _instance(41, 30)
    grid = YGrid.from_targets(Y, m=3 * DEFAULT_CHUNK + 7)
    _assert_band_scan_matches_curves(X, Y, xq, grid, lam, loss,
                                     KernelSpec(family, 0.5))


@pytest.mark.parametrize("loss", SMOOTH_LOSSES, ids=lambda loss: loss.family)
def test_band_scan_matches_curves_where_regions_are_informative(loss):
    # noise_sd 1 and lam 0.01: a thick sandwich and regions inside the grid
    for seed in (42, 43):
        X, Y, xq, _ = friedman1(61, noise_sd=1.0, seed=seed).split_query()
        grid = YGrid.from_targets(Y, m=3 * DEFAULT_CHUNK + 7, margin=1.0)
        _assert_band_scan_matches_curves(X, Y, xq, grid, 0.01, loss, KERNEL, z=1.5)


@pytest.mark.parametrize("noise_sd, lam", [(0.1, 0.43), (1.0, 0.01)])
def test_band_scan_matches_curves_on_a_sweep_sized_grid(noise_sd, lam):
    X, Y, xq, _ = friedman1(101, noise_sd=noise_sd, seed=44).split_query()
    grid = YGrid.from_targets(Y, m=100_000)
    _assert_band_scan_matches_curves(X, Y, xq, grid, lam, LOGCOSH, KERNEL)


@pytest.mark.parametrize("where", ["above", "below"])
def test_band_scan_with_the_test_prediction_outside_the_grid(where):
    X, Y, xq, _ = _instance(45, 20)
    base = base_fit(X, Y, xq, 0.0, 0.05, LOGCOSH, KERNEL)
    p = base.query_prediction()
    lo, hi = (p + 0.5, p + 30.0) if where == "above" else (p - 30.0, p - 0.5)
    grid = YGrid(lo, hi, 2 * DEFAULT_CHUNK + 11)
    _assert_band_scan_matches_curves(X, Y, xq, grid, 0.05, LOGCOSH, KERNEL)


def test_band_scan_compares_exactly_across_a_block_boundary(monkeypatch):
    # the grid of test_blocks_are_invisible_at_block_boundaries puts the
    # upper end of the level-2 upper region for c* = 1 between grid points
    # B - 1 and B: the band of each block reaches the boundary
    B = DEFAULT_CHUNK
    X, Y, xq, _ = _instance(40, 12)
    n, lam = Y.size, 0.05
    base = base_fit(X, Y, xq, 0.0, lam, LOGCOSH, KERNEL)
    coarse = YGrid.from_targets(Y, m=2001)
    [edge] = approx_regions(base, coarse, ["influence_function"], 1.0 / (n + 1))
    step = (coarse.hi - coarse.lo) / (2 * B + 2)
    lo = edge.upper.intervals[0][1] - (B - 0.5) * step
    grid = YGrid(lo, lo + (2 * B + 2) * step, 2 * B + 3)
    compared = []
    real = approx._ProblemScan._block

    def block(self, level, ys, gap):
        compared.append((level, ys))
        return real(self, level, ys, gap)

    monkeypatch.setattr(approx._ProblemScan, "_block", block)
    approx_regions(base, grid, ["influence_function"], 1.0 / (n + 1))
    [(_, first), (_, second)] = [(level, ys) for level, ys in compared if level == 2]
    assert grid.values[B - 1] in first and grid.values[B] in second
    assert first.size < B and second.size < B
    monkeypatch.undo()
    _assert_band_scan_matches_curves(X, Y, xq, grid, lam, LOGCOSH, KERNEL)


def test_band_scan_compares_under_two_percent_of_a_sweep_grid(monkeypatch):
    # the sweep-scan workload's problems (n 100 to 133, default noise, lam
    # rule, loss and kernel, 100 000 grid points): a fallback to comparing
    # every grid point exactly would see 100%
    from apxcp.cli import ExperimentConfig

    cfg = ExperimentConfig()
    compared = []
    real = approx._sandwich_masks

    def exact(block, s, c_star):
        compared.append(block.sides[0][1].size)
        return real(block, s, c_star)

    monkeypatch.setattr(approx, "_sandwich_masks", exact)
    for n in (100, 110, 121, 133):
        X, Y, xq, _ = friedman1(n + 1, cfg.noise_sd, seed=(1, n, 0)).split_query()
        grid = cfg.grid_for(Y, m=100_000)
        base = base_fit(X, Y, xq, cfg.z_anchor, cfg.lambda_for(n + 1), cfg.loss,
                        cfg.kernel)
        for kind in APPROX_KINDS:
            compared.clear()
            approx_regions(base, grid, [kind], cfg.alpha)
            assert sum(compared) < 0.02 * grid.m, (n, kind, sum(compared))


def test_curves_evaluate_the_derivative_gap_once_per_grid_point(monkeypatch):
    # the scan hands its local radii to the printed envelope, which equals
    # the envelope built from a second pass over the grid
    X, Y, xq, _ = _instance(46, 20)
    grid = YGrid.from_targets(Y, m=512)
    base = base_fit(X, Y, xq, 0.0, 0.5, LOGCOSH, KERNEL)
    sizes = []
    real = approx.loss_d

    def spy(loss, order, y, u):
        if order == 1:  # the gap's; the influence direction takes order 2
            sizes.append(np.size(y))
        return real(loss, order, y, u)

    for kind in ("local_stability", "influence_function"):
        sizes.clear()
        # the gap lives in solver, which approx imports it from
        monkeypatch.setattr(approx, "loss_d", spy)
        monkeypatch.setattr(solver, "loss_d", spy)
        res = approx_pvalue_curves(X, Y, xq, grid, ApproxMethod(kind), 0.5,
                                   LOGCOSH, KERNEL, base=base)
        monkeypatch.undo()
        assert sizes == [1, grid.m], kind
        level = ApproxMethod(kind).level
        _assert_same_envelope(res.taus, tau_profile(
            level, base.problem.gram, LOGCOSH_CONSTANTS, 0.5, grid.m,
            rho1(grid.values, 0.0, base, LOGCOSH)))


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, np.nan])
def test_regions_reject_alpha_outside_unit_interval(alpha):
    X, Y, xq, _ = _instance(34, 8)
    base = base_fit(X, Y, xq, 0.0, 0.5, LOGCOSH, KERNEL)
    message = "alpha must lie in" if np.isfinite(alpha) else "alpha must be a finite number"
    with pytest.raises(ValueError, match=message):
        approx_regions(base, YGrid(-1.0, 1.0, 5), ["local_stability"],
                       alpha)


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
    with pytest.raises(ValueError, match="constant diagonal"):
        approx_regions(base, grid, [kind], 0.1)


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


_OTHER_BASES = {
    # a fit of Y + 3 at lam 0.05 used to pass silently for a lam 0.5 call
    # on Y, giving upper p-values off by up to 0.66
    "targets": lambda X, Y, xq: base_fit(X, Y + 3.0, xq, 0.0, 0.05, LOGCOSH,
                                         KERNEL),
    "Gram size": lambda X, Y, xq: base_fit(X[:-1], Y[:-1], xq, 0.0, 0.5,
                                           LOGCOSH, KERNEL),
    "lam": lambda X, Y, xq: base_fit(X, Y, xq, 0.0, 0.05, LOGCOSH, KERNEL),
    "loss": lambda X, Y, xq: base_fit(X, Y, xq, 0.0, 0.5,
                                      LossSpec("pseudo_huber"), KERNEL),
    "anchors": lambda X, Y, xq: base_fit(X, Y, xq, 1.0, 0.5, LOGCOSH, KERNEL),
    "weights": lambda X, Y, xq: fit(augmented_problem(
        X, Y, xq, (0.0, 0.0), anchor_y_weights(Y.size), 0.5, LOGCOSH, KERNEL)),
}


@pytest.mark.parametrize("field", sorted(_OTHER_BASES))
def test_curves_name_the_field_a_supplied_base_fit_differs_in(field):
    X, Y, xq, _ = _instance(16, 10)
    base = _OTHER_BASES[field](X, Y, xq)
    grid = YGrid.from_targets(Y, m=21)
    for kind in APPROX_KINDS:
        with pytest.raises(ValueError, match=f"mismatch in {field}"):
            approx_pvalue_curves(X, Y, xq, grid, ApproxMethod(kind), 0.5,
                                 LOGCOSH, KERNEL, base=base)
        # the regions read the rest of the problem, z too, from the fit itself
        if field == "weights":
            with pytest.raises(ValueError, match=f"mismatch in {field}"):
                approx_regions(base, grid, [kind], 0.1)


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
    gram = res2.base.problem.gram
    assert np.all(rho_tilde1(gram, LOGCOSH_CONSTANTS, 0.5, res2.taus.rho1)
                  >= res2.taus.rho1)


def _assert_scores_within_envelopes(X, Y, xq, grid, lam, kernel, every, slack):
    """Per-index exact-refit scores at every `every`-th grid point stay
    within each level's envelope of the approximate scores, up to slack."""
    n = Y.size
    ys = grid.values[::every]
    exact_scores = np.empty((ys.size, n + 1))
    for j, y in enumerate(ys):
        refit = fit(augmented_problem(X, Y, xq, (0.0, y), anchor_y_weights(n),
                                      lam, LOGCOSH, kernel))
        preds = refit.predictions()
        exact_scores[j, :n] = np.abs(Y - preds[:n])
        exact_scores[j, n] = np.abs(y - preds[n])
    base = base_fit(X, Y, xq, 0.0, lam, LOGCOSH, kernel)
    direction = influence_direction(base)
    for kind in APPROX_KINDS:
        res = approx_pvalue_curves(X, Y, xq, grid, ApproxMethod(kind), lam,
                                   LOGCOSH, kernel, base=base)
        taus = res.taus.tau_matrix()[::every]
        approx_scores = np.empty_like(exact_scores)
        for j, y in enumerate(ys):
            # levels 0 and 1 score with the base fit itself
            coeffs = (if_predictor(y, 0.0, base, direction)
                      if kind == "influence_function" else base.coeffs)
            preds = base.problem.gram.entries @ coeffs
            approx_scores[j, :n] = np.abs(Y - preds[:n])
            approx_scores[j, n] = np.abs(y - preds[n])
        assert np.all(np.abs(exact_scores - approx_scores) <= taus + slack), kind


def test_level_scores_are_sound_at_module_scale():
    # per-index exact-refit scores stay inside every envelope
    X, Y, xq, _ = _instance(18, 10)
    grid = YGrid.from_targets(Y, m=21)
    _assert_scores_within_envelopes(X, Y, xq, grid, 1.0, KERNEL, 1, 1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_level_scores_are_sound_where_regions_are_informative(seed):
    # lam 0.01 with noisy targets, as below, at 25 of 200 grid points. Near
    # the z anchor the envelopes of levels 1 and 2 fall to ~1e-10, the
    # size of the refit's own error within its gradient tolerance, which
    # the slack covers
    X, Y, xq, _ = friedman1(41, noise_sd=1.0, seed=seed).split_query()
    grid = YGrid.from_targets(Y, m=200)
    _assert_scores_within_envelopes(X, Y, xq, grid, 0.01, KernelSpec("laplacian"),
                                    8, 1e-8)


def test_every_level_brackets_exact_curve_where_regions_are_informative():
    # at lam 0.01 with noisy targets the exact region is well inside the
    # grid, unlike the default regime where every method covers ~30 units;
    # no ordering between levels is asserted, since here the
    # influence-function upper region can be longer than the uniform one
    lam, alpha = 0.01, 0.1
    kernel = KernelSpec("laplacian")  # bandwidth 1/d, as the CLI default
    for seed in (0, 1, 2):
        X, Y, xq, _ = friedman1(41, noise_sd=1.0, seed=seed).split_query()
        grid = YGrid.from_targets(Y, m=200)
        exact = full_conformal_pvalues(X, Y, xq, grid, lam, LOGCOSH, kernel)
        region = region_from_curve(exact, alpha)
        assert not (region.mask[0] or region.mask[-1]), seed
        assert region.measure < 0.6 * (grid.hi - grid.lo), seed
        base = base_fit(X, Y, xq, 0.0, lam, LOGCOSH, kernel)
        for kind in APPROX_KINDS:
            res = approx_pvalue_curves(X, Y, xq, grid, ApproxMethod(kind), lam,
                                       LOGCOSH, kernel, base=base)
            assert np.all(res.curve.lower <= exact.upper), (seed, kind)
            assert np.all(exact.upper <= res.curve.upper), (seed, kind)


def test_upper_regions_cover_where_regions_are_informative():
    # lam 0.01 with noisy targets, as above, over 300 seeded draws: the
    # regions from approx_regions mostly stay inside the grid, and each
    # level's upper region covers at the nominal rate
    lam, alpha, reps = 0.01, 0.1, 300
    kernel = KernelSpec("laplacian")

    def generator(rng):
        return friedman1(41, noise_sd=1.0, seed=rng.integers(2**32)).split_query()

    for kind in APPROX_KINDS:
        clipped = []

        def builder(X, Y, xq):
            base = base_fit(X, Y, xq, 0.0, lam, LOGCOSH, kernel)
            [regions] = approx_regions(base, YGrid.from_targets(Y, m=200),
                                       [kind], alpha)
            upper = regions.upper
            clipped.append(upper.clipped)
            return upper

        result = empirical_coverage(builder, generator, reps, alpha, seed=0)
        assert result.ci_hi >= 1.0 - alpha, (kind, result)
        assert sum(clipped) < 0.1 * reps, kind


# --- thickness ---

def test_thickness_gap_examples():
    grid = YGrid(0.0, 10.0, 101)  # step 0.1
    full = PredictionRegion.from_mask(grid, np.ones(101, bool))
    empty = PredictionRegion.from_mask(grid, np.zeros(101, bool))
    assert thickness_gap(full, full) == 0.0
    assert thickness_gap(full, empty) == pytest.approx(10.1)
    other = YGrid(0.0, 10.0, 51)
    with pytest.raises(ValueError, match="grid"):
        thickness_gap(full, PredictionRegion.from_mask(other, np.ones(51, bool)))


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
    bound = thickness_bound("uniform_stability", UNIT_GRAM,
                            LOGCOSH_CONSTANTS, lam=0.1)
    assert bound.value == pytest.approx(8.0)
    assert bound.refined is None and bound.beta is None
    # sup_tau plays no role below the influence-function level
    also = thickness_bound("local_stability", UNIT_GRAM,
                           LOGCOSH_CONSTANTS, lam=0.1, sup_tau=123.0)
    assert also.value == pytest.approx(8.0)


@pytest.mark.parametrize("kind, lam, sup_tau, message", [
    ("uniform_stability", 0.0, None, "lam must be positive, got 0.0"),
    ("local_stability", -1.0, None, "lam must be positive, got -1.0"),
    ("uniform_stability", "0.1", None, "lam must be a finite number, got '0.1'"),
    ("influence_function", np.inf, 0.2, "lam must be a finite number, got inf"),
    ("influence_function", 1.0, np.nan, "sup_tau must be a finite number, got nan"),
    ("influence_function", 1.0, -0.1, "sup_tau must be nonnegative, got -0.1"),
    ("uniform_stability", True, None, "lam must be a finite number, got True"),
    ("influence_function", 1.0, "0.2", "sup_tau must be a finite number, got '0.2'"),
])
def test_thickness_bound_rejects_bad_numbers(kind, lam, sup_tau, message):
    # lam = 0 used to raise ZeroDivisionError and a nan sup_tau to return a
    # nan bound
    with pytest.raises(ValueError, match=re.escape(message)):
        thickness_bound(kind, UNIT_GRAM, LOGCOSH_CONSTANTS, lam, sup_tau)


@pytest.mark.parametrize("rows, targets", [(6, (5,)), (5, (6,)), (5, (5, 1))])
def test_base_fit_and_curves_name_x_and_y_on_a_size_mismatch(rows, targets):
    # 5 rows and 6 targets used to raise "gram has 6 points but targets has
    # 6 entries", and Y of shape (5, 1) "only 0-dimensional arrays ..."
    X, Y, xq, _ = _instance(22, 8)
    Xs, Ys = X[:rows], Y[:int(np.prod(targets))].reshape(targets)
    grid = YGrid.from_targets(Y, m=11)
    method = ApproxMethod("local_stability")
    message = rf"Y must be 1-d, matching the {rows} rows of X"
    with pytest.raises(ValueError, match=message):
        base_fit(Xs, Ys, xq, 0.0, 0.5, LOGCOSH, KERNEL)
    with pytest.raises(ValueError, match=message):
        approx_pvalue_curves(Xs, Ys, xq, grid, method, 0.5, LOGCOSH, KERNEL)
    base = base_fit(X[:5], Y[:5], xq, 0.0, 0.5, LOGCOSH, KERNEL)
    with pytest.raises(ValueError, match=message):
        approx_pvalue_curves(Xs, Ys, xq, grid, method, 0.5, LOGCOSH, KERNEL, base=base)


def test_thickness_bound_accepts_numpy_floats():
    bound = thickness_bound("influence_function", UNIT_GRAM, LOGCOSH_CONSTANTS,
                            np.float64(1.0), np.float32(0.25))
    assert bound.value == pytest.approx(12.0 / 0.9 * 0.25)


def test_thickness_bound_influence_function_branches():
    with pytest.raises(ValueError, match="supremum"):
        thickness_bound("influence_function", UNIT_GRAM,
                        LOGCOSH_CONSTANTS, lam=1.0)
    refined = thickness_bound("influence_function", UNIT_GRAM,
                              LOGCOSH_CONSTANTS, lam=1.0, sup_tau=0.2)
    assert refined.refined is True
    assert refined.beta == pytest.approx(0.1)
    assert refined.value == pytest.approx(12.0 / 0.9 * 0.2)
    crude = thickness_bound("influence_function", UNIT_GRAM,
                            LOGCOSH_CONSTANTS, lam=0.01, sup_tau=0.2)
    assert crude.refined is False
    assert crude.beta == pytest.approx(10.0)
    assert crude.value == pytest.approx(8.0 * (0.2 + 10.0))
