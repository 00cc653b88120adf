from dataclasses import replace

import numpy as np
import pytest

from apxcp import approx, conformal, kernels, solver
from apxcp.data_io import friedman1
from apxcp.kernels import GramMatrix, KernelSpec, gram
from apxcp.losses import LossSpec
from apxcp.solver import (SolverError, WeightedProblem, anchor_y_weights,
                          anchor_z_weights, augmented_problem, fit, gradient,
                          hessian, risk, rkhs_norm_diff)

from oracles import central_difference, eigh_newton_fit, ridge_closed_form

KERNEL = KernelSpec("laplacian", 1.0)


def _random_problem(rng, n=8, lam=0.5, loss=LossSpec("logcosh"), anchors=(0.0, 1.0),
                    weights=None):
    X = rng.uniform(size=(n, 3))
    Y = rng.normal(scale=2.0, size=n)
    x_query = rng.uniform(size=3)
    if weights is None:
        weights = anchor_z_weights(n)
    return augmented_problem(X, Y, x_query, anchors, weights, lam, loss, KERNEL)


def test_weight_templates():
    np.testing.assert_array_equal(anchor_z_weights(3), [1, 1, 1, 1, 0])
    np.testing.assert_array_equal(anchor_y_weights(3), [1, 1, 1, 0, 1])


def test_problem_validation():
    G = gram(KERNEL, [[0.0], [1.0]])
    Y = np.array([0.5])
    with pytest.raises(ValueError, match="lam"):
        WeightedProblem(G, Y, (0.0, 0.0), anchor_z_weights(1), 0.0, LossSpec())
    with pytest.raises(ValueError, match="weights"):
        WeightedProblem(G, Y, (0.0, 0.0), np.ones(4), 1.0, LossSpec())
    with pytest.raises(ValueError, match="targets"):
        WeightedProblem(G, np.ones(3), (0.0, 0.0), anchor_z_weights(3), 1.0, LossSpec())


def test_problem_rejects_negative_weight_naming_its_index():
    # a negative weight could make a curvature negative and the Newton
    # system indefinite, so it is refused where the problem is built
    G = gram(KERNEL, [[0.0], [1.0], [2.0]])
    weights = np.array([1.0, -0.25, 1.0, 0.0])
    with pytest.raises(ValueError, match=r"nonnegative, got -0\.25 at index 1"):
        WeightedProblem(G, np.zeros(2), (0.0, 0.0), weights, 1.0, LossSpec())
    weights = np.array([1.0, 1.0, 0.0, -0.0])
    WeightedProblem(G, np.zeros(2), (0.0, 0.0), weights, 1.0, LossSpec())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where, message", [("Y", "targets must be finite"),
                                            ("X", "X must be finite"),
                                            ("x_query", "x_query must be finite")])
def test_augmented_problem_rejects_nonfinite_inputs(where, message, bad):
    rng = np.random.default_rng(41)
    inputs = {"X": rng.uniform(size=(6, 3)), "Y": rng.normal(size=6),
              "x_query": rng.uniform(size=3)}
    inputs[where].flat[2] = bad
    with pytest.raises(ValueError, match=message):
        augmented_problem(inputs["X"], inputs["Y"], inputs["x_query"], (0.0, 0.0),
                          anchor_z_weights(6), 0.5, LossSpec("logcosh"), KERNEL)


@pytest.mark.parametrize("X, x_query, message", [
    (np.arange(6.0), np.array([0.5]), "2-d"),
    (np.ones((6, 3)), np.ones(2), "width 3"),
    (np.ones((6, 3)), np.ones((2, 3)), "one point"),
])
def test_augmented_problem_rejects_mismatched_shapes(X, x_query, message):
    with pytest.raises(ValueError, match=message):
        augmented_problem(X, np.zeros(6), x_query, (0.0, 0.0), anchor_z_weights(6),
                          0.5, LossSpec("logcosh"), KERNEL)


def test_risk_zero_coefficients_squared_loss():
    rng = np.random.default_rng(0)
    n = 6
    z = 1.5
    problem = _random_problem(rng, n=n, loss=LossSpec("squared"), anchors=(z, 9.9))
    a = np.zeros(n + 1)
    expected = (np.sum(problem.targets ** 2) + z ** 2) / (n + 1)
    assert risk(problem, a) == pytest.approx(expected, rel=1e-14)


def test_risk_regularization_decomposition():
    rng = np.random.default_rng(1)
    p1 = _random_problem(rng, lam=0.25)
    p2 = WeightedProblem(p1.gram, p1.targets, p1.anchors, p1.weights, 1.25, p1.loss)
    a = rng.normal(size=p1.n + 1)
    quad = float(a @ p1.gram.entries @ a)
    assert risk(p2, a) - risk(p1, a) == pytest.approx(1.0 * quad, rel=1e-10)


def test_risk_single_point_toy():
    G = gram(KERNEL, [[0.0], [2.0]])
    problem = WeightedProblem(G, np.array([0.0]), (0.0, 0.0),
                              anchor_z_weights(1), 1.0, LossSpec("logcosh"))
    assert risk(problem, np.zeros(2)) == 0.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for loss in (LossSpec("logcosh"), LossSpec("pseudo_huber"),
                 LossSpec("smoothed_pinball", a=0.5, t=0.3), LossSpec("squared")):
        problem = _random_problem(rng, n=5, loss=loss, weights=anchor_y_weights(5))
        a = rng.normal(scale=0.2, size=6)
        g = gradient(problem, a)
        for i in range(6):
            def risk_i(v, i=i):
                ai = a.copy()
                ai[i] = v
                return risk(problem, ai)
            fd = central_difference(risk_i, a[i])
            assert abs(g[i] - fd) <= 1e-6 * (1 + abs(g[i]))


def test_gradient_zero_at_ridge_solution():
    rng = np.random.default_rng(3)
    problem = _random_problem(rng, n=10, lam=0.7, loss=LossSpec("squared"),
                              anchors=(0.3, 0.0))
    targets_full = np.append(problem.targets, 0.3)
    a_star = ridge_closed_form(problem.gram.entries, targets_full, 0.7)
    assert np.linalg.norm(gradient(problem, a_star)) <= 1e-9


def test_hessian_symmetric_and_squared_loss_constant():
    rng = np.random.default_rng(4)
    problem = _random_problem(rng, n=7, loss=LossSpec("squared"))
    a1, a2 = rng.normal(size=(2, 8))
    H1 = hessian(problem, a1)
    H2 = hessian(problem, a2)
    assert np.array_equal(H1, H1.T)
    np.testing.assert_allclose(H1, H2, atol=1e-12)  # independent of a
    K = problem.gram.entries
    v_eff = np.append(problem.weights[:7], problem.weights[7] + problem.weights[8])
    expected = (2.0 / 8) * K @ np.diag(v_eff) @ K + 2 * 0.5 * K
    np.testing.assert_allclose(H1, expected, atol=1e-12)


def test_strong_convexity_witness():
    # Hessian restricted to range(K) dominates 2*lam*mu*(n+1)
    rng = np.random.default_rng(5)
    for weights_fn in (anchor_z_weights, anchor_y_weights):
        for loss in (LossSpec("logcosh"), LossSpec("pseudo_huber")):
            n, lam = 9, 0.4
            problem = _random_problem(rng, n=n, lam=lam, loss=loss,
                                      weights=weights_fn(n))
            a = rng.normal(scale=0.3, size=n + 1)
            H = hessian(problem, a)
            w, V = np.linalg.eigh(problem.gram.entries)
            keep = w > 1e-12 * w.max()
            Vr = V[:, keep]
            restricted = Vr.T @ H @ Vr
            # mu* is the smallest retained eigenvalue of K/(n+1)
            floor = 2 * lam * w[keep].min()
            assert np.linalg.eigvalsh(restricted).min() >= floor - 1e-8


def test_fit_matches_ridge_oracle():
    rng = np.random.default_rng(6)
    for trial in range(5):
        n = int(rng.integers(3, 40))
        z = float(rng.normal())
        problem = _random_problem(rng, n=n, lam=float(rng.uniform(0.05, 2.0)),
                                  loss=LossSpec("squared"), anchors=(z, 123.0))
        pred = fit(problem)
        targets_full = np.append(problem.targets, z)
        a_star = ridge_closed_form(problem.gram.entries, targets_full, problem.lam)
        rel = np.linalg.norm(pred.coeffs - a_star) / max(np.linalg.norm(a_star), 1e-30)
        assert rel <= 1e-8


def test_fit_degenerate_single_anchor():
    # no data rows, anchor z=0 with logcosh: zero coefficients are stationary
    G = gram(KERNEL, [[0.4]])
    problem = WeightedProblem(G, np.zeros(0), (0.0, 7.7), np.array([1.0, 0.0]),
                              1.0, LossSpec("logcosh"))
    pred = fit(problem)
    np.testing.assert_array_equal(pred.coeffs, [0.0])
    assert pred.n_iters == 0


def test_fit_deterministic():
    rng = np.random.default_rng(7)
    problem = _random_problem(rng, n=12)
    a1 = fit(problem).coeffs
    a2 = fit(problem).coeffs
    assert np.array_equal(a1, a2)


def test_fit_monotone_descent():
    rng = np.random.default_rng(8)
    problem = _random_problem(rng, n=15, lam=0.05)
    pred = fit(problem)
    path = np.asarray(pred.risk_path)
    # non-increasing up to the float noise floor of a risk evaluation
    noise = 64 * np.finfo(float).eps * (1 + np.abs(path[:-1]))
    assert np.all(np.diff(path) <= noise)
    assert pred.grad_norm <= 1e-9


def test_fit_warm_start_agrees_with_cold_start():
    rng = np.random.default_rng(9)
    problem = _random_problem(rng, n=10)
    cold = fit(problem)
    warm = fit(problem, init=cold.coeffs)
    assert warm.n_iters <= 1
    preds_cold = cold.predictions()
    preds_warm = warm.predictions()
    np.testing.assert_allclose(preds_warm, preds_cold, atol=1e-8)


def test_fit_failure_carries_state():
    rng = np.random.default_rng(10)
    problem = _random_problem(rng, n=10)
    with pytest.raises(SolverError) as err:
        fit(problem, max_iters=1)
    assert err.value.coeffs.shape == (11,)
    assert np.isfinite(err.value.grad_norm)


def test_anchor_weights_drive_targets():
    # v = u uses the z anchor, v = w uses the y anchor
    rng = np.random.default_rng(11)
    X = rng.uniform(size=(6, 2))
    Y = rng.normal(size=6)
    xq = rng.uniform(size=2)
    pu = augmented_problem(X, Y, xq, (1.0, -50.0), anchor_z_weights(6), 0.5,
                           LossSpec("squared"), KERNEL)
    pw = augmented_problem(X, Y, xq, (-50.0, 1.0), anchor_y_weights(6), 0.5,
                           LossSpec("squared"), KERNEL)
    np.testing.assert_allclose(fit(pu).coeffs, fit(pw).coeffs, atol=1e-12)


def test_rkhs_norm_diff_examples():
    G2 = GramMatrix(np.eye(2))
    assert rkhs_norm_diff(np.array([1.0, 2.0]), np.array([1.0, 2.0]), G2) == 0.0
    assert rkhs_norm_diff(np.array([3.0, 4.0]), np.zeros(2), G2) == pytest.approx(5.0)
    a = np.array([0.5, -1.0])
    assert rkhs_norm_diff(2 * a, np.zeros(2), G2) == pytest.approx(
        2 * rkhs_norm_diff(a, np.zeros(2), G2), rel=1e-12)


def test_query_prediction_matches_predict():
    rng = np.random.default_rng(12)
    problem = _random_problem(rng, n=5)
    pred = fit(problem)
    assert pred.query_prediction() == pytest.approx(
        float(pred.coeffs @ problem.gram.query_column), rel=1e-14)


def test_coeffs_live_in_range_of_gram():
    # duplicated input rows force a rank-deficient gram
    rng = np.random.default_rng(13)
    X = rng.uniform(size=(4, 2))
    X = np.vstack([X, X[0]])
    Y = rng.normal(size=5)
    problem = augmented_problem(X, Y, X[1], (0.0, 0.0), anchor_z_weights(5),
                                0.3, LossSpec("logcosh"), KERNEL)
    pred = fit(problem)
    projected = problem.gram.project_onto_range(pred.coeffs)
    np.testing.assert_allclose(pred.coeffs, projected, atol=1e-10)


def _oracle_fit(problem, init=None):
    return eigh_newton_fit(problem, risk, gradient, hessian, init=init)


def _assert_agrees_with_oracle(problem, pred, oracle_coeffs):
    """Coefficients within 1e-10 relative; where K's eigenvalue ratio
    exceeds 1e8 the coefficients are ill-determined in the last bits, so
    predictions K a within 1e-10 relative instead."""
    K = problem.gram.entries
    w = np.linalg.eigvalsh(K)
    if w[0] > 1e-8 * w[-1]:
        rel = (np.linalg.norm(pred.coeffs - oracle_coeffs)
               / np.linalg.norm(oracle_coeffs))
    else:
        rel = (np.linalg.norm(K @ (pred.coeffs - oracle_coeffs))
               / np.linalg.norm(K @ oracle_coeffs))
    assert rel <= 1e-10


_LOSSES = (LossSpec("logcosh"), LossSpec("pseudo_huber"),
           LossSpec("smoothed_pinball", a=0.5, t=0.3))


@pytest.mark.parametrize("family", ["laplacian", "gaussian_rbf"])
@pytest.mark.parametrize("loss", _LOSSES, ids=lambda loss: loss.family)
def test_fit_agrees_with_eigh_newton_oracle(family, loss):
    kernel = KernelSpec(family, "auto")
    for n, seed in ((12, 0), (100, 1)):
        X, Y, xq, _ = friedman1(n + 1, noise_sd=1.0, seed=seed).split_query()
        for lam in (1e-4, 1e-2, 1.0, 10.0):
            for anchors, weights in (((1.5, -40.0), anchor_z_weights(n)),
                                     ((40.0, -1.5), anchor_y_weights(n))):
                problem = augmented_problem(X, Y, xq, anchors, weights, lam,
                                            loss, kernel)
                pred = fit(problem)
                oracle_coeffs, oracle_iters, _ = _oracle_fit(problem)
                _assert_agrees_with_oracle(problem, pred, oracle_coeffs)
                assert abs(pred.n_iters - oracle_iters) <= 1


def test_fit_agrees_with_oracle_on_duplicate_rows():
    # repeated inputs make K rank-deficient; B = I + W^1/2 K W^1/2 stays
    # positive definite and the iterate stays in range(K)
    rng = np.random.default_rng(14)
    X = rng.uniform(size=(20, 3))
    X = np.vstack([X, X[:6]])
    Y = rng.normal(scale=3.0, size=26)
    for loss in _LOSSES:
        problem = augmented_problem(X, Y, X[2], (0.5, 0.5), anchor_z_weights(26),
                                    0.05, loss, KERNEL)
        w = np.linalg.eigvalsh(problem.gram.entries)
        assert np.sum(w < 1e-12 * w[-1]) == 7  # six repeated rows and the query
        pred = fit(problem)
        oracle_coeffs, _, _ = _oracle_fit(problem)
        K = problem.gram.entries
        np.testing.assert_allclose(K @ pred.coeffs, K @ oracle_coeffs,
                                   rtol=0, atol=1e-10 * np.abs(K @ oracle_coeffs).max())
        np.testing.assert_allclose(pred.coeffs, problem.gram.project_onto_range(pred.coeffs),
                                   atol=1e-12)


def test_fit_converges_where_the_pseudo_inverse_step_stalls():
    # the Hessian K diag(d) K/(n+1) + 2 lam K squares K's conditioning
    # (eigenvalue ratio 4e11 at the optimum here, lam = 1e-6), and the eigh
    # step loses the accuracy the line search needs near the optimum;
    # B = I + W^1/2 K W^1/2 keeps every eigenvalue >= 1
    X, Y, xq, _ = friedman1(101, seed=0).split_query()
    problem = augmented_problem(X, Y, xq, (0.0, 0.0), anchor_z_weights(100), 1e-6,
                                LossSpec("logcosh"), KernelSpec("gaussian_rbf", "auto"))
    with pytest.raises(RuntimeError, match="line search stalled at iteration 21"):
        _oracle_fit(problem)
    pred = fit(problem)
    assert pred.n_iters <= 20


def test_fit_and_influence_solve_without_a_hessian_eigendecomposition(monkeypatch):
    rng = np.random.default_rng(15)
    problem = _random_problem(rng, n=30, lam=0.01)
    problem.gram.eigenpairs  # the cached Gram spectrum serves the range projection

    def forbidden(*args, **kwargs):
        raise AssertionError("no Hessian or pseudo-inverse on the fit path")

    for module in (solver, approx, conformal, kernels):
        for name in ("hessian", "pseudo_inverse_apply"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "pinv", forbidden)
    pred = fit(problem)
    approx.influence_direction(pred)
    fit(replace(problem, anchors=(2.0, 2.0)), init=pred.coeffs)
