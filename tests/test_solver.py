import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from apxcp import approx, conformal, kernels, solver
from apxcp.cli import ExperimentConfig
from apxcp.data_io import friedman1
from apxcp.kernels import GramMatrix, KernelSpec, gram
from apxcp.losses import LossSpec, loss_d, loss_value
from apxcp.solver import (SolverError, WeightedProblem, anchor_y_weights,
                          anchor_z_weights, augmented_problem, fit, gradient,
                          hessian, risk, rkhs_norm_diff, z_anchored_problem)

from oracles import (central_difference, eigh_newton_fit, lu_curvature_solve,
                     ridge_closed_form, term_by_term_objective)

KERNEL = KernelSpec("laplacian", 1.0)
ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("lam, message", [
    ("0.5", "lam must be a finite number, got '0.5'"),
    (True, "lam must be a finite number, got True"),
    (math.nan, "lam must be a finite number, got nan"),
    (0.0, "lam must be positive, got 0.0"),
])
def test_problem_rejects_a_bad_lam_naming_it(lam, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        WeightedProblem(gram(KERNEL, [[0.0], [1.0]]), np.zeros(1), (0.0, 0.0),
                        anchor_z_weights(1), lam, LossSpec())


def test_problem_stores_numpy_scalars_as_plain_floats():
    problem = WeightedProblem(gram(KERNEL, [[0.0], [1.0]]), np.zeros(1),
                              (np.float32(0.5), np.int64(1)), anchor_y_weights(1),
                              np.float64(0.5), LossSpec())
    assert problem.anchors == (0.5, 1.0) and problem.lam == 0.5
    assert all(type(v) is float for v in (*problem.anchors, problem.lam))


def test_hand_built_problem_states_the_gram_size_it_needs():
    with pytest.raises(ValueError, match=re.escape(
            "gram has 3 points but targets has 5 entries; it needs n + 1 = 6")):
        WeightedProblem(gram(KERNEL, [[0.0], [1.0], [2.0]]), np.zeros(5), (0.0, 0.0),
                        anchor_z_weights(5), 1.0, LossSpec())


def test_problem_rejects_targets_that_are_not_a_vector():
    # a column of targets used to pass and fail inside the first risk call
    with pytest.raises(ValueError, match=re.escape("targets must have length 2, "
                                                   "got shape (2, 1)")):
        WeightedProblem(gram(KERNEL, [[0.0], [1.0], [2.0]]), np.zeros((2, 1)), (0.0, 0.0),
                        anchor_z_weights(2), 1.0, LossSpec())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_nonfinite_weights(bad):
    G = gram(KERNEL, [[0.0], [1.0]])
    weights = np.array([1.0, 1.0, bad])
    with pytest.raises(ValueError, match="weights must be finite"):
        WeightedProblem(G, np.zeros(1), (0.0, 0.0), weights, 1.0, LossSpec())


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
@pytest.mark.parametrize("where, message", [("Y", "Y must be finite"),
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "x", True])
@pytest.mark.parametrize("name", ["z", "y"])
def test_nonfinite_anchor_rejected_naming_it(name, bad):
    # before the check, inf ran 2000 Newton iterations into SolverError
    # and nan stalled the line search
    rng = np.random.default_rng(43)
    X, Y, x_query = rng.uniform(size=(6, 3)), rng.normal(size=6), rng.uniform(size=3)
    pair = (bad, 0.0) if name == "z" else (0.0, bad)
    with pytest.raises(ValueError, match=re.escape(f"anchor {name} must be a finite number, "
                                                   f"got {bad!r}")):
        augmented_problem(X, Y, x_query, pair, anchor_y_weights(6), 0.5,
                          LossSpec("logcosh"), KERNEL)
    problem = solver.z_anchored_problem(X, Y, x_query, 0.0, 0.5, LossSpec("logcosh"), KERNEL)
    grid = conformal.YGrid.from_targets(Y, 11)
    with pytest.raises(ValueError, match=re.escape(f"y_true must be a finite number, "
                                                   f"got {bad!r}")):
        conformal.oracle_pvalues(problem, bad, grid)


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


_ALL_LOSSES = (LossSpec("logcosh"), LossSpec("pseudo_huber"),
               LossSpec("smoothed_pinball", a=0.5, t=0.3), LossSpec("squared"))


@pytest.mark.parametrize("loss", _ALL_LOSSES, ids=lambda loss: loss.family)
def test_objective_matches_a_term_by_term_reference(loss):
    # the objective is n + 2 weighted loss terms, the two anchors at the
    # query prediction (K a)_n; z != y so that each anchor term shows
    rng = np.random.default_rng(17)
    n = 9

    def scalar_loss(order, y, u):
        return loss_value(loss, y, u) if order == 0 else loss_d(loss, order, y, u)

    # the z-anchored, the anchor-free and an interpolated weighting
    for tail in ((1.0, 0.0), (0.0, 0.0), (0.7, 0.3)):
        weights = np.r_[np.ones(n), tail]
        problem = _random_problem(rng, n=n, loss=loss, anchors=(0.7, -1.9),
                                  weights=weights)
        a = rng.normal(scale=0.5, size=n + 1)
        want_risk, want_grad, want_hess, want_d1, want_d2 = term_by_term_objective(
            problem.gram.entries, problem.targets, problem.anchors, weights,
            problem.lam, a, scalar_loss)
        preds = problem.gram.entries @ a
        assert risk(problem, a) == pytest.approx(want_risk, rel=1e-13)
        np.testing.assert_allclose(gradient(problem, a), want_grad, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(hessian(problem, a), want_hess, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(solver._weighted_derivatives(problem, preds, 1), want_d1)
        np.testing.assert_array_equal(solver._weighted_derivatives(problem, preds, 2), want_d2)


@pytest.mark.parametrize("loss", _ALL_LOSSES, ids=lambda loss: loss.family)
def test_moving_a_zero_weight_anchor_changes_nothing(loss):
    # an anchor of weight 0 adds exactly nothing, wherever it sits
    rng = np.random.default_rng(18)
    n = 8
    base = _random_problem(rng, n=n, loss=loss, anchors=(0.4, 0.4))
    a = rng.normal(scale=0.5, size=n + 1)
    for weights, moved_anchors in ((anchor_z_weights(n), (0.4, -30.0)),
                                   (np.r_[np.ones(n), 0.0, 0.0], (25.0, -30.0))):
        here = replace(base, weights=weights)
        there = replace(here, anchors=moved_anchors)
        assert risk(here, a) == risk(there, a)
        assert np.array_equal(gradient(here, a), gradient(there, a))
        fit_here, fit_there = fit(here), fit(there)
        assert np.array_equal(fit_here.coeffs, fit_there.coeffs)
        assert np.array_equal(fit_here.predictions(), fit_there.predictions())


def test_rank_deficient_fit_keeps_the_predictions_of_its_convergence_test():
    # with repeated inputs the converged coefficients are projected onto
    # the range of K after the test; the stored predictions are those the
    # test was made at, within rounding of K times the projected ones
    rng = np.random.default_rng(19)
    X = rng.uniform(size=(10, 3))
    X = np.vstack([X, X[:3]])
    Y = rng.normal(scale=2.0, size=13)
    problem = augmented_problem(X, Y, X[4], (0.5, 0.5), anchor_z_weights(13),
                                0.05, LossSpec("logcosh"), KERNEL)
    pred = fit(problem)
    K = problem.gram.entries
    np.testing.assert_allclose(pred.predictions(), K @ pred.coeffs, rtol=0,
                               atol=1e-12 * np.abs(K @ pred.coeffs).max())
    assert pred.query_prediction() == pred.predictions()[-1]


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


def test_fit_falls_back_to_a_gradient_step_when_newton_ascends(monkeypatch):
    rng = np.random.default_rng(8)
    problem = _random_problem(rng, n=15, lam=0.05)
    want = fit(problem)
    real = solver._curvature_solve
    calls = []

    def ascent_once(*args):
        calls.append(None)
        direction, *diagnostics = real(*args)
        return (-direction if len(calls) == 1 else direction, *diagnostics)

    monkeypatch.setattr(solver, "_curvature_solve", ascent_once)
    got = fit(problem)
    path = np.asarray(got.risk_path)
    noise = 64 * np.finfo(float).eps * (1 + np.abs(path[:-1]))
    assert np.all(np.diff(path) <= noise)
    # no step along the ascent direction lowers the risk: the first step
    # is the gradient step
    assert path[1] < path[0] - noise[0]
    scale = np.linalg.norm(problem.effective_targets()) / (problem.n + 1)
    tol = solver.BASE_TOL * (1 + scale)
    assert got.grad_norm <= tol
    assert np.abs(got.coeffs - want.coeffs).max() <= tol


def test_fit_line_search_stall_carries_the_iterate_and_its_gradient_norm(monkeypatch):
    rng = np.random.default_rng(10)
    problem = _random_problem(rng, n=6)
    init = np.linspace(-0.5, 0.5, problem.gram.n)
    real = solver.risk

    def nan_after_the_start(problem, a, *preds):
        # every trial step's risk is NaN, which no line search accepts
        return real(problem, a, *preds) if np.array_equal(a, init) else np.nan

    monkeypatch.setattr(solver, "risk", nan_after_the_start)
    with pytest.raises(SolverError, match="line search stalled at iteration 1") as info:
        fit(problem, init=init)
    np.testing.assert_array_equal(info.value.coeffs, init)
    assert info.value.grad_norm == np.linalg.norm(gradient(problem, init))


def test_fit_warm_start_agrees_with_cold_start():
    rng = np.random.default_rng(9)
    problem = _random_problem(rng, n=10)
    cold = fit(problem)
    warm = fit(problem, init=cold.coeffs)
    assert warm.n_iters <= 1
    preds_cold = cold.predictions()
    preds_warm = warm.predictions()
    np.testing.assert_allclose(preds_warm, preds_cold, atol=1e-8)


def _friedman_problem(n, lam, loss=LossSpec("logcosh"), kernel=KERNEL):
    """friedman1 (noise_sd 1) with its last row as the query, anchored at
    z = 0; lam "default" is the CLI's lambda_for(n + 1)."""
    X, Y, xq, _ = friedman1(n + 1, 1.0, seed=n).split_query()
    lam = ExperimentConfig().lambda_for(n + 1) if lam == "default" else lam
    return z_anchored_problem(X, Y, xq, 0.0, lam, loss, kernel)


def test_newton_fit_factors_only_on_a_cg_fallback(monkeypatch):
    # at the default lambda every Newton step is a CG solve
    problem = _friedman_problem(40, "default")
    pred = fit(problem)
    assert pred.n_iters > 1 and pred.factorizations == 0 and pred.cg_iterations > 0
    # at lambda = 1e-4 some solves reach the cap (25 at n + 1 = 201) and
    # fall back to LU: one factorization each, their CG iterations counted
    real = solver._curvature_solve
    calls = []  # (iterations, factored) of every solve

    def spy(*args):
        out = real(*args)
        calls.append(out[1:])
        return out

    monkeypatch.setattr(solver, "_curvature_solve", spy)
    pred = fit(_friedman_problem(200, 1e-4))
    fallbacks = sum(factored for _, factored in calls)
    assert len(calls) == pred.n_iters and 0 < fallbacks < pred.n_iters
    assert pred.factorizations == fallbacks
    assert pred.cg_iterations == sum(iterations for iterations, _ in calls)
    # a cap of 0 forces every step to fall back
    monkeypatch.setattr(solver, "_cg_cap", lambda n_plus_1: 0)
    forced = fit(problem)
    assert forced.factorizations == forced.n_iters > 1 and forced.cg_iterations == 0


CG_LOSSES = (LossSpec("logcosh"), LossSpec("pseudo_huber"), LossSpec("smoothed_pinball"))
CG_KERNELS = (KERNEL, KernelSpec("gaussian_rbf", "auto"))


@pytest.mark.parametrize("n", [40, 200])
@pytest.mark.parametrize("lam", [1e-4, 1e-2, "default"])
@pytest.mark.parametrize("kernel", CG_KERNELS, ids=lambda kernel: kernel.family)
@pytest.mark.parametrize("loss", CG_LOSSES, ids=lambda loss: loss.family)
def test_cg_newton_solve_agrees_with_the_lu_oracle(monkeypatch, loss, kernel, lam, n):
    problem = _friedman_problem(n, lam, loss, kernel)
    pred = fit(problem)
    K = problem.gram.entries
    e_q = np.zeros(n + 1)
    e_q[n] = 1.0
    # the influence direction's right-hand side and a first Newton step's,
    # at the base fit's curvatures
    first = -solver._weighted_derivatives(problem, np.zeros(n + 1), 1) / (
        2.0 * problem.lam * (n + 1))
    d = solver._weighted_derivatives(problem, pred.predictions(), 2)
    # without the cap, CG meets its residual on every problem here
    monkeypatch.setattr(solver, "_cg_cap", lambda n_plus_1: 10 * n_plus_1)
    for rhs in (e_q, first):
        x, iterations, factored = solver._curvature_solve(problem, d, rhs, K @ rhs)
        want = lu_curvature_solve(K, d, problem.lam, rhs)
        assert iterations > 0 and not factored
        assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()
    # a fit whose every step is the LU solve lands on the same predictions
    monkeypatch.setattr(solver, "_cg_cap", lambda n_plus_1: 0)
    lu = fit(problem)
    np.testing.assert_allclose(pred.predictions(), lu.predictions(), rtol=0, atol=1e-10)


@pytest.mark.parametrize("cap", [None, 0], ids=["at-the-cap", "cap-0"])
def test_cg_fallback_is_the_lu_solve_bit_for_bit(monkeypatch, cap):
    # lambda = 1e-4 at n + 1 = 201 takes about 90 CG iterations, past the
    # cap of 25
    problem = _friedman_problem(200, 1e-4)
    d = solver._weighted_derivatives(problem, fit(problem).predictions(), 2)
    rhs = np.random.default_rng(20).normal(size=problem.gram.n)
    if cap is not None:
        monkeypatch.setattr(solver, "_cg_cap", lambda n_plus_1: cap)
    x, iterations, factored = solver._curvature_solve(problem, d, rhs,
                                                      problem.gram.entries @ rhs)
    assert factored and iterations == solver._cg_cap(problem.gram.n)
    np.testing.assert_array_equal(x, lu_curvature_solve(problem.gram.entries, d,
                                                        problem.lam, rhs))


def test_nan_curvatures_go_to_the_lu_solve_without_cg_iterations(monkeypatch):
    problem = _friedman_problem(40, 1e-2)
    d = np.ones(problem.gram.n)
    d[7] = np.nan
    rhs = np.ones(problem.gram.n)
    x, iterations, factored = solver._curvature_solve(problem, d, rhs,
                                                      problem.gram.entries @ rhs)
    assert iterations == 0 and factored
    np.testing.assert_array_equal(x, lu_curvature_solve(problem.gram.entries, d,
                                                        problem.lam, rhs))
    # so a fit at NaN curvatures stalls in its first line search, as it
    # did when every step was an LU solve
    real = solver.loss_d
    monkeypatch.setattr(solver, "loss_d", lambda spec, order, *args: (
        np.full(np.shape(args[1]), np.nan) if order == 2 else real(spec, order, *args)))
    with np.errstate(invalid="ignore"), pytest.raises(
            SolverError, match="line search stalled at iteration 1") as info:
        fit(problem)
    np.testing.assert_array_equal(info.value.coeffs, np.zeros(problem.gram.n))


@pytest.mark.parametrize("stale", ["lam", "anchor"])
def test_fit_rebuilds_a_stale_chord_factor(stale):
    X, Y, xq, _ = friedman1(41, 1.0, seed=0).split_query()
    problem = z_anchored_problem(X, Y, xq, 20.0, 0.01, LossSpec("logcosh"),
                                 KernelSpec())
    other = (replace(problem, lam=1e-4) if stale == "lam"
             else replace(problem, anchors=(0.0, 0.0)))
    chord = solver._ChordFactor()
    init = fit(other, chord=chord).coeffs
    stale_inv = chord.inv
    pred = fit(problem, init=init, chord=chord)
    assert chord.inv is not stale_inv and pred.factorizations >= 1
    tol = solver.BASE_TOL * (1 + np.linalg.norm(problem.effective_targets()) / (problem.n + 1))
    assert pred.grad_norm <= tol
    np.testing.assert_allclose(pred.predictions(), fit(problem, init=init).predictions(),
                               rtol=0, atol=1e-8)


@pytest.mark.parametrize("init, message", [
    (np.zeros(10), r"init must have length 11, got shape \(10,\)"),
    (np.zeros((11, 1)), r"init must have length 11, got shape \(11, 1\)"),
    (np.r_[np.zeros(10), np.nan], "init must be finite"),
    (np.r_[np.inf, np.zeros(10)], "init must be finite"),
])
def test_fit_rejects_a_bad_init(init, message):
    # a wrong length used to fail inside the first matmul
    problem = _random_problem(np.random.default_rng(9), n=10)
    with pytest.raises(ValueError, match=message):
        fit(problem, init=init)


def test_fit_failure_carries_state(monkeypatch):
    rng = np.random.default_rng(10)
    problem = _random_problem(rng, n=10)
    monkeypatch.setattr(solver, "DEFAULT_MAX_ITERS", 1)
    with pytest.raises(SolverError, match="no convergence after 1 iterations") as err:
        fit(problem)
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


@pytest.mark.parametrize("a1, a2", [(np.zeros(3), np.zeros(2)),
                                    (np.zeros(2), np.zeros(3)),
                                    (np.zeros((2, 2)), np.zeros(2))])
def test_rkhs_norm_diff_rejects_the_wrong_length(a1, a2):
    with pytest.raises(ValueError, match=r"a[12] must have length 2, got shape"):
        rkhs_norm_diff(a1, a2, GramMatrix(np.eye(2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rkhs_norm_diff_rejects_a_nonfinite_vector(bad):
    # a NaN coefficient used to give a NaN norm
    with pytest.raises(ValueError, match="a2 must be finite"):
        rkhs_norm_diff(np.zeros(2), np.array([0.0, bad]), GramMatrix(np.eye(2)))


def test_query_prediction_matches_predict():
    # at full rank the stored predictions are K a bit for bit, and the
    # query prediction is their last entry
    rng = np.random.default_rng(12)
    problem = _random_problem(rng, n=5)
    pred = fit(problem)
    preds = pred.predictions()
    assert np.array_equal(preds, problem.gram.entries @ pred.coeffs)
    assert pred.query_prediction() == preds[-1]
    assert not preds.flags.writeable


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
    # (eigenvalue ratio 5e12 at the optimum here, lam = 1e-6), and the eigh
    # step loses the accuracy it needs near the optimum: it crawls at a
    # gradient norm about 900x the tolerance under one BLAS thread and
    # under several alike; B = I + W^1/2 K W^1/2 keeps every eigenvalue >= 1
    X, Y, xq, _ = friedman1(201, seed=0).split_query()
    problem = augmented_problem(X, Y, xq, (0.0, 0.0), anchor_z_weights(200), 1e-6,
                                LossSpec("logcosh"), KernelSpec("gaussian_rbf", "auto"))
    with pytest.raises(RuntimeError, match="no convergence after 100 iterations, "
                                           "gradient norm 1.875e-07"):
        _oracle_fit(problem)
    pred = fit(problem)
    assert pred.n_iters <= 20


@pytest.mark.parametrize("loss, n, seed", [("logcosh", 100, 1), ("logcosh", 300, 0),
                                           ("logcosh", 300, 1), ("pseudo_huber", 300, 0),
                                           ("pseudo_huber", 300, 1)])
def test_fit_converges_at_tiny_lambda_on_gaussian_kernels(loss, n, seed):
    # near the optimum the Armijo test resolves risk changes of a few ulps,
    # so the line-search candidates must be exactly a + step * direction:
    # rounding them through K's full-rank eigenbasis stalls all five fits
    X, Y, xq, _ = friedman1(n + 1, seed=seed).split_query()
    problem = augmented_problem(X, Y, xq, (0.0, 0.0), anchor_z_weights(n), 1e-7,
                                LossSpec(loss), KernelSpec("gaussian_rbf", "auto"))
    assert fit(problem).grad_norm <= 1e-9 * (1 + np.linalg.norm(Y) / (n + 1))


def test_fit_projects_once_per_call(monkeypatch):
    calls = []
    real = GramMatrix.project_onto_range
    monkeypatch.setattr(GramMatrix, "project_onto_range",
                        lambda self, vec: calls.append(1) or real(self, vec))
    rng = np.random.default_rng(16)
    X = rng.uniform(size=(12, 3))
    X = np.vstack([X, X[:2]])  # rank-deficient: the projection is not the identity
    Y = rng.normal(scale=2.0, size=14)
    problem = augmented_problem(X, Y, X[4], (0.0, 0.0), anchor_z_weights(14),
                                0.05, LossSpec("logcosh"), KERNEL)
    cold = fit(problem)
    assert len(calls) == 1 and cold.n_iters > 1
    warm = fit(replace(problem, anchors=(1.0, 1.0)), init=cold.coeffs)
    assert len(calls) == 2 and warm.n_iters > 1


_FIT_HASHES = """
import hashlib
from apxcp.cli import ExperimentConfig
from apxcp.data_io import friedman1
from apxcp.solver import fit, z_anchored_problem
cfg = ExperimentConfig()
for n in (190, 256, 512):
    X, Y, xq, _ = friedman1(n + 1, 0.0, seed=(2, n, 0)).split_query()
    problem = z_anchored_problem(X, Y, xq, cfg.z_anchor, cfg.lambda_for(n + 1),
                                 cfg.loss, cfg.kernel)
    print(n, hashlib.sha256(fit(problem).coeffs.tobytes()).hexdigest())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="one CPU: the default is one BLAS thread")
def test_fit_coeffs_independent_of_blas_threads():
    # sweep --desk base problems (n = 190, 256) and one larger; the eigh
    # that decides K's rank varies with the thread count, the fit must not
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    hashes = [subprocess.run([sys.executable, "-c", _FIT_HASHES], env=extra, cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout
              for extra in (env, dict(env, OPENBLAS_NUM_THREADS="1"))]
    assert hashes[0].count("\n") == 3
    assert hashes[0] == hashes[1]


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


@pytest.mark.parametrize("y", [1.5, np.float64(-2.25), 7])
def test_reanchored_equals_replace_field_for_field(y):
    rng = np.random.default_rng(17)
    problem = _random_problem(rng, n=12, anchors=(0.4, 0.4))
    got, want = problem.reanchored(y), replace(problem, anchors=(y, y))
    assert type(got) is WeightedProblem
    for field in fields(WeightedProblem):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            # shared, not copied: already validated and read-only
            assert a is getattr(problem, field.name) and not a.flags.writeable
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        else:
            assert a is b or a == b, field.name
    assert got.anchors == (float(y), float(y))
    assert all(type(a) is float for a in got.anchors)
    assert problem.anchors == (0.4, 0.4)  # the original is untouched
    cold = fit(problem)
    for init in (None, cold.coeffs):
        a, b = fit(got, init=init), fit(want, init=init)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        np.testing.assert_array_equal(a.predictions(), b.predictions())
        assert a.n_iters == b.n_iters


@pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf, "1.0", None, True])
def test_reanchored_refuses_a_bad_anchor_by_name(y):
    problem = _random_problem(np.random.default_rng(18), anchors=(0.0, 0.0))
    with pytest.raises(ValueError, match="anchor y"):
        problem.reanchored(y)


def test_exact_refits_reanchor_without_revalidating(monkeypatch):
    # the exact refit at each grid point re-anchors the one z-anchored
    # problem; validating its targets and weights again cost 15-20 us a
    # refit at n = 200
    from apxcp.conformal import YGrid, full_conformal_pvalues

    rng = np.random.default_rng(19)
    X, Y, xq = rng.uniform(size=(10, 3)), rng.normal(size=10), rng.uniform(size=3)
    checked = []
    real = solver._readonly_vector
    monkeypatch.setattr(solver, "_readonly_vector",
                        lambda name, *args: checked.append(name) or real(name, *args))
    full_conformal_pvalues(X, Y, xq, YGrid(-3.0, 3.0, 7), 0.5, LossSpec("logcosh"),
                           KERNEL)
    assert checked == ["targets", "weights"]  # the one z-anchored problem


def test_reanchored_problem_builds_its_own_term_targets():
    # term_targets is cached per problem; a re-anchored copy must not
    # inherit the cached (Y, z, y) of the problem it came from
    problem = _random_problem(np.random.default_rng(20), n=5, anchors=(0.4, 0.4))
    np.testing.assert_array_equal(problem.term_targets, np.r_[problem.targets, 0.4, 0.4])
    moved = problem.reanchored(-2.0)
    np.testing.assert_array_equal(moved.term_targets, np.r_[problem.targets, -2.0, -2.0])
    np.testing.assert_array_equal(problem.term_targets, np.r_[problem.targets, 0.4, 0.4])
    assert not moved.term_targets.flags.writeable


def test_risk_takes_the_predictions_fit_shares_bit_for_bit():
    problem = _random_problem(np.random.default_rng(21), n=9)
    a = np.random.default_rng(22).normal(size=problem.gram.n)
    assert risk(problem, a, problem.gram.entries @ a) == risk(problem, a)


def test_fit_evaluates_the_risk_once_at_the_start_and_once_per_trial(monkeypatch):
    # the benchmark's trace reads line-search halvings off this count
    problem = _random_problem(np.random.default_rng(23), n=10, lam=0.05)
    real, calls = solver.risk, []

    def counted(problem, a, *preds):
        calls.append(None)
        return real(problem, a, *preds)

    monkeypatch.setattr(solver, "risk", counted)
    pred = fit(problem)
    assert pred.n_iters > 1 and len(calls) == 1 + pred.n_iters


def _block_setup(lam, seed=0, m=41):
    X, Y, xq, _ = friedman1(41, 1.0, seed=seed).split_query()
    ys = np.linspace(Y.min() - 3.0, Y.max() + 3.0, m)
    problem = z_anchored_problem(X, Y, xq, float(ys[0]), lam, LossSpec("logcosh"), KERNEL)
    chord = solver._ChordFactor()
    start = fit(problem.reanchored(float(ys[0])), chord=chord)
    return problem, chord, start, ys[1:]


def test_refit_block_columns_pass_fit_at_zero_steps():
    problem, chord, start, ys = _block_setup(0.433)
    inv = chord.inv
    coeffs, converged = solver.refit_block(start, ys, chord)
    assert chord.inv is inv  # the shared factor, not rebuilt
    assert coeffs.shape == (ys.size, problem.gram.n) and converged.all()
    for y, a in zip(ys, coeffs):
        here = problem.reanchored(float(y))
        pred = fit(here, init=a, chord=chord)
        assert pred.n_iters == 0
        np.testing.assert_allclose(pred.predictions(), fit(here).predictions(),
                                   rtol=0, atol=1e-8)


def test_refit_block_drops_columns_a_stale_factor_does_not_contract():
    # at lambda 1e-4 the factor built at the first grid point's start
    # goes stale along the grid; dropped columns are left to fit
    problem, chord, start, ys = _block_setup(1e-4)
    coeffs, converged = solver.refit_block(start, ys, chord)
    assert 0 < converged.sum() < ys.size  # 2 of 40 converged here
    tol = lambda p: solver.BASE_TOL * (1 + np.linalg.norm(p.effective_targets()) / (p.n + 1))
    for y, a in zip(ys[converged], coeffs[converged]):
        here = problem.reanchored(float(y))
        assert np.linalg.norm(gradient(here, a)) <= 1.01 * tol(here)


def test_refit_block_builds_a_missing_factor_at_the_start():
    problem, _, start, ys = _block_setup(0.433)
    chord = solver._ChordFactor()
    coeffs, converged = solver.refit_block(start, ys[:5], chord)
    assert chord.inv is not None and converged.all()


def test_refit_block_returns_at_once_on_an_empty_run():
    problem, chord, start, _ = _block_setup(0.433)
    inv = chord.inv
    coeffs, converged = solver.refit_block(start, [], chord)
    assert coeffs.shape == (0, problem.gram.n) and converged.shape == (0,)
    assert chord.inv is inv


def test_chord_step_on_a_stack_of_rows_matches_the_single_row_steps():
    problem, chord, _, _ = _block_setup(0.01)
    K = problem.gram.entries
    rhs = np.random.default_rng(4).standard_normal((5, problem.gram.n))
    stacked = chord.step(rhs @ K, rhs)
    assert stacked.shape == rhs.shape
    for row, r in zip(stacked, rhs):
        # gemm and gemv may round differently
        single = chord.step(K @ r, r)
        np.testing.assert_allclose(row, single, rtol=1e-13,
                                   atol=1e-13 * np.abs(single).max())
