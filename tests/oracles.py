"""Independent reference implementations used to validate the package.

Everything in this file is intentionally written against numpy/scipy
directly, without importing the package under test, so that agreement
between the two is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.spatial.distance import cdist


def cdist_kernel(family: str, gamma: float, points, other) -> np.ndarray:
    """exp(-gamma * cdist(points, other)) with the kernel family's metric:
    cityblock for laplacian, sqeuclidean for gaussian_rbf."""
    metric = {"laplacian": "cityblock", "gaussian_rbf": "sqeuclidean"}[family]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    oth = np.atleast_2d(np.asarray(other, dtype=float))
    return np.exp(-gamma * cdist(pts, oth, metric=metric))


def laplacian_gram(points: np.ndarray, gamma: float) -> np.ndarray:
    """Gram matrix exp(-gamma * ||x - x'||_1), built without the package."""
    return cdist_kernel("laplacian", gamma, points, points)


def ridge_closed_form(K: np.ndarray, targets: np.ndarray, lam: float,
                      cutoff: float = 1e-12) -> np.ndarray:
    """Solve (K + lam*(n+1)*I) a = targets restricted to range(K).

    This is the exact minimizer of the 1/(n+1)-normalized squared-loss
    empirical risk with ridge penalty lam * a^T K a, expressed through a
    plain symmetric eigendecomposition.
    """
    K = np.asarray(K, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n_plus_1 = K.shape[0]
    w, V = np.linalg.eigh(K)
    keep = w > cutoff * max(w.max(), 0.0)
    coeffs = V[:, keep].T @ targets / (w[keep] + lam * n_plus_1)
    return V[:, keep] @ coeffs


def central_difference(f, x: float, h: float = 1e-5) -> float:
    """Two-point central difference of a scalar function."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def bruteforce_ridge_region(X: np.ndarray, Y: np.ndarray, x_query: np.ndarray,
                            grid_values: np.ndarray, alpha: float, lam: float,
                            gamma: float) -> np.ndarray:
    """Boolean mask of the full conformal region for the squared loss.

    Refits the closed-form ridge solution once per candidate y, computes
    absolute-residual scores on the augmented sample, and thresholds the
    rank-based p-value at alpha. Kernel is the Laplacian with the given
    bandwidth. Independent of the package solver and region code.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    pts = np.vstack([X, np.atleast_2d(np.asarray(x_query, dtype=float))])
    K = laplacian_gram(pts, gamma)
    n = len(Y)
    mask = np.zeros(len(grid_values), dtype=bool)
    for j, y in enumerate(grid_values):
        targets = np.append(np.asarray(Y, dtype=float), y)
        a = ridge_closed_form(K, targets, lam)
        preds = K @ a
        scores = np.abs(targets - preds)
        pval = (1.0 + np.sum(scores[:n] >= scores[n])) / (n + 1.0)
        mask[j] = pval > alpha
    return mask


def friedman1_mean(X: np.ndarray) -> np.ndarray:
    """Noise-free friedman1 regression function, written out directly."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return (10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
            + 20.0 * (X[:, 2] - 0.5) ** 2
            + 10.0 * X[:, 3]
            + 5.0 * X[:, 4])


def conformal_pvalue(train_scores, test_score: float) -> float:
    """Rank-based p-value (1 + #{scores >= test}) / (n + 1), ties counted."""
    scores = np.asarray(train_scores, dtype=float)
    return (1.0 + int(np.sum(scores >= test_score))) / (scores.size + 1.0)


def pvalue_by_hand(train_scores, test_score) -> float:
    """Rank-based conformal p-value, spelled out with a python loop."""
    count = 0
    for s in train_scores:
        if s >= test_score:
            count += 1
    return (1 + count) / (len(list(train_scores)) + 1)


def sandwich_pvalues(data_scores, test_scores, data_taus, test_taus):
    """Upper and lower approximate p-values from scores and envelopes.

    The upper count treats every comparison in the direction favorable
    to inclusion (data score + tau against test score - tau); the lower
    count the opposite. Inputs broadcast; test_scores fixes the output
    length, and the data axis is the last one.
    """
    test_scores = np.atleast_1d(np.asarray(test_scores, dtype=float))
    data_scores = np.asarray(data_scores, dtype=float)
    data_taus = np.asarray(data_taus, dtype=float)
    test_taus = np.asarray(test_taus, dtype=float)
    n = data_scores.shape[-1]
    up_thresh = (test_scores - test_taus)[:, None]
    lo_thresh = (test_scores + test_taus)[:, None]
    upper_counts = (data_scores + data_taus >= up_thresh).sum(axis=-1)
    lower_counts = (data_scores - data_taus >= lo_thresh).sum(axis=-1)
    upper = (1.0 + upper_counts) / (n + 1.0)
    lower = (1.0 + lower_counts) / (n + 1.0)
    return upper, lower


def dense_sandwich_curves(Y, preds, radial, scale, ys, k_dir=None, shift=None,
                          chunk=16384):
    """Sandwich p-value curves from every (grid point, index) pair.

    Scores all m * (n+1) pairs chunk by chunk, with the envelope
    radial[j] * scale[i] per pair. Without k_dir every grid point scores
    the data with the base predictions (uniform and local stability);
    with it, grid point j shifts the predictions by shift[j] * k_dir
    (influence function).
    """
    Y = np.asarray(Y, dtype=float)
    n = Y.size
    m_q = float(preds[n])
    data_scores = np.abs(Y - preds[:n])
    upper = np.empty(ys.size)
    lower = np.empty(ys.size)
    for start in range(0, ys.size, chunk):
        sl = slice(start, min(start + chunk, ys.size))
        rad = radial[sl]
        taus = rad[:, None] * scale[None, :n]
        test_taus = rad * scale[-1]
        if k_dir is None:
            scores = data_scores[None, :]
            test_scores = np.abs(ys[sl] - m_q)
        else:
            shifted = preds[None, :] + shift[sl, None] * k_dir[None, :]
            scores = np.abs(Y[None, :] - shifted[:, :n])
            test_scores = np.abs(ys[sl] - shifted[:, n])
        upper[sl], lower[sl] = sandwich_pvalues(scores, test_scores, taus, test_taus)
    return upper, lower


def term_by_term_objective(K, targets, anchors, weights, lam, a, loss):
    """The weighted risk, its gradient and Hessian, and the per-index
    weighted first and second loss derivatives, summed term by term over
    the n + 2 terms: data term i at (Y_i, (K a)_i) and the two anchor
    terms at (z, (K a)_n) and (y, (K a)_n), term j weighted by
    weights[j]. loss(order, y, u) is the loss (order 0) or its
    derivative of that order in u. Returns (risk, gradient, hessian,
    first derivatives, second derivatives)."""
    K = np.asarray(K, dtype=float)
    a = np.asarray(a, dtype=float)
    n = len(targets)
    preds = K @ a
    terms = [(float(targets[i]), i) for i in range(n)]
    terms += [(float(anchors[0]), n), (float(anchors[1]), n)]
    total = 0.0
    d1, d2 = np.zeros(n + 1), np.zeros(n + 1)
    for j, (target, i) in enumerate(terms):
        total += weights[j] * loss(0, target, preds[i])
        d1[i] += weights[j] * loss(1, target, preds[i])
        d2[i] += weights[j] * loss(2, target, preds[i])
    value = total / (n + 1) + lam * float(a @ K @ a)
    grad = K @ d1 / (n + 1) + 2.0 * lam * K @ a
    hess = K @ np.diag(d2) @ K / (n + 1) + 2.0 * lam * K
    return value, grad, hess, d1, d2


def lu_curvature_solve(K, d, lam, rhs) -> np.ndarray:
    """Solve (I + diag(W) K) x = rhs, W = d / (2 lam (n+1)), by forming
    B = I + diag(s) K diag(s), s = sqrt(W), and one numpy.linalg.solve:
    x = rhs - s * B^{-1} (s * K rhs) (Rasmussen & Williams, GPML,
    Alg. 3.1), the Newton solve the package's conjugate gradients
    replace, in the package's operation order so that its LU fallback
    agrees bit for bit."""
    K = np.asarray(K, dtype=float)
    s = np.sqrt(np.asarray(d, dtype=float) / (2.0 * lam * K.shape[0]))
    B = s[:, None] * K * s
    B.flat[::B.shape[0] + 1] += 1.0
    return rhs - s * np.linalg.solve(B, s * (K @ rhs))


def eigh_newton_fit(problem, risk, gradient, hessian, init=None, max_iters=100):
    """Damped Newton with the spectral pseudo-inverse step, the fit the
    package's Newton step in prediction space replaces.

    `problem` is read through its `gram.entries`, `n` and
    `effective_targets()`; risk, gradient and hessian are the objective
    and its derivatives, called as f(problem, a). Each step applies the
    pseudo-inverse of the Hessian from a full eigendecomposition
    (relative eigenvalue cutoff 1e-12), falls back to the gradient when
    that fails to descend, backtracks by Armijo (constant 1e-4, at most 60
    halvings) and projects onto the range of K. Returns (coeffs, n_iters,
    grad_norm); raises RuntimeError when the line search stalls or the
    iterations run out.
    """
    def retained_basis(matrix):
        w, V = np.linalg.eigh(matrix)
        return w, V, w > 1e-12 * max(float(w[-1]), 0.0)

    K = problem.gram.entries
    n = problem.n
    _, VK, keepK = retained_basis(K)
    Vr = VK[:, keepK]

    def project(vec):
        return Vr @ (Vr.T @ vec)

    tol = 1e-10 * (1.0 + float(np.linalg.norm(problem.effective_targets())) / (n + 1))
    a = np.zeros(n + 1) if init is None else project(np.asarray(init, dtype=float))
    current = risk(problem, a)
    grad_norm = np.inf
    for it in range(1, max_iters + 1):
        grad = gradient(problem, a)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            return a, it - 1, grad_norm
        w, V, keep = retained_basis(hessian(problem, a))
        direction = -(V[:, keep] @ ((V[:, keep].T @ grad) / w[keep])) if keep.any() \
            else np.zeros_like(grad)
        slope = float(grad @ direction)
        if slope >= 0.0:
            direction = -grad
            slope = -grad_norm ** 2
        noise = 32.0 * np.finfo(float).eps * (1.0 + abs(current))
        step = 1.0
        for _ in range(61):
            candidate = project(a + step * direction)
            value = risk(problem, candidate)
            required = 1e-4 * step * slope
            if value <= current + required or (-required <= noise
                                               and value <= current + noise):
                break
            step *= 0.5
        else:
            raise RuntimeError(f"line search stalled at iteration {it} with "
                               f"gradient norm {grad_norm:.3e}")
        a, current = candidate, value
    raise RuntimeError(f"no convergence after {max_iters} iterations, "
                       f"gradient norm {grad_norm:.3e}")


def newton_grid_pvalues(problem, grid_values, fit):
    """Full conformal p-values by one plain Newton refit per grid point.

    `problem` is a z-anchored WeightedProblem; for each y in grid_values
    it is re-anchored at y (dataclasses.replace of its anchors) and fit
    by fit(problem, init=...), warm-started from the previous grid
    point's coefficients, with no chord factor. The p-value at y is
    (1 + #{i : |Y_i - pred_i| >= |y - query pred|}) / (n + 1).
    """
    n = problem.n
    K = problem.gram.entries
    pvals = np.empty(len(grid_values))
    init = None
    for j, y in enumerate(grid_values):
        pred = fit(replace(problem, anchors=(float(y), float(y))), init=init)
        preds = K @ pred.coeffs
        scores = np.abs(problem.targets - preds[:n])
        count = int(np.sum(scores >= abs(float(y) - preds[n])))
        pvals[j] = (1.0 + count) / (n + 1.0)
        init = pred.coeffs
    return pvals
