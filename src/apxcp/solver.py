"""Damped Newton minimization of the weighted, ridge-regularized
empirical risk over coefficient vectors in the range of the Gram matrix.

A problem couples n labeled points with one query input carrying two
candidate outputs, the anchors (z, y). A weight vector v of length n+2
switches the data terms and either anchor on or off, so one objective
covers the base fit (anchor z active), the exact refit at a candidate y
(anchor y active), and the interpolated weights the influence-function
check differentiates along. Weights are nonnegative, so every weighted
curvature is too, and each Newton step is one positive definite solve in
prediction space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import GramMatrix, KernelSpec, gram
from .losses import LossSpec, loss_d, loss_value

ARMIJO_C = 1e-4
MAX_HALVINGS = 60
DEFAULT_MAX_ITERS = 2000
BASE_TOL = 1e-10


def anchor_z_weights(n: int) -> np.ndarray:
    """Canonical weights (1, ..., 1, 1, 0): data plus the z anchor."""
    v = np.ones(n + 2)
    v[n + 1] = 0.0
    return v


def anchor_y_weights(n: int) -> np.ndarray:
    """Canonical weights (1, ..., 1, 0, 1): data plus the y anchor."""
    v = np.ones(n + 2)
    v[n] = 0.0
    return v


def _readonly(arr) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class WeightedProblem:
    """Weighted empirical risk instance.

    gram    : GramMatrix over (X_1, ..., X_n, X_query)
    targets : outputs (Y_1, ..., Y_n)
    anchors : candidate outputs (z, y) attached to the query input
    weights : v in R^{n+2}, nonnegative; entry n weights the z term, entry
              n+1 the y term
    lam     : ridge penalty weight, > 0
    loss    : loss specification
    """

    gram: GramMatrix
    targets: np.ndarray
    anchors: tuple[float, float]
    weights: np.ndarray
    lam: float
    loss: LossSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", _readonly(self.targets))
        object.__setattr__(self, "weights", _readonly(self.weights))
        object.__setattr__(self, "anchors", (float(self.anchors[0]), float(self.anchors[1])))
        n = self.targets.size
        if self.gram.n != n + 1:
            raise ValueError(f"gram has {self.gram.n} points but targets has {n} entries")
        if not np.isfinite(self.targets).all():
            raise ValueError("targets must be finite")
        if self.weights.shape != (n + 2,):
            raise ValueError(f"weights must have length {n + 2}, got {self.weights.shape}")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        negative = np.flatnonzero(self.weights < 0)
        if negative.size:
            i = int(negative[0])
            raise ValueError(f"weights must be nonnegative, got {self.weights[i]} at index {i}")
        if not (self.lam > 0 and np.isfinite(self.lam)):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")

    @property
    def n(self) -> int:
        return self.targets.size

    def effective_targets(self) -> np.ndarray:
        """Targets with the weight-combined anchor appended; sets the
        convergence scale of the solver."""
        z, y = self.anchors
        v = self.weights
        return np.append(self.targets, v[self.n] * z + v[self.n + 1] * y)


def _anchor_terms(problem: WeightedProblem, query_pred: float, order: int) -> float:
    """Weighted loss values (order 0) or derivatives of the two anchors at
    the query prediction. An anchor of weight 0 is skipped, since
    x + 0 * f equals x: a z- or y-anchored problem evaluates one anchor."""
    total = 0.0
    for weight, anchor in zip(problem.weights[problem.n:], problem.anchors):
        if weight != 0.0:
            total += weight * (loss_value(problem.loss, anchor, query_pred) if order == 0
                               else loss_d(problem.loss, order, anchor, query_pred))
    return total


def _weighted_derivatives(problem: WeightedProblem, preds: np.ndarray,
                          order: int) -> np.ndarray:
    """Loss derivatives of the given order at the predictions K a, data
    term i weighted by v_i and the two anchors combined at index n."""
    n = problem.n
    out = np.empty(n + 1)
    out[:n] = problem.weights[:n] * loss_d(problem.loss, order, problem.targets, preds[:n])
    out[n] = _anchor_terms(problem, float(preds[n]), order)
    return out


def _curvature_solve(problem: WeightedProblem, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + diag(W) K) x = rhs for W = d / (2 lam (n+1)), d >= 0.

    Computes x = rhs - s * B^{-1} (s * K rhs) with s = sqrt(W) and
    B = I + diag(s) K diag(s), whose eigenvalues are all at least one
    (Rasmussen & Williams, GPML, Alg. 3.1). The risk Hessian at curvatures
    d is H = 2 lam K (I + diag(W) K), so H x = 2 lam K rhs: x agrees with
    H^+ (2 lam K rhs) up to the null space of K.
    """
    K = problem.gram.entries
    s = np.sqrt(d / (2.0 * problem.lam * problem.gram.n))
    B = s[:, None] * K * s
    B.flat[::B.shape[0] + 1] += 1.0
    # numpy, not scipy.linalg: the two load separate OpenBLAS thread pools,
    # and cho_factor/cho_solve ran the compare benchmark 3.7x slower on 2 vCPUs
    return rhs - s * np.linalg.solve(B, s * (K @ rhs))


def risk(problem: WeightedProblem, a: np.ndarray) -> float:
    """Weighted empirical risk plus lam * a^T K a."""
    a = np.asarray(a, dtype=float)
    K = problem.gram.entries
    preds = K @ a
    n = problem.n
    data = float(problem.weights[:n] @ loss_value(problem.loss, problem.targets, preds[:n]))
    total = data + _anchor_terms(problem, float(preds[n]), order=0)
    return total / (n + 1) + problem.lam * float(a @ preds)


def gradient(problem: WeightedProblem, a: np.ndarray) -> np.ndarray:
    """K g / (n+1) + 2 lam K a, with g the weighted loss derivatives."""
    a = np.asarray(a, dtype=float)
    K = problem.gram.entries
    preds = K @ a
    g = _weighted_derivatives(problem, preds, 1)
    return K @ g / (problem.n + 1) + 2.0 * problem.lam * preds


def hessian(problem: WeightedProblem, a: np.ndarray) -> np.ndarray:
    """K diag(d) K / (n+1) + 2 lam K, with d the weighted curvatures."""
    a = np.asarray(a, dtype=float)
    K = problem.gram.entries
    d = _weighted_derivatives(problem, K @ a, 2)
    H = (K * d) @ K / (problem.n + 1) + 2.0 * problem.lam * K
    return 0.5 * (H + H.T)


class SolverError(RuntimeError):
    """Raised when Newton fails to reach the gradient tolerance.

    Carries the last iterate and its gradient norm.
    """

    def __init__(self, message: str, coeffs: np.ndarray, grad_norm: float):
        super().__init__(message)
        self.coeffs = coeffs
        self.grad_norm = grad_norm


@dataclass(frozen=True)
class Predictor:
    """Fitted coefficient vector with convergence diagnostics.

    coeffs lies in the range of the Gram matrix; risk_path records the
    objective after every accepted step (monotone by construction). fit
    returns one only on convergence.
    """

    coeffs: np.ndarray
    problem: WeightedProblem
    grad_norm: float
    n_iters: int
    risk_path: tuple = field(repr=False, default=())

    def predictions(self) -> np.ndarray:
        """Fitted values at all n+1 sample inputs."""
        return self.problem.gram.entries @ self.coeffs

    def query_prediction(self) -> float:
        return float(self.coeffs @ self.problem.gram.query_column)


def fit(problem: WeightedProblem, init: np.ndarray | None = None,
        max_iters: int = DEFAULT_MAX_ITERS) -> Predictor:
    """Minimize the weighted regularized risk by damped Newton.

    With g and d the weighted loss derivatives and curvatures at K a,
    the Newton system H delta = -gradient reduces to
    (I + diag(W) K) delta = -(g/(2 lam (n+1)) + a), W = d/(2 lam (n+1)),
    one positive definite solve even when K is rank-deficient (see
    _curvature_solve). A plain gradient step is the fallback when that
    direction fails to descend. Step sizes come from Armijo backtracking
    with constant 1e-4 and at most 60 halvings. Iterates are projected
    onto the range of the Gram matrix, where the minimizer is unique. The
    gradient tolerance is 1e-10 * (1 + ||effective targets|| / (n+1)).
    """
    G = problem.gram
    K = G.entries
    n = problem.n
    two_lam = 2.0 * problem.lam
    scale = float(np.linalg.norm(problem.effective_targets())) / (n + 1)
    tol = BASE_TOL * (1.0 + scale)
    if init is None:
        a = np.zeros(n + 1)
    else:
        a = G.project_onto_range(np.asarray(init, dtype=float))
    current = risk(problem, a)
    path = [current]
    grad_norm = np.inf
    for it in range(1, max_iters + 1):
        preds = K @ a
        g = _weighted_derivatives(problem, preds, 1)
        grad = K @ g / (n + 1) + two_lam * preds
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            a = np.ascontiguousarray(a)
            a.setflags(write=False)
            return Predictor(a, problem, grad_norm, it - 1, tuple(path))
        d = _weighted_derivatives(problem, preds, 2)
        direction = _curvature_solve(problem, d, -(g / (two_lam * (n + 1)) + a))
        slope = float(grad @ direction)
        if slope >= 0.0:
            direction = -grad
            slope = -grad_norm ** 2
        # near the optimum the exact Armijo decrease falls below the
        # float resolution of the risk; accept any step that does not
        # measurably increase the risk once that happens
        noise = 32.0 * np.finfo(float).eps * (1.0 + abs(current))
        step = 1.0
        accepted = None
        for _ in range(MAX_HALVINGS + 1):
            candidate = G.project_onto_range(a + step * direction)
            value = risk(problem, candidate)
            required = ARMIJO_C * step * slope
            if value <= current + required or (-required <= noise
                                               and value <= current + noise):
                accepted = (candidate, value)
                break
            step *= 0.5
        if accepted is None:
            raise SolverError(
                f"line search stalled at iteration {it} with gradient norm {grad_norm:.3e}",
                a, grad_norm)
        a, current = accepted
        path.append(current)
    raise SolverError(
        f"no convergence after {max_iters} iterations, gradient norm {grad_norm:.3e}",
        a, grad_norm)


def rkhs_norm_diff(a1: np.ndarray, a2: np.ndarray, gram: GramMatrix) -> float:
    """RKHS norm of the difference of two coefficient vectors,
    sqrt((a1 - a2)^T K (a1 - a2)), clamped at zero."""
    d = np.asarray(a1, dtype=float) - np.asarray(a2, dtype=float)
    if d.shape != (gram.n,):
        raise ValueError(f"coefficient vectors must have length {gram.n}")
    return float(np.sqrt(max(float(d @ (gram.entries @ d)), 0.0)))


def augmented_problem(X, Y, x_query, anchors: tuple[float, float],
                      weights: np.ndarray, lam: float, loss: LossSpec,
                      kernel: KernelSpec) -> WeightedProblem:
    """Assemble a WeightedProblem over (X_1, ..., X_n, x_query)."""
    X = np.asarray(X, dtype=float)
    xq = np.atleast_2d(np.asarray(x_query, dtype=float))
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-d (n, d) array, got shape {X.shape}")
    if xq.shape != (1, X.shape[1]):
        raise ValueError(f"x_query must be one point of width {X.shape[1]} "
                         f"like the rows of X, got shape {np.shape(x_query)}")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    if not np.isfinite(xq).all():
        raise ValueError("x_query must be finite")
    G = gram(kernel, np.vstack([X, xq]))
    return WeightedProblem(gram=G, targets=np.asarray(Y, dtype=float),
                           anchors=anchors, weights=weights, lam=lam, loss=loss)


def z_anchored_problem(X, Y, x_query, z: float, lam: float, loss: LossSpec,
                       kernel: KernelSpec) -> WeightedProblem:
    """The data plus the query input anchored at output z: anchors (z, z),
    weights anchor_z_weights."""
    Y = np.asarray(Y, dtype=float)
    return augmented_problem(X, Y, x_query, (z, z), anchor_z_weights(Y.size),
                             lam, loss, kernel)


def check_z_anchored(problem: WeightedProblem, z: float, owner: str) -> None:
    """Raise ValueError, naming owner and the field that differs, unless
    problem is anchored at z as z_anchored_problem anchors it: anchors
    (z, z) and weights anchor_z_weights."""
    for field_name, same in (("anchors", problem.anchors == (z, z)),
                             ("weights", np.array_equal(problem.weights,
                                                        anchor_z_weights(problem.n)))):
        if not same:
            raise ValueError(f"{owner} is not anchored at z = {z} (mismatch in {field_name})")
