"""Damped Newton minimization of the weighted, ridge-regularized
empirical risk over coefficient vectors in the range of the Gram matrix.

A problem couples n labeled points with one query input carrying two
candidate outputs, the anchors (z, y). A weight vector v of length n+2
switches the data terms and either anchor on or off, so one objective
covers the base fit (anchor z active), the exact refit at a candidate y
(anchor y active), and the interpolated weights the influence-function
check differentiates along.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import GramMatrix, KernelSpec, gram, pseudo_inverse_apply
from .losses import LossSpec, loss_d, loss_value

ARMIJO_C = 1e-4
MAX_HALVINGS = 60
DEFAULT_MAX_ITERS = 100
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
    weights : v in R^{n+2}; entry n weights the z term, entry n+1 the y term
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
    z, y = problem.anchors
    v = problem.weights
    n = problem.n
    if order == 0:
        fz = loss_value(problem.loss, z, query_pred)
        fy = loss_value(problem.loss, y, query_pred)
    else:
        fz = loss_d(problem.loss, order, z, query_pred)
        fy = loss_d(problem.loss, order, y, query_pred)
    return v[n] * fz + v[n + 1] * fy


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
    n = problem.n
    g = np.empty(n + 1)
    g[:n] = problem.weights[:n] * loss_d(problem.loss, 1, problem.targets, preds[:n])
    g[n] = _anchor_terms(problem, float(preds[n]), order=1)
    return K @ g / (n + 1) + 2.0 * problem.lam * preds


def hessian(problem: WeightedProblem, a: np.ndarray) -> np.ndarray:
    """K diag(d) K / (n+1) + 2 lam K, with d the weighted curvatures."""
    a = np.asarray(a, dtype=float)
    K = problem.gram.entries
    preds = K @ a
    n = problem.n
    d = np.empty(n + 1)
    d[:n] = problem.weights[:n] * loss_d(problem.loss, 2, problem.targets, preds[:n])
    d[n] = _anchor_terms(problem, float(preds[n]), order=2)
    H = (K * d) @ K / (n + 1) + 2.0 * problem.lam * K
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
    objective after every accepted step (monotone by construction).
    """

    coeffs: np.ndarray
    problem: WeightedProblem
    converged: bool
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

    The Newton direction applies the spectral pseudo-inverse of the
    Hessian; a plain gradient step is the fallback when that direction
    fails to descend. Step sizes come from Armijo backtracking with
    constant 1e-4 and at most 60 halvings. Iterates are projected onto
    the range of the Gram matrix, where the minimizer is unique. The
    gradient tolerance is 1e-10 * (1 + ||effective targets|| / (n+1)).
    """
    G = problem.gram
    n = problem.n
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
        grad = gradient(problem, a)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            a = np.ascontiguousarray(a)
            a.setflags(write=False)
            return Predictor(a, problem, True, grad_norm, it - 1, tuple(path))
        H = hessian(problem, a)
        direction = -pseudo_inverse_apply(H, grad)
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


def predict(p: Predictor, kernel_row: np.ndarray) -> float:
    """Evaluate the fitted function at a point given its kernel row
    (k(X_1, x), ..., k(X_query, x))."""
    row = np.asarray(kernel_row, dtype=float)
    if row.shape != p.coeffs.shape:
        raise ValueError(f"kernel row must have length {p.coeffs.size}, got {row.shape}")
    return float(p.coeffs @ row)


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
