"""Damped Newton minimization of the weighted, ridge-regularized
empirical risk over coefficient vectors in the range of the Gram matrix.

A problem couples n labeled points with one query input carrying two
candidate outputs, the anchors (z, y). Its risk has n + 2 weighted loss
terms: the n data points at their predictions K a, and the two anchors,
both at the query prediction (K a)_n. A weight vector v of length n+2
switches the data terms and either anchor on or off, so one objective
covers the base fit (z_anchored_problem: anchor z active, both anchors
at z), the exact refit at a candidate y (the same problem re-anchored
at y), and the interpolated weights from the z anchor to the y anchor
that the influence-function check differentiates along. risk and
_weighted_derivatives each evaluate the loss once over all n + 2 terms.
Weights are nonnegative, so every weighted curvature is too, and each
Newton step is one positive definite solve in prediction space. A fit
keeps the predictions K a its convergence test was made at, and every
reader takes its predictions, the query prediction among them, from
there.

A fit from scratch takes full Newton steps. The warm-started refits along
a full conformal grid share one _ChordFactor instead: a cached inverse of
the Newton matrix at earlier curvatures, so that a step costs two
matrix-vector products in place of a factorization (the chord method).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_io import check_real, check_sample, check_vector
from .kernels import GramMatrix, KernelSpec, gram
from .losses import LossSpec, loss_d, loss_value

ARMIJO_C = 1e-4
MAX_HALVINGS = 60
DEFAULT_MAX_ITERS = 2000
BASE_TOL = 1e-10
# a chord step that leaves more than this fraction of the gradient norm
# has the factor rebuilt at the current curvatures before the next step
CHORD_REBUILD_RATIO = 0.1


def anchor_z_weights(n: int) -> np.ndarray:
    """Canonical weights (1, ..., 1, 1, 0): data plus the z anchor."""
    v = np.ones(n + 2)
    v[n + 1] = 0.0
    return v


def anchor_y_weights(n: int) -> np.ndarray:
    """Canonical weights (1, ..., 1, 0, 1): data plus the y anchor, the
    end of the influence-function weight path. No run path fits with
    them: the exact refit at y re-anchors a z-anchored problem at y."""
    v = np.ones(n + 2)
    v[n] = 0.0
    return v


def check_lam(lam) -> float:
    """lam as a float if it is a positive finite number, the ridge
    penalty's rule, else a ValueError naming it."""
    lam = check_real("lam", lam)
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    return lam


def _readonly_vector(name: str, value, size: int) -> np.ndarray:
    """check_vector's new array, made read-only."""
    out = check_vector(name, value, size)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class WeightedProblem:
    """Weighted empirical risk instance.

    gram    : GramMatrix over (X_1, ..., X_n, X_query)
    targets : outputs (Y_1, ..., Y_n)
    anchors : finite candidate outputs (z, y) attached to the query input
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
        object.__setattr__(self, "anchors", tuple(
            check_real(f"anchor {name}", a) for name, a in zip("zy", self.anchors)))
        object.__setattr__(self, "lam", check_lam(self.lam))
        n = np.size(self.targets)
        if self.gram.n != n + 1:
            raise ValueError(f"gram has {self.gram.n} points but targets has {n} entries; "
                             f"it needs n + 1 = {n + 1}, the inputs and the query input")
        object.__setattr__(self, "targets", _readonly_vector("targets", self.targets, n))
        object.__setattr__(self, "weights", _readonly_vector("weights", self.weights, n + 2))
        negative = np.flatnonzero(self.weights < 0)
        if negative.size:
            i = int(negative[0])
            raise ValueError(f"weights must be nonnegative, got {self.weights[i]} at index {i}")

    @property
    def n(self) -> int:
        return self.targets.size

    def effective_targets(self) -> np.ndarray:
        """Targets with the weight-combined anchor appended; sets the
        convergence scale of the solver."""
        z, y = self.anchors
        v = self.weights
        return np.append(self.targets, v[self.n] * z + v[self.n + 1] * y)


def _loss_terms(problem: WeightedProblem, preds: np.ndarray):
    """Targets (Y, z, y) and predictions (K a, (K a)_n, (K a)_n) of the
    n + 2 weighted loss terms at the predictions preds = K a."""
    return (np.concatenate((problem.targets, problem.anchors)),
            np.concatenate((preds, preds[problem.n:])))


def _weighted_derivatives(problem: WeightedProblem, preds: np.ndarray,
                          order: int) -> np.ndarray:
    """Loss derivatives of the given order at the predictions K a, term i
    weighted by v_i and the two anchor terms summed into index n. An
    anchor of weight 0 adds exactly nothing while its derivative is
    finite, since x + 0 * f equals x."""
    n = problem.n
    out = problem.weights * loss_d(problem.loss, order, *_loss_terms(problem, preds))
    out[n] += out[n + 1]
    return out[:n + 1]


def _curvature_matrix(problem: WeightedProblem,
                      d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = sqrt(W) and B = I + diag(s) K diag(s) for W = d / (2 lam (n+1)),
    d >= 0; the eigenvalues of B are all at least one."""
    K = problem.gram.entries
    s = np.sqrt(d / (2.0 * problem.lam * problem.gram.n))
    B = s[:, None] * K * s
    B.flat[::B.shape[0] + 1] += 1.0
    return s, B


def _curvature_solve(problem: WeightedProblem, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + diag(W) K) x = rhs for W = d / (2 lam (n+1)), d >= 0.

    Computes x = rhs - s * B^{-1} (s * K rhs) with s and B from
    _curvature_matrix (Rasmussen & Williams, GPML, Alg. 3.1). The risk
    Hessian at curvatures d is H = 2 lam K (I + diag(W) K), so
    H x = 2 lam K rhs: x agrees with H^+ (2 lam K rhs) up to the null
    space of K.
    """
    K = problem.gram.entries
    s, B = _curvature_matrix(problem, d)
    # numpy, not scipy.linalg: the two load separate OpenBLAS thread pools,
    # and cho_factor/cho_solve ran the compare benchmark 3.7x slower on 2 vCPUs
    return rhs - s * np.linalg.solve(B, s * (K @ rhs))


class _ChordFactor:
    """The Newton matrix of one earlier step, kept for chord steps.

    Holds s0 and B0^{-1} (numpy.linalg.inv, numpy for the reason given in
    _curvature_solve) of _curvature_matrix at curvatures d0, and applies
    them as x = rhs - s0 * B0^{-1} (s0 * K rhs), which solves
    (I + diag(W0) K) x = rhs. That is a Newton step at curvatures d0; at
    any W0 >= 0 it is a descent direction, so fit's line search and
    tolerance apply unchanged. inv is None until fit first rebuilds it;
    fit rebuilds it again after a chord step that contracts the gradient
    poorly (CHORD_REBUILD_RATIO).
    """

    def __init__(self) -> None:
        self.s = self.inv = None

    def rebuild(self, problem: WeightedProblem, d: np.ndarray) -> None:
        self.inv = None  # freed before inv allocates its copy and output
        self.s, B = _curvature_matrix(problem, d)
        self.inv = np.linalg.inv(B)

    def step(self, K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return rhs - self.s * (self.inv @ (self.s * (K @ rhs)))


def risk(problem: WeightedProblem, a: np.ndarray) -> float:
    """Weighted empirical risk over the n + 2 terms plus lam * a^T K a."""
    a = np.asarray(a, dtype=float)
    preds = problem.gram.entries @ a
    total = float(problem.weights @ loss_value(problem.loss, *_loss_terms(problem, preds)))
    return total / (problem.n + 1) + problem.lam * float(a @ preds)


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
    """Fitted coefficient vector, its predictions, and convergence
    diagnostics.

    coeffs lies in the range of the Gram matrix. fitted holds the
    predictions K a at all n+1 sample inputs that fit's convergence test
    was made at (read-only): exactly K coeffs at full rank, and within
    rounding of it otherwise, where the converged coefficients are then
    projected onto the range. risk_path records the objective after
    every accepted step (monotone by construction). factorizations counts
    the O(n^3) factorizations of the Newton matrix the fit made: one
    linear solve per Newton step, or one inversion per chord factor
    rebuild. fit returns one only on convergence.
    """

    coeffs: np.ndarray
    fitted: np.ndarray = field(repr=False)
    problem: WeightedProblem
    grad_norm: float
    n_iters: int
    factorizations: int
    risk_path: tuple = field(repr=False, default=())

    def predictions(self) -> np.ndarray:
        """Fitted values at all n+1 sample inputs, the read-only fitted."""
        return self.fitted

    def query_prediction(self) -> float:
        """Fitted value at the query input, the last of predictions()."""
        return float(self.fitted[-1])


def fit(problem: WeightedProblem, init: np.ndarray | None = None,
        chord: _ChordFactor | None = None) -> Predictor:
    """Minimize the weighted regularized risk over its n + 2 terms by
    damped Newton.

    With g and d the weighted loss derivatives and curvatures at K a,
    the Newton system H delta = -gradient reduces to
    (I + diag(W) K) delta = -(g/(2 lam (n+1)) + a), W = d/(2 lam (n+1)),
    one positive definite solve even when K is rank-deficient (see
    _curvature_solve). With a chord factor (the warm-started refits of
    conformal.full_conformal_pvalues; every other fit passes none and
    takes full Newton steps) the step reuses its cached W0 instead
    (_ChordFactor.step), rebuilt at the current curvatures when it has
    none yet or when the last chord step left more than
    CHORD_REBUILD_RATIO of the gradient norm; the factor carries over to
    the next fit that is handed it. A plain gradient step is the fallback
    when the direction fails to descend. Step sizes come from Armijo
    backtracking with constant 1e-4 and at most 60 halvings, for at most
    DEFAULT_MAX_ITERS steps, from init (finite, of length n+1) or zero.
    The gradient tolerance is 1e-10 * (1 + ||effective targets|| / (n+1)).
    The risk reads a only through K a, so only the converged coefficients
    are projected onto the range of the Gram matrix, where the minimizer
    is unique; no other code in the package reads the Gram spectrum. The
    returned Predictor keeps the K a of the final gradient check as its
    predictions, so no reader multiplies by K again.
    """
    G = problem.gram
    K = G.entries
    n = problem.n
    two_lam = 2.0 * problem.lam
    scale = float(np.linalg.norm(problem.effective_targets())) / (n + 1)
    tol = BASE_TOL * (1.0 + scale)
    a = np.zeros(n + 1) if init is None else check_vector("init", init, n + 1)
    current = risk(problem, a)
    path = [current]
    grad_norm = np.inf
    factorizations = 0
    before_chord = None  # the gradient norm before the last chord step
    for it in range(1, DEFAULT_MAX_ITERS + 1):
        preds = K @ a
        g = _weighted_derivatives(problem, preds, 1)
        grad = K @ g / (n + 1) + two_lam * preds
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            a = np.ascontiguousarray(G.project_onto_range(a))
            a.setflags(write=False)
            preds.setflags(write=False)
            return Predictor(a, preds, problem, grad_norm, it - 1, factorizations,
                             tuple(path))
        rhs = -(g / (two_lam * (n + 1)) + a)
        if chord is None:
            direction = _curvature_solve(problem, _weighted_derivatives(problem, preds, 2), rhs)
            factorizations += 1
        else:
            if chord.inv is None or (before_chord is not None
                                     and grad_norm > CHORD_REBUILD_RATIO * before_chord):
                chord.rebuild(problem, _weighted_derivatives(problem, preds, 2))
                factorizations += 1
            direction = chord.step(K, rhs)
            before_chord = grad_norm
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
            candidate = a + step * direction
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
        f"no convergence after {DEFAULT_MAX_ITERS} iterations, gradient norm {grad_norm:.3e}",
        a, grad_norm)


def rkhs_norm_diff(a1: np.ndarray, a2: np.ndarray, gram: GramMatrix) -> float:
    """RKHS norm of the difference of two coefficient vectors,
    sqrt((a1 - a2)^T K (a1 - a2)), clamped at zero."""
    d = check_vector("a1", a1, gram.n) - check_vector("a2", a2, gram.n)
    return float(np.sqrt(max(float(d @ (gram.entries @ d)), 0.0)))


def augmented_problem(X, Y, x_query, anchors: tuple[float, float],
                      weights: np.ndarray, lam: float, loss: LossSpec,
                      kernel: KernelSpec) -> WeightedProblem:
    """Assemble a WeightedProblem over (X_1, ..., X_n, x_query), the
    three a sample (data_io.check_sample)."""
    X, Y, xq = check_sample(X, Y, x_query)
    return WeightedProblem(gram=gram(kernel, np.vstack([X, xq])), targets=Y,
                           anchors=anchors, weights=weights, lam=lam, loss=loss)


def z_anchored_problem(X, Y, x_query, z: float, lam: float, loss: LossSpec,
                       kernel: KernelSpec) -> WeightedProblem:
    """The data plus the query input anchored at output z: anchors (z, z),
    weights anchor_z_weights."""
    return augmented_problem(X, Y, x_query, (z, z), anchor_z_weights(np.size(Y)),
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
