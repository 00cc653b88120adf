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
Newton step is one positive definite solve in prediction space, with
the Newton matrix B = I + W^1/2 K W^1/2 (_curvature_solve). That solve,
which the influence direction in approx makes too, runs conjugate
gradients on B as an operator, one product with K per iteration, and
forms and LU-factors B only as the fallback after a capped number of
iterations (_cg_cap). A fit keeps the predictions K a its convergence
test was made at, and every reader takes its predictions, the query
prediction among them, from there.

A fit from scratch takes full Newton steps. The refits along a full
conformal grid share one _ChordFactor instead: a cached inverse of the
Newton matrix at earlier curvatures, so that a step costs two
matrix-vector products in place of a solve (the chord method).
_ChordFactor.step is the one chord-step formula, for one right-hand side
(fit) or a stack of rows (refit_block). refit_block takes those chord
steps for a run of grid points at once, as matrix-matrix products over
their stacked coefficients, from the previous grid point's fit shifted
by the level-2 update, which _derivative_gap scales: the one
loss-derivative gap of the package, which approx reads for its local
radius and influence update. A refit leaves the block
once its gradient norm meets fit's tolerance, or once a step stops
contracting it (CHORD_REBUILD_RATIO). The block certifies nothing: each
refit is still one fit call, started from its converged block row, where
fit takes no step, or, for a refit that left early, from the previous grid
point's coefficients, where fit finishes it by chord steps.
"""

from __future__ import annotations

import math
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
# has the factor rebuilt at the current curvatures before the next step,
# and drops its refit from a block of refits (refit_block)
CHORD_REBUILD_RATIO = 0.1
_EPS = float(np.finfo(float).eps)
# Conjugate gradients on the Newton matrix (_curvature_solve) stop at a
# residual norm of CG_RTOL times the right-hand side's, and fall back to
# an LU solve after _cg_cap(n + 1) iterations. Measured on friedman1
# (noise_sd 1; logcosh and pseudo_huber on the laplacian kernel, logcosh
# and smoothed_pinball on the gaussian; n + 1 = 41 to 1025; 2 vCPUs,
# OpenBLAS 0.3.31, default threads): a solve takes at most 5 iterations
# at the default lam, at most 15 at lam = 0.01 and up to 97 at
# lam = 1e-4, and one LU solve, B formed, costs as much as 4, 25, 35, 59
# and 101 iterations at n + 1 = 41, 101, 201, 513 and 1025. So the cap
# grows as (n + 1) / 8, which keeps a fallback below about twice an LU
# from n + 1 = 201 up, with a floor, CG_MIN_CAP, that covers lam = 0.01.
CG_RTOL = 4.0 * _EPS
CG_MIN_CAP = 20


def _cg_cap(n_plus_1: int) -> int:
    """Conjugate-gradient iterations a Newton solve of size n + 1 takes
    before the LU fallback: max(CG_MIN_CAP, (n + 1) // 8)."""
    return max(CG_MIN_CAP, n_plus_1 // 8)


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


def _term_targets(targets: np.ndarray, anchors: tuple[float, float]) -> np.ndarray:
    """Targets (Y, z, y) of the n + 2 weighted loss terms, read-only; a
    problem builds them once, as its term_targets."""
    out = np.concatenate((targets, anchors))
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

    term_targets, not a field, holds the targets (Y, z, y) of the n + 2
    weighted loss terms (read-only), built once per problem.
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
        object.__setattr__(self, "term_targets", _term_targets(self.targets, self.anchors))

    @property
    def n(self) -> int:
        return self.targets.size

    def reanchored(self, y) -> "WeightedProblem":
        """This problem with both anchors at y, field for field what
        dataclasses.replace(self, anchors=(y, y)) gives, without
        validating the rest again: it shares the Gram matrix and the
        read-only targets and weights, and checks only y (a ValueError
        naming anchor y). The exact refit at every grid point re-anchors
        the one z-anchored problem."""
        new = object.__new__(WeightedProblem)
        anchors = (check_real("anchor y", y),) * 2
        new.__dict__.update(self.__dict__, anchors=anchors,
                            term_targets=_term_targets(self.targets, anchors))
        return new

    def effective_targets(self) -> np.ndarray:
        """Targets with the weight-combined anchor appended; sets the
        convergence scale of the solver."""
        z, y = self.anchors
        v = self.weights
        return np.concatenate((self.targets, (v[self.n] * z + v[self.n + 1] * y,)))


def _loss_terms(problem: WeightedProblem, preds: np.ndarray):
    """Targets (Y, z, y) and predictions (K a, (K a)_n, (K a)_n) of the
    n + 2 weighted loss terms at the predictions preds = K a."""
    return problem.term_targets, np.concatenate((preds, preds[problem.n:]))


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


def _curvature_scale(problem: WeightedProblem, d: np.ndarray) -> np.ndarray:
    """s = sqrt(W) for W = d / (2 lam (n+1)), d >= 0."""
    return np.sqrt(d / (2.0 * problem.lam * problem.gram.n))


def _curvature_matrix(problem: WeightedProblem,
                      d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = sqrt(W) and the Newton matrix B = I + diag(s) K diag(s) for
    W = d / (2 lam (n+1)), d >= 0; the eigenvalues of B are all at least
    one."""
    s = _curvature_scale(problem, d)
    B = s[:, None] * problem.gram.entries * s
    B.flat[::B.shape[0] + 1] += 1.0
    return s, B


def _conjugate_gradients(K: np.ndarray, s: np.ndarray, b: np.ndarray,
                         cap: int) -> tuple[np.ndarray | None, int]:
    """Plain conjugate gradients on B y = b from y = 0, with
    B = I + diag(s) K diag(s) applied as v + s * (K @ (s * v)), one
    product with K per iteration, and never formed.

    Returns (y, iterations) once the recurred residual has
    ||r|| <= CG_RTOL ||b||, else (None, iterations) after cap iterations
    or at once when the residual is not finite (a NaN curvature makes b
    NaN, so that takes no iteration).
    """
    y = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    stop = CG_RTOL * CG_RTOL * rr
    iterations = 0
    while math.isfinite(rr) and rr > stop and iterations < cap:
        q = p + s * (K @ (s * p))
        step = rr / float(p @ q)
        y += step * p
        r -= step * q
        rr, before = float(r @ r), rr
        p *= rr / before
        p += r
        iterations += 1
    return (y if math.isfinite(rr) and rr <= stop else None), iterations


def _curvature_solve(problem: WeightedProblem, d: np.ndarray, rhs: np.ndarray,
                     K_rhs: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Solve (I + diag(W) K) x = rhs for W = d / (2 lam (n+1)), d >= 0,
    given K_rhs = K rhs (fit's gradient check has formed it).

    Computes x = rhs - s * B^{-1} (s * K rhs) with s and B of
    _curvature_matrix (Rasmussen & Williams, GPML, Alg. 3.1). The risk
    Hessian at curvatures d is H = 2 lam K (I + diag(W) K), so
    H x = 2 lam K rhs: x agrees with H^+ (2 lam K rhs) up to the null
    space of K. B's eigenvalues are at least one, and its condition
    number is close to one unless lam is small, so conjugate gradients
    on B as an operator (_conjugate_gradients) solve the system in
    O(n^2) per iteration: an inexact Newton step with a residual of a few
    ulps (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 1982). After
    _cg_cap(n + 1) iterations, or at once on a residual that is not
    finite, B is formed and LU-factored instead. Returns x, the CG
    iterations taken, and whether the LU fallback ran.
    """
    K = problem.gram.entries
    s = _curvature_scale(problem, d)
    b = s * K_rhs
    y, iterations = _conjugate_gradients(K, s, b, _cg_cap(problem.gram.n))
    factored = y is None
    if factored:
        # numpy, not scipy.linalg: the two load separate OpenBLAS thread
        # pools, and cho_factor/cho_solve ran the compare benchmark 3.7x
        # slower on 2 vCPUs
        y = np.linalg.solve(_curvature_matrix(problem, d)[1], b)
    return rhs - s * y, iterations, factored


class _ChordFactor:
    """The Newton matrix of one earlier step, kept for chord steps.

    Holds s0 and B0^{-1} (numpy.linalg.inv, numpy for the reason given in
    _curvature_solve) of _curvature_matrix at curvatures d0. step is the
    package's one chord-step formula, x = rhs - s0 * B0^{-1} (s0 * K rhs),
    which solves (I + diag(W0) K) x = rhs: a Newton step at curvatures d0.
    At any W0 >= 0 it is a descent direction, so fit's line search and
    tolerance apply unchanged. inv is None until fit or refit_block first
    rebuilds it; fit rebuilds it again after a chord step that contracts
    the gradient poorly (CHORD_REBUILD_RATIO).
    """

    def __init__(self) -> None:
        self.s = self.inv = None

    def rebuild(self, problem: WeightedProblem, d: np.ndarray) -> None:
        self.inv = None  # freed before inv allocates its copy and output
        self.s, B = _curvature_matrix(problem, d)
        self.inv = np.linalg.inv(B)

    def step(self, K_rhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The chord step x of rhs, given K_rhs = K rhs: one vector, or a
        stack of rows (row j of K_rhs the product K rhs_j, which is row j
        of rhs @ K since K is symmetric)."""
        return rhs - self.s * ((self.s * K_rhs) @ self.inv.T)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real vector, sqrt(v @ v), which is what
    numpy.linalg.norm computes for one, bit for bit."""
    return math.sqrt(v @ v)


def risk(problem: WeightedProblem, a: np.ndarray, preds: np.ndarray | None = None) -> float:
    """Weighted empirical risk over the n + 2 terms plus lam * a^T K a;
    preds, when given, must be K a (fit passes the product it shares
    with its gradient check)."""
    a = np.asarray(a, dtype=float)
    if preds is None:
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
    the O(n^3) factorizations of the Newton matrix the fit made: one LU
    solve per Newton step whose conjugate gradients fell back (at the
    cap, or on a residual that is not finite), or one inversion per
    chord factor rebuild. cg_iterations sums the
    conjugate-gradient iterations over the fit's Newton steps, fallbacks
    included. fit returns one only on convergence.
    """

    coeffs: np.ndarray
    fitted: np.ndarray = field(repr=False)
    problem: WeightedProblem
    grad_norm: float
    n_iters: int
    factorizations: int
    cg_iterations: int
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
    one positive definite solve even when K is rank-deficient, by
    conjugate gradients with an LU fallback (see _curvature_solve).
    With a chord factor (the warm-started refits of
    conformal.full_conformal_pvalues; every other fit passes none and
    takes full Newton steps) the step reuses its cached W0 instead
    (_ChordFactor.step of K rhs and rhs, the chord step refit_block also
    takes), rebuilt at the current curvatures when it has
    none yet or when the last chord step left more than
    CHORD_REBUILD_RATIO of the gradient norm; the factor carries over to
    the next fit that is handed it. A plain gradient step is the fallback
    when the direction fails to descend. Step sizes come from Armijo
    backtracking with constant 1e-4 and at most 60 halvings, for at most
    DEFAULT_MAX_ITERS steps, from init (finite, of length n+1) or zero.
    The gradient tolerance is 1e-10 * (1 + ||effective targets|| / (n+1)),
    and the gradient norm is 2 lam ||K rhs||, rhs the step's right-hand
    side above, since K rhs = -gradient / (2 lam): the check reads the
    product with K the step takes (refit_block's gradient form), and
    gradient() stays the independent formula.
    The risk reads a only through K a, so only the converged coefficients
    are projected onto the range of the Gram matrix, where the minimizer
    is unique; no other code in the package reads the Gram spectrum. Each
    iterate's K a serves both its risk and its gradient check, and the
    returned Predictor keeps the K a of the final check as its
    predictions, so no reader multiplies by K again. It also counts the
    fit's LU fallbacks and chord rebuilds (factorizations) and its CG
    iterations (cg_iterations).
    """
    G = problem.gram
    K = G.entries
    n = problem.n
    two_lam = 2.0 * problem.lam
    tol = BASE_TOL * (1.0 + _norm(problem.effective_targets()) / (n + 1))
    a = np.zeros(n + 1) if init is None else check_vector("init", init, n + 1)
    preds = K @ a
    current = risk(problem, a, preds)
    path = [current]
    grad_norm = np.inf
    factorizations = cg_iterations = 0
    before_chord = None  # the gradient norm before the last chord step
    for it in range(1, DEFAULT_MAX_ITERS + 1):
        rhs = -(_weighted_derivatives(problem, preds, 1) / (two_lam * (n + 1)) + a)
        # K rhs = -gradient / (2 lam)
        K_rhs = K @ rhs
        grad_norm = two_lam * _norm(K_rhs)
        if grad_norm <= tol:
            a = np.ascontiguousarray(G.project_onto_range(a))
            a.setflags(write=False)
            preds.setflags(write=False)
            return Predictor(a, preds, problem, grad_norm, it - 1, factorizations,
                             cg_iterations, tuple(path))
        if chord is None:
            direction, iterations, factored = _curvature_solve(
                problem, _weighted_derivatives(problem, preds, 2), rhs, K_rhs)
            cg_iterations += iterations
            factorizations += factored
        else:
            if chord.inv is None or (before_chord is not None
                                     and grad_norm > CHORD_REBUILD_RATIO * before_chord):
                chord.rebuild(problem, _weighted_derivatives(problem, preds, 2))
                factorizations += 1
            direction = chord.step(K_rhs, rhs)
            before_chord = grad_norm
        slope = -two_lam * float(K_rhs @ direction)
        if slope >= 0.0:
            direction = two_lam * K_rhs  # the negative gradient
            slope = -grad_norm ** 2
        # near the optimum the exact Armijo decrease falls below the
        # float resolution of the risk; accept any step that does not
        # measurably increase the risk once that happens
        noise = 32.0 * _EPS * (1.0 + abs(current))
        step = 1.0
        accepted = None
        for _ in range(MAX_HALVINGS + 1):
            candidate = a + step * direction
            candidate_preds = K @ candidate
            value = risk(problem, candidate, candidate_preds)
            required = ARMIJO_C * step * slope
            if value <= current + required or (-required <= noise
                                               and value <= current + noise):
                accepted = (candidate, candidate_preds, value)
                break
            step *= 0.5
        if accepted is None:
            raise SolverError(
                f"line search stalled at iteration {it} with gradient norm {grad_norm:.3e}",
                a, grad_norm)
        a, preds, current = accepted
        path.append(current)
    raise SolverError(
        f"no convergence after {DEFAULT_MAX_ITERS} iterations, gradient norm {grad_norm:.3e}",
        a, grad_norm)


def _derivative_gap(y, z, base: Predictor, loss: LossSpec):
    """Loss-derivative gap d1(z) - d1(y) at the base fit's query
    prediction, d1 the loss's first derivative in its second argument.
    approx takes the local radius as half its size and scales the
    influence-function coefficient update by it; refit_block shifts its
    rows' start by it (the level-2 update)."""
    m_q = base.query_prediction()
    return loss_d(loss, 1, z, m_q) - loss_d(loss, 1, y, m_q)


def refit_block(start: Predictor, ys, chord: _ChordFactor) -> tuple[np.ndarray, np.ndarray]:
    """Chord iterations on the refits at every y of ys as one block.

    start is a fit of a problem whose two anchors sit at one y0 (a
    z-anchored problem re-anchored at y0); row j of the block holds the
    coefficients of that problem re-anchored at ys[j]. Every row starts
    from start's coefficients shifted by the level-2 update,
    a0 + v_q _derivative_gap(y, y0) / (n+1) * direction, with v_q the
    query term's weight and direction the chord step of the query's unit
    vector over 2 lam. Then all rows take full chord steps with the one
    factor (built at start's curvatures if it has none, never rebuilt
    here): per step one loss_d over the k x (n+1) terms and three matrix
    products, R @ K for the gradient norms, which _ChordFactor.step takes
    as its K rhs, the step's own product, and the new predictions. A row
    leaves the block once its gradient norm meets fit's tolerance
    (converged), or once a step leaves more than CHORD_REBUILD_RATIO of
    it, or a norm that is not finite (dropped).

    Returns coeffs, k x (n+1), and converged, k booleans; row j of coeffs
    holds the last iterate of a converged row and is undefined
    otherwise. Nothing here certifies a refit: fit does, started from
    that row (conformal.full_conformal_pvalues).
    """
    problem = start.problem
    K = problem.gram.entries
    n = problem.n
    two_lam = 2.0 * problem.lam
    ys = np.asarray(ys, dtype=float)
    v = problem.weights
    w = v[:n + 1].copy()
    w[n] += v[n + 1]  # both anchor terms sit at y
    if chord.inv is None:
        chord.rebuild(problem, _weighted_derivatives(problem, start.fitted, 2))
    unit = np.zeros(n + 1)
    unit[n] = 1.0
    direction = chord.step(K[:, n], unit) / two_lam
    gap = _derivative_gap(ys, problem.anchors[1], start, problem.loss)
    # row j is the refit at ys[j]; K is symmetric, so A @ K stacks the K a_j
    shift = (w[n] * gap / (n + 1))[:, None]
    A = shift * direction + start.coeffs
    P = shift * (K @ direction) + start.fitted  # K A, from start's K a0
    T = np.empty_like(A)
    T[:, :n] = problem.targets
    T[:, n] = ys
    targets = problem.targets
    tol = BASE_TOL * (1.0 + np.sqrt(targets @ targets + (w[n] * ys) ** 2) / (n + 1))
    w /= two_lam * (n + 1)
    coeffs = np.empty_like(A)
    converged = np.zeros(ys.size, dtype=bool)
    rows = np.arange(ys.size)
    before = np.inf  # the gradient norms before the last step
    while rows.size:
        # R is fit's rhs, and K R = -gradient / (2 lam)
        R = -(loss_d(problem.loss, 1, T, P) * w + A)
        KR = R @ K
        norms = two_lam * np.sqrt(np.einsum("ij,ij->i", KR, KR))
        done = norms <= tol
        coeffs[rows[done]] = A[done]
        converged[rows[done]] = True
        keep = ~done & np.isfinite(norms) & (norms <= CHORD_REBUILD_RATIO * before)
        A, T, R, KR, rows, tol, before = (x[keep] for x in (A, T, R, KR, rows, tol, norms))
        A += chord.step(KR, R)
        P = A @ K
    return coeffs, converged


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
