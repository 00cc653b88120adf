"""Approximate full conformal prediction without per-candidate refits.

One base fit anchored at a fixed output z replaces the refit at every
candidate y. Three approximation levels with matching score-error
envelopes tau are provided:

  uniform_stability   tau from the loss's uniform Lipschitz constant,
                      constant in y
  local_stability     tau from a y-local derivative difference, pointwise
                      tighter than the uniform envelope
  influence_function  first-order predictor correction along the weight
                      path from the z anchor to the y anchor, with a
                      second-order tau envelope

Every envelope factors as tau_i(y) = scale[i] * radial(y), where scale
carries the kernel diagonal and the levels differ only in the stability
radius radial(y); tau_profile builds a level's envelope in that form, and
if_error_bound reuses the level-2 radius. Upper and lower p-value curves
built from the envelopes sandwich the exact full conformal region; the
grid measure of their difference is the thickness gap diagnostic, with
closed-form theoretical bounds alongside.

The curves of all three levels come from one scan over the data scores
sorted once: a grid point decides every data index by its sorted base
score except those in a short band around its threshold, which it scores
exactly. A curve over m grid points costs one fit, one linear solve and
O((m + n) log n) counting, and gives bit for bit the p-values of scoring
all m * (n+1) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import PredictionRegion, PValueCurve, YGrid
from .kernels import GramMatrix, KernelSpec, pseudo_inverse_apply
from .losses import LossSpec, SmoothnessConstants, loss_d, smoothness_constants
from .solver import (Predictor, anchor_z_weights, augmented_problem, fit,
                     hessian)

APPROX_KINDS = ("uniform_stability", "local_stability", "influence_function")
_LEVEL = {"uniform_stability": 0, "local_stability": 1, "influence_function": 2}

# grid points whose threshold bands the scan scores together; bounds each
# band temporary at DEFAULT_CHUNK * (widest band) floats, at most
# DEFAULT_CHUNK * n
DEFAULT_CHUNK = 16384


@dataclass(frozen=True)
class ApproxMethod:
    """Approximation level plus the fixed anchor output z."""

    kind: str
    z_anchor: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in APPROX_KINDS:
            raise ValueError(f"unknown approximation kind {self.kind!r}")
        if not np.isfinite(self.z_anchor):
            raise ValueError("z_anchor must be finite")

    @property
    def level(self) -> int:
        return _LEVEL[self.kind]


@dataclass(frozen=True)
class TauProfile:
    """Score-error envelopes tau_i(y) in factored form.

    Every envelope here separates as tau_i(y) = scale[i] * radial[y]:
    scale carries the kernel diagonal geometry, radial the y-dependent
    stability radius. rho1, rho1_tilde, and rho2 cache the per-grid-point
    stability quantities when the level uses them.
    """

    scale: np.ndarray
    radial: np.ndarray
    rho1: np.ndarray | None = None
    rho1_tilde: np.ndarray | None = None
    rho2: np.ndarray | None = None

    def __post_init__(self) -> None:
        scale = np.asarray(self.scale, dtype=float)
        radial = np.atleast_1d(np.asarray(self.radial, dtype=float))
        if not (np.isfinite(scale).all() and np.isfinite(radial).all()):
            raise ValueError("tau factors must be finite")
        if (scale < 0).any() or (radial < 0).any():
            raise ValueError("tau factors must be nonnegative")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "radial", radial)

    def tau_matrix(self) -> np.ndarray:
        """Dense (grid points, n+1) envelope matrix."""
        return self.radial[:, None] * self.scale[None, :]

    @property
    def test_tau(self) -> np.ndarray:
        """Envelope on the test score, per grid point."""
        return self.radial * self.scale[-1]

    def sup_tau(self) -> float:
        """Supremum over indices and the grid."""
        return float(self.scale.max() * self.radial.max())


def rho1(y, z: float, base: Predictor, loss: LossSpec):
    """Local stability radius: half the derivative gap between the two
    anchor outputs at the base fit's query prediction. Never exceeds rho."""
    m_q = base.query_prediction()
    return 0.5 * np.abs(loss_d(loss, 1, y, m_q) - loss_d(loss, 1, z, m_q))


def influence_direction(base: Predictor) -> np.ndarray:
    """Pseudo-inverse of the base-fit risk Hessian applied to the query
    kernel column. Computed once per base fit; every influence quantity
    is a scalar multiple of this vector."""
    H = hessian(base.problem, base.coeffs)
    return pseudo_inverse_apply(H, base.problem.gram.query_column)


def influence_vector(z_prime: float, base: Predictor,
                     direction: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of the influence function at the perturbation output
    z_prime: -(1/(n+1)) * d2loss(z_prime, query prediction) * direction."""
    if direction is None:
        direction = influence_direction(base)
    m_q = base.query_prediction()
    d1 = loss_d(base.problem.loss, 1, float(z_prime), m_q)
    return (-d1 / base.problem.gram.n) * direction


def if_predictor(y: float, z: float, base: Predictor,
                 direction: np.ndarray | None = None) -> np.ndarray:
    """First-order coefficient update replacing the exact refit at y.

    Equals base coefficients minus the influence at z plus the influence
    at y; only the scalar derivative factor depends on y.
    """
    if direction is None:
        direction = influence_direction(base)
    m_q = base.query_prediction()
    loss = base.problem.loss
    c = loss_d(loss, 1, float(z), m_q) - loss_d(loss, 1, float(y), m_q)
    return base.coeffs + (c / base.problem.gram.n) * direction


def rho_tilde1(gram: GramMatrix, constants: SmoothnessConstants, lam: float, rho1_val):
    """Inflated local radius feeding the second-order bound."""
    kqq = gram.diagonal[-1]
    return (1.0 + kqq * constants.beta2 / (lam * gram.n)) * np.asarray(rho1_val, dtype=float)


def rho2(gram: GramMatrix, constants: SmoothnessConstants, lam: float, rho1_tilde):
    """Second-order stability radius controlling the influence-function
    predictor error, from the inflated local radius rho_tilde1."""
    kqq = gram.diagonal[-1]
    curvature = float(np.mean(gram.diagonal ** 1.5))
    return (0.5 * constants.xi * np.sqrt(kqq) * curvature * rho1_tilde ** 2
            + 2.0 * lam * kqq * constants.beta2 * rho1_tilde)


def _if_radius(np1: int, lam: float, r1, r2):
    """min(rho2/(lam^3 (n+1)^2), 2*rho1/(lam (n+1)))."""
    return np.minimum(r2 / (lam ** 3 * np1 ** 2), 2.0 * r1 / (lam * np1))


def tau_profile(level: int, gram: GramMatrix, constants: SmoothnessConstants,
                lam: float, m: int, rho1_val=None) -> TauProfile:
    """Envelope of one approximation level over m grid points.

    The scale is sqrt(K_ii) * sqrt(K_qq) for every index i. The radial
    factor is rho/(lam (n+1)) at level 0, constant in y;
    rho1/(lam (n+1)) at level 1; and the capped second-order radius
    min(rho2/(lam^3 (n+1)^2), 2*rho1/(lam (n+1))) at level 2. Levels 1
    and 2 take the local radius rho1 per grid point (see rho1); level 0
    needs none.
    """
    np1 = gram.n
    scale = np.sqrt(gram.diagonal) * np.sqrt(gram.diagonal[-1])
    if level == 0:
        return TauProfile(scale, np.full(m, constants.rho / (lam * np1)))
    r1 = np.asarray(rho1_val, dtype=float)
    if level == 1:
        return TauProfile(scale, r1 / (lam * np1), rho1=r1)
    rt = rho_tilde1(gram, constants, lam, r1)
    r2 = rho2(gram, constants, lam, rt)
    return TauProfile(scale, _if_radius(np1, lam, r1, r2), rho1=r1,
                      rho1_tilde=rt, rho2=r2)


def if_error_bound(gram: GramMatrix, constants: SmoothnessConstants, lam: float, rho1_val):
    """RKHS-norm bound on exact refit minus influence-function predictor:
    sqrt(K_qq) * min(rho2/(lam^3 (n+1)^2), 2*rho1/(lam (n+1)))."""
    r1 = np.asarray(rho1_val, dtype=float)
    r2 = rho2(gram, constants, lam, rho_tilde1(gram, constants, lam, r1))
    return np.sqrt(gram.diagonal[-1]) * _if_radius(gram.n, lam, r1, r2)


def _sandwich_scan(Y, preds, k_dir, shift, radial, scale, ys, chunk):
    """Upper and lower sandwich p-values at every grid point.

    Grid point j scores data index i as |Y_i - (preds_i + shift_j k_dir_i)|
    and itself as |ys_j - (preds_n + shift_j k_dir_n)|, with envelopes
    radial_j * scale_i. The upper count takes every comparison in the
    direction favorable to inclusion (data score + tau >= test score -
    tau), the lower count the opposite.

    Rather than score all m * n pairs, the data indices are sorted once
    by base score |Y_i - preds_i|. The shift moves a data score by at most
    reach_j = |shift_j| * max|k_dir|, so an index whose base score lies
    more than reach_j (plus a rounding slack) past grid point j's
    threshold is decided by its base score alone; only the contiguous
    band of sorted indices within that distance is scored, with the exact
    float predicate. This needs one tau for every data index, i.e. a
    constant scale[:n].
    """
    n = Y.size
    if np.any(scale[:n] != scale[0]):
        raise ValueError("the sandwich scan needs a kernel with a constant "
                         "diagonal k(x, x) over the data inputs (the unit "
                         "diagonal of the laplacian and gaussian_rbf kernels)")
    data_taus = radial * scale[0]
    test_taus = radial * scale[n]
    test_scores = np.abs(ys - (preds[n] + shift * k_dir[n]))
    base_scores = np.abs(Y - preds[:n])
    order = np.argsort(base_scores)
    sorted_scores = base_scores[order]
    Ys, ps, ks = Y[order], preds[order], k_dir[order]
    reach = np.abs(shift) * np.max(np.abs(k_dir[:n]))
    # a few ulps of every magnitude entering a score or a comparison
    magnitude = np.max(np.abs(Y)) + np.max(np.abs(preds[:n])) + reach
    eps = np.finfo(float).eps

    def count_at_least(offsets, thresholds):
        """Per grid point, the number of i with score_i + offset >= threshold."""
        centers = thresholds - offsets
        half = reach + 32.0 * eps * (magnitude + np.abs(thresholds) + np.abs(offsets))
        first = np.searchsorted(sorted_scores, centers - half, side="left")
        last = np.searchsorted(sorted_scores, centers + half, side="right")
        counts = n - last
        for start in range(0, ys.size, chunk):
            sl = slice(start, start + chunk)
            width = int((last[sl] - first[sl]).max())
            if width == 0:
                continue
            idx = first[sl, None] + np.arange(width)
            inside = idx < last[sl, None]
            idx = np.minimum(idx, n - 1)
            scores = np.abs(Ys[idx] - (ps[idx] + shift[sl, None] * ks[idx]))
            passing = scores + offsets[sl, None] >= thresholds[sl, None]
            counts[sl] += (passing & inside).sum(axis=1)
        return counts

    upper_counts = count_at_least(data_taus, test_scores - test_taus)
    lower_counts = count_at_least(-data_taus, test_scores + test_taus)
    upper = (1.0 + upper_counts) / (n + 1.0)
    lower = (1.0 + lower_counts) / (n + 1.0)
    return upper, lower


@dataclass(frozen=True)
class ApproxCurveResult:
    """Sandwich p-value curves plus the envelopes and base fit behind them."""

    curve: PValueCurve
    taus: TauProfile
    base: Predictor


def base_fit(X, Y, x_query, z: float, lam: float, loss: LossSpec,
             kernel: KernelSpec) -> Predictor:
    """Single fit on the data plus the query input anchored at output z."""
    Y = np.asarray(Y, dtype=float)
    problem = augmented_problem(X, Y, x_query, (z, z), anchor_z_weights(Y.size),
                                lam, loss, kernel)
    return fit(problem)


def approx_pvalue_curves(X, Y, x_query, grid: YGrid, method: ApproxMethod,
                         lam: float, loss: LossSpec, kernel: KernelSpec,
                         base: Predictor | None = None) -> ApproxCurveResult:
    """Upper and lower approximate p-value curves over the grid.

    Levels 0 and 1 score every grid candidate with the base fit's
    predictions; level 2 applies the influence-function coefficient
    update per candidate. The data scores are sorted once and counted per
    grid point in O(log n) plus a short band scored exactly. The kernel
    must have a constant diagonal over the data inputs, as both families
    do.
    """
    Y = np.asarray(Y, dtype=float)
    if not np.isfinite(Y).all():
        raise ValueError("Y must be finite")
    n = Y.size
    z = method.z_anchor
    if base is None:
        base = base_fit(X, Y, x_query, z, lam, loss, kernel)
    gram = base.problem.gram
    preds = base.predictions()
    m_q = float(preds[n])
    ys = grid.values
    level = method.level
    taus = tau_profile(level, gram, smoothness_constants(loss), lam, grid.m,
                       None if level == 0 else rho1(ys, z, base, loss))
    if level == 2:
        direction = influence_direction(base)
        k_dir = gram.entries @ direction
        d1_z = loss_d(loss, 1, float(z), m_q)
        coeff_shift = (d1_z - loss_d(loss, 1, ys, m_q)) / gram.n
    else:
        # levels 0 and 1 score every candidate with the base predictions
        k_dir = np.zeros(n + 1)
        coeff_shift = np.zeros(grid.m)
    upper, lower = _sandwich_scan(Y, preds, k_dir, coeff_shift, taus.radial,
                                  taus.scale, ys, DEFAULT_CHUNK)
    curve = PValueCurve(grid=grid, upper=upper, lower=lower)
    return ApproxCurveResult(curve=curve, taus=taus, base=base)


def thickness_gap(upper: PredictionRegion, lower: PredictionRegion) -> float:
    """Grid measure of cells in the upper region but not the lower one.

    Bounds the Lebesgue distance between either sandwich region and the
    exact full conformal region.
    """
    if upper.grid != lower.grid:
        raise ValueError("thickness gap needs both regions on the same grid")
    return upper.grid.step * int(np.sum(upper.mask & ~lower.mask))


@dataclass(frozen=True)
class ThicknessBound:
    """Theoretical thickness bound; refined reports which branch of the
    influence-function bound applied (None for the other levels)."""

    value: float
    refined: bool | None = None
    beta: float | None = None


def thickness_bound(method: ApproxMethod, gram: GramMatrix,
                    constants: SmoothnessConstants, lam: float,
                    sup_tau: float | None = None) -> ThicknessBound:
    """Closed-form bound on the thickness gap.

    Levels 0 and 1 share the uniform-stability bound
    8 * rho * max_diag / (lam * (n+1)). Level 2 needs the grid
    supremum of its envelope: when beta = beta1 * max_diag / (lam (n+1))
    is below one, the refined bound 12/(1-beta) * sup_tau applies;
    otherwise the crude branch 8 * (sup_tau + rho-term) is returned and
    flagged via refined=False.
    """
    np1 = gram.n
    kmax = gram.diag_max
    rho_term = constants.rho * kmax / (lam * np1)
    if method.level < 2:
        return ThicknessBound(value=8.0 * rho_term)
    if sup_tau is None:
        raise ValueError("the influence-function bound needs the grid supremum of tau")
    beta = constants.beta1 * kmax / (lam * np1)
    if beta < 1.0:
        return ThicknessBound(value=12.0 / (1.0 - beta) * sup_tau,
                              refined=True, beta=beta)
    return ThicknessBound(value=8.0 * (sup_tau + rho_term), refined=False, beta=beta)
