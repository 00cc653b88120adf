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
if_error_bound reads the level-2 radius from it. One loss-derivative gap
at the query prediction gives the local radius and the influence update.
Upper and lower p-value curves built from the envelopes sandwich the
exact full conformal region; the grid measure of their difference is the
thickness gap diagnostic, with closed-form theoretical bounds alongside.

Every level runs one scan over the data scores sorted once, with two
reductions. approx_pvalue_curves counts, per grid point, the data
indices passing the score comparison: a data index is decided by its
sorted base score unless it lies in a short band around the threshold,
where it is scored exactly. A curve over m grid points costs one fit,
one linear solve and O((m + n) log n) counting, and gives bit for bit
the p-values of scoring all m * (n+1) pairs. approx_regions needs only
whether that count reaches c*, the least count whose p-value exceeds
alpha, which one order statistic of the base scores decides: O(m)
comparisons, plus an exact count at the few influence-function grid
points the shift leaves open. Its masks equal the thresholded curves.
It takes only the base fit, whose problem holds the targets, Gram
matrix, lam and loss; approx_pvalue_curves takes the inputs and fits
them, or checks a supplied fit against them.

The per-problem work of a level runs once per call: the checks, the
sort of the base scores and the influence direction.
The grid is then evaluated in blocks of DEFAULT_CHUNK points, both
reductions alike: each block's derivative gap, envelope, shift,
thresholds and bracket, with the p-values or masks written into arrays
allocated once for the whole grid. Of the envelope, approx_regions keeps
only its grid supremum; approx_pvalue_curves, whose callers print the
envelope, builds it once over the whole grid. A block's float
temporaries take 64 KiB each. At that size the C heap reuses them from
block to block, and they stay in cache; grid-length temporaries would
be mapped afresh by each call and page-faulted in on first touch, which
took about 40% of the sweep workload's time at m = 100 000. Every float
expression is the same elementwise as on the whole grid, so the blocks
change no bit of any result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conformal import (PredictionRegion, PValueCurve, YGrid, _min_count,
                        _rank_pvalues)
from .kernels import GramMatrix, KernelSpec
from .losses import LossSpec, SmoothnessConstants, loss_d, smoothness_constants
from .solver import (Predictor, _curvature_solve, _weighted_derivatives,
                     check_z_anchored, fit, z_anchored_problem)

APPROX_KINDS = ("uniform_stability", "local_stability", "influence_function")
_LEVEL = {"uniform_stability": 0, "local_stability": 1, "influence_function": 2}

# grid points the scan evaluates together, and (grid point, index) cells
# it scores exactly together: each block temporary takes at most 64 KiB,
# under glibc's 128 KiB mmap threshold, so it is reused from the heap and
# stays in cache instead of being mapped and faulted in afresh
DEFAULT_CHUNK = 8192


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
    stability radius. rho1 and rho2 cache the per-grid-point stability
    radii when the level uses them.
    """

    scale: np.ndarray
    radial: np.ndarray
    rho1: np.ndarray | None = None
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


def _derivative_gap(y, z, base: Predictor, loss: LossSpec):
    """Loss-derivative gap d1(z) - d1(y) at the base fit's query
    prediction: the local radius is half its size, and it scales the
    influence-function coefficient update."""
    m_q = base.query_prediction()
    return loss_d(loss, 1, z, m_q) - loss_d(loss, 1, y, m_q)


def rho1(y, z: float, base: Predictor, loss: LossSpec):
    """Local stability radius: half the derivative gap between the two
    anchor outputs at the base fit's query prediction. Never exceeds rho."""
    return 0.5 * np.abs(_derivative_gap(y, z, base, loss))


def influence_direction(base: Predictor) -> np.ndarray:
    """Pseudo-inverse of the base-fit risk Hessian applied to the query
    kernel column, H^+ K e_q. Computed once per base fit; every influence
    quantity is a scalar multiple of this vector.

    One solve in prediction space at the base fit's curvatures gives
    (I + diag(W) K)^{-1} e_q / (2 lam), which H maps to K e_q; its
    projection onto the range of K is H^+ K e_q.
    """
    problem = base.problem
    e_q = np.zeros(problem.gram.n)
    e_q[-1] = 1.0
    d = _weighted_derivatives(problem, base.predictions(), 2)
    x = _curvature_solve(problem, d, e_q) / (2.0 * problem.lam)
    return problem.gram.project_onto_range(x)


def influence_vector(z_prime: float, base: Predictor,
                     direction: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of the influence function at the perturbation output
    z_prime: -(1/(n+1)) * d1loss(z_prime, query prediction) * direction,
    with d1loss the first derivative of the loss in its second argument."""
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
    c = _derivative_gap(float(y), float(z), base, base.problem.loss)
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


def _tau_scale(gram: GramMatrix) -> np.ndarray:
    """The index factor sqrt(K_ii) * sqrt(K_qq) of every envelope."""
    return np.sqrt(gram.diagonal) * np.sqrt(gram.diagonal[-1])


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
    scale = _tau_scale(gram)
    if level == 0:
        return TauProfile(scale, np.full(m, constants.rho / (lam * np1)))
    r1 = np.asarray(rho1_val, dtype=float)
    if level == 1:
        return TauProfile(scale, r1 / (lam * np1), rho1=r1)
    rt = rho_tilde1(gram, constants, lam, r1)
    r2 = rho2(gram, constants, lam, rt)
    radial = np.minimum(r2 / (lam ** 3 * np1 ** 2), 2.0 * r1 / (lam * np1))
    return TauProfile(scale, radial, rho1=r1, rho2=r2)


def if_error_bound(gram: GramMatrix, constants: SmoothnessConstants, lam: float, rho1_val):
    """RKHS-norm bound on exact refit minus influence-function predictor:
    sqrt(K_qq) times tau_profile's level-2 radius, shaped like rho1_val."""
    r1 = np.asarray(rho1_val, dtype=float)
    radius = tau_profile(2, gram, constants, lam, r1.size, r1).radial
    return np.sqrt(gram.diagonal[-1]) * radius.reshape(r1.shape)


class _SortedScan:
    """The data side of one sandwich scan, sorted once per problem.

    Grid point j scores data index i as |Y_i - (preds_i + shift_j k_dir_i)|
    and itself as |ys_j - (preds_n + shift_j k_dir_n)|, with envelopes
    radial_j * scale_i. Each side compares score_i + offset_j >=
    threshold_j: the upper side takes every comparison in the direction
    favorable to inclusion (data score + tau >= test score - tau), the
    lower side the opposite.

    The data indices are sorted by base score |Y_i - preds_i|; a
    _ScanBlock makes the comparisons of a block of grid points against
    them. Deciding an index by its base score needs one tau for
    every data index, i.e. a constant scale[:n].
    """

    def __init__(self, Y, preds, k_dir, scale):
        n = self.n = Y.size
        if np.any(scale[:n] != scale[0]):
            raise ValueError("the sandwich scan needs a kernel with a constant "
                             "diagonal k(x, x) over the data inputs (the unit "
                             "diagonal of the laplacian and gaussian_rbf kernels)")
        self.data_scale, self.test_scale = scale[0], scale[n]
        self.test_pred, self.test_dir = preds[n], k_dir[n]
        base_scores = np.abs(Y - preds[:n])
        order = np.argsort(base_scores)
        self.sorted_scores = base_scores[order]
        self.Ys, self.ps, self.ks = Y[order], preds[order], k_dir[order]
        self.k_max = np.max(np.abs(k_dir[:n]))
        self.data_magnitude = np.max(np.abs(Y)) + np.max(np.abs(preds[:n]))


class _ScanBlock:
    """The comparisons of one block of grid points against the sorted data.

    The shift moves a data score by at most reach_j = |shift_j| *
    max|k_dir|, so an index whose base score lies more than reach_j (plus
    a rounding slack) past grid point j's threshold is decided by its
    base score alone; bracket gives those limits, and counts applies the
    exact float predicate to the indices between them.
    """

    def __init__(self, scan: _SortedScan, ys, shift, radial):
        self.scan, self.shift = scan, shift
        data_taus = radial * scan.data_scale
        test_taus = radial * scan.test_scale
        test_scores = np.abs(ys - (scan.test_pred + shift * scan.test_dir))
        # (offsets, thresholds) of the upper and the lower side
        self.sides = ((data_taus, test_scores - test_taus),
                      (-data_taus, test_scores + test_taus))

    @cached_property
    def reach(self):
        return np.abs(self.shift) * self.scan.k_max

    def bracket(self, offsets, thresholds):
        """Per grid point, limits (lo, hi): a sorted index whose base score
        is below lo fails the comparison, one above hi passes it."""
        centers = thresholds - offsets
        eps = np.finfo(float).eps
        # a few ulps of every magnitude entering a score or a comparison
        magnitude = self.scan.data_magnitude + self.reach
        half = self.reach + 32.0 * eps * (magnitude + np.abs(thresholds)
                                          + np.abs(offsets))
        return centers - half, centers + half

    def counts(self, rows, lo, hi, offsets, thresholds):
        """Per grid point in rows (an index array or a slice of the block),
        the number of data indices i with score_i + offset >= threshold:
        a binary search counts the indices its bracket (lo, hi) decides,
        and the contiguous band of sorted indices between the limits is
        scored exactly."""
        scan, n = self.scan, self.scan.n
        first = np.searchsorted(scan.sorted_scores, lo[rows], side="left")
        last = np.searchsorted(scan.sorted_scores, hi[rows], side="right")
        counts = n - last
        width = int((last - first).max())
        if not width:
            return counts
        shift, offsets, thresholds = self.shift[rows], offsets[rows], thresholds[rows]
        step = max(1, DEFAULT_CHUNK // width)
        for start in range(0, counts.size, step):
            r = slice(start, start + step)
            idx = first[r, None] + np.arange(width)
            inside = idx < last[r, None]
            idx = np.minimum(idx, n - 1)
            scores = np.abs(scan.Ys[idx] - (scan.ps[idx] + shift[r, None]
                                            * scan.ks[idx]))
            passing = scores + offsets[r, None] >= thresholds[r, None]
            counts[r] += (passing & inside).sum(axis=1)
        return counts


def _sandwich_scan(scan: _SortedScan, blocks, upper, lower) -> None:
    """Upper and lower sandwich p-values, written into upper and lower
    block by block; blocks yields (grid slice, _ScanBlock) pairs. Each
    grid point's count scores only the band of sorted indices its
    bracket leaves open (see _ScanBlock.counts)."""

    def pvalues(block, offsets, thresholds):
        lo, hi = block.bracket(offsets, thresholds)
        counts = block.counts(slice(None), lo, hi, offsets, thresholds)
        return _rank_pvalues(counts, scan.n)

    for sl, block in blocks:
        upper[sl], lower[sl] = (pvalues(block, *side) for side in block.sides)
        del block  # free its arrays before the next block's are made


def _sandwich_masks(scan: _SortedScan, blocks, c_star: int, upper, lower) -> None:
    """Upper and lower sandwich masks, written into upper and lower block
    by block: the grid points whose count in _sandwich_scan is at least
    c_star, i.e. whose p-value exceeds alpha for c_star =
    conformal._min_count(n, alpha).

    The comparison is monotone in the data score, since float addition
    is, so at zero shift a count reaches c_star exactly when the sorted
    index n - c_star passes: one comparison per grid point with that
    index's base score s. With a shift, a grid point whose bracket puts s
    below lo (fewer than c_star can pass) or above hi (at least c_star
    pass) is decided the same way; only the few in between are counted.
    """
    n = scan.n
    # every count reaches c* = 0, as an infinite score passes every comparison
    s = scan.sorted_scores[n - c_star] if c_star else np.inf

    def reaches_c_star(block, offsets, thresholds):
        if not block.reach.any():  # every score is its base score
            return s + offsets >= thresholds
        lo, hi = block.bracket(offsets, thresholds)
        mask = s > hi
        undecided = np.flatnonzero(~mask & (s >= lo))
        if undecided.size:
            counts = block.counts(undecided, lo, hi, offsets, thresholds)
            mask[undecided] = counts >= c_star
        return mask

    for sl, block in blocks:
        upper[sl], lower[sl] = (reaches_c_star(block, *side) for side in block.sides)
        del block  # free its arrays before the next block's are made


@dataclass(frozen=True)
class ApproxCurveResult:
    """Sandwich p-value curves plus the envelopes and base fit behind them."""

    curve: PValueCurve
    taus: TauProfile
    base: Predictor


def base_fit(X, Y, x_query, z: float, lam: float, loss: LossSpec,
             kernel: KernelSpec) -> Predictor:
    """Single fit on the data plus the query input anchored at output z."""
    return fit(z_anchored_problem(X, Y, x_query, z, lam, loss, kernel))


class _LevelScan:
    """One level's sandwich scan of a base fit over a grid.

    The constructor does the per-problem work, once per call: the check
    that the fit is anchored at the method's z, the sorted scan with its
    constant-diagonal check, the influence direction, and the loss's
    smoothness constants. blocks() then evaluates the grid DEFAULT_CHUNK
    points at a time: each block's derivative gap, envelope and shift,
    keeping of the envelope only the largest radius seen.
    """

    def __init__(self, base: Predictor, grid: YGrid, method: ApproxMethod):
        problem, z = base.problem, method.z_anchor
        check_z_anchored(problem, z, "base fit")
        gram = problem.gram
        if method.level == 2:
            k_dir = gram.entries @ influence_direction(base)
        else:
            # levels 0 and 1 score every candidate with the base predictions
            k_dir = np.zeros(gram.n)
        self.scale = _tau_scale(gram)
        self.scan = _SortedScan(problem.targets, base.predictions(), k_dir, self.scale)
        self.base, self.gram, self.grid, self.level = base, gram, grid, method.level
        self.z, self.lam, self.loss = z, problem.lam, problem.loss
        self.constants = smoothness_constants(problem.loss)
        self.radial_max = -np.inf

    def envelope(self, ys):
        """The derivative gap at the grid values ys (None at level 0) and
        the level's envelope there."""
        gap = None if self.level == 0 else _derivative_gap(ys, self.z, self.base, self.loss)
        return gap, tau_profile(self.level, self.gram, self.constants, self.lam, ys.size,
                                None if gap is None else 0.5 * np.abs(gap))

    def blocks(self):
        """Yield (grid slice, _ScanBlock) per block of DEFAULT_CHUNK grid
        points, raising radial_max to each block's largest radius."""
        for start in range(0, self.grid.m, DEFAULT_CHUNK):
            sl = slice(start, start + DEFAULT_CHUNK)
            yield sl, self._block(self.grid.values[sl])

    def _block(self, ys) -> _ScanBlock:
        gap, taus = self.envelope(ys)
        self.radial_max = max(self.radial_max, taus.radial.max())
        shift = gap / self.gram.n if self.level == 2 else np.zeros(ys.size)
        return _ScanBlock(self.scan, ys, shift, taus.radial)

    def sup_tau(self) -> float:
        """The envelope's supremum over indices and the grid, once blocks()
        has run; the largest block maximum is the grid maximum exactly."""
        return float(self.scale.max() * self.radial_max)


def approx_pvalue_curves(X, Y, x_query, grid: YGrid, method: ApproxMethod,
                         lam: float, loss: LossSpec, kernel: KernelSpec,
                         base: Predictor | None = None) -> ApproxCurveResult:
    """Upper and lower approximate p-value curves over the grid.

    Levels 0 and 1 score every grid candidate with the base fit's
    predictions; level 2 applies the influence-function coefficient
    update per candidate. The data scores are sorted once and counted per
    grid point in O(log n) plus a short band scored exactly. The kernel
    must have a constant diagonal over the data inputs, as both families
    do. A supplied base fit with another Gram size, targets, lam, loss,
    anchors or weights raises ValueError; other inputs X or another
    kernel at the same size go undetected.
    """
    Y = np.asarray(Y, dtype=float)
    if not np.isfinite(Y).all():
        raise ValueError("Y must be finite")
    if base is None:
        base = base_fit(X, Y, x_query, method.z_anchor, lam, loss, kernel)
    problem = base.problem
    for field_name, same in (("Gram size", problem.gram.n == Y.size + 1),
                             ("targets", np.array_equal(problem.targets, Y)),
                             ("lam", problem.lam == lam), ("loss", problem.loss == loss)):
        if not same:
            raise ValueError(f"base fit belongs to another problem (mismatch in {field_name})")
    level_scan = _LevelScan(base, grid, method)
    upper, lower = np.empty(grid.m), np.empty(grid.m)
    _sandwich_scan(level_scan.scan, level_scan.blocks(), upper, lower)
    curve = PValueCurve(grid=grid, upper=upper, lower=lower)
    return ApproxCurveResult(curve=curve, taus=level_scan.envelope(grid.values)[1],
                             base=base)


@dataclass(frozen=True)
class ApproxRegionResult:
    """Upper and lower sandwich regions plus the grid supremum of their
    envelope."""

    upper: PredictionRegion
    lower: PredictionRegion
    sup_tau: float


def approx_regions(base: Predictor, grid: YGrid, method: ApproxMethod,
                   alpha: float) -> ApproxRegionResult:
    """Upper and lower sandwich regions {y : p(y) > alpha} over the grid,
    from a base fit anchored at method.z_anchor, without the p-value
    curves.

    The targets, Gram matrix, lam and loss are those of base.problem. The
    masks equal region_from_curve of approx_pvalue_curves' curve with
    base=base on each side, but each grid point compares its scores with
    one order statistic of the base scores instead of counting them. A
    fit anchored elsewhere, an alpha outside (0, 1) or a kernel diagonal
    that is not constant raises ValueError.
    """
    c_star = _min_count(base.problem.n, alpha)
    level_scan = _LevelScan(base, grid, method)
    upper, lower = np.empty(grid.m, dtype=bool), np.empty(grid.m, dtype=bool)
    _sandwich_masks(level_scan.scan, level_scan.blocks(), c_star, upper, lower)
    return ApproxRegionResult(upper=PredictionRegion.from_mask(grid, upper),
                              lower=PredictionRegion.from_mask(grid, lower),
                              sup_tau=level_scan.sup_tau())


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
