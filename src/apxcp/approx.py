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
at the query prediction, solver._derivative_gap, gives the local radius
and the influence update; the exact refits' block start
(solver.refit_block) takes it too.
Upper and lower p-value curves built from the envelopes sandwich the
exact full conformal region; the grid measure of their difference is the
thickness gap diagnostic, with closed-form theoretical bounds alongside.

One scan per base fit serves every level a caller asks for. The data
indices are sorted once by base score, and per grid point and side one
bracket around the comparison's threshold, a rounding slack plus the
most the influence-function shift can move a score (zero at levels 0
and 1), decides every data index whose base score lies outside it.
approx_pvalue_curves counts, per grid point, the data indices passing
the comparison, scoring exactly only those inside the bracket: one fit,
one linear solve and O((m + n) log n) counting give bit for bit the
p-values of scoring all m * (n+1) pairs. approx_regions needs only
whether that count reaches c*, the least count whose p-value exceeds
alpha, which one order statistic s of the base scores decides wherever
the bracket leaves s outside; the rare grid point with s inside it is
counted. A region holds the y whose distance |y - p| to the test
prediction p stays within s plus or minus an envelope, so per block of
grid points the scan takes the least and largest radius and the
largest shift and settles, by binary search over the sorted grid
values, every grid point but a band near a region's edges: at the
sweep workload's 100 000 grid points, none of them at levels 0 and 1
and about 0.1% at level 2. Only the band takes the bracket. So a region
costs O(m) for the derivative gap (levels 1 and 2), O(log m) per block
and level, and the band, and its masks equal the thresholded curves.
approx_regions takes the base fit, whose problem holds the targets,
Gram matrix, lam, loss and anchor z, and a sequence of level names, and
returns one result per name, whose regions are built when first read;
approx_pvalue_curves takes the inputs and an ApproxMethod (a level name
plus z) and fits them, or checks a supplied fit against them.

The per-problem work runs once per call: the checks, the base
predictions, the sort, and the influence direction when level 2 is
asked for. _ProblemScan then walks the grid DEFAULT_CHUNK points at a
time, with one derivative gap per block for levels 1 and 2. The curves
hand their local radii to the printed envelope; the regions keep of
the envelope only its grid supremum. A block's float temporaries take
64 KiB each, so the C heap reuses them from block to block and they
stay in cache; grid-length temporaries were page-faulted in afresh by
each call, about 40% of the sweep workload's time at m = 100 000.
Every float expression is the same elementwise as on the whole grid
and for a level scanned alone, so neither the block split, the band nor
the shared work change any bit of any result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conformal import (PredictionRegion, PValueCurve, YGrid, _min_count,
                        _rank_pvalues)
from .data_io import check_int, check_real, check_sample, check_vector
from .kernels import GramMatrix, KernelSpec
from .losses import LossSpec, SmoothnessConstants, loss_d, smoothness_constants
from .solver import (Predictor, _curvature_solve, _derivative_gap, _weighted_derivatives,
                     check_lam, check_z_anchored, fit, z_anchored_problem)

APPROX_KINDS = ("uniform_stability", "local_stability", "influence_function")

# grid points the scan evaluates together, and (grid point, index) cells
# it scores exactly together: each block temporary takes at most 64 KiB,
# under glibc's 128 KiB mmap threshold, so it is reused from the heap and
# stays in cache instead of being mapped and faulted in afresh
DEFAULT_CHUNK = 8192
_EPS = float(np.finfo(float).eps)


def _level(kind: str) -> int:
    """The level, 0 to 2, of an approximation kind's name, its index in
    APPROX_KINDS; ValueError for any other name."""
    if kind not in APPROX_KINDS:
        raise ValueError(f"unknown approximation kind {kind!r}")
    return APPROX_KINDS.index(kind)


@dataclass(frozen=True)
class ApproxMethod:
    """Approximation level plus the fixed anchor output z."""

    kind: str
    z_anchor: float = 0.0

    def __post_init__(self) -> None:
        _level(self.kind)
        object.__setattr__(self, "z_anchor", check_real("z_anchor", self.z_anchor))

    @property
    def level(self) -> int:
        return _level(self.kind)


def _tau_ranges(*factors) -> list[tuple[float, float]]:
    """(min, max) of each nonempty envelope factor, after checking that
    every entry is finite, then that every entry is nonnegative. A NaN or
    an infinity reaches the min or the max, so two reductions per factor
    check it."""
    ranges = [(float(np.min(f)), float(np.max(f))) for f in factors if np.size(f)]
    if not np.isfinite(ranges).all():
        raise ValueError("tau factors must be finite")
    if any(lo < 0 for lo, _ in ranges):
        raise ValueError("tau factors must be nonnegative")
    return ranges


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
        _tau_ranges(scale, radial)
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
    return 0.5 * np.abs(_derivative_gap(y, check_real("z", z), base, loss))


def influence_direction(base: Predictor) -> np.ndarray:
    """Pseudo-inverse of the base-fit risk Hessian applied to the query
    kernel column, H^+ K e_q. Computed once per base fit; every influence
    quantity is a scalar multiple of this vector.

    One solve in prediction space at the base fit's curvatures gives
    (I + diag(W) K)^{-1} e_q / (2 lam), which H maps to K e_q. It equals
    H^+ K e_q at full rank, and otherwise up to the null space of K,
    which no prediction, score or RKHS norm reads, so it is not projected.
    The solve is solver._curvature_solve's, a Newton step's: conjugate
    gradients, with an LU solve only as the fallback after its cap. Its
    products with K and its dot products do not depend on the BLAS
    thread count, so neither does the direction.
    """
    problem = base.problem
    e_q = np.zeros(problem.gram.n)
    e_q[-1] = 1.0
    d = _weighted_derivatives(problem, base.predictions(), 2)
    # K e_q is the query row of the symmetric K
    x = _curvature_solve(problem, d, e_q, problem.gram.entries[-1])[0]
    return x / (2.0 * problem.lam)


def influence_vector(z_prime: float, base: Predictor,
                     direction: np.ndarray) -> np.ndarray:
    """Coefficients of the influence function at the perturbation output
    z_prime: -(1/(n+1)) * d1loss(z_prime, query prediction) * direction,
    with d1loss the first derivative of the loss in its second argument
    and direction = influence_direction(base)."""
    direction = check_vector("direction", direction, base.problem.gram.n)
    d1 = loss_d(base.problem.loss, 1, check_real("z_prime", z_prime), base.query_prediction())
    return (-d1 / base.problem.gram.n) * direction


def if_predictor(y: float, z: float, base: Predictor,
                 direction: np.ndarray) -> np.ndarray:
    """First-order coefficient update replacing the exact refit at y.

    Equals base coefficients minus the influence at z plus the influence
    at y, along direction = influence_direction(base); only the scalar
    derivative factor depends on y.
    """
    direction = check_vector("direction", direction, base.problem.gram.n)
    c = _derivative_gap(check_real("y", y), check_real("z", z), base, base.problem.loss)
    return base.coeffs + (c / base.problem.gram.n) * direction


def rho_tilde1(gram: GramMatrix, constants: SmoothnessConstants, lam: float, rho1_val):
    """Inflated local radius feeding the second-order bound."""
    kqq = gram.diagonal[-1]
    return (1.0 + kqq * constants.beta2 / (lam * gram.n)) * np.asarray(rho1_val, dtype=float)


def rho2(gram: GramMatrix, constants: SmoothnessConstants, lam: float, rho1_tilde):
    """Second-order stability radius controlling the influence-function
    predictor error, from the inflated local radius rho_tilde1."""
    kqq = gram.diagonal[-1]
    return (0.5 * constants.xi * np.sqrt(kqq) * gram.diag_curvature * rho1_tilde ** 2
            + 2.0 * lam * kqq * constants.beta2 * rho1_tilde)


def _tau_scale(gram: GramMatrix) -> np.ndarray:
    """The index factor sqrt(K_ii) * sqrt(K_qq) of every envelope."""
    return np.sqrt(gram.diagonal) * np.sqrt(gram.diagonal[-1])


def _level_radial(level: int, gram: GramMatrix, constants: SmoothnessConstants,
                  lam: float, r1):
    """The radial factor of a level's envelope at the local radii r1
    (unused at level 0, whose radius is one scalar for every y), and rho2
    at level 2 (None below it)."""
    np1 = gram.n
    if level == 0:
        return constants.rho / (lam * np1), None
    if level == 1:
        return r1 / (lam * np1), None
    rt = rho_tilde1(gram, constants, lam, r1)
    r2 = rho2(gram, constants, lam, rt)
    return np.minimum(r2 / (lam ** 3 * np1 ** 2), 2.0 * r1 / (lam * np1)), r2


def tau_profile(level: int, gram: GramMatrix, constants: SmoothnessConstants,
                lam: float, m: int, rho1_val=None) -> TauProfile:
    """Envelope of one approximation level over m grid points.

    The scale is sqrt(K_ii) * sqrt(K_qq) for every index i. The radial
    factor is rho/(lam (n+1)) at level 0, constant in y;
    rho1/(lam (n+1)) at level 1; and the capped second-order radius
    min(rho2/(lam^3 (n+1)^2), 2*rho1/(lam (n+1))) at level 2. Levels 1
    and 2 take the local radius rho1 per grid point (see rho1), m of
    them; level 0 needs none. A level other than the integers 0, 1 and 2,
    an m below 1, a lam that is not positive or an rho1_val that is not
    a finite vector of m entries raises ValueError naming it.
    """
    level, m, lam = check_int("level", level), check_int("m", m), check_lam(lam)
    if level not in (0, 1, 2):
        raise ValueError(f"level must be 0, 1 or 2, got {level}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    r1 = None if level == 0 else check_vector("rho1_val", rho1_val, m)
    radial, r2 = _level_radial(level, gram, constants, lam, r1)
    if level == 0:
        radial = np.full(m, radial)
    return TauProfile(_tau_scale(gram), radial, rho1=r1, rho2=r2)


def if_error_bound(gram: GramMatrix, constants: SmoothnessConstants, lam: float, rho1_val):
    """RKHS-norm bound on exact refit minus influence-function predictor:
    sqrt(K_qq) times tau_profile's level-2 radius, shaped like rho1_val."""
    r1 = np.asarray(rho1_val, dtype=float)
    radius = tau_profile(2, gram, constants, lam, r1.size, r1.ravel()).radial
    return np.sqrt(gram.diagonal[-1]) * radius.reshape(r1.shape)


def _slack(reach, magnitude):
    """The half-width of a bracket around a threshold: reach, the most a
    shift can move a score, plus 32 ulps of magnitude, the largest
    magnitude in a score or a comparison. A base score farther than this
    from the threshold decides the comparison whatever the shift and the
    rounding."""
    return reach + 32.0 * _EPS * magnitude


class _SortedScan:
    """The data side of one sandwich scan, sorted once per problem, and
    every comparison of the scan.

    Grid point j scores data index i as |Y_i - (preds_i + shift_j k_dir_i)|
    and itself as |ys_j - (preds_n + shift_j k_dir_n)|, with envelopes
    radial_j * scale_i; levels 0 and 1 scan at the scalar shift zero. Each
    side compares score_i + offset_j >= threshold_j (sides): the upper
    side takes every comparison in the direction favorable to inclusion
    (data score + tau >= test score - tau), the lower side the opposite.

    The data indices are sorted by base score |Y_i - preds_i|. A shift
    moves a data score by at most reach_j = |shift_j| * k_max, so an index
    whose base score lies more than _slack past grid point j's threshold
    is decided by its base score alone: bracket gives those limits, counts
    scores only the indices between them, and reaches decides from the
    limits whether a count reaches c*. settle decides a block's region
    masks from its extremes outside a band that needs them. Deciding an
    index by its base score needs one tau for every data index, i.e. a
    constant scale[:n]. The scan's constants are kept once, as floats:
    k_max, the largest |k_dir_i| over the data, and data_magnitude,
    max|Y_i| plus max|preds_i|, the largest magnitude of a data score's
    terms.
    """

    def __init__(self, Y, preds, k_dir, scale):
        n = self.n = Y.size
        if np.any(scale[:n] != scale[0]):
            raise ValueError("the sandwich scan needs a kernel with a constant "
                             "diagonal k(x, x) over the data inputs (the unit "
                             "diagonal of the laplacian and gaussian_rbf kernels)")
        self.data_scale, self.test_scale = scale[0], scale[n]
        self.test_pred, self.test_dir = float(preds[n]), float(k_dir[n])
        base_scores = np.abs(Y - preds[:n])
        order = np.argsort(base_scores)
        self.sorted_scores = base_scores[order]
        self.Ys, self.ps, self.ks = Y[order], preds[order], k_dir[order]
        self.k_max = float(np.max(np.abs(k_dir[:n])))
        self.data_magnitude = float(np.max(np.abs(Y)) + np.max(np.abs(preds[:n])))

    def sides(self, ys, radial, shift):
        """(offsets, thresholds) of the upper and the lower side of grid
        values ys at envelope radii radial, their test prediction shifted
        by shift * k_dir_n; radial and shift may each be one scalar."""
        test_scores = np.abs(ys - (self.test_pred + shift * self.test_dir))
        data_taus = radial * self.data_scale
        test_taus = radial * self.test_scale
        return ((data_taus, test_scores - test_taus),
                (-data_taus, test_scores + test_taus))

    def bracket(self, shift, offsets, thresholds):
        """Per grid point of one side, limits (lo, hi): a sorted index whose
        base score is below lo fails the comparison, one above hi passes it."""
        reach = np.abs(shift) * self.k_max
        centers = thresholds - offsets
        half = _slack(reach, self.data_magnitude + reach + np.abs(thresholds)
                      + np.abs(offsets))
        return centers - half, centers + half

    def counts(self, rows, lo, hi, shift, offsets, thresholds):
        """Per grid point in rows (an index array or a slice of the side),
        the number of data indices i with score_i + offset >= threshold:
        a binary search counts the indices its bracket (lo, hi) decides,
        and the contiguous band of sorted indices between the limits is
        scored exactly."""
        n = self.n
        first = np.searchsorted(self.sorted_scores, lo[rows], side="left")
        last = np.searchsorted(self.sorted_scores, hi[rows], side="right")
        counts = n - last
        width = int((last - first).max())
        if not width:
            return counts
        offsets = np.broadcast_to(offsets, lo.shape)[rows]
        shift = np.broadcast_to(shift, lo.shape)[rows]
        thresholds = thresholds[rows]
        step = max(1, DEFAULT_CHUNK // width)
        for start in range(0, counts.size, step):
            r = slice(start, start + step)
            idx = first[r, None] + np.arange(width)
            inside = idx < last[r, None]
            idx = np.minimum(idx, n - 1)
            scores = np.abs(self.Ys[idx] - (self.ps[idx] + shift[r, None]
                                            * self.ks[idx]))
            passing = scores + offsets[r, None] >= thresholds[r, None]
            counts[r] += (passing & inside).sum(axis=1)
        return counts

    def reaches(self, s: float, c_star: int, shift, offsets, thresholds):
        """Per grid point of one side, whether its count reaches c_star,
        i.e. whether its p-value exceeds alpha for
        c_star = conformal._min_count(n, alpha).

        The comparison is monotone in the data score, since float addition
        is, so a count reaches c_star exactly when the sorted index
        n - c_star passes; s is that index's base score, or inf when c_star
        is 0 (see _ProblemScan.masks). A grid point whose bracket puts s
        below lo (fewer than c_star pass) or above hi (at least c_star
        pass) is decided by s; only the few in between are counted.
        """
        lo, hi = self.bracket(shift, offsets, thresholds)
        mask = s > hi
        undecided = np.flatnonzero(~mask & (s >= lo))
        if undecided.size:
            mask[undecided] = self.counts(undecided, lo, hi, shift, offsets,
                                          thresholds) >= c_star
        return mask

    def settle(self, ys, s: float, r_lo, r_hi, shift_max, masks):
        """Decide a block's sorted grid values ys from its extremes alone,
        except in a band near the region's edges, whose indices it returns.

        s is the order statistic of reaches. Each grid point's radius lies
        in [r_lo, r_hi] and its shift's size is at most shift_max, which
        moves a data score by at most shift_max * k_max and the test
        prediction by shift_max * |k_dir_n|. So a side's count reaches c*
        wherever |y - p|, p the test prediction, lies below an inner
        radius, and falls short of it wherever |y - p| lies beyond an
        outer radius, each radius with a _slack of every magnitude in a
        score or a comparison. The inner run of each side of masks (upper,
        lower) is set; masks must start False. The band, the sorted
        indices of either side between its two radii, is returned, or
        None when it is empty.
        """
        p, width = self.test_pred, float(self.data_scale + self.test_scale)
        reach = shift_max * (self.k_max + abs(self.test_dir))
        slack = _slack(reach, self.data_magnitude + abs(p) + reach
                       + max(abs(float(ys[0])), abs(float(ys[-1]))) + r_hi * width)
        # (inner, outer) radius of the upper side, which adds each radius
        # to the data score and takes it from the test score, and of the
        # lower side, which does the reverse
        cuts = [(max(s + inside * width - slack, 0.0), max(s + outside * width + slack, 0.0))
                for inside, outside in ((r_lo, r_hi), (-r_hi, -r_lo))]
        # a side's inner run is p +- inner, open, and its band reaches to
        # p +- outer, closed
        lefts = ys.searchsorted([y for inner, outer in cuts
                                 for y in (p - outer, p + inner)], "left")
        rights = ys.searchsorted([y for inner, outer in cuts
                                  for y in (p - inner, p + outer)], "right")
        spans = []
        for mask, (out_lo, in_hi), (in_lo, out_hi) in zip(
                masks, lefts.reshape(2, 2), rights.reshape(2, 2)):
            in_hi = max(in_hi, in_lo)
            mask[in_lo:in_hi] = True
            spans += [(lo, hi) for lo, hi in ((out_lo, in_lo), (in_hi, out_hi)) if lo < hi]
        if not spans:
            return None
        band = np.zeros(ys.size, bool)
        for lo, hi in spans:
            band[lo:hi] = True
        return np.flatnonzero(band)


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


class _ProblemScan:
    """The sandwich scan of one base fit over a grid, for every level a
    caller asks for.

    The constructor does the per-problem work once: the checks of the
    level names and of the fit's z anchor, the base predictions, the
    envelope scale, the loss's smoothness constants and the sorted scan
    with its constant-diagonal check, and the influence direction when
    level 2 is asked for. pvalues() and masks() then walk the grid
    DEFAULT_CHUNK points at a time, and per block one derivative gap
    serves levels 1 and 2. Of each level's envelope masks() keeps only
    the largest radius seen.
    """

    def __init__(self, base: Predictor, grid: YGrid, kinds):
        if isinstance(kinds, str):
            raise TypeError("kinds must be a sequence of level names; "
                            "wrap a single name in a list")
        self.asked = [_level(kind) for kind in kinds]
        if not self.asked:
            raise ValueError("need at least one approximation level")
        problem = base.problem
        check_z_anchored(problem, problem.anchors[0], "base fit")
        self.levels = sorted(set(self.asked))
        gram = problem.gram
        if self.levels[-1] == 2:
            k_dir = gram.entries @ influence_direction(base)
        else:
            # levels 0 and 1 score every candidate with the base predictions
            k_dir = np.zeros(gram.n)
        self.scale = _tau_scale(gram)
        _tau_ranges(self.scale)
        self.scan = _SortedScan(problem.targets, base.predictions(), k_dir, self.scale)
        self.base, self.gram, self.grid = base, gram, grid
        self.z, self.lam, self.loss = problem.anchors[0], problem.lam, problem.loss
        self.constants = smoothness_constants(problem.loss)
        self.radial_max = dict.fromkeys(self.levels, -np.inf)

    def _blocks(self):
        """(slice, grid values, derivative gap) of each block of
        DEFAULT_CHUNK grid points; the gap is None when no level asked
        for reads it (only level 0)."""
        for start in range(0, self.grid.m, DEFAULT_CHUNK):
            sl = slice(start, start + DEFAULT_CHUNK)
            ys = self.grid.values[sl]
            gap = None
            if self.levels[-1] > 0:
                gap = _derivative_gap(ys, self.z, self.base, self.loss)
            yield sl, ys, gap

    def _sides(self, level: int, ys, gap):
        """The level's shift and _SortedScan.sides of the grid values ys
        at their derivative gaps (levels 1 and 2), its radii checked.
        Levels 0 and 1 score with the base predictions: their shift is
        the scalar zero."""
        r1 = None if level == 0 else 0.5 * np.abs(gap)
        radial, _ = _level_radial(level, self.gram, self.constants, self.lam, r1)
        _tau_ranges(radial)
        shift = gap / self.gram.n if level == 2 else 0.0
        return shift, self.scan.sides(ys, radial, shift)

    def pvalues(self):
        """Upper and lower p-values over the grid of the one level asked
        for, the rank p-values of every grid point's count on each side
        (_SortedScan.counts within its bracket), and the local radii rho1
        of the scan (None at level 0)."""
        [level] = self.levels
        m, scan = self.grid.m, self.scan
        upper, lower = np.empty(m), np.empty(m)
        r1 = None if level == 0 else np.empty(m)
        for sl, ys, gap in self._blocks():
            shift, sides = self._sides(level, ys, gap)
            for out, side in zip((upper, lower), sides):
                lo, hi = scan.bracket(shift, *side)
                counts = scan.counts(slice(None), lo, hi, shift, *side)
                out[sl] = _rank_pvalues(counts, scan.n)
            if r1 is not None:
                r1[sl] = 0.5 * np.abs(gap)
        return upper, lower, r1

    def masks(self, c_star: int) -> dict:
        """{level: (upper, lower)}, the grid masks of every level asked
        for: the grid points whose count reaches c_star.

        Whether a count reaches c_star turns on one order statistic s,
        the base score of sorted index n - c_star (inf when c_star is 0),
        computed once here for settle and reaches. Per block and level,
        the rounded radius is monotone in the local radius r1 = |gap| / 2
        and the shift's size in |gap|, so the two extremes of the gap give
        the block's least and largest radius, through _level_radial on two
        values, and its largest shift: the largest radius is the block's
        exact maximum, and _tau_ranges checks both. From them
        _SortedScan.settle decides every grid point but a band near the
        region's edges, and only the band goes through
        _SortedScan.reaches, its bracket and, where s falls inside it, a
        count.
        """
        m, scan = self.grid.m, self.scan
        # every count reaches c* = 0, as an infinite score passes every comparison
        s = float(scan.sorted_scores[scan.n - c_star]) if c_star else np.inf
        # np.full, not np.zeros: calloc'd masks raised the sweep's peak RSS
        out = {level: (np.full(m, False), np.full(m, False)) for level in self.levels}
        for sl, ys, gap in self._blocks():
            r1_ends = gap_max = None
            if gap is not None:
                lo, hi = float(gap.min()), float(gap.max())
                gap_max = max(abs(lo), abs(hi))
                # a gap that changes sign comes to zero or close to it
                r1_ends = 0.5 * np.array([min(abs(lo), abs(hi)) if lo * hi > 0 else 0.0,
                                          gap_max])
            radii = [_level_radial(level, self.gram, self.constants, self.lam, r1_ends)[0]
                     for level in self.levels]
            for level, (r_lo, r_hi) in zip(self.levels, _tau_ranges(*radii)):
                self.radial_max[level] = max(self.radial_max[level], r_hi)
                shift_max = gap_max / self.gram.n if level == 2 else 0.0
                masks = tuple(mask[sl] for mask in out[level])
                band = scan.settle(ys, s, r_lo, r_hi, shift_max, masks)
                if band is not None:
                    shift, sides = self._sides(level, ys[band],
                                               None if gap is None else gap[band])
                    for mask, side in zip(masks, sides):
                        mask[band] = scan.reaches(s, c_star, shift, *side)
        return out

    def sup_tau(self, level: int) -> float:
        """The level's envelope supremum over indices and the grid, once
        masks() has run; the largest block maximum is the grid maximum
        exactly."""
        return float(self.scale.max() * self.radial_max[level])


def approx_pvalue_curves(X, Y, x_query, grid: YGrid, method: ApproxMethod,
                         lam: float, loss: LossSpec, kernel: KernelSpec,
                         base: Predictor | None = None) -> ApproxCurveResult:
    """Upper and lower approximate p-value curves over the grid.

    Levels 0 and 1 score every grid candidate with the base fit's
    predictions; level 2 applies the influence-function coefficient
    update per candidate. The data scores are sorted once and counted per
    grid point in O(log n) plus a short band scored exactly. The kernel
    must have a constant diagonal over the data inputs, as both families
    do. A supplied base fit with another Gram size, targets, lam, loss or
    anchor z than the call's, or one that is not z-anchored (see
    solver.check_z_anchored), raises ValueError naming the field; other
    inputs X or another kernel at the same size go undetected. X, Y and
    x_query must form a sample (data_io.check_sample), base or not.
    """
    X, Y, x_query = check_sample(X, Y, x_query)
    if base is None:
        base = base_fit(X, Y, x_query, method.z_anchor, lam, loss, kernel)
    else:
        problem = base.problem
        for field_name, same in (("Gram size", problem.gram.n == Y.size + 1),
                                 ("targets", np.array_equal(problem.targets, Y)),
                                 ("lam", problem.lam == lam), ("loss", problem.loss == loss),
                                 ("anchors", problem.anchors[0] == method.z_anchor)):
            if not same:
                raise ValueError("base fit belongs to another problem "
                                 f"(mismatch in {field_name})")
    scan = _ProblemScan(base, grid, [method.kind])
    upper, lower, r1 = scan.pvalues()
    curve = PValueCurve(grid=grid, upper=upper, lower=lower)
    taus = tau_profile(method.level, scan.gram, scan.constants, scan.lam, grid.m, r1)
    return ApproxCurveResult(curve=curve, taus=taus, base=base)


class ApproxRegionResult:
    """Upper and lower sandwich regions plus the grid supremum of their
    envelope. Each region is built the first time it is read."""

    def __init__(self, grid: YGrid, upper_mask: np.ndarray, lower_mask: np.ndarray,
                 sup_tau: float):
        self.grid, self.sup_tau = grid, sup_tau
        self._upper_mask, self._lower_mask = upper_mask, lower_mask

    @cached_property
    def upper(self) -> PredictionRegion:
        return PredictionRegion.from_mask(self.grid, self._upper_mask)

    @cached_property
    def lower(self) -> PredictionRegion:
        return PredictionRegion.from_mask(self.grid, self._lower_mask)


def approx_regions(base: Predictor, grid: YGrid, kinds,
                   alpha: float) -> list[ApproxRegionResult]:
    """Upper and lower sandwich regions {y : p(y) > alpha} over the grid
    for each of the approximation levels named in kinds (APPROX_KINDS),
    in their order, from one base fit, without the p-value curves.

    The targets, Gram matrix, lam, loss and anchor z are those of
    base.problem, which must be z-anchored (see solver.check_z_anchored).
    One scan serves every level: the checks, the sort of the base scores,
    the influence direction (when level 2 is asked for), and per grid
    block the derivative gap run once. The masks equal region_from_curve
    of approx_pvalue_curves' curve with base=base on each side, but a
    grid point is compared with one order statistic of the base scores
    instead of counted, and only in the band near a region's edge that
    its block's extreme radii and shift leave open (see
    _ProblemScan.masks). A string for
    kinds raises TypeError; no kinds, an unknown name, a fit that is not
    z-anchored, an alpha outside (0, 1) or a kernel diagonal that is not
    constant raises ValueError.
    """
    c_star = _min_count(base.problem.n, alpha)
    scan = _ProblemScan(base, grid, kinds)
    masks = scan.masks(c_star)
    results = {level: ApproxRegionResult(grid, *sides, scan.sup_tau(level))
               for level, sides in masks.items()}
    return [results[level] for level in scan.asked]


def thickness_gap(upper: PredictionRegion, lower: PredictionRegion) -> float:
    """Grid measure of cells in the upper region but not the lower one.

    Bounds the Lebesgue distance between either sandwich region and the
    exact full conformal region.
    """
    if upper.grid != lower.grid:
        raise ValueError("thickness gap needs both regions on the same grid")
    return upper.grid.step * int(np.count_nonzero(upper.mask & ~lower.mask))


@dataclass(frozen=True)
class ThicknessBound:
    """Theoretical thickness bound; refined reports which branch of the
    influence-function bound applied (None for the other levels)."""

    value: float
    refined: bool | None = None
    beta: float | None = None


def thickness_bound(kind: str, gram: GramMatrix,
                    constants: SmoothnessConstants, lam: float,
                    sup_tau: float | None = None) -> ThicknessBound:
    """Closed-form bound on the thickness gap of the level named kind.

    Levels 0 and 1 share the uniform-stability bound
    8 * rho * max_diag / (lam * (n+1)). Level 2 needs the grid
    supremum of its envelope: when beta = beta1 * max_diag / (lam (n+1))
    is below one, the refined bound 12/(1-beta) * sup_tau applies;
    otherwise the crude branch 8 * (sup_tau + rho-term) is returned and
    flagged via refined=False.
    """
    lam = check_lam(lam)
    np1 = gram.n
    kmax = gram.diag_max
    rho_term = constants.rho * kmax / (lam * np1)
    if _level(kind) < 2:
        return ThicknessBound(value=8.0 * rho_term)
    if sup_tau is None:
        raise ValueError("the influence-function bound needs the grid supremum of tau")
    sup_tau = check_real("sup_tau", sup_tau)
    if sup_tau < 0:
        raise ValueError(f"sup_tau must be nonnegative, got {sup_tau}")
    beta = constants.beta1 * kmax / (lam * np1)
    if beta < 1.0:
        return ThicknessBound(value=12.0 / (1.0 - beta) * sup_tau,
                              refined=True, beta=beta)
    return ThicknessBound(value=8.0 * (sup_tau + rho_term), refined=False, beta=beta)
