"""Kernel functions, Gram matrices, and spectral helpers.

Two bounded translation-invariant kernel families are provided, both
normalized so that k(x, x) = 1. The Gram matrix caches its symmetric
eigendecomposition, which only decides its rank for the projection onto
its range (the identity at full rank); solver.fit alone projects, once
per fit. The solver's Newton steps and the influence-function solve
run conjugate gradients on the positive definite I + W^1/2 K W^1/2
instead, with an LU fallback (see solver._curvature_solve).
pseudo_inverse_apply remains as a general spectral helper.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data_io import check_real

KERNEL_FAMILIES = ("laplacian", "gaussian_rbf")

# Shared relative eigenvalue cutoff: eigenvalues at or below
# cutoff * max_eigenvalue count as zero everywhere in the package.
DEFAULT_CUTOFF = 1e-12

# Gram matrices of near-duplicate points routinely dip slightly below
# zero in floating point; only larger violations are worth a warning.
PSD_WARN_RTOL = 1e-10

# terms (features x entries) per row block of the pairwise kernel loop,
# 512 KB, so a block's scratch stays in cache while its features are summed
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth.

    Parameters
    ----------
    family : str
        One of ``"laplacian"`` (exp(-gamma * ||x - x'||_1)) or
        ``"gaussian_rbf"`` (exp(-gamma * ||x - x'||_2^2)).
    bandwidth : float or "auto"
        Positive finite scale gamma, stored as a float. ``"auto"``
        resolves to 1/d, where d is the input dimension, at evaluation
        time.
    """

    family: str = "laplacian"
    bandwidth: float | str = "auto"

    def __post_init__(self) -> None:
        # every message starts with the field's name, which the config
        # prefixes with its key ("kernel.")
        if not isinstance(self.family, str):
            raise ValueError(f"family must be a string, got {self.family!r}")
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"family must be one of {KERNEL_FAMILIES}, got {self.family!r}")
        if not (isinstance(self.bandwidth, str) and self.bandwidth == "auto"):
            object.__setattr__(self, "bandwidth", check_real("bandwidth", self.bandwidth))
            if self.bandwidth <= 0:
                raise ValueError(f"bandwidth must be positive or 'auto', got {self.bandwidth}")

    def resolve_bandwidth(self, dim: int) -> float:
        """Concrete gamma for inputs of the given dimension."""
        if dim < 1:
            raise ValueError(f"input dimension must be >= 1, got {dim}")
        return 1.0 / dim if self.bandwidth == "auto" else self.bandwidth


def _retained(w: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues (ascending) above DEFAULT_CUTOFF * max."""
    return w > DEFAULT_CUTOFF * max(float(w[-1]), 0.0)


class GramMatrix:
    """Symmetric PSD kernel matrix over a point set.

    The last row/column conventionally corresponds to the query input
    when the matrix covers an augmented sample. The eigendecomposition,
    and with it the retained eigenvectors (none at full rank) the range
    projection reads, are computed lazily, at most once, under a lock, so
    a constructed instance can be shared read-only across threads.
    """

    def __init__(self, entries: np.ndarray):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValueError("Gram matrix entries must be finite")
        entries = 0.5 * (entries + entries.T)
        entries.setflags(write=False)
        self._entries = entries
        diag = np.ascontiguousarray(np.diag(entries))
        diag.setflags(write=False)
        self._diagonal = diag
        self._eig_lock = threading.Lock()
        self._eig: tuple[np.ndarray, np.ndarray] | None = None
        self._range_basis: np.ndarray | None = None

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def n(self) -> int:
        """Number of points (n+1 for an augmented sample)."""
        return self._entries.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        return self._diagonal

    @property
    def diag_max(self) -> float:
        """max_i K_{i,i}, the empirical kernel sup-norm bound."""
        return float(self._diagonal.max())

    @cached_property
    def diag_curvature(self) -> float:
        """mean_i K_{i,i}^{3/2}, the curvature constant of the
        second-order radius (approx.rho2), computed once per matrix."""
        return float(np.mean(self._diagonal ** 1.5))

    @property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (eigenvalues, eigenvectors) with eigenvalues ascending."""
        if self._eig is None:
            with self._eig_lock:
                if self._eig is None:
                    w, V = np.linalg.eigh(self._entries)
                    w.setflags(write=False)
                    V.setflags(write=False)
                    lam_max = max(float(w[-1]), 0.0)
                    if float(w[0]) < -PSD_WARN_RTOL * lam_max:
                        warnings.warn(
                            f"Gram matrix is not PSD up to tolerance: min eigenvalue {w[0]:.3e} "
                            f"vs max {lam_max:.3e}",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                    keep = _retained(w)
                    if not keep.all():
                        self._range_basis = V[:, keep]
                        self._range_basis.setflags(write=False)
                    # set last: a reader that sees _eig sees the basis too
                    self._eig = (w, V)
        return self._eig

    def project_onto_range(self, vec: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the span of retained eigenvectors:
        the input itself, exactly, when every eigenvalue is retained."""
        vec = np.asarray(vec, dtype=float)
        self.eigenpairs  # decides the rank, once
        Vr = self._range_basis
        return vec if Vr is None else Vr @ (Vr.T @ vec)


def _kernel_matrix(spec: KernelSpec, pts: np.ndarray, other: np.ndarray | None) -> np.ndarray:
    """exp(-gamma * D) over the rows of pts and other (pts itself if None).

    D is the cityblock (laplacian) or squared euclidean (gaussian_rbf)
    distance. A block of rows holds every feature's term at once, and
    np.add.reduce over the leading (feature) axis adds them one feature
    at a time in feature order: the order scipy's cdist sums in, so the
    two agree bit for bit. For pts against itself each block starts at
    the diagonal and its entries are mirrored below it, so every pair is
    scored once and the matrix is exactly symmetric.
    """
    gamma = spec.resolve_bandwidth(pts.shape[1])
    cols = np.ascontiguousarray((pts if other is None else other).T)
    (d, m), n = cols.shape, pts.shape[0]
    out = np.empty((n, m))
    rows = max(1, _BLOCK_ENTRIES // max(d * m, 1))
    scratch = np.empty(d * rows * m)
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        j0 = i0 if other is None else 0
        acc = out[i0:i1, j0:]
        terms = scratch[:d * acc.size].reshape(d, *acc.shape)
        # y - x: |.| and (.)^2 agree exactly with x - y, and copying the
        # rows in then subtracting in place beats a broadcast difference
        np.copyto(terms, cols[:, None, j0:])
        terms -= pts[i0:i1].T[:, :, None]
        if spec.family == "gaussian_rbf":
            np.multiply(terms, terms, out=terms)
        else:
            np.abs(terms, out=terms)
        np.add.reduce(terms, axis=0, out=acc)
        acc *= -gamma
        np.exp(acc, out=acc)
        if other is None:
            out[i1:, i0:i1] = acc[:, i1 - i0:].T
    return out


def gram(spec: KernelSpec, points) -> GramMatrix:
    """Build the Gram matrix of a point set.

    Points may be a sequence of equal-length vectors or an (n, d) array.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("point set must be nonempty")
    # distances of identical rows are exactly zero, so the diagonal is 1
    return GramMatrix(_kernel_matrix(spec, pts, None))


def gram_between(spec: KernelSpec, points, other) -> np.ndarray:
    """Cross kernel matrix k(p_i, q_j), shape (len(points), len(other))."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    oth = np.atleast_2d(np.asarray(other, dtype=float))
    if pts.shape[1] != oth.shape[1]:
        raise ValueError(f"dimension mismatch: {pts.shape[1]} vs {oth.shape[1]}")
    return _kernel_matrix(spec, pts, oth)


def pseudo_inverse_apply(matrix, rhs: np.ndarray) -> np.ndarray:
    """Apply the spectral pseudo-inverse of a symmetric array to a vector.

    Eigenvalues at or below DEFAULT_CUTOFF * max_eigenvalue are treated
    as zero, so the result lives in the retained eigenspace.
    """
    rhs = np.asarray(rhs, dtype=float)
    w, V = np.linalg.eigh(np.asarray(matrix, dtype=float))
    keep = _retained(w)
    if not keep.any():
        return np.zeros_like(rhs)
    Vr = V[:, keep]
    return Vr @ ((Vr.T @ rhs) / w[keep])
