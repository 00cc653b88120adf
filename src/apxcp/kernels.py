"""Kernel functions, Gram matrices, and spectral helpers.

Two bounded translation-invariant kernel families are provided, both
normalized so that k(x, x) = 1. The Gram matrix caches its symmetric
eigendecomposition because the same spectrum is reused by the solver,
the influence-function update, and the range projection.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

KERNEL_FAMILIES = ("laplacian", "gaussian_rbf")

# Shared relative eigenvalue cutoff: eigenvalues at or below
# cutoff * max_eigenvalue count as zero everywhere in the package.
DEFAULT_CUTOFF = 1e-12

# Gram matrices of near-duplicate points routinely dip slightly below
# zero in floating point; only larger violations are worth a warning.
PSD_WARN_RTOL = 1e-10

_METRIC = {"laplacian": "cityblock", "gaussian_rbf": "sqeuclidean"}


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth.

    Parameters
    ----------
    family : str
        One of ``"laplacian"`` (exp(-gamma * ||x - x'||_1)) or
        ``"gaussian_rbf"`` (exp(-gamma * ||x - x'||_2^2)).
    bandwidth : float or "auto"
        Positive scale gamma. ``"auto"`` resolves to 1/d, where d is the
        input dimension, at evaluation time.
    """

    family: str = "laplacian"
    bandwidth: float | str = "auto"

    def __post_init__(self) -> None:
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "auto":
                raise ValueError(f"bandwidth must be positive or 'auto', got {self.bandwidth!r}")
        elif not (float(self.bandwidth) > 0.0 and np.isfinite(self.bandwidth)):
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth!r}")

    def resolve_bandwidth(self, dim: int) -> float:
        """Concrete gamma for inputs of the given dimension."""
        if dim < 1:
            raise ValueError(f"input dimension must be >= 1, got {dim}")
        if self.bandwidth == "auto":
            return 1.0 / dim
        return float(self.bandwidth)

    def to_config(self) -> dict:
        return {"family": self.family, "bandwidth": self.bandwidth}

    @classmethod
    def from_config(cls, obj: dict) -> "KernelSpec":
        return cls(family=obj["family"], bandwidth=obj["bandwidth"])


def eval_kernel(spec: KernelSpec, x, x2) -> float:
    """Evaluate k(x, x2) for a single pair of points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if x.shape != x2.shape or x.ndim != 1:
        raise ValueError(f"points must be vectors of equal dimension, got shapes {x.shape} and {x2.shape}")
    gamma = spec.resolve_bandwidth(x.size)
    diff = x - x2
    if spec.family == "laplacian":
        return float(np.exp(-gamma * np.abs(diff).sum()))
    return float(np.exp(-gamma * (diff ** 2).sum()))


class GramMatrix:
    """Symmetric PSD kernel matrix over a point set.

    The last row/column conventionally corresponds to the query input
    when the matrix covers an augmented sample. The eigendecomposition
    is computed lazily, at most once, under a lock, so a constructed
    instance can be shared read-only across threads.
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

    @property
    def query_column(self) -> np.ndarray:
        """Last column, the kernel sections evaluated at the query input."""
        return self._entries[:, -1]

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
                    self._eig = (w, V)
        return self._eig

    @property
    def mu_star(self) -> float:
        """Smallest nonzero eigenvalue of K/n (zero = below the cutoff)."""
        w, _ = self.eigenpairs
        keep = w > DEFAULT_CUTOFF * max(float(w[-1]), 0.0)
        if not keep.any():
            return 0.0
        return float(w[keep].min()) / self.n

    def project_onto_range(self, vec: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the span of retained eigenvectors."""
        vec = np.asarray(vec, dtype=float)
        w, V = self.eigenpairs
        keep = w > DEFAULT_CUTOFF * max(float(w[-1]), 0.0)
        Vr = V[:, keep]
        return Vr @ (Vr.T @ vec)


def gram(spec: KernelSpec, points) -> GramMatrix:
    """Build the Gram matrix of a point set.

    Points may be a sequence of equal-length vectors or an (n, d) array.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("point set must be nonempty")
    gamma = spec.resolve_bandwidth(pts.shape[1])
    K = np.exp(-gamma * cdist(pts, pts, metric=_METRIC[spec.family]))
    # distances of identical rows are exactly zero, so the diagonal is 1
    return GramMatrix(K)


def gram_between(spec: KernelSpec, points, other) -> np.ndarray:
    """Cross kernel matrix k(p_i, q_j), shape (len(points), len(other))."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    oth = np.atleast_2d(np.asarray(other, dtype=float))
    if pts.shape[1] != oth.shape[1]:
        raise ValueError(f"dimension mismatch: {pts.shape[1]} vs {oth.shape[1]}")
    gamma = spec.resolve_bandwidth(pts.shape[1])
    return np.exp(-gamma * cdist(pts, oth, metric=_METRIC[spec.family]))


def pseudo_inverse_apply(matrix, rhs: np.ndarray) -> np.ndarray:
    """Apply the spectral pseudo-inverse of a symmetric matrix to a vector.

    Eigenvalues at or below DEFAULT_CUTOFF * max_eigenvalue are treated
    as zero, so the result lives in the retained eigenspace. Accepts
    either a GramMatrix (reusing its cached spectrum) or a plain
    symmetric array.
    """
    rhs = np.asarray(rhs, dtype=float)
    if isinstance(matrix, GramMatrix):
        w, V = matrix.eigenpairs
    else:
        w, V = np.linalg.eigh(np.asarray(matrix, dtype=float))
    keep = w > DEFAULT_CUTOFF * max(float(w[-1]), 0.0)
    if not keep.any():
        return np.zeros_like(rhs)
    Vr = V[:, keep]
    return Vr @ ((Vr.T @ rhs) / w[keep])
