"""Smooth convex regression losses, their u-derivatives up to order three,
and the closed-form smoothness constants the stability bounds consume.

All formulas are written in the scaled residual w = (y - u) / a and use
overflow-safe primitives: log-sum-exp for logcosh, hypot for the
pseudo-Huber radical, and sigmoid products for the smoothed pinball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

LOSS_FAMILIES = ("logcosh", "pseudo_huber", "smoothed_pinball", "squared")

_LOG2 = float(np.log(2.0))
_LOG4 = float(np.log(4.0))


@dataclass(frozen=True)
class LossSpec:
    """Loss family with its scale a and, for the pinball, quantile level t.

    Families:
      logcosh           a * log(cosh((y - u)/a))
      pseudo_huber      a^2 * (sqrt(1 + ((y - u)/a)^2) - 1)
      smoothed_pinball  t*(y - u) + a * log(1 + exp(-(y - u)/a))
      squared           (y - u)^2, a testing oracle for the solver only
    """

    family: str = "logcosh"
    a: float = 1.0
    t: float = 0.5

    def __post_init__(self) -> None:
        if self.family not in LOSS_FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        if not (self.a > 0 and np.isfinite(self.a)):
            raise ValueError(f"scale a must be positive and finite, got {self.a}")
        if not (0.0 < self.t < 1.0):
            raise ValueError(f"quantile level t must lie in (0, 1), got {self.t}")

    def to_config(self) -> dict:
        return {"family": self.family, "a": self.a, "t": self.t}

    @classmethod
    def from_config(cls, obj: dict) -> "LossSpec":
        """Spec from its JSON object: a missing key takes its default, an
        unknown key raises TypeError."""
        return cls(**obj)


@dataclass(frozen=True)
class SmoothnessConstants:
    """Constants controlling every stability bound.

    rho   : sup_u |d/du loss(y, u)|, the uniform Lipschitz constant
    beta2 : Lipschitz constant of the first u-derivative in u
    beta1 : Lipschitz constant of the first u-derivative in y
    xi    : sup |d^3/du^3 loss(y, u)|

    The score s(y, u) = |y - u| is 1-Lipschitz in u, so the envelopes
    need no score constant.
    """

    rho: float
    beta2: float
    beta1: float
    xi: float


def _maybe_scalar(arr: np.ndarray, scalar_in: bool):
    return float(arr) if scalar_in else arr


def loss_value(spec: LossSpec, y, u):
    """Loss value, vectorized over broadcastable y and u."""
    scalar_in = np.isscalar(y) and np.isscalar(u)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    a = spec.a
    r = y - u
    if spec.family == "squared":
        return _maybe_scalar(r ** 2, scalar_in)
    w = r / a
    if spec.family == "logcosh":
        # a * log(cosh(w)) = a * (log(e^w + e^-w) - log 2)
        val = a * (np.logaddexp(w, -w) - _LOG2)
    elif spec.family == "pseudo_huber":
        val = a * a * (np.hypot(1.0, w) - 1.0)
    else:
        # t*r + a*softplus(-w)
        val = spec.t * r + a * np.logaddexp(0.0, -w)
    return _maybe_scalar(val, scalar_in)


def loss_d(spec: LossSpec, order: int, y, u):
    """Derivative of order 1, 2, or 3 of the loss in its second argument."""
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2, or 3, got {order}")
    scalar_in = np.isscalar(y) and np.isscalar(u)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    a = spec.a
    r = y - u
    if spec.family == "squared":
        if order == 1:
            out = -2.0 * r
        elif order == 2:
            out = np.broadcast_to(2.0, r.shape).copy()
        else:
            out = np.zeros_like(r)
        return _maybe_scalar(out, scalar_in)
    w = r / a
    if spec.family == "logcosh":
        if order == 1:
            out = -np.tanh(w)
        else:
            # sech^2(w) = 4 / (e^w + e^-w)^2, computed in log space
            sech2 = np.exp(_LOG4 - 2.0 * np.logaddexp(w, -w))
            out = sech2 / a if order == 2 else 2.0 * sech2 * np.tanh(w) / (a * a)
    elif spec.family == "pseudo_huber":
        q = np.hypot(1.0, w)
        if order == 1:
            out = -r / q
        elif order == 2:
            out = q ** -3.0
        else:
            out = 3.0 * w / (a * q ** 5.0)
    else:
        if order == 1:
            out = expit(-w) - spec.t
        else:
            sig = expit(w)
            prod = sig * expit(-w)
            out = prod / a if order == 2 else prod * (2.0 * sig - 1.0) / (a * a)
    return _maybe_scalar(out, scalar_in)


def smoothness_constants(spec: LossSpec) -> SmoothnessConstants:
    """Closed-form constants for the three smooth families.

    The squared loss has no uniform Lipschitz constant, so asking for its
    smoothness constants is an error: it is shipped as a solver-validation
    oracle only.
    """
    a = spec.a
    if spec.family == "logcosh":
        # xi uses the simple relaxation 1/a^2 of the exact supremum
        return SmoothnessConstants(rho=1.0, beta2=1.0 / a, beta1=1.0 / a, xi=1.0 / (a * a))
    if spec.family == "pseudo_huber":
        xi = (1.0 / a) * 1.5 * 0.8 ** 2.5
        return SmoothnessConstants(rho=a, beta2=1.0, beta1=1.0, xi=xi)
    if spec.family == "smoothed_pinball":
        s3 = np.sqrt(3.0)
        xi = float((5.0 + 3.0 * s3) / ((s3 + 3.0) ** 3 * a * a))
        b = 1.0 / (4.0 * a)
        return SmoothnessConstants(rho=max(spec.t, 1.0 - spec.t), beta2=b, beta1=b, xi=xi)
    raise ValueError(f"loss.family {spec.family!r} has an unbounded first "
                     "derivative; no finite smoothness constants exist")
