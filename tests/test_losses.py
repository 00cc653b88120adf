import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apxcp.losses import (LOSS_FAMILIES, LossSpec, loss_d, loss_value, score,
                          smoothness_constants)

from oracles import central_difference

ALL_SPECS = (
    LossSpec("logcosh", a=1.0),
    LossSpec("logcosh", a=0.3),
    LossSpec("pseudo_huber", a=1.0),
    LossSpec("pseudo_huber", a=2.0),
    LossSpec("smoothed_pinball", a=1.0, t=0.5),
    LossSpec("smoothed_pinball", a=0.2, t=0.8),
    LossSpec("squared"),
)
SMOOTH_SPECS = tuple(s for s in ALL_SPECS if s.family != "squared")


def test_spec_validation():
    with pytest.raises(ValueError, match="family"):
        LossSpec("absolute")
    with pytest.raises(ValueError, match="a must be positive"):
        LossSpec("logcosh", a=0.0)
    with pytest.raises(ValueError, match="quantile"):
        LossSpec("smoothed_pinball", a=1.0, t=1.0)


def test_spec_config_round_trip():
    for spec in ALL_SPECS:
        assert LossSpec.from_config(spec.to_config()) == spec


def test_logcosh_values():
    spec = LossSpec("logcosh", a=1.0)
    assert loss_value(spec, 2.3, 2.3) == 0.0
    assert loss_value(spec, 1.0, 0.0) == pytest.approx(0.4337808304830271, rel=1e-14)


def test_pseudo_huber_value():
    spec = LossSpec("pseudo_huber", a=1.0)
    assert loss_value(spec, 1.0, 0.0) == pytest.approx(math.sqrt(2) - 1, rel=1e-14)


def test_smoothed_pinball_value():
    spec = LossSpec("smoothed_pinball", a=1.0, t=0.5)
    # t*(y-u) + a*log(1 + exp(-(y-u)/a)) at y = u
    assert loss_value(spec, 0.7, 0.7) == pytest.approx(math.log(2), rel=1e-14)
    assert loss_value(spec, 1.0, 0.0) == pytest.approx(
        0.5 + math.log(1 + math.exp(-1)), rel=1e-14)


def test_squared_value():
    assert loss_value(LossSpec("squared"), 3.0, 1.0) == pytest.approx(4.0)


def test_logcosh_first_derivative_closed_form():
    spec = LossSpec("logcosh", a=1.0)
    assert loss_d(spec, 1, 1.0, 1.0) == 0.0
    assert loss_d(spec, 1, 1.0, 0.0) == pytest.approx(-math.tanh(1), rel=1e-14)


def test_pinball_second_derivative_at_center():
    spec = LossSpec("smoothed_pinball", a=0.2, t=0.5)
    assert loss_d(spec, 2, 1.0, 1.0) == pytest.approx(1.25, rel=1e-14)


def test_squared_derivatives():
    spec = LossSpec("squared")
    assert loss_d(spec, 1, 3.0, 1.0) == pytest.approx(-4.0)
    assert loss_d(spec, 2, 3.0, 1.0) == pytest.approx(2.0)
    assert loss_d(spec, 3, 3.0, 1.0) == 0.0


def test_loss_d_order_validation():
    with pytest.raises(ValueError, match="order"):
        loss_d(LossSpec(), 4, 0.0, 0.0)


def test_vectorized_and_scalar_shapes():
    spec = LossSpec("logcosh")
    u = np.linspace(-2, 2, 5)
    vals = loss_value(spec, 1.0, u)
    assert vals.shape == (5,)
    assert isinstance(loss_value(spec, 1.0, 0.5), float)
    assert isinstance(loss_d(spec, 2, 1.0, 0.5), float)


def test_derivatives_match_finite_differences():
    # orders 1..3 against central differences of the next-lower order
    rng = np.random.default_rng(17)
    for spec in ALL_SPECS:
        y = rng.normal(scale=2.0, size=1000)
        u = rng.normal(scale=2.0, size=1000)
        for yi, ui in zip(y, u):
            d1 = loss_d(spec, 1, yi, ui)
            fd1 = central_difference(lambda v: loss_value(spec, yi, v), ui)
            assert abs(d1 - fd1) <= 1e-6 * (1 + abs(d1)), (spec, yi, ui)


@pytest.mark.parametrize("order", [2, 3])
def test_higher_derivatives_match_finite_differences(order):
    rng = np.random.default_rng(23 + order)
    for spec in ALL_SPECS:
        for _ in range(200):
            yi, ui = rng.normal(scale=2.0, size=2)
            d = loss_d(spec, order, yi, ui)
            fd = central_difference(lambda v: loss_d(spec, order - 1, yi, v), ui)
            assert abs(d - fd) <= 1e-6 * (1 + abs(d)), (spec, order, yi, ui)


def test_smoothness_bounds_hold_on_grid():
    # |d1| <= rho, |d2| <= beta2, |d3| <= xi, and convexity d2 >= 0
    r = np.linspace(-40.0, 40.0, 10_000)
    for spec in SMOOTH_SPECS:
        c = smoothness_constants(spec)
        d1 = loss_d(spec, 1, r, 0.0)
        d2 = loss_d(spec, 2, r, 0.0)
        d3 = loss_d(spec, 3, r, 0.0)
        assert np.max(np.abs(d1)) <= c.rho + 1e-12
        assert np.max(np.abs(d2)) <= c.beta2 + 1e-12
        assert np.max(np.abs(d3)) <= c.xi + 1e-12
        assert np.min(d2) >= 0.0


def test_squared_loss_convex_on_grid():
    r = np.linspace(-40.0, 40.0, 101)
    assert np.all(loss_d(LossSpec("squared"), 2, r, 0.0) >= 0.0)


def test_beta1_lipschitz_in_first_argument():
    rng = np.random.default_rng(31)
    for spec in SMOOTH_SPECS:
        c = smoothness_constants(spec)
        for _ in range(300):
            y1, y2, u = rng.normal(scale=3.0, size=3)
            gap = abs(loss_d(spec, 1, y1, u) - loss_d(spec, 1, y2, u))
            assert gap <= c.beta1 * abs(y1 - y2) + 1e-12


def test_smoothness_constants_logcosh():
    c = smoothness_constants(LossSpec("logcosh", a=1.0))
    assert (c.rho, c.beta2, c.beta1, c.xi) == (1.0, 1.0, 1.0, 1.0)
    c2 = smoothness_constants(LossSpec("logcosh", a=2.0))
    assert c2.rho == 1.0
    assert c2.beta2 == pytest.approx(0.5)
    assert c2.xi == pytest.approx(0.25)


def test_smoothness_constants_pseudo_huber():
    c = smoothness_constants(LossSpec("pseudo_huber", a=1.0))
    assert c.rho == 1.0  # equals the scale a
    assert c.beta2 == 1.0
    assert c.xi == pytest.approx(1.5 * 0.8 ** 2.5, rel=1e-14)
    assert c.xi == pytest.approx(0.8586501033599193, rel=1e-14)
    assert smoothness_constants(LossSpec("pseudo_huber", a=2.0)).rho == 2.0


def test_smoothness_constants_smoothed_pinball():
    c = smoothness_constants(LossSpec("smoothed_pinball", a=0.2, t=0.5))
    assert c.rho == 0.5
    assert c.beta2 == pytest.approx(1.25)
    c8 = smoothness_constants(LossSpec("smoothed_pinball", a=1.0, t=0.8))
    assert c8.rho == pytest.approx(0.8)  # max(t, 1-t)
    s3 = math.sqrt(3)
    assert c8.xi == pytest.approx((5 + 3 * s3) / (s3 + 3) ** 3, rel=1e-14)
    assert c8.xi == pytest.approx(0.09622504486493767, rel=1e-14)


def test_smoothness_constants_squared_rejected():
    with pytest.raises(ValueError, match="unbounded"):
        smoothness_constants(LossSpec("squared"))


def test_third_derivative_bound_is_conservative_for_logcosh():
    # the exposed xi = 1/a^2 relaxes the tight supremum of |d3|
    spec = LossSpec("logcosh", a=1.0)
    r = np.linspace(-5, 5, 20001)
    tight = np.max(np.abs(loss_d(spec, 3, r, 0.0)))
    assert tight == pytest.approx(0.769800358919501, rel=1e-9)
    assert tight < smoothness_constants(spec).xi


def test_overflow_safety_far_from_center():
    for spec in SMOOTH_SPECS:
        for r in (1e3, -1e3, 1e8, -1e8):
            v = loss_value(spec, r, 0.0)
            assert np.isfinite(v)
            for order in (1, 2, 3):
                assert np.isfinite(loss_d(spec, order, r, 0.0))
    # logcosh tail is |r| - a log 2 up to an exponentially small term
    big = loss_value(LossSpec("logcosh", a=1.0), 1e3, 0.0)
    assert big == pytest.approx(1e3 - math.log(2), rel=1e-13)


def test_loss_minimum_at_equal_arguments():
    # pinball checked at t=1/2 where the smoothed minimizer sits at u=y
    specs = (LossSpec("logcosh", a=0.7), LossSpec("pseudo_huber", a=1.3),
             LossSpec("smoothed_pinball", a=0.5, t=0.5), LossSpec("squared"))
    u = np.linspace(-6.0, 6.0, 2001)
    for spec in specs:
        y = 1.25
        assert loss_value(spec, y, y) <= np.min(loss_value(spec, y, y + u)) + 1e-15


def test_score_examples():
    assert score(3.0, 3.0) == 0.0
    assert score(1.0, -2.0) == 3.0
    assert score(0.5, 2.0) == 1.5


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_score_one_lipschitz_in_u(y, u1, u2):
    slack = 1e-9 * (1 + abs(y) + abs(u1) + abs(u2))  # |y-u| cancellation noise
    assert abs(score(y, u1) - score(y, u2)) <= abs(u1 - u2) + slack


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMOOTH_SPECS), st.floats(-50, 50), st.floats(-50, 50))
def test_first_derivative_within_rho(spec, y, u):
    assert abs(loss_d(spec, 1, y, u)) <= smoothness_constants(spec).rho + 1e-12


def test_families_enumeration():
    assert set(LOSS_FAMILIES) == {"logcosh", "pseudo_huber", "smoothed_pinball", "squared"}
