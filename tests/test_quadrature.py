"""Quadrature backends on integrals with known values."""

from __future__ import annotations

import cmath
import math

import mpmath
import pytest

from specreg.errors import NumericError
from specreg.quadrature import _qk21, gauss_kronrod, tanh_sinh


def test_gauss_kronrod_polynomial():
    value, err = gauss_kronrod(lambda x: x * x, 0.0, 1.0)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert err < 1e-10


def test_gauss_kronrod_infinite_interval():
    value, _ = gauss_kronrod(lambda t: math.exp(-t), 0.0, math.inf)
    assert value == pytest.approx(1.0, abs=1e-12)


# One qk21 panel as QUADPACK computes it (scipy.integrate.quad with limit=1,
# QUADPACK's qags, whose first step is qk21 on the whole interval).
QK21_QUADPACK = [
    (lambda x: math.exp(-x) * math.cos(30.0 * x), 0.0, 1.0,
     -0.011055540086891382, 0.3863769595971251),
    (math.sqrt, 0.0, 1.0, 0.6666714560647555, 0.004949759040028709),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 3.0, 1.2490457723982686, 2.2104352676061964e-08),
    (lambda x: x * x, 0.0, 1.0, 0.33333333333333337, 3.700743415417189e-15),
]


@pytest.mark.parametrize("f, a, b, value, err", QK21_QUADPACK,
                         ids=["oscillating", "sqrt", "lorentzian", "square"])
def test_qk21_panel_matches_quadpack(f, a, b, value, err):
    got_value, got_err = _qk21(f, a, b)
    assert got_value == pytest.approx(value, rel=1e-15, abs=1e-17)
    assert got_err == pytest.approx(err, rel=1e-14)


def _cos30_exact(b: float) -> float:
    """int_0^b exp(-x) cos(30x) dx, through the complex exponential."""
    z = complex(-1.0, 30.0)
    return ((cmath.exp(z * b) - 1.0) / z).real if b < math.inf else (-1.0 / z).real


KNOWN_INTEGRALS = {  # name: (f, a, b, exact value)
    "inverse-sqrt-endpoint": (lambda x: x ** -0.5, 0.0, 1.0, 2.0),
    "narrow-peak": (lambda x: 1.0 / (1e-6 + (x - 0.3) ** 2), 0.0, 1.0,
                    (math.atan(700.0) + math.atan(300.0)) * 1e3),
    "oscillating": (lambda x: math.exp(-x) * math.cos(30.0 * x), 0.0, 1.0, _cos30_exact(1.0)),
    "oscillating-infinite": (lambda x: math.exp(-x) * math.cos(30.0 * x), 0.0, math.inf,
                             _cos30_exact(math.inf)),
    "e1-infinite": (lambda t: math.exp(-t) / t, 1.0, math.inf, float(mpmath.e1(1))),
}


@pytest.mark.parametrize("f, a, b, exact", KNOWN_INTEGRALS.values(), ids=KNOWN_INTEGRALS)
def test_gauss_kronrod_error_is_honest(f, a, b, exact):
    value, err = gauss_kronrod(f, a, b)
    assert abs(value - exact) <= err
    assert err <= max(1e-13, 1e-12 * abs(exact))


def test_gauss_kronrod_limit_raises():
    # x^-0.95 loses only a factor 2^0.05 of error per bisection at x = 0
    with pytest.raises(NumericError, match="after 200 panels"):
        gauss_kronrod(lambda x: x ** -0.95, 0.0, 1.0)


def test_gauss_kronrod_limit_accepts_small_error():
    # stopped by the limit, but the error is below 1e-8: returned for the budget
    value, err = gauss_kronrod(lambda x: x ** -0.5, 0.0, 1.0, limit=60)
    assert 1e-13 < err <= 1e-8
    assert abs(value - 2.0) <= err


def test_gauss_kronrod_nan_raises():
    with pytest.raises(NumericError):
        gauss_kronrod(lambda x: math.nan, 0.0, 1.0)


def test_tanh_sinh_endpoint_singularity():
    # int_0^1 x^(-1/2) dx = 2; the integrand blows up at the left endpoint
    value, err = tanh_sinh(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
    assert value == pytest.approx(2.0, abs=1e-12)
    assert err < 1e-10
    # the reported error must not understate the true deviation
    assert abs(value - 2.0) <= 10.0 * err + 1e-15


def test_tanh_sinh_log_singularity():
    value, _ = tanh_sinh(lambda x: math.log(1.0 / x), 0.0, 1.0)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_tanh_sinh_smooth():
    value, _ = tanh_sinh(lambda x: x ** 3, 0.0, 2.0)
    assert value == pytest.approx(4.0, abs=1e-12)


def test_tanh_sinh_matches_gauss_kronrod():
    f = lambda x: math.exp(-x) * math.cos(3.0 * x)
    ts, _ = tanh_sinh(f, 0.0, 1.0)
    gk, _ = gauss_kronrod(f, 0.0, 1.0)
    assert ts == pytest.approx(gk, abs=1e-12)


def test_tanh_sinh_unconverged_raises():
    # 1000 radians of oscillation are far from resolved after four halvings
    with pytest.raises(NumericError):
        tanh_sinh(lambda x: math.cos(1e3 * x), 0.0, 1.0, max_level=4)


def test_tanh_sinh_interval_validation():
    with pytest.raises(NumericError):
        tanh_sinh(lambda x: x, 1.0, 1.0)


def test_tanh_sinh_narrow_panel_keeps_its_nodes():
    # the weights scale with the panel (each at least ~4.7e-29 * half-width), so
    # a panel at 1e-300 is integrated like any other
    value, _ = tanh_sinh(lambda x: 1.0 / x, 1e-300, 1e-298)
    assert value == pytest.approx(math.log(100.0), rel=1e-15)


def test_tanh_sinh_subnormal_panel_raises():
    # 1/x overflows to inf on a subnormal panel, so no two levels agree
    with pytest.raises(NumericError):
        tanh_sinh(lambda x: 1.0 / x, 1e-320, 1e-318)
