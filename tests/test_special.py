"""Scalar special functions against mpmath and closed forms."""

from __future__ import annotations

import math
import random

import mpmath as mp
import pytest

from specreg import (
    EULER_GAMMA,
    DomainError,
    NumericError,
    PoleError,
    euler_gamma_integral,
    euler_gamma_series,
    exp_integral_e1,
    gamma_fn,
    hurwitz_zeta,
    hurwitz_zeta_prime0,
    log_cutoff,
)
from specreg.special import (
    _CRAMER,
    _E1_ROUNDING,
    _E1_SERIES_ROUNDING,
    _EM_REMAINDER,
    _EM_WEIGHTS,
    _G1_COEFFS,
    _GAMMA_INC_ROUNDING,
    _GAMMA_ROUNDING,
    _digamma,
    _e1_rounding,
    _ein,
    lower_gamma_scaled,
    upper_gamma_scaled,
)

mp.mp.dps = 30

E1_GRID = [1e-300, 1e-12, 1e-8, 1e-3, 0.1, 0.5, 0.999, 1.0, 1.001, 1.5,
           2.0, 5.0, 10.0, 50.0, 100.0, 700.0]


@pytest.mark.parametrize("x", E1_GRID)
def test_e1_against_mpmath(x):
    ref = float(mp.e1(x))
    assert exp_integral_e1(x) == pytest.approx(ref, rel=_e1_rounding(x), abs=1e-300)


def test_e1_series_branch_rounding():
    # below 1, E1 is within 8 u of mpmath (6.1 u measured on these 3400
    # points, packed towards 0 and next to 1): half of _E1_SERIES_ROUNDING,
    # whose other half holds the rounding of a caller's argument
    rng = random.Random(16)
    points = ([math.exp(rng.uniform(math.log(1e-300), 0.0)) for _ in range(1500)]
              + [rng.uniform(0.0, 1.0) for _ in range(1000)]
              + [1.0 - rng.uniform(0.0, 0.05) for _ in range(900)])
    with mp.workdps(40):
        worst = max(abs(exp_integral_e1(x) - mp.e1(x)) / mp.e1(x)
                    for x in points if 0.0 < x < 1.0)
    assert worst <= 0.5 * _E1_SERIES_ROUNDING
    assert _e1_rounding(0.999) == _E1_SERIES_ROUNDING
    assert _e1_rounding(1.0) == _E1_ROUNDING


def test_e1_stated_rounding_just_above_one():
    # the continued fraction's rounding peaks just above x = 1
    for k in range(200):
        x = 1.0 + k * 2.5e-5
        assert abs(exp_integral_e1(x) - mp.e1(x)) <= _E1_ROUNDING * mp.e1(x)


def test_euler_maclaurin_constants():
    for k, weight in enumerate(_EM_WEIGHTS, start=1):
        ref = mp.bernoulli(2 * k) / mp.factorial(2 * k)
        assert abs(weight - ref) <= 2.0 ** -52 * abs(ref)
    assert _EM_REMAINDER >= 2 * mp.zeta(16) / (2 * mp.pi) ** 16 * (1 - 2.0 ** -52)
    # Cramer's inequality, which the remainder bounds of the Gaussian tails use
    for j in range(17):
        norm = mp.sqrt(2 ** j * mp.factorial(j))
        worst = max(abs(mp.hermite(j, y)) * mp.e ** (-y * y / 2)
                    for y in (mp.mpf(i) / 20 for i in range(200)))
        assert worst <= _CRAMER * norm


def test_e1_series_identity_small_x():
    # E1(x) + gamma + ln x = x + O(x^2) for small x
    x = 1e-8
    assert exp_integral_e1(x) + EULER_GAMMA + math.log(x) == pytest.approx(x, rel=1e-7)


def test_e1_continued_fraction_bracketing():
    # exp(-x)/(x+1) < E1(x) < exp(-x)/x for x > 0
    for x in (1.0, 5.0, 50.0):
        val = exp_integral_e1(x)
        assert math.exp(-x) / (x + 1.0) < val < math.exp(-x) / x


def test_e1_monotone_decreasing():
    values = [exp_integral_e1(x) for x in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-12])
def test_e1_domain(bad):
    with pytest.raises(DomainError):
        exp_integral_e1(bad)


def test_e1_at_infinity_is_zero():
    # a finite cutoff times a large eigenvalue can overflow to inf
    assert exp_integral_e1(math.inf) == 0.0


def test_ein_against_mpmath():
    # Ein(x) = gamma + ln x + E1(x) at 40 significant digits (the working
    # precision grows with -log10 x, where the three terms cancel), on 200
    # log-spaced points and densely where the series hands over to E1; the
    # relative error stays inside the 8 u its docstring derives
    worst = 0.0
    for x in [10.0 ** (-300 + 600 * i / 199) for i in range(200)] + [
            0.5 + i / 32 for i in range(112)]:
        with mp.workdps(40 + max(0, round(-math.log10(x)))):
            ref = mp.euler + mp.log(x) + mp.e1(x)
            worst = max(worst, float(abs(_ein(x) - ref) / ref))
    assert worst <= 8.0 * 2.0 ** -53


def test_ein_series_meets_e1_route():
    # the series below 2 and gamma + ln x + E1(x) from 2 on join continuously
    below, above = _ein(math.nextafter(2.0, 0.0)), _ein(2.0)
    assert 0.0 <= above - below <= 4.0 * math.ulp(above)


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-300, math.nan])
def test_ein_domain(bad):
    with pytest.raises(DomainError):
        _ein(bad)


def test_log_cutoff_is_minus_e1():
    assert log_cutoff(3.0, 0.5) == -exp_integral_e1(1.5)


def test_log_cutoff_monotone():
    # larger eigenvalue or larger eps => stronger suppression => log closer to -E1(small)...
    # the cutoff factor h_eps(lam) decreases towards 0 as eps*lam -> 0, so the log decreases.
    assert log_cutoff(2.0, 0.1) > log_cutoff(1.0, 0.1)
    assert log_cutoff(1.0, 0.2) > log_cutoff(1.0, 0.1)


def test_log_cutoff_domain():
    with pytest.raises(DomainError):
        log_cutoff(0.0, 0.1)
    with pytest.raises(DomainError):
        log_cutoff(1.0, 0.0)


@pytest.mark.parametrize("s", [-9.5, -4.3, -0.5, 0.1, 0.5, 1.0, 1.5, 2.0,
                               3.7, 7.0, 12.5, 20.0, 30.0])
def test_gamma_against_mpmath(s):
    ref = float(mp.gamma(s))
    assert gamma_fn(s) == pytest.approx(ref, rel=5e-13)


def test_gamma_exact_points():
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("s", [0.0, -1.0, -2.0, -7.0])
def test_gamma_poles(s):
    with pytest.raises(PoleError):
        gamma_fn(s)


DIGAMMA_X = [1e-8, 1e-3, 0.1, 0.5, 1.0, 1.4616321449683622, 1.46163214496836, 2.0, 9.5,
             10.0, 10.5, 58.3, 1e3, 1e6, 1e12]


@pytest.mark.parametrize("x", DIGAMMA_X)
def test_digamma_against_mpmath(x):
    # 1.46163... is psi's zero, where only an absolute bound can hold
    ref = mp.digamma(mp.mpf(x))
    assert abs(_digamma(x) - ref) <= 1e-15 * (1 + abs(ref))


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
def test_digamma_domain(x):
    with pytest.raises(DomainError):
        _digamma(x)


HURWITZ_S = [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 2.0, 3.7, 10.0, 30.0]
HURWITZ_Q = [0.25, 0.5, 1.0, 1.5, 2.5]


@pytest.mark.parametrize("s", HURWITZ_S)
@pytest.mark.parametrize("q", HURWITZ_Q)
def test_hurwitz_against_mpmath(s, q):
    ref = mp.zeta(s, q)
    value, err = hurwitz_zeta(s, q)
    # mixed tolerance: zeta_H has exact zeros (e.g. s=-2, q=1) where a pure
    # relative comparison is undefined
    assert abs(value - float(ref)) <= 1e-12 * max(1.0, abs(float(ref)))
    assert abs(mp.mpf(value) - ref) <= err


@pytest.mark.parametrize("q", HURWITZ_Q)
def test_hurwitz_at_zero(q):
    assert hurwitz_zeta(0.0, q)[0] == pytest.approx(0.5 - q, abs=1e-13)


def test_hurwitz_index_shift():
    # zeta_H(s, q) - zeta_H(s, q+1) = q^(-s)
    for s, q in [(2.3, 0.7), (-1.5, 1.25), (5.0, 2.0)]:
        lhs = hurwitz_zeta(s, q)[0] - hurwitz_zeta(s, q + 1.0)[0]
        assert lhs == pytest.approx(q ** (-s), rel=1e-12, abs=1e-13)


def test_hurwitz_riemann_values():
    assert hurwitz_zeta(2.0, 1.0)[0] == pytest.approx(math.pi ** 2 / 6.0, rel=1e-13)
    assert hurwitz_zeta(4.0, 1.0)[0] == pytest.approx(math.pi ** 4 / 90.0, rel=1e-13)
    assert hurwitz_zeta(-1.0, 1.0)[0] == pytest.approx(-1.0 / 12.0, abs=1e-13)
    assert hurwitz_zeta(0.0, 1.0)[0] == pytest.approx(-0.5, abs=1e-13)


def test_hurwitz_domain_and_pole():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 0.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, -1.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(-2.5, 1.0)


@pytest.mark.parametrize("s, q", [(60.0, 1e-8), (-2.0, 1e154), (-2.0, 1e300)])
def test_hurwitz_overflow_is_numeric_error(s, q):
    # a head term or the tail integral beyond the double range
    with pytest.raises(NumericError, match="overflows"):
        hurwitz_zeta(s, q)


def test_hurwitz_prime0_closed_forms():
    # d/ds zeta_H(s,q)|_0 = ln Gamma(q) - ln(2 pi)/2
    assert hurwitz_zeta_prime0(1.0) == pytest.approx(-0.9189385332046727, abs=1e-15)
    assert hurwitz_zeta_prime0(0.5) == pytest.approx(-0.5 * math.log(2.0), abs=1e-15)


def test_hurwitz_prime0_fd_cross_check():
    q = 1.5
    h = 1e-5
    fd = (hurwitz_zeta(h, q)[0] - hurwitz_zeta(-h, q)[0]) / (2.0 * h)
    assert fd == pytest.approx(hurwitz_zeta_prime0(q), abs=1e-8)


def test_hurwitz_prime0_domain():
    with pytest.raises(DomainError):
        hurwitz_zeta_prime0(0.0)


def test_euler_gamma_constant_value():
    assert EULER_GAMMA == pytest.approx(float(mp.euler), abs=1e-16)


def test_euler_gamma_integral():
    value, err = euler_gamma_integral()
    assert abs(value - EULER_GAMMA) <= 1e-12
    assert 0.0 < err <= 1e-10


def test_euler_gamma_series():
    assert abs(euler_gamma_series() - EULER_GAMMA) <= 5e-15
    assert abs(euler_gamma_series(5000) - EULER_GAMMA) <= 1e-12
    with pytest.raises(DomainError):
        euler_gamma_series(5)


def test_two_gamma_routes_agree():
    value, _ = euler_gamma_integral()
    assert abs(value - euler_gamma_series()) <= 1e-10


# ---------------------------------------------------------------------------
# incomplete gamma functions


def _gamma_inc_points():
    """(a, x) over the ranges the zeta closed form asks for: a = s in
    [-2, 30] at any x, a = 1/2 - s in [-29.5, 2.5] at x >= pi, a next to the
    integers 0, -1, -2 (where Temme's form and the recurrence meet E1) and x
    next to 0.8 (where the routes meet)."""
    rng = random.Random(8)
    points = [(rng.uniform(-2.0, 30.0), math.exp(rng.uniform(math.log(1e-300), math.log(60.0))))
              for _ in range(300)]
    points += [(rng.uniform(-29.5, 2.5), math.exp(rng.uniform(math.log(math.pi), math.log(700.0))))
               for _ in range(150)]
    points += [(rng.uniform(-2.0, 30.0), rng.uniform(0.7, 0.9)) for _ in range(100)]
    points += [(a0 + d, x) for a0 in (0.0, -1.0, -2.0, 0.5, -0.5)
               for d in (0.0, 1e-9, -1e-9, 1e-3, -1e-3)
               for x in (1e-300, 1e-8, 0.3, 0.799, 0.8, 1.0, math.pi, 20.0)]
    # the result must stay inside the double range
    return [(a, x) for a, x in points if a <= 0 or math.lgamma(a) - a * math.log(x) < 700]


def test_upper_gamma_scaled_against_mpmath():
    misses = []
    for a, x in _gamma_inc_points():
        want = mp.gammainc(a, x) * mp.mpf(x) ** -a
        if not abs(upper_gamma_scaled(a, x) - want) <= _GAMMA_INC_ROUNDING * want:
            misses.append((a, x))
    assert misses == []


@pytest.mark.parametrize("a", [-1.9, -1.5, -1.0 + 1e-3, -0.7, -0.003, 0.003, 0.25, 1.5, 3.0,
                               7.5, 29.0])
def test_lower_gamma_scaled_against_mpmath(a):
    for x in (0.0, 1e-12, 0.05, 0.7, 2.0, math.pi):
        value, err = lower_gamma_scaled(a, x)
        want = 1 / mp.mpf(a) if x == 0.0 else mp.gammainc(a, 0, x) * mp.mpf(x) ** -a
        assert abs(value - want) <= err


def test_incomplete_gamma_domain():
    with pytest.raises(DomainError):
        upper_gamma_scaled(0.5, 0.0)
    with pytest.raises(DomainError):
        upper_gamma_scaled(31.0, 1.0)
    with pytest.raises(DomainError):
        lower_gamma_scaled(0.5, -1.0)
    with pytest.raises(PoleError):
        lower_gamma_scaled(-1.0, 0.5)
    with pytest.raises(OverflowError):
        upper_gamma_scaled(3.0, 1e-226)


def test_temme_coefficients():
    # G1(b) = (1/Gamma(1 + b) - 1)/b from the table, on |b| <= 1/2
    for b in (-0.5, -0.31, -0.1, -1e-3, 1e-3, 0.1, 0.37, 0.5):
        series = math.fsum(c * b ** j for j, c in enumerate(_G1_COEFFS))
        want = (1 / mp.gamma(1 + mp.mpf(b)) - 1) / b
        assert abs(series - want) <= 2.0 ** -52 * abs(want)


def test_gamma_fn_stated_rounding():
    rng = random.Random(9)
    points = [rng.uniform(-2.0, 30.0) for _ in range(200)]
    points += [n + d for n in (0, -1, -2) for d in (1e-6, -1e-6, 1e-3, -1e-3)]
    for s in points:
        want = mp.gamma(s)
        assert abs(gamma_fn(s) - want) <= _GAMMA_ROUNDING * abs(want)
