"""Scalar special functions against mpmath and closed forms."""

from __future__ import annotations

import functools
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
)
from specreg.special import (
    _CRAMER,
    _E1_ROUNDING,
    _EIN_ROUNDING,
    _EIN_TAYLOR,
    _EIN_TAYLOR_SHORT,
    _EM_REMAINDER,
    _EM_WEIGHTS,
    _ERFC_ROUNDING,
    _G1_COEFFS,
    _G_1_2,
    _G_2_4,
    _G_4_INF,
    _GAMMA_INC_ROUNDING,
    _GAMMA_ROUNDING,
    _LGAMMA_ROUNDING,
    _U,
    _digamma,
    _ein,
    _upper_gamma_cf,
    lower_gamma_scaled,
    upper_gamma_scaled,
)

mp.mp.dps = 30

E1_GRID = [1e-300, 1e-12, 1e-8, 1e-3, 0.1, 0.5, 0.999, 1.0, 1.001, 1.5,
           2.0, 5.0, 10.0, 50.0, 100.0, 700.0]


@pytest.mark.parametrize("x", E1_GRID)
def test_e1_against_mpmath(x):
    ref = float(mp.e1(x))
    assert exp_integral_e1(x) == pytest.approx(ref, rel=_E1_ROUNDING, abs=1e-300)


def test_e1_series_branch_rounding():
    # below 1, E1 is within _E1_ROUNDING = 8 u of mpmath (5.8 u measured on
    # these 3400 points, packed towards 0 and next to 1)
    rng = random.Random(16)
    points = ([math.exp(rng.uniform(math.log(1e-300), 0.0)) for _ in range(1500)]
              + [rng.uniform(0.0, 1.0) for _ in range(1000)]
              + [1.0 - rng.uniform(0.0, 0.05) for _ in range(900)])
    with mp.workdps(40):
        worst = max(abs(exp_integral_e1(x) - mp.e1(x)) / mp.e1(x)
                    for x in points if 0.0 < x < 1.0)
    assert worst <= _E1_ROUNDING


def test_e1_stated_rounding_just_above_one():
    # where the Taylor pieces hand over to the table of g on [1, 2]
    for k in range(200):
        x = 1.0 + k * 2.5e-5
        assert abs(exp_integral_e1(x) - mp.e1(x)) <= _E1_ROUNDING * mp.e1(x)


# ---------------------------------------------------------------------------
# the polynomial tables of exp_integral_e1 and _ein


def _g(x):
    """x exp(x) E1(x) at the working precision."""
    x = mp.mpf(x)
    return x * mp.exp(x) * mp.e1(x)


def _chebyshev_coeffs(f, degree: int) -> list:
    """Chebyshev coefficients c_0..c_degree of the polynomial interpolating f
    at the degree + 1 Chebyshev points of the first kind on [-1, 1]."""
    count = degree + 1
    angles = [mp.pi * (j + mp.mpf(1) / 2) / count for j in range(count)]
    values = [f(mp.cos(angle)) for angle in angles]
    coeffs = [2 * mp.fsum(v * mp.cos(k * angle) for v, angle in zip(values, angles)) / count
              for k in range(count)]
    coeffs[0] /= 2
    return coeffs


def _monomials(coeffs: list) -> tuple:
    """sum_k coeffs[k]*T_k(t) in monomials of t, highest power first, each
    rounded to a double; T_k's integer coefficients by T_(k+1) = 2t*T_k -
    T_(k-1)."""
    chebyshev = [[1], [0, 1]]
    while len(chebyshev) < len(coeffs):
        prev, last = chebyshev[-2], chebyshev[-1]
        chebyshev.append([2 * a - b for a, b in zip([0] + last, prev + [0, 0])])
    powers = [mp.mpf(0)] * len(coeffs)
    for c, poly in zip(coeffs, chebyshev):
        for i, a in enumerate(poly):
            powers[i] += c * a
    return tuple(float(p) for p in reversed(powers))


# each table of g: the map from t in [-1, 1] to x, its smallest g (at the
# piece's smallest x, g being increasing) and its degree
G_TABLES = (
    (_G_1_2, lambda t: (t + 3) / 2, 1, 19),
    (_G_2_4, lambda t: t + 3, 2, 19),
    (_G_4_INF, lambda t: 8 / (t + 1), 4, 25),
)


def test_e1_tables_rebuild_from_mpmath():
    # every committed table is what its recipe gives from 40-digit mpmath
    with mp.workdps(40):
        taylor = tuple(float(mp.mpf((-1) ** k) / ((k + 1) * mp.factorial(k + 1)))
                       for k in range(16, -1, -1))
        assert _EIN_TAYLOR == taylor
        assert _EIN_TAYLOR_SHORT == taylor[-12:]
        for table, to_x, _, degree in G_TABLES:
            assert table == _monomials(_chebyshev_coeffs(lambda t: _g(to_x(t)), degree))


def test_e1_table_degrees():
    # each degree is the lowest whose first dropped term is below u/4 of the
    # piece's smallest value: Chebyshev coefficients of a degree + 8
    # interpolant for g, Taylor terms at the piece's right end for Ein(x)/x
    quarter = 2.0 ** -55
    with mp.workdps(40):
        for _, to_x, low, degree in G_TABLES:
            coeffs = [abs(c) for c in _chebyshev_coeffs(lambda t: _g(to_x(t)), degree + 8)]
            floor = quarter * _g(low)
            assert coeffs[degree] >= floor
            assert max(coeffs[degree + 1:]) < floor
        for table, right in ((_EIN_TAYLOR_SHORT, mp.mpf(0.25)), (_EIN_TAYLOR, mp.mpf(1))):
            degree = len(table) - 1
            floor = quarter * (mp.euler + mp.log(right) + mp.e1(right)) / right

            def term(k):
                return right ** k / ((k + 1) * mp.factorial(k + 1))
            assert term(degree) >= floor > term(degree + 1)


# the pieces of exp_integral_e1 and _ein, each sampled by _piece_points
E1_PIECES = ((0.0, 0.25), (0.25, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 745.0))


def _piece_points(lo: float, hi: float, rng: random.Random) -> list[float]:
    """2500 points of [lo, hi): 500 within 1e-3 relative of each end (next to
    1e-300 at the bottom, with each end and its neighbouring doubles), 750
    uniform and 750 log-uniform."""
    bottom = max(lo, 1e-300)
    points = [bottom, math.nextafter(hi, 0.0)]
    if lo > 0.0:
        points.append(math.nextafter(lo, math.inf))
    points += [bottom * (1.0 + rng.uniform(0.0, 1e-3)) for _ in range(499)]
    points += [hi * (1.0 - rng.uniform(0.0, 1e-3)) for _ in range(499)]
    points += [rng.uniform(lo, hi) for _ in range(750)]
    points += [math.exp(rng.uniform(math.log(bottom), math.log(hi))) for _ in range(750)]
    return [x for x in points if lo <= x < hi and x > 0.0]


def _worst_error(function, reference, points) -> tuple[float, float]:
    """The largest |function(x) - reference(x)| over points: relative where
    the reference is at least the smallest normal double, and in units of
    2^-1074 below that."""
    relative, subnormal = 0.0, 0.0
    for x in points:
        ref = reference(x)
        miss = abs(function(x) - ref)
        if ref >= 2.0 ** -1022:
            relative = max(relative, float(miss / ref))
        else:
            subnormal = max(subnormal, float(miss * mp.mpf(2) ** 1074))
    return relative, subnormal


# the measured worst relative error of each piece in units of u, rounded
# up, as the docstrings of exp_integral_e1 and _ein state it (E1 on [0.25,
# 1): test_e1_series_branch_rounding's points)
E1_PIECE_ERRORS = (2.3, 5.8, 2.9, 3.5, 3.2)
EIN_PIECE_ERRORS = (1.5, 1.5, 2.1, 2.0, 1.8)


def test_e1_per_piece_error():
    # 1.25e4 points: each piece of exp_integral_e1 within its measured worst
    # error of 40-digit mpmath, and a result below the normal range (x above
    # 708) within 2^-1074 of it
    rng = random.Random(40)
    with mp.workdps(40):
        for (lo, hi), limit in zip(E1_PIECES, E1_PIECE_ERRORS):
            relative, subnormal = _worst_error(exp_integral_e1, mp.e1, _piece_points(lo, hi, rng))
            assert relative <= limit * _U, (lo, hi, relative / _U)
            assert subnormal <= 1.0
    # _E1_ROUNDING is the worst piece's error rounded up to a power of two
    assert max(E1_PIECE_ERRORS) <= _E1_ROUNDING / _U


def test_ein_per_piece_error():
    # 1.25e4 points on the same pieces: _ein within its measured worst error
    # of 40-digit mpmath, below the 4 u that _EIN_ROUNDING states

    def reference(x):
        with mp.workdps(40 + max(0, round(-math.log10(x)))):
            return +(mp.euler + mp.log(x) + mp.e1(x))

    rng = random.Random(41)
    with mp.workdps(40):
        for (lo, hi), limit in zip(E1_PIECES, EIN_PIECE_ERRORS):
            relative, _ = _worst_error(_ein, reference, _piece_points(lo, hi, rng))
            assert relative <= limit * _U, (lo, hi, relative / _U)
    assert max(EIN_PIECE_ERRORS) * _U <= _EIN_ROUNDING


def test_e1_continuous_and_decreasing_across_the_pieces():
    # at each boundary b, E1 at b and at the double below it differ by at
    # most the stated errors of both plus E1's own change; on 400 points
    # within 1e-9 relative around b, and on a log grid of the whole range, E1
    # decreases strictly
    for b in (0.25, 1.0, 2.0, 4.0):
        below, at = math.nextafter(b, 0.0), b
        jump = abs(exp_integral_e1(below) - exp_integral_e1(at))
        change = math.exp(-below) / below * (at - below)
        assert jump <= 2.0 * _E1_ROUNDING * exp_integral_e1(below) + change
        near = [b * (1.0 + 1e-9 * i / 200) for i in range(-200, 201)]
        values = [exp_integral_e1(x) for x in near]
        assert all(a > c for a, c in zip(values, values[1:])), b
    grid = [math.exp(math.log(1e-300) + i / 4000 * (math.log(700.0) - math.log(1e-300)))
            for i in range(4001)]
    values = [exp_integral_e1(x) for x in grid]
    assert all(a > c for a, c in zip(values, values[1:]))


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
    # log-spaced points and densely where the Taylor pieces hand over to E1; the
    # relative error stays inside the 8 u its docstring derives
    worst = 0.0
    for x in [10.0 ** (-300 + 600 * i / 199) for i in range(200)] + [
            0.5 + i / 32 for i in range(112)]:
        with mp.workdps(40 + max(0, round(-math.log10(x)))):
            ref = mp.euler + mp.log(x) + mp.e1(x)
            worst = max(worst, float(abs(_ein(x) - ref) / ref))
    assert worst <= 8.0 * 2.0 ** -53


def test_ein_series_meets_e1_route():
    # the Taylor pieces below 1 and gamma + ln x + E1(x) from 1 on join
    # continuously, as do the two Taylor pieces at 0.25
    for b in (0.25, 1.0):
        below, above = _ein(math.nextafter(b, 0.0)), _ein(b)
        assert 0.0 <= above - below <= 4.0 * math.ulp(above)


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-300, math.nan])
def test_ein_domain(bad):
    with pytest.raises(DomainError):
        _ein(bad)


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
    # a = x + 1, where the continued fraction's first denominator is 0.0
    points += [(x + 1.0, x) for x in (0.8, 1.0, 2.0, 3.5, 10.0, 28.0)]
    # the result must stay inside the double range
    return [(a, x) for a, x in points if a <= 0 or math.lgamma(a) - a * math.log(x) < 700]


def _upper_gamma_cf_reference(a: float, x: float) -> float:
    """special._upper_gamma_cf with abs() in its guards and stop."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / (b if abs(b) >= tiny else tiny)
    for n in range(1, 1000):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        if abs(d * c - 1.0) < 1e-16:
            break
    f = x + 2 * n + 1.0 - a
    for i in range(n, 0, -1):
        f = (x + 2 * i - 1.0 - a) - i * (i - a) / f
    return math.exp(-x) / f


def _e1_reference(x: float) -> float:
    """exp_integral_e1 from a list of its pieces, each table summed by
    functools.reduce."""

    def horner(table, t):
        return functools.reduce(lambda acc, coeff: acc * t + coeff, table, 0.0)

    pieces = ((0.25, lambda: x * horner(_EIN_TAYLOR_SHORT, x) - EULER_GAMMA - math.log(x)),
              (1.0, lambda: x * horner(_EIN_TAYLOR, x) - EULER_GAMMA - math.log(x)),
              (2.0, lambda: horner(_G_1_2, 2.0 * x - 3.0) / x * math.exp(-x)),
              (4.0, lambda: horner(_G_2_4, x - 3.0) / x * math.exp(-x)),
              (math.inf, lambda: horner(_G_4_INF, 8.0 / x - 1.0) / x * math.exp(-x)))
    return next(piece() for top, piece in pieces if x < top)


def test_hot_loops_match_their_builtin_references():
    # exp_integral_e1 picks its piece and sums its table as the reference
    # does; _upper_gamma_cf's stops compare without abs() and must decide
    # exactly as its reference does; so every value is bit-equal
    rng = random.Random(34)
    for _ in range(4000):
        x = math.exp(rng.uniform(math.log(1e-300), math.log(700.0)))
        assert exp_integral_e1(x) == _e1_reference(x)
        y = rng.uniform(0.8, 60.0)
        a = rng.uniform(-30.0, y + 1.0)
        assert _upper_gamma_cf(a, y) == _upper_gamma_cf_reference(a, y)
    for x in (0.8, 1.0, 2.0, 3.5):
        assert _upper_gamma_cf(x + 1.0, x) == _upper_gamma_cf_reference(x + 1.0, x)


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


def test_library_erfc_and_lgamma_within_their_allowances():
    # the error budgets take math.erfc within _ERFC_ROUNDING of erfc
    # (relative) and math.lgamma within _LGAMMA_ROUNDING of max(1, |log
    # Gamma|); a seeded sample against 40-digit mpmath, with the worst
    # points measured: erfc 3.0 u at 1.2445..., 3.31 u at 1.2456... and
    # 5.74 u at 1.2493... (glibc's erfc piece [0.84375, 1.25)), lgamma
    # 11.97 u at 2.4955...
    rng = random.Random(56)
    xs = [rng.uniform(0.0, 26.5) for _ in range(400)]
    xs += [rng.uniform(0.84375, 1.25) for _ in range(400)]
    xs += [1.244523410759868, 1.245659802063573, 1.2493678848287801]
    qs = [10.0 ** rng.uniform(-8.0, 6.0) for _ in range(300)]
    qs += [centre + rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-8.0, -0.5)
           for centre in (1.0, 2.0) for _ in range(250)]
    qs += [2.4955285487262064, 1e-8, 1e6]
    worst_erfc = worst_lgamma = 0.0
    with mp.workdps(40):
        for x in xs:
            want = mp.erfc(x)
            worst_erfc = max(worst_erfc, float(abs(math.erfc(x) - want) / want))
        for q in qs:
            want = mp.loggamma(q)
            worst_lgamma = max(worst_lgamma,
                               float(abs(math.lgamma(q) - want) / max(1, abs(want))))
    assert worst_erfc <= _ERFC_ROUNDING
    assert worst_lgamma <= _LGAMMA_ROUNDING
