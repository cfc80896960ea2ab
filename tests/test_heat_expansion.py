"""Small-time expansion coefficients and cancellation-free remainders."""

from __future__ import annotations

import math
import sys

import mpmath as mp
import pytest

from specreg import (
    DomainError,
    FitConditionError,
    HeatExpansion,
    UnsupportedSpectrumError,
    analytic_expansion,
    compose,
    expansion_value,
    finite_expansion,
    finite_spectrum,
    fit_expansion,
    heat_trace,
    lattice_family,
    log_det_reg,
    remainder,
    remainder_fn,
    verify_remainder_bound,
    zeta_prime0,
    zeta_value,
)
from specreg import regdet
from specreg.heat_expansion import _one_sided_power_coeffs, mellin_cutoff_integral
from specreg.orbit import LoopGroupOrbitSpec, orbit_spectrum

mp.mp.dps = 30

TWO_PI = 2.0 * math.pi
SQRT_PI = math.sqrt(math.pi)


def logspace(lo: float, hi: float, num: int) -> list[float]:
    """num points from 10^lo to 10^hi, evenly spaced in the exponent."""
    return [10.0 ** (lo + (hi - lo) * k / (num - 1)) for k in range(num)]


ONE0 = lattice_family(TWO_PI, 0.0, "positive", 1)
ONEPI = lattice_family(TWO_PI, math.pi, "positive", 1)
ONEPI3 = lattice_family(TWO_PI, math.pi / 3.0, "positive", 1)
FULLPI = lattice_family(TWO_PI, math.pi, "full", 1)
FIN23 = finite_spectrum([(2.0, 1), (3.0, 1)])

# first power-series coefficient of the remainder for theta = pi/3, scale = 2 pi
A1_PI3 = 14.0 * math.pi ** 2 / 81.0


# ---------------------------------------------------------------------------
# coefficients


def test_analytic_coefficients_zero_shift():
    exp = analytic_expansion(ONE0)
    assert exp.m == 2 and exp.J == 2 and exp.source == "analytic"
    assert exp.coeffs[-2] == 0.0
    assert exp.coeffs[-1] == pytest.approx(1.0 / (4.0 * SQRT_PI), rel=1e-15)
    assert exp.coeffs[0] == -0.5
    assert exp.coeffs[1] == 0.0


def test_analytic_coefficients_shifted_and_full():
    # b_0 = -(1/2 + theta/scale) per one-sided family
    assert analytic_expansion(ONEPI).coeffs[0] == pytest.approx(-1.0, abs=1e-15)
    assert analytic_expansion(ONEPI3).coeffs[0] == pytest.approx(-2.0 / 3.0, rel=1e-15)
    exp = analytic_expansion(FULLPI)
    assert exp.coeffs[-1] == pytest.approx(1.0 / (2.0 * SQRT_PI), rel=1e-15)
    assert exp.coeffs[0] == 0.0


def test_analytic_primed_convention():
    # the zero mode of a shift-0 full lattice sits in kernel_dim, so the
    # kernel-free b_0 is -mult
    full0 = lattice_family(2.0, 0.0, "full", 1)
    assert analytic_expansion(full0).coeffs[0] == -1.0
    assert analytic_expansion(lattice_family(2.0, 0.0, "full", 3)).coeffs[0] == -3.0


def test_structural_kernel_remainder_identity():
    # with the zero mode excised the remainder is just the Poisson dual part
    full0 = lattice_family(2.0, 0.0, "full", 2)
    exp = analytic_expansion(full0)
    worst = verify_remainder_bound(full0, exp, logspace(-4, 0, 40))
    assert worst <= exp.remainder_bound
    assert abs(remainder(full0, exp, 1e-3)) <= 1e-250


def test_analytic_mixed_families():
    exp = analytic_expansion(compose(ONE0, FIN23))
    assert exp.coeffs[0] == pytest.approx(1.5, abs=1e-15)


def test_coefficient_derivative():
    spec = lattice_family(TWO_PI, math.pi, "positive", 1, 1.0)
    exp = analytic_expansion(spec)
    assert exp.coeff_derivatives[0] == pytest.approx(-1.0 / TWO_PI, rel=1e-15)
    assert exp.coeff_derivatives[-1] == 0.0


def test_expansion_value():
    exp = analytic_expansion(ONE0)
    assert expansion_value(exp, 0.25) == pytest.approx(
        2.0 * exp.coeffs[-1] - 0.5, rel=1e-14)
    with pytest.raises(DomainError):
        expansion_value(exp, 0.0)


def test_finite_expansion():
    exp = finite_expansion(FIN23)
    assert exp.m == 1 and exp.J == 1 and exp.source == "finite"
    assert exp.coeffs == {-1: 0.0, 0: 2.0}
    assert exp.remainder_bound == 5.0
    with pytest.raises(UnsupportedSpectrumError):
        finite_expansion(ONE0)


def test_expansion_shape_validation():
    with pytest.raises(DomainError):
        HeatExpansion(m=0, J=1, coeffs={0: 1.0}, source="analytic",
                      remainder_bound=0.0, coeff_derivatives={0: 0.0})
    with pytest.raises(DomainError):
        HeatExpansion(m=2, J=2, coeffs={0: 1.0}, source="analytic",
                      remainder_bound=0.0, coeff_derivatives={0: 0.0})


@pytest.mark.parametrize("bad, message", [
    ({"coeffs": {-1: 1.0}}, "coeffs must cover j = -1..0"),
    ({"m": 0}, "need m >= 1 and J >= 0"),
    ({"J": -1}, "need m >= 1 and J >= 0"),
], ids=["coeffs", "m", "J"])
def test_expansion_validates_on_replace(check_record, bad, message):
    check_record(finite_expansion(finite_spectrum([(2.0, 1), (3.0, 1)])), bad, message)


# ---------------------------------------------------------------------------
# power-series coefficients of a shifted one-sided lattice against mpmath


def _exact_power_coeffs(scale: float, shift: float) -> list[tuple]:
    """(a_k, sine part, power part) for k = 1..60 at 50 digits.

    q = 1 + shift/scale is formed exactly from the float inputs and split as
    q = 1 + M + x0; the power part of a_k carries n * sum_{i=0..M} (x0 + i)^(n-1)
    (for shift < 0, M = -1 and x0 = q) and the sine part the rest, B_n(x0).
    """
    with mp.workdps(50):
        q = 1 + mp.mpf(shift) / mp.mpf(scale)
        whole = int(mp.floor(q - 1)) if shift >= 0.0 else -1
        x0 = q - 1 - whole
        out = []
        for k in range(1, 61):
            n = 2 * k + 1
            unit = (-1) ** (k + 1) * mp.mpf(scale) ** (2 * k) / (mp.factorial(k) * n)
            power = n * mp.fsum((x0 + i) ** (n - 1) for i in range(whole + 1))
            exact = unit * mp.bernpoly(n, q)
            out.append((exact, exact - unit * power, unit * power))
        return out


# r = shift/scale -> the k at which the sine and power parts of B_{2k+1}(1 + r)
# cancel to less than half of the larger one (the same k for every scale)
CANCELLING_K = {0.25: {2}, 0.5 - 1e-9: {10}, 1.0 - 1e-6: {13}}


@pytest.mark.parametrize("r", [1e-9, -1e-9, 0.25, 0.5, 0.5 + 1e-9, 0.5 - 1e-9, -0.9,
                               1.0 - 1e-6, 1.0, 1.3, 2.7, 5.5])
@pytest.mark.parametrize("scale", [1.0, TWO_PI, 7.0])
def test_power_coeffs_against_bernpoly(scale, r):
    got = _one_sided_power_coeffs(scale, r * scale)
    exact = _exact_power_coeffs(scale, r * scale)
    assert len(got) == len(exact)
    cancelling = set()
    with mp.workdps(50):
        for k, (a, (ref, sine, power)) in enumerate(zip(got, exact), start=1):
            larger = max(abs(sine), abs(power))
            if abs(ref) < 0.5 * larger:
                cancelling.add(k)
                bound = 1e-13 * larger
            else:
                bound = 1e-13 * abs(ref)
            assert abs(mp.mpf(a) - ref) <= bound, (k, a, float(ref))
    assert cancelling == CANCELLING_K.get(r, set())


def test_power_coeffs_truncate_where_exact_table_overflows():
    scale, shift = 1e10, 0.25e10
    got = _one_sided_power_coeffs(scale, shift)
    exact = _exact_power_coeffs(scale, shift)
    in_range = next(k for k, (ref, _, _) in enumerate(exact) if abs(ref) > sys.float_info.max)
    assert 0 < len(got) == in_range < 60
    with mp.workdps(50):
        assert all(abs(mp.mpf(a) - ref) <= 1e-13 * abs(ref)
                   for a, (ref, _, _) in zip(got, exact))


# ---------------------------------------------------------------------------
# remainders


def test_finite_remainder_slope():
    # F(t) = e^(-2t) + e^(-3t) - 2, so F(t)/t -> -(2+3)
    exp = finite_expansion(FIN23)
    t = 1e-8
    assert remainder(FIN23, exp, t) / t == pytest.approx(-5.0, rel=1e-7)


def test_finite_expansion_rejects_lattice_remainder():
    exp = finite_expansion(FIN23)
    with pytest.raises(UnsupportedSpectrumError):
        remainder(ONE0, exp, 0.1)


def test_zero_shift_remainder_vanishes_at_small_t():
    # every power coefficient vanishes at theta = 0; only the dual terms remain,
    # and at t = 1e-6 those are below the double-precision floor
    assert remainder(ONE0, analytic_expansion(ONE0), 1e-6) == 0.0


def test_full_lattice_remainder_exponentially_small():
    assert abs(remainder(FULLPI, analytic_expansion(FULLPI), 1e-4)) <= 1e-250


def test_zero_shift_remainder_against_mpmath():
    exp = analytic_expansion(ONE0)
    t = mp.mpf(3) / 10
    tr = mp.nsum(lambda n: mp.e ** (-t * (2 * mp.pi * n) ** 2), [1, mp.inf])
    ref = tr - mp.sqrt(mp.pi) / (4 * mp.pi) / mp.sqrt(t) + mp.mpf(1) / 2
    assert remainder(ONE0, exp, 0.3) == pytest.approx(float(ref), abs=1e-15)


def test_shifted_remainder_collapses_at_theta_pi():
    # for theta = pi, scale = 2 pi the power series sums to -expm1(-pi^2 t)
    exp = analytic_expansion(ONEPI)
    for t in (1e-6, 1e-4, 1e-3, 4.9e-3):
        assert remainder(ONEPI, exp, t) == pytest.approx(
            -math.expm1(-math.pi ** 2 * t), rel=5e-16)


def test_shifted_remainder_continuous_across_series_switch():
    # the series path hands over to the direct difference near t = 5e-3
    exp = analytic_expansion(ONEPI)
    assert remainder(ONEPI, exp, 0.0049) == pytest.approx(0.04721029077925109,
                                                          rel=1e-13)
    assert remainder(ONEPI, exp, 0.0051) == pytest.approx(0.049089167293881575,
                                                          rel=1e-13)


def test_shifted_remainder_against_mpmath_both_paths():
    exp = analytic_expansion(ONEPI3)
    # series path (t = 1e-3) and direct path (t = 0.02), 30-digit references
    assert remainder(ONEPI3, exp, 1e-3) == pytest.approx(0.0017086976020657917,
                                                         abs=1e-15)
    assert remainder(ONEPI3, exp, 0.02) == pytest.approx(0.03564109879635728,
                                                         abs=1e-15)


def test_shifted_remainder_leading_coefficient():
    exp = analytic_expansion(ONEPI3)
    assert remainder(ONEPI3, exp, 1e-7) / 1e-7 == pytest.approx(A1_PI3, abs=1e-5)


def test_pair_identity_matches_solo_remainders():
    minus = lattice_family(TWO_PI, -math.pi / 3.0, "positive", 1)
    pair = compose(ONEPI3, minus)
    exp_pair = analytic_expansion(pair)
    for t in (1e-3, 0.01, 0.1):
        solo = remainder(ONEPI3, analytic_expansion(ONEPI3), t) + \
            remainder(minus, analytic_expansion(minus), t)
        assert remainder(pair, exp_pair, t) == pytest.approx(solo, abs=1e-13)


def test_remainder_fn_reuses_its_tables():
    # one F across t in any order, its cosine tables growing with t, gives
    # the values of a fresh evaluation at each t
    spec = compose(lattice_family(30.0, 7.0, "full", 2), ONEPI3,
                   lattice_family(TWO_PI, -math.pi / 3.0, "positive", 1),
                   lattice_family(9.0, 0.0, "positive", 1), lattice_family(1.3, 0.4), FIN23)
    exp = analytic_expansion(spec)
    f = remainder_fn(spec, exp)
    for t in (1e-4, 1.0, 1e-3, 0.3, 1e-4, 2.5):
        assert f(t) == remainder(spec, exp, t)
    with pytest.raises(DomainError):
        f(0.0)


def test_paired_orbit_builds_no_bernoulli_table():
    # both root pairs of the SU(2) orbit are full theta sums less their n = 0
    # term, and its Cartan family is half a theta sum: no solo needs a table
    spec = orbit_spectrum(LoopGroupOrbitSpec(1, ((1.0,),), (1.0,), 0.25))
    _one_sided_power_coeffs.cache_clear()
    zeta_value(spec, 0.75)
    zeta_prime0(spec)
    log_det_reg(spec)
    assert _one_sided_power_coeffs.cache_info().misses == 0


def test_remainder_bound_holds_on_grid():
    for spec in (ONE0, ONEPI, FULLPI):
        exp = analytic_expansion(spec)
        worst = verify_remainder_bound(spec, exp, logspace(-4, 0, 40))
        assert worst <= exp.remainder_bound


# ---------------------------------------------------------------------------
# fitted expansions


FIT_GRID = logspace(-4, -2, 25)


def test_fit_recovers_lattice_coefficients():
    fit = fit_expansion(ONE0, FIT_GRID)
    assert fit.source == "fitted"
    assert fit.coeffs[-1] == pytest.approx(1.0 / (4.0 * SQRT_PI), abs=1e-9)
    assert fit.coeffs[0] == pytest.approx(-0.5, abs=1e-9)
    # the refit bound holds on a denser grid over the same window
    worst = verify_remainder_bound(ONE0, fit, logspace(-4, -2, 40))
    assert worst <= fit.remainder_bound


def test_fitted_remainder_is_direct_difference():
    fit = fit_expansion(ONE0, FIT_GRID)
    t = 1e-3
    assert abs(remainder(ONE0, fit, t)) <= fit.remainder_bound * t


def test_fit_condition_guard():
    with pytest.raises(FitConditionError):
        fit_expansion(ONE0, FIT_GRID, max_condition=10.0)


def test_fit_matches_mpmath_svd():
    # the acceptance-06 design: condition number and least-squares solution
    # of the column-normalised basis against a 50-digit SVD of the same data
    y = [heat_trace(ONE0, t) for t in FIT_GRID]
    with mp.workdps(50):
        cols = [[mp.mpf(t) ** (mp.mpf(j) / 2) for t in FIT_GRID] for j in range(-2, 2)]
        norms = [mp.sqrt(mp.fsum(x * x for x in col)) for col in cols]
        scaled = mp.matrix([[col[i] / nrm for col, nrm in zip(cols, norms)]
                            for i in range(len(FIT_GRID))])
        u, sigma, vt = mp.svd_r(scaled)
        condition = max(sigma) / min(sigma)
        solution = vt.T * mp.diag([1 / sg for sg in sigma]) * (u.T * mp.matrix(y))
        want = [float(solution[i]) for i in range(4)]
        norms = [float(nrm) for nrm in norms]
    fit = fit_expansion(ONE0, FIT_GRID, max_condition=float(condition) * (1.0 + 1e-12))
    with pytest.raises(FitConditionError):
        fit_expansion(ONE0, FIT_GRID, max_condition=float(condition) * (1.0 - 1e-12))
    # backward-stable least squares: error below a few eps * condition * |x|
    got = [fit.coeffs[j] * nrm for j, nrm in zip(range(-2, 2), norms)]
    bound = 16.0 * sys.float_info.epsilon * float(condition) * max(map(abs, want))
    assert max(abs(g - w) for g, w in zip(got, want)) <= bound


def test_fit_grid_validation():
    with pytest.raises(DomainError):
        fit_expansion(ONE0, [0.1, 0.2, 0.3])
    with pytest.raises(DomainError):
        fit_expansion(ONE0, [0.1, 0.2, 0.3, 0.4, 0.5, 1.5])
    with pytest.raises(DomainError):
        fit_expansion(ONE0, [0.1, 0.1, 0.2, 0.3, 0.4, 0.5])


# ---------------------------------------------------------------------------
# exact cutoff integrals int_0^delta F(t) dt/t of one solo

SOLO_PI = ONEPI.lattices[0]


def test_cutoff_integral_shifted_leading_term():
    delta = 1e-10
    got = mellin_cutoff_integral(SOLO_PI, delta)
    assert got is not None
    value, err = got
    # F = pi^2 t - (pi^4/2) t^2 + ..., so the integral is pi^2 d - (pi^4/4) d^2 + ...
    assert abs(value - math.pi ** 2 * delta) <= 5e-19
    assert 0.0 <= err <= 1e-15


def test_cutoff_integral_out_of_reach():
    # at delta = 1e-1 the dual terms decay only like exp(-2.5 k^2)
    assert mellin_cutoff_integral(SOLO_PI, 1e-1) is None


# ---------------------------------------------------------------------------
# cutoff integrals against mpmath oracles that never go through the
# small-time series


def test_cutoff_integral_shifted_one_sided_against_quad():
    # for shift pi, scale 2 pi the eigenvalues are the odd multiples 3 pi, 5 pi, ..
    # of pi, so F = -expm1(-pi^2 t) + (dual terms of the full odd lattice)/2,
    # and those are below 1e-100 on (0, 1e-3]; 1e-3 is the largest decade
    # that certifies
    decades = [float(f"1e-{k}") for k in range(2, 31)]
    delta, value, err = next((d,) + got for d in decades
                             if (got := mellin_cutoff_integral(SOLO_PI, d)) is not None)
    assert delta == 1e-3
    ref = mp.quad(lambda t: -mp.expm1(-mp.pi ** 2 * t) / t, [0, delta])
    assert abs(value - float(ref)) <= err


def _identity_cutoff(scale: float, shift: float, delta: float):
    """int_0^delta F(t) dt/t of a one-sided family of mult 1 from its zeta
    function: the s -> 0 limit of Gamma(s) zeta_B(s) less the part above
    delta, sum lam^(-s) Gamma(s, lam*delta), and the two expansion terms
    b_j delta^(s+j/2)/(s+j/2).  The poles of Gamma(s) and of b_0/s cancel,
    since b_0 = zeta_B(0) = 1/2 - q, and what is left is

        zeta_B'(0) - gamma*b_0 - b_0*ln(delta) + 2*b_{-1}/sqrt(delta)
        - sum E1(lam*delta),

    b_{-1} = sqrt(pi)/(2c) and Lerch's zeta_B'(0) = (2q - 1)*ln(c) +
    2*loggamma(q) - ln(2 pi), with q = 1 + shift/scale.  The sum stops past
    lam*delta = 110, where E1 < 1e-49."""
    with mp.workdps(30):
        c, d = mp.mpf(scale), mp.mpf(delta)
        q = 1 + mp.mpf(shift) / c
        b0 = mp.mpf(0.5) - q
        total = (2 * q - 1) * mp.log(c) + 2 * mp.loggamma(q) - mp.log(2 * mp.pi)
        total += -mp.euler * b0 - b0 * mp.log(d) + mp.sqrt(mp.pi / d) / c
        n = 0
        while (lam := (c * (n + q)) ** 2) * d <= 110:
            total -= mp.e1(lam * d)
            n += 1
        return +total


# (scale, shift, mult): shifts near -scale, q = 1 + shift/scale up to 50,
# scales 0.05-20 (0.05 and 0.4 certify at delta = 1), mult 1-3
IDENTITY_SOLOS = [(TWO_PI, math.pi / 3.0, 1), (1.3, 0.4, 1), (2.2, -0.5, 1), (1.0, 2.7, 1),
                  (0.7, -0.69, 2), (3.0, -2.97, 1), (15.0, -14.85, 3), (0.4, -0.399, 1),
                  (0.05, 2.45, 2), (0.1, 4.9, 2), (0.3, 9.0, 1), (5.0, 100.0, 2),
                  (1.0, 47.5, 3), (20.0, 7.0, 2), (0.05, 0.01, 3), (12.0, -3.0, 1)]


@pytest.mark.parametrize("scale, shift, mult", IDENTITY_SOLOS)
def test_cutoff_integral_one_sided_against_zeta_identity(scale, shift, mult):
    # every decade that regdet's solo integral may try and that certifies,
    # down to scale^2*delta = 1e-4, where the oracle's E1 sum reaches about
    # 1000 terms
    fam = lattice_family(scale, shift, "positive", mult).lattices[0]
    first = regdet._first_delta(fam)
    deltas = [first * 10.0 ** -k for k in range(regdet._DELTA_TRIES)]
    checked = 0
    for delta in (d for d in deltas if scale * scale * d >= 1e-4):
        got = mellin_cutoff_integral(fam, delta)
        if got is None:
            continue
        value, err = got
        assert abs(value - mult * _identity_cutoff(scale, shift, delta)) <= err, delta
        checked += 1
    assert checked
