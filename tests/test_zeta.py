"""Spectral zeta continuation, zeta'(0), and the determinant bridge."""

from __future__ import annotations

import math
import random

import mpmath as mp
import pytest
import specreg.zeta
from hypothesis import given, settings
from hypothesis import strategies as st

from specreg import (
    EULER_GAMMA,
    DomainError,
    LatticeFamily,
    LoopGroupOrbitSpec,
    NumericError,
    PoleError,
    Spectrum,
    analytic_expansion,
    bridge_to_dict,
    build_report,
    compose,
    finite_spectrum,
    heat_trace,
    heat_trace_theta,
    lattice_family,
    log_det_eps,
    log_det_reg,
    orbit_spectrum,
    scale_spectrum,
    verify_bridge,
    zeta_closed_form,
    zeta_direct,
    zeta_prime0,
    zeta_value,
)

mp.mp.dps = 30

TWO_PI = 2.0 * math.pi

ONE0 = lattice_family(TWO_PI, 0.0, "positive", 1)
ONEPI = lattice_family(TWO_PI, math.pi, "positive", 1)
FULLPI3 = lattice_family(TWO_PI, math.pi / 3.0, "full", 1)
FULLPI = lattice_family(TWO_PI, math.pi, "full", 1)
FULL0M2 = lattice_family(2.0, 0.0, "full", 2)
FIN23 = finite_spectrum([(2.0, 1), (3.0, 1)])

BUILTINS = (FIN23, ONE0, ONEPI, FULLPI3, FULLPI, FULL0M2)


# ---------------------------------------------------------------------------
# values at rational points


def test_lattice_zeta_at_2():
    # sum (2 pi n)^-4 = zeta(4)/(2 pi)^4 = 1/1440
    assert zeta_value(ONE0, 2.0).value == pytest.approx(1.0 / 1440.0, abs=1e-10)
    assert zeta_direct(ONE0, 2.0).value == pytest.approx(1.0 / 1440.0, abs=1e-12)
    assert zeta_closed_form(ONE0, 2.0).value == pytest.approx(1.0 / 1440.0, abs=1e-14)


def test_lattice_zeta_at_3():
    assert zeta_value(ONE0, 3.0).value == pytest.approx(1.0 / 60480.0, abs=1e-12)
    assert zeta_closed_form(ONE0, 3.0).value == pytest.approx(1.0 / 60480.0, abs=1e-16)


def test_lattice_zeta_below_pole():
    # continuation through the pole at 1/2: zeta(-1/2) = 2 pi * zeta_R(-1) = -pi/6
    assert zeta_value(ONE0, -0.5).value == pytest.approx(-math.pi / 6.0, abs=1e-12)
    assert zeta_closed_form(ONE0, -0.5).value == pytest.approx(-math.pi / 6.0,
                                                              abs=1e-14)


def test_explicit_zeta_at_1():
    # s = 1 sits on a removable candidate pole (b_{-1} = 0 for explicit spectra)
    assert zeta_value(FIN23, 1.0).value == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert zeta_direct(FIN23, 1.0).value == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_full_lattice_fractional_s():
    ref = float(2 * (2 * mp.pi) ** mp.mpf("-0.6") * mp.zeta(mp.mpf("0.6"), mp.mpf("0.5")))
    got = zeta_value(FULLPI, 0.3)
    assert got.value == pytest.approx(-0.6685903580890281, rel=1e-13)
    assert got.value == pytest.approx(ref, abs=1e-9)
    assert zeta_closed_form(FULLPI, 0.3).value == pytest.approx(ref, abs=1e-12)


def test_closed_form_trivial_zero():
    # B_3(1/2) = 0 makes zeta(-1) vanish for the half-shifted full lattice
    assert zeta_closed_form(FULLPI, -1.0).value == 0.0


@pytest.mark.parametrize("spec", [ONEPI, FULLPI3])
@pytest.mark.parametrize("s", [0.75, 1.5, 2.0, 3.0])
def test_routes_agree(spec, s):
    v = zeta_value(spec, s)
    cf = zeta_closed_form(spec, s)
    assert abs(v.value - cf.value) <= v.error + cf.error + 1e-13
    if s > 0.55:
        d = zeta_direct(spec, s)
        assert abs(d.value - cf.value) <= d.error + cf.error + 1e-13


def _full_oracle(scale: float, shift: float, s: float) -> float:
    """Hurwitz closed form of a full lattice with q = |shift|/scale formed exactly."""
    q = abs(mp.mpf(shift)) / mp.mpf(scale)
    s2 = 2 * mp.mpf(s)
    return float(mp.mpf(scale) ** -s2 * (mp.zeta(s2, q) + mp.zeta(s2, 1 - q)))


def test_full_lattice_zeta_sweep_within_error():
    # the upper Mellin integral of lattices like the first one used to state
    # an error of 2e-12 while being 1.3e-9 off
    rng = random.Random(20261018)
    cases = [(4.4484676023112915, 0.2750486877340886)] + [
        (scale, rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.45) * scale)
        for scale in (rng.uniform(2.0, 7.0) for _ in range(24))]
    misses = []
    for scale, shift in cases:
        spec = lattice_family(scale, shift, "full", 1)
        for s in (-0.9, 0.003, 1.0, 2.0, 3.0):
            got = zeta_value(spec, s)
            if not abs(got.value - _full_oracle(scale, shift, s)) <= got.error:
                misses.append((scale, shift, s))
    assert misses == []


def test_route_tags():
    assert zeta_value(FIN23, 2.0).route == "mellin-split"
    assert zeta_direct(FIN23, 2.0).route == "direct-sum"
    assert zeta_closed_form(FIN23, 2.0).route == "closed-form-oracle"


# ---------------------------------------------------------------------------
# the lower Mellin integral near s = -1, where F(t) t^(s-1) ~ t^s at t = 0


def _one_sided_oracle(scale: float, shift: float, s: float) -> float:
    s2 = 2 * mp.mpf(s)
    return float(mp.mpf(scale) ** -s2 * mp.zeta(s2, 1 + mp.mpf(shift) / scale))


@pytest.mark.parametrize("s", [-0.95, -0.99])
@pytest.mark.parametrize("scale, shift", [(TWO_PI, math.pi), (1.3, 0.4), (2.2, -0.5)])
def test_zeta_value_near_minus_one_shifted_one_sided(scale, shift, s):
    got = zeta_value(lattice_family(scale, shift, "positive", 1), s)
    assert abs(got.value - _one_sided_oracle(scale, shift, s)) <= got.error


@pytest.mark.parametrize("s", [-0.95, -0.99])
def test_zeta_value_near_minus_one_explicit(s):
    got = zeta_value(FIN23, s)
    assert abs(got.value - float(mp.mpf(2) ** -s + mp.mpf(3) ** -s)) <= got.error


@pytest.mark.parametrize("s", [-0.9, 0.75])
@pytest.mark.parametrize("lam", [3e11, 1e12])
def test_zeta_value_large_explicit_eigenvalue(lam, s):
    # the series gap [0, delta] of the lower integral shrinks below 1/lambda
    got = zeta_value(finite_spectrum([(lam, 1), (2.0, 1)]), s)
    exact = float(mp.mpf(lam) ** -s + mp.mpf(2) ** -s)
    assert abs(got.value - exact) <= got.error <= 1e-13 * max(1.0, abs(exact))


def test_zeta_value_where_a_continued_fraction_starts_at_zero():
    # x = pi*q^2 rounds to 1 - 2^-53, so the direct term g(2, x) at s = 2
    # gives the continued fraction the first denominator x + 1 - 2 == 0.0
    q = 0.5641895835477563
    assert math.pi * q * q + 1.0 - 2.0 == 0.0
    got = zeta_value(lattice_family(1.0, q, "full"), 2.0)
    want = mp.zeta(4, q) + mp.zeta(4, 1 - mp.mpf(q))
    assert abs(got.value - want) <= got.error


def test_zeta_below_minus_one_without_solos():
    # every row and theta is a closed form, so s <= -1 is reached exactly;
    # a spectrum with a solo keeps the domain s > -1
    got = zeta_value(FIN23, -1.5)
    assert abs(mp.mpf(got.value) - (mp.mpf(2) ** 1.5 + mp.mpf(3) ** 1.5)) <= got.error
    with pytest.raises(DomainError):
        zeta_value(ONEPI, -1.5)


# a full lattice whose smallest eigenvalue (7.2e-226) is tiny but nonzero
TINY = lattice_family(4.585, 2.68e-113, "full", 1)


@pytest.mark.parametrize("s", [1.49, 3.0])
def test_tiny_eigenvalue_overflowing_zeta_raises(s):
    # lam0^(-s) alone exceeds the largest double
    with pytest.raises(NumericError):
        zeta_value(TINY, s)


def test_tiny_eigenvalue_zeta_within_error(monkeypatch):
    # the closed form takes a handful of incomplete gammas, where the upper
    # Mellin integral took hundreds of panels out to t ~ 45/lam0
    calls = []
    upper = specreg.zeta.upper_gamma_scaled
    monkeypatch.setattr(specreg.zeta, "upper_gamma_scaled",
                        lambda a, x: calls.append(a) or upper(a, x))
    q = mp.mpf(2.68e-113) / mp.mpf(4.585)
    s2 = 2 * mp.mpf(0.27)
    oracle = float(mp.mpf(4.585) ** -s2 * (mp.zeta(s2, q) + mp.zeta(s2, 1 - q)))
    got = zeta_value(TINY, 0.27)
    assert math.isfinite(got.error)
    assert abs(got.value - oracle) <= got.error
    assert len(calls) <= 16


def test_tiny_eigenvalue_log_det_reg_sine_formula():
    # a shifted full lattice has b0' = 0 and log det_reg = log(4 sin^2(pi q));
    # here that is -517.78, nearly all of it from the upper Mellin integral
    # over t up to 45/lam0 ~ 6e226
    q = mp.mpf(2.68e-113) / mp.mpf(4.585)
    value, err = log_det_reg(TINY)
    assert abs(value - float(mp.log(4 * mp.sin(mp.pi * q) ** 2))) <= err <= 1e-11


# ---------------------------------------------------------------------------
# poles and domain guards


def test_lattice_pole_at_half():
    with pytest.raises(PoleError):
        zeta_value(ONE0, 0.5)
    with pytest.raises(PoleError):
        zeta_closed_form(ONE0, 0.5)


def test_gamma_pole_guard():
    # the Mellin route divides by Gamma(s); s = 0 and s = -1 are rejected even
    # though the continuation itself is finite there
    with pytest.raises(PoleError):
        zeta_value(ONE0, 0.0)
    with pytest.raises(PoleError):
        zeta_value(ONE0, -1.0)
    with pytest.raises(PoleError):
        zeta_value(FIN23, 0.0)


def test_s_range_guard():
    with pytest.raises(DomainError):
        zeta_value(ONE0, 31.0)
    with pytest.raises(DomainError):
        zeta_direct(ONE0, 0.5)


# ---------------------------------------------------------------------------
# zeta(0) and zeta'(0)


def _zeta0_richardson(spec) -> float:
    def sym(h: float) -> float:
        return 0.5 * (zeta_value(spec, h).value + zeta_value(spec, -h).value)

    a1, a2 = sym(1e-3), sym(2e-3)
    return (4.0 * a1 - a2) / 3.0


@pytest.mark.parametrize("spec,b0p", [(ONE0, -0.5), (ONEPI, -1.0), (FIN23, 2.0)])
def test_zeta0_recovers_b0(spec, b0p):
    assert _zeta0_richardson(spec) == pytest.approx(b0p, abs=1e-8)


@pytest.mark.parametrize("spec,oracle", [
    (ONE0, 0.0),
    (ONEPI, math.log(math.pi ** 2 / 2.0)),
    (FULLPI, -math.log(4.0)),
    (FIN23, -math.log(6.0)),
])
def test_zeta_prime0_closed_forms(spec, oracle):
    value, err = zeta_prime0(spec)
    assert value == pytest.approx(oracle, abs=1e-10)
    assert 0.0 <= err <= 1e-10


@pytest.mark.parametrize("r", [1.0 - 1e-6, 1.3, 2.7])
def test_zeta_prime0_lerch_for_shift_beyond_scale(r):
    # shift >= scale: the series coefficients come through
    # B_n(x + 1) = B_n(x) + n x^(n-1), once or twice
    spec = lattice_family(TWO_PI, r * TWO_PI, "positive", 1)
    q = 1.0 + r
    lerch = (2.0 * math.log(TWO_PI) * (q - 0.5)
             + 2.0 * (math.lgamma(q) - 0.5 * math.log(TWO_PI)))
    value, err = zeta_prime0(spec)
    assert abs(value - lerch) <= err + 1e-13
    heat, heat_err = log_det_reg(spec)
    b0_primed = analytic_expansion(spec).b0
    assert b0_primed == pytest.approx(-(0.5 + r), abs=1e-15)
    assert abs(-value - (-EULER_GAMMA * b0_primed + heat)) <= err + heat_err + 1e-13


@pytest.mark.parametrize("scale,shift", [(1e5, 3e4), (5e4, 1e4), (1e5, 4.5e4)])
def test_wide_lattice_against_closed_forms(scale, shift):
    # the dual terms of so wide a lattice are not negligible on [0, 1e-10], so
    # the exact series closes [0, delta] only once delta has shrunk
    spec = lattice_family(scale, shift, "positive", 1)
    q = 1.0 + shift / scale
    lerch = (2.0 * math.log(scale) * (q - 0.5)
             + 2.0 * (math.lgamma(q) - 0.5 * math.log(TWO_PI)))
    value, err = log_det_reg(spec)
    assert abs(value - (-lerch + EULER_GAMMA * (0.5 - q))) <= err + 1e-13
    got = zeta_value(spec, 0.75)
    want = zeta_closed_form(spec, 0.75).value
    assert abs(got.value - want) <= got.error + 1e-15 * abs(want)


def test_uncertified_small_time_series_raises():
    # the shift spans more whole scales than the coefficient table covers,
    # so nothing certifies [0, delta] of the heat route's lower integral;
    # zeta_value sums the solo's Dirichlet series, which needs no table
    spec = lattice_family(1.0, 300000.3, "positive", 1)
    with pytest.raises(NumericError):
        log_det_reg(spec)
    got = zeta_value(spec, 0.75)
    assert abs(mp.mpf(got.value) - _mp_zeta_lattice(spec, 0.75)) <= got.error


# u = 1e-170 squares to 0.0 in double precision
UNDERFLOW = lattice_family(1.0, 1e-170, "full", 1)


# the public calls, each of which reads the smallest eigenvalue first
LAM0_CALLS = pytest.mark.parametrize("call", [
    lambda spec: spec.lam0,
    log_det_reg,
    lambda spec: log_det_eps(spec, 1e-2),
    build_report,
    lambda spec: zeta_value(spec, 0.75),
    zeta_prime0,
    verify_bridge,
], ids=["lam0", "log_det_reg", "log_det_eps", "build_report", "zeta_value",
        "zeta_prime0", "verify_bridge"])


@LAM0_CALLS
def test_underflowing_smallest_eigenvalue_is_numeric_error(call):
    with pytest.raises(NumericError, match="underflows"):
        call(UNDERFLOW)


@LAM0_CALLS
def test_overflowing_smallest_eigenvalue_is_numeric_error(call):
    # (1e300)^2 overflows to inf: a numeric failure, not a spectrum without
    # positive eigenvalues
    with pytest.raises(NumericError, match="overflows"):
        call(lattice_family(1e300))


@pytest.mark.parametrize("spec, s", [
    (lattice_family(1e-11, -5e-12, "positive"), 10.0),
    (lattice_family(1e-5, 3e-6, "positive"), 29.0),
])
def test_non_finite_closure_is_numeric_error(spec, s):
    # the Euler-Maclaurin corrections of these solos' power sums overflow to
    # -inf and inf, which fsum refused with a bare ValueError
    scale = spec.lattices[0].scale
    with pytest.raises(NumericError, match=f"Euler-Maclaurin .* scale {scale!r}"):
        zeta_value(spec, s)


@pytest.mark.parametrize("kernel_dim", [0, 2])
@pytest.mark.parametrize("call", [
    log_det_reg,
    lambda spec: zeta_value(spec, 0.75),
    zeta_prime0,
    verify_bridge,
    build_report,
], ids=["log_det_reg", "zeta_value", "zeta_prime0", "verify_bridge", "build_report"])
def test_empty_spectrum_is_domain_error(call, kernel_dim):
    with pytest.raises(DomainError, match="no positive eigenvalues"):
        call(Spectrum((), kernel_dim))


def test_scaling_laws():
    scaled = scale_spectrum(ONE0, 4.0)
    assert zeta_value(scaled, 2.0).value == pytest.approx(1.0 / 23040.0, abs=1e-12)
    # zeta'_{cB}(0) = -ln(c) * zeta_B(0) + zeta'_B(0) = ln(2)
    assert zeta_prime0(scaled)[0] == pytest.approx(math.log(2.0), abs=1e-10)


# ---------------------------------------------------------------------------
# the determinant bridge


@pytest.mark.parametrize("spec", BUILTINS, ids=lambda s: f"k{s.kernel_dim}n{len(s.families)}")
def test_bridge_passes(spec):
    report = verify_bridge(spec)
    assert report.passed
    assert abs(report.discrepancy) <= 1e-10
    assert report.budget <= 1e-6


def test_bridge_routes_are_independent():
    report = verify_bridge(ONEPI)
    assert report.zeta_route == pytest.approx(
        math.log(math.pi ** 2 / 2.0) * -1.0, abs=1e-10)
    assert report.heat_route == pytest.approx(report.zeta_route, abs=1e-12)
    # heat route decomposes exactly as -gamma*b0' + log det_reg
    value, _ = log_det_reg(ONEPI)
    assert report.heat_route == -EULER_GAMMA * report.b0_primed + value


def test_bridge_tight_tolerance_fails():
    # a threshold below a nonzero discrepancy fails: the rank-2 orbit's two
    # routes differ (1.8e-15), where one-sided-pi's and full-pi/3's agree to
    # the last bit
    spec = orbit_spectrum(LoopGroupOrbitSpec(2, ((1.0, 0.0), (0.5, 0.8)), (1.0, 0.4), 0.2))
    report = verify_bridge(spec, abs_tol=1e-18)
    assert report.discrepancy > 1e-18
    assert not report.passed
    assert report.threshold == 1e-18


@pytest.mark.parametrize("turns", [1.0, -1.0, 3.0])
def test_full_family_with_structural_zero_off_n0(turns):
    # lattice_family(2 pi, 0.0, "full"), built directly with shift = turns*scale:
    # the same operator, with its structural zero at n = -turns instead of 0
    spec = Spectrum((LatticeFamily(TWO_PI, turns * TWO_PI, "full"),), 1)
    canonical = lattice_family(TWO_PI, 0.0, "full")
    assert analytic_expansion(spec).b0 == analytic_expansion(canonical).b0 == -1.0
    for t in (1e-3, 0.1, 2.0):
        direct = heat_trace(spec, t)
        assert abs(heat_trace_theta(spec, t) - direct) <= 1e-12 * (1.0 + abs(direct))
    got, ref = zeta_value(spec, 0.75), zeta_value(canonical, 0.75)
    assert abs(got.value - ref.value) <= got.error + ref.error
    (value, err), (ref_value, ref_err) = log_det_reg(spec), log_det_reg(canonical)
    assert abs(value - ref_value) <= err + ref_err
    assert verify_bridge(spec).passed


def test_bridge_to_dict_keys():
    d = bridge_to_dict(verify_bridge(FIN23))
    assert set(d) == {"zeta_route", "heat_route", "discrepancy", "zeta_error",
                      "heat_error", "budget", "threshold", "passed",
                      "b0_primed", "kernel_dim"}
    assert d["passed"] is True
    assert d["kernel_dim"] == 0


@st.composite
def _family_mix(draw):
    """(spectrum, terms of -zeta'(0) by the Lerch formula): up to two
    explicit rows and at most one full, pair, half and solo family each."""
    parts, terms = [], []
    for _ in range(draw(st.integers(0, 2))):
        lam, mult = draw(st.floats(0.1, 50.0)), draw(st.integers(1, 3))
        parts.append(finite_spectrum([(lam, mult)]))
        terms.append(mult * math.log(lam))

    def add(side, frac, scale, mult):
        # a one-sided family is mult * scale^(-2s) * zeta_H(2s, 1 + shift/scale),
        # a shifted full one that at q = |shift|/scale plus that at 1 - q;
        # zeta_H(0, q) = 1/2 - q and zeta_H'(0, q) = lgamma(q) - log(2 pi)/2
        spec = lattice_family(scale, frac * scale, side, mult)
        parts.append(spec)
        shift = spec.families[0].shift
        qs = [1.0 + shift / scale] if side == "positive" else [
            abs(shift) / scale, 1.0 - abs(shift) / scale]
        terms.extend(2.0 * mult * (math.log(scale) * (0.5 - q)
                                   - math.lgamma(q) + 0.5 * math.log(TWO_PI)) for q in qs)

    def scale_mult():
        return draw(st.floats(1.0, 8.0)), draw(st.integers(1, 2))

    if draw(st.booleans()):
        add("full", draw(st.floats(0.05, 0.5)), *scale_mult())
    if draw(st.booleans()):
        frac, (scale, mult) = draw(st.floats(0.05, 0.9)), scale_mult()
        add("positive", frac, scale, mult)
        add("positive", -frac, scale, mult)
    if draw(st.booleans()):
        add("positive", 0.0, *scale_mult())
    if draw(st.booleans()) or not parts:
        add("positive", draw(st.floats(-0.9, 0.9).filter(bool)), *scale_mult())
    return compose(*parts), terms


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(case=_family_mix())
def test_bridge_on_random_mixes(case):
    # the heat route's E1 sums, dual series and Ein terms against the
    # zeta route's closed forms, and the heat route against the Lerch
    # formula with a rounding floor of 1e-13 per unit of term magnitude
    spec, terms = case
    report = verify_bridge(spec)
    assert report.passed
    assert report.budget < 1e-6
    floor = 1e-13 * (1.0 + sum(abs(t) for t in terms))
    assert abs(report.heat_route - math.fsum(terms)) <= report.heat_error + floor


def _mp_hurwitz(s2: float, q: mp.mpf) -> mp.mpf:
    """zeta_H(s2, q) by mpmath at 30 digits plus s2*log10(q): at large q and
    s2 mpmath's value holds fewer digits than it works with (1e-9 relative
    at q = 220, s2 = 20 with 40 digits; exact to double with 77)."""
    with mp.workdps(30 + max(0, math.ceil(s2 * math.log10(max(float(q), 1.0))))):
        return +mp.zeta(s2, q)


def _mp_zeta_lattice(spec, s: float) -> mp.mpf:
    """zeta_B(s) of lattice families by Hurwitz zeta, q formed exactly (a
    full family's shift first reduced by the exact math.remainder)."""
    total = mp.mpf(0)
    for fam in spec.lattices:
        c, sigma = mp.mpf(fam.scale), mp.mpf(fam.shift)
        if fam.side == "positive":
            parts = [1 + sigma / c]
        else:
            q = abs(mp.mpf(math.remainder(fam.shift, fam.scale))) / c
            parts = [1 - q] + ([q] if q else [1])
        total += fam.mult * sum(c ** (-2 * s) * _mp_hurwitz(2 * s, q) for q in parts)
    return total


def test_bracket_charges_a_subnormal_argument():
    # the n = 0 term's x = pi*(u/c)^2 = 3.1e-320 rounds by up to 8e-5 of
    # itself, which moved zeta(0.25) = 1e80 by 1.4e75 where 8.7e65 was stated
    spec = lattice_family(1.0, 1e-160, "full")
    got = zeta_value(spec, 0.25)
    with mp.workdps(40):
        q = mp.mpf(1e-160)
        assert abs(got.value - (mp.zeta(0.5, q) + mp.zeta(0.5, 1 - q))) <= got.error


def test_bracket_refuses_an_underflowing_argument():
    # at scale 1e3 the n = 0 term's x = pi*(1e-160/1e3)^2 underflows to 0.0
    # for the positive eigenvalue 1e-320, where x^(-s)*Gamma(s, x) has no
    # value: a numeric failure naming the underflow, not bad input
    spec = lattice_family(1e3, 1e-160, "full")
    assert spec.lam0 > 0.0
    with pytest.raises(NumericError, match=r"pi\*\(u/scale\)\^2 .* underflows to 0\.0"):
        zeta_value(spec, 0.75)


@pytest.mark.parametrize("spec", [ONE0, ONEPI, FULLPI3, FULL0M2,
                                  lattice_family(1e-3, 0.4e-3, "positive", 2),
                                  lattice_family(0.05, -0.02, "full", 1)])
@pytest.mark.parametrize("s", [0.6, 1.5, 3.0, 30.0])
def test_zeta_direct_error_covers_hurwitz(spec, s):
    # the Euler-Maclaurin remainder and rounding bounds, with no fixed floor
    got = zeta_direct(spec, s)
    assert abs(mp.mpf(got.value) - _mp_zeta_lattice(spec, s)) <= got.error
    assert got.error <= 1e-13 * got.value


@pytest.mark.parametrize("spec", [ONE0, ONEPI, FULLPI3, FULL0M2, FIN23,
                                  lattice_family(1e-3, 0.4e-3, "positive", 2),
                                  lattice_family(0.05, -0.02, "full", 1),
                                  Spectrum((LatticeFamily(TWO_PI, 1.7 * TWO_PI, "full"),))])
@pytest.mark.parametrize("s", [-0.95, -0.45, 0.0, 0.25, 0.5 - 1e-5, 0.5 + 1e-5])
def test_zeta_direct_continued_below_the_pole(spec, s):
    # below s = 1/2 each run's series diverges and its Euler-Maclaurin
    # closure is the continuation; at s = 0 every summand is 1
    got = zeta_direct(spec, s)
    assert abs(mp.mpf(got.value) - _mp_zeta(spec, s)) <= got.error


def _mp_zeta(spec, s: float) -> mp.mpf:
    """zeta_B(s) of explicit rows and lattice families, exactly up to mpmath's
    30 digits."""
    rows = mp.fsum(mult * mp.mpf(lam) ** -mp.mpf(s) for lam, mult, _ in spec.rows)
    return rows + _mp_zeta_lattice(spec, s)


@pytest.mark.parametrize("turns", [1.7, 1.0])
def test_closed_form_reduces_full_shift(turns):
    # a full family built directly with its shift outside the principal cell;
    # at one whole scale its structural zero sits at n = -1
    spec = Spectrum((LatticeFamily(TWO_PI, turns * TWO_PI, "full"),), int(turns == 1.0))
    for s in (-0.7, 0.75, 1.5, 3.0):
        got, closed = zeta_value(spec, s), zeta_closed_form(spec, s)
        assert abs(mp.mpf(got.value) - _mp_zeta_lattice(spec, s)) <= got.error
        assert abs(mp.mpf(closed.value) - _mp_zeta_lattice(spec, s)) <= closed.error
        assert abs(got.value - closed.value) <= got.error + closed.error


@pytest.mark.parametrize("spec", [ONE0, ONEPI, FULLPI3, FULL0M2, lattice_family(TWO_PI, 0.0, "full"),
                                  lattice_family(0.05, -0.0499, "positive", 3),
                                  lattice_family(0.3, 2e3, "positive", 2),
                                  lattice_family(7.0, 1e-8 * 7.0, "full")],
                         ids=lambda spec: repr(spec.families[0])[14:60])
@pytest.mark.parametrize("s", [-0.95, -0.7, -0.25, 0.1, 0.75, 1.5, 3.0, 10.0])
def test_closed_form_error_covers_hurwitz(spec, s):
    # hurwitz_zeta's head and Euler-Maclaurin tail cancel at s < 0 (the
    # zero-shift full lattice of scale 2 pi lost 8.5e-13 at s = -0.7), and
    # the derived bound covers that and the rounding of each q
    got = zeta_closed_form(spec, s)
    assert abs(mp.mpf(got.value) - _mp_zeta_lattice(spec, s)) <= got.error


def _random_mix(rng: random.Random) -> Spectrum:
    """Up to two explicit rows and one to three of a full lattice, a +-
    pair of one-sided lattices and a zero-shift one-sided lattice, each at its
    own scale in [0.05, 50]: no solos, so every part is a closed form."""
    parts = [finite_spectrum([(rng.uniform(0.1, 50.0), rng.randint(1, 3))])
             for _ in range(rng.randint(0, 2))]
    for kind in rng.sample(("full", "pair", "half"), rng.randint(1, 3)):
        scale, mult = math.exp(rng.uniform(math.log(0.05), math.log(50.0))), rng.randint(1, 2)
        if kind == "full":
            parts.append(lattice_family(scale, rng.uniform(-0.5, 0.5) * scale, "full", mult))
        elif kind == "pair":
            frac = rng.uniform(0.05, 0.9)
            parts += [lattice_family(scale, frac * scale, "positive", mult),
                      lattice_family(scale, -frac * scale, "positive", mult)]
        else:
            parts.append(lattice_family(scale, 0.0, "positive", mult))
    return compose(*parts)


def test_closed_form_overflowing_term_is_numeric_error():
    # a solo with q = 1e-8: q^(-60) leaves the double range in zeta_H(60, q)
    spec = lattice_family(1.0, 1e-8 - 1.0, "positive", 1)
    with pytest.raises(NumericError, match="overflows"):
        zeta_closed_form(spec, 30.0)
    with pytest.raises(NumericError, match="overflows"):
        zeta_value(spec, 30.0)


def test_zeta_value_sweep_against_hurwitz():
    # each value within its stated error of the exact-q Hurwitz sum, and the
    # Dirichlet series, continued below s = 1/2, within the two errors
    rng = random.Random(20261019)
    misses, disagreements = [], []
    for case in range(10):
        spec = _random_mix(rng)
        for s in (-1.9, -0.7, -0.003, 0.003, 0.25, 1.5, 7.5, 29.0):
            got = zeta_value(spec, s)
            if not abs(mp.mpf(got.value) - _mp_zeta(spec, s)) <= got.error:
                misses.append((case, s))
            if s > -1.0:
                direct = zeta_direct(spec, s)
                if not abs(direct.value - got.value) <= direct.error + got.error:
                    disagreements.append((case, s))
    assert misses == []
    assert disagreements == []


def test_orbit_pair_at_s_three():
    # the rank-2 orbit's +- pairs remove their n = 0 terms: formed as
    # Gamma(3) - Gamma(3, x), that difference lost 2.7e-12 here, 27 times the
    # old stated error; the series of gamma(3, x) keeps it to rounding
    spec = orbit_spectrum(LoopGroupOrbitSpec(2, ((1.0, 0.0), (0.5, 0.8)), (1.0, 0.4), 0.2))
    got = zeta_value(spec, 3.0)
    assert abs(mp.mpf(got.value) - _mp_zeta_lattice(spec, 3.0)) <= got.error
    assert got.error <= 2e-14 * got.value


@pytest.mark.parametrize("spec", [FULLPI3, FULL0M2, FIN23, lattice_family(50.0, 10.0, "full"),
                                  lattice_family(0.05, 0.02, "full", 2), ONEPI])
def test_closed_form_takes_no_quadrature(spec, monkeypatch, refuse):
    # nothing on the zeta side integrates numerically, a solo included, and
    # each theta takes a bounded number of incomplete gammas whatever its scale
    calls = []
    upper = specreg.zeta.upper_gamma_scaled
    monkeypatch.setattr(specreg.zeta, "upper_gamma_scaled",
                        lambda a, x: calls.append(a) or upper(a, x))
    refuse("heat_trace", "gauss_kronrod", "tanh_sinh")
    for s in (-0.7, 0.25, 1.5, 7.5):
        zeta_value(spec, s)
    zeta_prime0(spec)
    assert len(calls) <= 4 * 16 * len(spec.poisson.thetas)


# ---------------------------------------------------------------------------
# the solos' Dirichlet series and zeta'(0) per family, against mpmath


def _random_solos() -> list[LatticeFamily]:
    """120 seeded solos: q = 1 + shift/scale from 1e-8 (a fifth of them, next
    to the lower edge) through the bulk to 1e6 (a fifth), scales in [0.01,
    100], multiplicities 1-3; first two where a bound that ignores the
    sign of the tail integral falls short, (3.0, 1.1) at s = -0.25 and
    (3.0, 0.3, mult 3) at s = 0.1."""
    rng = random.Random(20261018)
    solos = [LatticeFamily(3.0, 1.1, "positive", 1),
             LatticeFamily(3.0, 0.30000000000000004, "positive", 3)]
    while len(solos) < 120:
        scale = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
        pick = rng.random()
        q = (10.0 ** rng.uniform(-8.0, -1.0) if pick < 0.2
             else 10.0 ** rng.uniform(0.0, 6.0) if pick > 0.8 else rng.uniform(0.05, 4.0))
        solos.append(LatticeFamily(scale, (q - 1.0) * scale, "positive", rng.randint(1, 3)))
    return solos


SOLOS = _random_solos()


@pytest.mark.parametrize("s", [-0.95, -0.7, -0.45, -0.25, 0.1, 0.25, 0.45, 0.5 - 1e-5,
                               0.5 + 1e-5, 0.75, 1.5, 3.0, 10.0])
def test_solo_zeta_value_against_hurwitz(s, refuse):
    # each solo is its Dirichlet series continued below s = 1/2 by the
    # Euler-Maclaurin closure; no quadrature, and the stated error covers
    # the exact-q Hurwitz value with no floor
    refuse("heat_trace", "gauss_kronrod", "tanh_sinh")
    misses = []
    for fam in SOLOS:
        spec = Spectrum((fam,))
        got = zeta_value(spec, s)
        if not abs(mp.mpf(got.value) - _mp_zeta_lattice(spec, s)) <= got.error:
            misses.append((fam, got))
    assert misses == []


def _mp_zeta_prime0(spec) -> mp.mpf:
    """zeta_B'(0) at 40 digits: -mult*log(lam) per row, and per Hurwitz series
    mult*scale^(-2s)*zeta_H(2s, q) of a lattice family (q formed exactly)
    -2*mult*log(scale)*zeta_H(0, q) + 2*mult*zeta_H'(0, q), with
    zeta_H(0, q) = 1/2 - q and zeta_H'(0, q) = loggamma(q) - log(2 pi)/2."""
    with mp.workdps(40):
        total = -mp.fsum(mult * mp.log(lam) for lam, mult, _ in spec.rows)
        for fam in spec.lattices:
            c = mp.mpf(fam.scale)
            if fam.side == "positive":
                qs = [1 + mp.mpf(fam.shift) / c]
            else:
                q = abs(mp.mpf(math.remainder(fam.shift, fam.scale))) / c
                qs = [1 - q] + ([q] if q else [1])
            for q in qs:
                total += fam.mult * (-2 * mp.log(c) * (mp.mpf(0.5) - q)
                                     + 2 * mp.loggamma(q) - mp.log(2 * mp.pi))
        return total


@pytest.mark.parametrize("scale, shift", [(0.1, 100000.03), (0.3, 12345.678),
                                          (TWO_PI, 1e7 + 1.0)])
def test_full_shift_is_reduced_exactly(scale, shift):
    # the stored lattice is the input lattice: its shift is the exact
    # remainder, and zeta_prime0 is within its stated error of the input's
    # Kronecker value with no slack (the inexact reduction was 2.5e-10,
    # 1.6e-11 and 2.1e-10 off, with about 1e-15 stated)
    spec = lattice_family(scale, shift, "full")
    assert spec.lattices[0].shift == math.remainder(shift, scale)
    value, err = zeta_prime0(spec)
    exact = Spectrum((LatticeFamily(scale, shift, "full"),))
    assert abs(mp.mpf(value) - _mp_zeta_prime0(exact)) <= err


def _prime0_cases() -> list[Spectrum]:
    rng = random.Random(1995)
    rows = [finite_spectrum([(lam, mult)]) for lam, mult in
            [(1e-12, 1), (0.5, 3), (1.0, 1), (2.0, 2), (1e8, 1), (1e300, 2)]]
    fulls = [lattice_family(c, f * c, "full", m) for c in (0.01, 1.0, TWO_PI, 300.0)
             for f, m in ((0.0, 1), (1e-8, 2), (-1e-8, 1), (0.5, 3), (-0.5, 1), (0.3, 2))]
    one_sided = [lattice_family(c, (q - 1.0) * c, "positive", m)
                 for c in (0.01, 1.0, TWO_PI, 300.0)
                 for q, m in ((1e-8, 1), (1e-3, 2), (0.5, 3), (1.0, 1), (1.5, 2),
                              (7.0, 3), (1e3, 1), (1e6, 2))]
    mixes = [compose(*rng.sample(rows + fulls + one_sided, 5)) for _ in range(20)]
    return rows + fulls + one_sided + mixes


@pytest.mark.parametrize("spec", _prime0_cases())
def test_zeta_prime0_against_mpmath(spec):
    value, err = zeta_prime0(spec)
    assert abs(mp.mpf(value) - _mp_zeta_prime0(spec)) <= err
    assert err <= 1e-13 * (1.0 + abs(value))
