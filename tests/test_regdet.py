"""Cutoff and heat-regularised determinants."""

from __future__ import annotations

import math
import random

import mpmath as mp
import pytest

from specreg import (
    DomainError,
    EULER_GAMMA,
    HeatExpansion,
    NumericError,
    analytic_expansion,
    build_report,
    compose,
    counterterms,
    finite_expansion,
    finite_spectrum,
    lattice_family,
    log_det_eps,
    log_det_reg,
    report_to_dict,
    scale_spectrum,
)
from specreg import heat_expansion, regdet, special, spectra
from specreg.orbit import LoopGroupOrbitSpec, orbit_spectrum
from specreg.regdet import default_expansion, mellin_lower
from specreg.zeta import zeta_prime0

mp.mp.dps = 30

TWO_PI = 2.0 * math.pi
SQRT_PI = math.sqrt(math.pi)

ONE0 = lattice_family(TWO_PI, 0.0, "positive", 1)
ONEPI = lattice_family(TWO_PI, math.pi, "positive", 1)
FULLPI3 = lattice_family(TWO_PI, math.pi / 3.0, "full", 1)
FULLPI = lattice_family(TWO_PI, math.pi, "full", 1)
FIN23 = finite_spectrum([(2.0, 1), (3.0, 1)])


# ---------------------------------------------------------------------------
# cutoff determinants


def test_log_det_eps_explicit_oracle():
    ref = -(mp.e1(1.0) + mp.e1(1.5))
    assert log_det_eps(FIN23, 0.5) == pytest.approx(float(ref), abs=1e-14)


def test_log_det_eps_lattice_oracle():
    # frozen: -sum_{n>=1} E1(0.01*(2 pi n)^2) at 30 digits
    got = log_det_eps(ONE0, 0.01)
    assert got == pytest.approx(-0.8069706571939648, rel=1e-14)
    ref = -mp.nsum(lambda n: mp.e1(mp.mpf("0.01") * (2 * mp.pi * n) ** 2),
                   [1, mp.inf])
    assert got == pytest.approx(float(ref), abs=1e-13)


def test_log_det_eps_additive():
    combined = log_det_eps(compose(ONE0, FIN23), 0.05)
    assert combined == pytest.approx(
        log_det_eps(ONE0, 0.05) + log_det_eps(FIN23, 0.05), abs=1e-13)


def test_log_det_eps_slope_matches_heat_coefficient():
    # log det_eps = (2 gamma + ln 6) + 2 ln(eps) - 5 eps + O(eps^2) for FIN23
    eps = 1e-6
    head = 2.0 * EULER_GAMMA + math.log(6.0) + 2.0 * math.log(eps)
    assert (log_det_eps(FIN23, eps) - head) / eps == pytest.approx(-5.0, rel=1e-4)


def test_log_det_eps_domain():
    with pytest.raises(DomainError):
        log_det_eps(FIN23, 0.0)
    with pytest.raises(DomainError):
        log_det_eps(FIN23, -0.1)
    with pytest.raises(DomainError, match="finite"):
        log_det_eps(FIN23, math.inf)


def test_log_det_eps_overflowing_argument():
    # 3*1e308 overflows to inf, where E1 is 0.0
    assert log_det_eps(FIN23, 1e308) == 0.0


def test_log_det_eps_underflowing_argument_is_numeric():
    # a valid eps and eigenvalue whose product underflows: a numeric failure,
    # not bad input
    with pytest.raises(NumericError, match="underflows"):
        log_det_eps(finite_spectrum([(1e-300, 1)]), 1e-30)


# ---------------------------------------------------------------------------
# counterterms and the regularised value


def test_counterterms():
    assert counterterms(analytic_expansion(ONE0)) == pytest.approx(
        {-2: 0.0, -1: -1.0 / (2.0 * SQRT_PI), 1: 0.0})
    assert counterterms(finite_expansion(FIN23)) == {-1: 0.0}


@pytest.mark.parametrize("spec,oracle,tol", [
    (FIN23, 2.0 * EULER_GAMMA + math.log(6.0), 1e-10),
    (ONE0, -0.5 * EULER_GAMMA, 1e-10),
    (ONEPI, -math.log(math.pi ** 2 / 2.0) - EULER_GAMMA, 1e-10),
    (FULLPI3, 0.0, 1e-12),
    (FULLPI, math.log(4.0), 1e-12),
    # structural kernel: nonzero modes are 4k^2 with multiplicity 4, so
    # zeta(s) = 4*4^(-s)*zeta_R(2s) and log det_reg = 4 ln(2 pi) - 2 ln 4 - 2 gamma
    (lattice_family(2.0, 0.0, "full", 2),
     4.0 * math.log(TWO_PI) - 2.0 * math.log(4.0) - 2.0 * EULER_GAMMA, 1e-10),
])
def test_log_det_reg_closed_forms(spec, oracle, tol):
    value, err = log_det_reg(spec)
    assert value == pytest.approx(oracle, abs=tol)
    assert 0.0 <= err <= 1e-11


@pytest.mark.parametrize("lam", [1e20, 1e40, 1e94, 1e97, 1e100, 1e106, 1e109, 1e200,
                                 1e250, 1e300])
def test_log_det_reg_huge_explicit_row(lam):
    # a row's lower integral is -Ein(lam); the stated error must also hold
    # the rounding of forming the value from it, which at lam = 1e94 is
    # several times everything else
    spec = finite_spectrum([(lam, 1), (2.0, 1)])
    value, err = log_det_reg(spec)
    oracle = mp.log(lam) + mp.log(2) + 2 * mp.euler
    assert abs(mp.mpf(value) - oracle) <= err


def test_log_det_reg_pair_with_underflowing_shift_square():
    # Ein(sigma^2) of a pair at shift 1e-170 underflows with sigma^2; the
    # value is the zero-shift one, twice log(2 pi) - gamma/2 of n^2, n >= 1
    spec = compose(lattice_family(1.0, 1e-170, "positive", 1),
                   lattice_family(1.0, -1e-170, "positive", 1))
    value, err = log_det_reg(spec)
    oracle = 2 * (mp.log(2 * mp.pi) - mp.euler / 2)
    assert abs(mp.mpf(value) - oracle) <= err


def test_log_det_reg_frozen_digits():
    # regression pins for the two transcendental cases above
    assert log_det_reg(ONEPI)[0] == pytest.approx(-2.1735282560403877, rel=1e-14)
    assert log_det_reg(FIN23)[0] == pytest.approx(2.946190799031121, rel=1e-14)


def _tamper(exp: HeatExpansion, j: int, delta: float) -> HeatExpansion:
    coeffs = dict(exp.coeffs)
    coeffs[j] += delta
    return HeatExpansion(m=exp.m, J=exp.J, coeffs=coeffs, source=exp.source,
                         remainder_bound=exp.remainder_bound,
                         coeff_derivatives=exp.coeff_derivatives)


@pytest.mark.parametrize("j", [0, -1, -2])
def test_log_det_reg_rejects_inconsistent_expansion(j, monkeypatch):
    # the remainder is computed structurally, so a doctored coefficient makes
    # the cutoff asymptote drift instead of being silently absorbed
    original = regdet.default_expansion
    monkeypatch.setattr(regdet, "default_expansion",
                        lambda spec: _tamper(original(spec), j, 0.1))
    with pytest.raises(NumericError):
        log_det_reg(ONE0)


# ---------------------------------------------------------------------------
# reports


def test_build_report_consistency():
    report = build_report(ONEPI)
    assert report.log_det_zeta == -EULER_GAMMA * report.b0_primed + report.log_det_reg
    assert report.log_det_eps == tuple(log_det_eps(ONEPI, e) for e in report.eps_grid)
    assert report.b0 == report.b0_primed + report.kernel_dim
    assert report.b0_primed == pytest.approx(-1.0, abs=1e-15)
    assert report.eps_grid == (1e-1, 1e-2, 1e-3, 1e-4)
    assert len(report.log_det_eps) == 4


def test_build_report_kernel_bookkeeping():
    report = build_report(lattice_family(2.0, 0.0, "full", 2))
    assert report.kernel_dim == 2
    assert report.b0 == report.b0_primed + 2


def test_report_to_dict():
    report = build_report(FIN23, eps_grid=(0.5, 0.05))
    d = report_to_dict(report)
    assert d["log_Det_reg"] == report.log_det_zeta
    assert d["log_det_reg"] == report.log_det_reg
    assert list(d["counterterms"]) == ["-1"]
    assert d == report_to_dict(build_report(FIN23, eps_grid=(0.5, 0.05)))


def test_build_report_grid_validation():
    with pytest.raises(DomainError):
        build_report(FIN23, eps_grid=())
    with pytest.raises(DomainError):
        build_report(FIN23, eps_grid=(0.1, -0.2))
    with pytest.raises(DomainError, match="finite"):
        build_report(lattice_family(TWO_PI, 1.0, "full"), eps_grid=(math.inf,))


# ---------------------------------------------------------------------------
# the lower Mellin integral


def test_default_expansion_skips_the_remainder_scan():
    # the same coefficients as analytic_expansion; only the scanned C, which
    # nothing reads for an analytic source, is left out
    spec = compose(ONEPI, FULLPI3, finite_spectrum([(5.0, 2)]))
    full = analytic_expansion(spec)
    assert full.remainder_bound > 0.0
    assert default_expansion(spec) == HeatExpansion(
        m=full.m, J=full.J, coeffs=full.coeffs, source="analytic", remainder_bound=0.0,
        coeff_derivatives=full.coeff_derivatives)


BUILTINS = (
    FIN23, ONE0, ONEPI, FULLPI3, FULLPI,
    orbit_spectrum(LoopGroupOrbitSpec(1, ((1.0,),), (1.0,), 0.25), primed=True),
    orbit_spectrum(LoopGroupOrbitSpec(2, ((1.0, 0.0), (0.5, 0.8)), (1.0, 0.4), 0.2), primed=True),
)


def _count_e1_everywhere(monkeypatch) -> list[int]:
    """Count exp_integral_e1 calls through every module that binds it."""
    calls = [0]
    e1 = special.exp_integral_e1

    def counted(x):
        calls[0] += 1
        return e1(x)

    for module in (special, spectra, regdet):
        monkeypatch.setattr(module, "exp_integral_e1", counted)
    return calls


# a full lattice whose smallest eigenvalue (7.2e-226) is tiny but nonzero
TINY = lattice_family(4.585, 2.68e-113, "full", 1)


def test_mellin_lower_integrand_evaluations_on_builtins(monkeypatch, refuse):
    # mellin_lower is a closed form for any spectrum: erfc series and Ein
    # terms, and for the solo one-sided-pi the series on [0, delta] and the
    # cutoff identity's E1 sums on [delta, 1]
    refuse("tanh_sinh", "gauss_kronrod", "heat_trace")
    calls = _count_e1_everywhere(monkeypatch)
    for spec in BUILTINS + (TINY,):
        mellin_lower(spec)
    assert calls[0] <= 25  # 18 measured


def test_log_det_reg_integrand_evaluations_on_builtins(monkeypatch, refuse):
    # the heat route's upper integral is an E1 sum and its lower one,
    # mellin_lower, a closed form for every family, the solos through the
    # cutoff identity; the zeta route's zeta'(0) is a closed form for every
    # family.
    # One-sided-pi's tanh-sinh panels took 357 evaluations of F(t).
    refuse("tanh_sinh", "gauss_kronrod", "heat_trace")
    calls = _count_e1_everywhere(monkeypatch)
    for spec in BUILTINS + (TINY,):
        log_det_reg(spec)
    assert calls[0] <= 800  # 558 measured, 44 of them one-sided-pi's
    for spec in BUILTINS:
        zeta_prime0(spec)


def _solo_free_mixes(count: int = 24, seed: int = 25):
    """Mixes without a solo: explicit rows, full lattices, zero-shift
    one-sided lattices and pairs of opposite shifts, at scales 0.05-30."""
    rng = random.Random(seed)
    for _ in range(count):
        parts = [finite_spectrum([(rng.uniform(0.05, 40.0), rng.randint(1, 3))
                                  for _ in range(rng.randint(0, 3))])]
        for _ in range(rng.randint(1, 3)):
            scale = math.exp(rng.uniform(math.log(0.05), math.log(30.0)))
            shift, mult = rng.uniform(-0.49, 0.49) * scale, rng.randint(1, 3)
            kind = rng.randrange(3)
            if kind == 0:
                parts.append(lattice_family(scale, shift, "full", mult))
            elif kind == 1:
                parts.append(lattice_family(scale, 0.0, "positive", mult))
            else:
                parts += [lattice_family(scale, shift, "positive", mult),
                          lattice_family(scale, -shift, "positive", mult)]
        yield compose(*parts)


# ---------------------------------------------------------------------------
# the upper integral as an E1 sum, against mpmath


def _mp_e1_sum(spec) -> mp.mpf:
    """sum mult*E1(lam) over the positive spectrum at 40 digits, each lattice
    eigenvalue (scale*n + shift)^2 formed exactly; a run stops past
    lam = 130, where E1 < 1e-58."""
    with mp.workdps(40):
        total = mp.fsum(mult * mp.e1(lam) for lam, mult, _ in spec.rows)
        for fam in spec.lattices:
            c, sigma = mp.mpf(fam.scale), mp.mpf(fam.shift)
            for sign, start in ((1, 1),) if fam.side == "positive" else ((1, 1), (-1, 0)):
                n = start
                while True:
                    lam = (c * n + sign * sigma) ** 2
                    if lam > 130 and c * n + sign * sigma > 0:
                        break
                    if lam:
                        total += fam.mult * mp.e1(lam)
                    n += 1
        return total


def _e1_cases() -> list:
    """The built-ins and TINY, then 40 mixes like perfbench's fresh-spectra:
    explicit rows, a full and a one-sided lattice at scales in [2, 7] (a
    few at [0.05, 2]), and orbit spectra of rank 1 and 2."""
    rng = random.Random(24)
    cases = list(BUILTINS) + [TINY]
    for k in range(40):
        if k % 4 == 3:
            rank = 1 + k % 8 // 4
            roots = (((rng.uniform(0.5, 1.5),),) if rank == 1 else
                     ((rng.uniform(0.5, 1.5), rng.uniform(0.0, 0.4)),
                      (rng.uniform(0.0, 0.4), rng.uniform(0.5, 1.5))))
            x = tuple(rng.uniform(0.5, 1.5) for _ in range(rank))
            cases.append(orbit_spectrum(LoopGroupOrbitSpec(rank, roots, x,
                                                           rng.uniform(0.05, 0.6)),
                                        primed=True))
            continue
        low = 0.05 if k % 5 == 0 else 2.0
        c_full, c_one = rng.uniform(low, 7.0), rng.uniform(low, 7.0)
        rows = [(rng.uniform(0.5, 20.0), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        cases.append(compose(
            finite_spectrum(rows),
            lattice_family(c_full, c_full * rng.uniform(-0.45, 0.45), "full", rng.randint(1, 3)),
            lattice_family(c_one, c_one * rng.choice((0.0, rng.uniform(-0.45, 0.45))),
                           "positive", rng.randint(1, 3))))
    return cases


@pytest.mark.parametrize("spec", _e1_cases())
def test_upper_integral_e1_sum_against_mpmath(spec):
    value, err = regdet._e1_sum(spec, 1.0)
    assert abs(mp.mpf(value) - _mp_e1_sum(spec)) <= err
    assert err <= 1e-11


# ---------------------------------------------------------------------------
# the closed-form lower integral against the Lerch formula


def _lerch_log_det_reg(spec) -> mp.mpf:
    """log det_reg = -zeta'(0) + gamma*zeta(0), per family at 40 digits; a
    lattice family sums Hurwitz series with zeta_H(0, q) = 1/2 - q and
    zeta_H'(0, q) = loggamma(q) - log(2 pi)/2, its q formed exactly."""
    with mp.workdps(40):
        total = mp.mpf(0)
        for lam, mult, _ in spec.rows:
            total += mult * (mp.log(lam) + mp.euler)
        for fam in spec.lattices:
            c, sigma = mp.mpf(fam.scale), mp.mpf(fam.shift)
            if fam.side == "positive":
                parts = [(1, 1 + sigma / c)]
            elif fam.shift == 0.0:
                parts = [(2, mp.mpf(1))]
            else:
                parts = [(1, abs(sigma) / c), (1, 1 - abs(sigma) / c)]
            for weight, q in parts:
                zeta0 = mp.mpf(0.5) - q
                zeta0_prime = -2 * mp.log(c) * zeta0 + 2 * (mp.loggamma(q) - mp.log(2 * mp.pi) / 2)
                total += fam.mult * weight * (-zeta0_prime + mp.euler * zeta0)
        return total


def _lerch_lower(spec) -> tuple[mp.mpf, float]:
    """int_0^1 F dt/t as the Lerch value implies it, -sum m*b_j/j - E(1) -
    log det_reg with E(1) = _e1_sum(spec, 1), at 40 digits, and the error of
    its double inputs: E(1)'s stated error and each m*b_j/j's, the rounding
    of b_j (_coeff_rounding) and of the product."""
    exp = default_expansion(spec)
    coeff_err = heat_expansion._coeff_rounding(spec, exp)
    cts = counterterms(exp)
    upper, upper_err = regdet._e1_sum(spec, 1.0)
    with mp.workdps(40):
        value = -mp.fsum(cts.values()) - upper - _lerch_log_det_reg(spec)
    return value, upper_err + math.fsum(abs(exp.m / j) * coeff_err[j] + special._U * abs(ct)
                                        for j, ct in cts.items())


@pytest.mark.parametrize("spec", [spec for spec in BUILTINS if not spec.poisson.solos]
                         + list(_solo_free_mixes()))
def test_mellin_lower_against_dual_closed_form(spec):
    # mellin_lower, the erfc series of the thetas' duals and Ein of the
    # exponentials on these solo-free spectra, against the lower integral
    # that the Lerch/Kronecker value implies; no slack beyond the stated errors
    assert not spec.poisson.solos
    value, err = mellin_lower(spec)
    oracle, oracle_err = _lerch_lower(spec)
    assert abs(value - oracle) <= err + oracle_err
    assert err <= 1e-13


CLOSED_FORM_SCALES = (0.1, 1.0, TWO_PI, 50.0, 1e3)
CLOSED_FORM_SHIFTS = (0.0, 1e-8, 0.3, 0.49, -0.49)  # absolute 1e-8, else times the scale


def _closed_form_cases():
    for scale in CLOSED_FORM_SCALES:
        for frac in CLOSED_FORM_SHIFTS:
            shift = frac if frac == 1e-8 else frac * scale
            yield pytest.param(lattice_family(scale, shift, "full", 3),
                               id=f"full-{scale:g}-{frac:g}")
            if shift == 0.0:
                yield pytest.param(lattice_family(scale, 0.0, "positive", 2),
                                   id=f"half-{scale:g}")
                continue
            yield pytest.param(compose(lattice_family(scale, shift, "positive", 2),
                                       lattice_family(scale, -shift, "positive", 2)),
                               id=f"pair-{scale:g}-{frac:g}")
            yield pytest.param(compose(
                lattice_family(scale, shift, "positive", 1),
                lattice_family(scale, 0.1 * scale, "full", 2),
                lattice_family(scale, 0.0, "positive", 1),
                finite_spectrum([(3.0, 1)])), id=f"mix-{scale:g}-{frac:g}")
    for lam in (1e-8, 1e-3, 0.5, 1.0, 2.0, 7.0, 1e3, 1e20):
        yield pytest.param(finite_spectrum([(lam, 2)]), id=f"row-{lam:g}")


@pytest.mark.parametrize("spec", list(_closed_form_cases()))
def test_log_det_reg_lerch_oracle(spec):
    # every stated error covers the 40-digit Lerch value, with no slack
    value, err = log_det_reg(spec)
    assert abs(mp.mpf(value) - _lerch_log_det_reg(spec)) <= err


def _solo_cases(count: int = 120, seed: int = 7):
    """Solos (unpaired shifted one-sided lattices): scales 0.05-3
    log-uniform, shifts -0.95..2.5 scales, mult 1-3; the first two were
    1.7 and 2.2 times their stated error off before the solos' coefficient
    rounding and tanh-sinh's rounding were budgeted."""
    rng = random.Random(seed)
    cases = [(3.0, 0.30000000000000004, 3), (3.0, 1.1, 1)]
    while len(cases) < count:
        scale = math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
        cases.append((scale, rng.uniform(-0.95, 2.5) * scale, rng.randint(1, 3)))
    return cases + DELTA_ONE_SOLOS


# solos of scale below pi/sqrt(50), whose small-time series certifies all of
# [0, 1], so that mellin_lower takes no E1 sum
DELTA_ONE_SOLOS = [(0.44, 0.9 * 0.44, 3), (0.3, -0.29, 1), (0.1, 0.05, 2),
                   (0.05, 2.4 * 0.05, 1)]


def test_log_det_reg_lerch_oracle_on_solos():
    # the solos take mellin_lower's small-time series and cutoff identity;
    # every stated error covers the 40-digit Lerch value, with no slack
    for scale, shift, mult in DELTA_ONE_SOLOS:
        fam = lattice_family(scale, shift, "positive", mult).lattices[0]
        assert regdet._first_delta(fam) == 1.0
    for scale, shift, mult in _solo_cases():
        spec = lattice_family(scale, shift, "positive", mult)
        assert spec.poisson.solos
        value, err = log_det_reg(spec)
        miss = abs(mp.mpf(value) - _lerch_log_det_reg(spec))
        assert miss <= err, (scale, shift, mult, float(miss), err)


def test_mixed_scale_solos_take_their_own_delta():
    # each solo integrates at the delta of its own scale; at the delta of
    # the largest scale, the small solos' E1 sums cancelled 2e-12 away, and
    # mellin_lower stated 1.4e-12
    spec = compose(lattice_family(16.742, 0.3 * 16.742, "positive", 2),
                   lattice_family(0.224, 1.1 * 0.224, "positive", 1),
                   lattice_family(2.5, -0.4 * 2.5, "positive", 3))
    value, err = log_det_reg(spec)
    assert abs(mp.mpf(value) - _lerch_log_det_reg(spec)) <= err <= 3e-13
    lower, lower_err = mellin_lower(spec)
    oracle, oracle_err = _lerch_lower(spec)
    assert abs(lower - oracle) <= lower_err + oracle_err
    assert lower_err <= 1e-13


def test_large_q_solo_refusal_states_its_cause():
    # q = 1 + 0.5/1e-6 = 5e5 exceeds heat_expansion._MAX_WHOLE_SCALES = 2^18
    # whole scales, so the solo has no table of small-time coefficients and
    # nothing certifies the start of its lower integral
    with pytest.raises(NumericError, match="whole scales"):
        log_det_reg(lattice_family(1e-6, 0.5, "positive", 1))
    spec = lattice_family(1e-5, 0.5, "positive", 1)  # q = 5e4
    value, err = log_det_reg(spec)
    assert abs(mp.mpf(value) - _lerch_log_det_reg(spec)) <= err


@pytest.mark.parametrize("scale", CLOSED_FORM_SCALES)
@pytest.mark.parametrize("K", [1, 3, 10])
def test_dual_tail_bound(scale, K):
    # sum_{k>K} 2 erfc(pi k/c)/k at 30 digits; erfc is log-concave, so the
    # terms past the 3c kept ones add less than 1e-35 of the first
    with mp.workdps(30):
        c = mp.mpf(scale)
        tail = mp.fsum(2 * mp.erfc(mp.pi * k / c) / k
                       for k in range(K + 1, K + 2 + int(3 * scale)))
    # a bound below the smallest subnormal rounds to 0.0
    assert tail <= spectra._dual_tail(scale, K) or tail < 2.0 ** -1074


# ---------------------------------------------------------------------------
# lattice runs closed by an Euler-Maclaurin tail, and the guard's cutoffs


def _count_e1(monkeypatch) -> list[int]:
    calls = [0]
    e1 = spectra.exp_integral_e1

    def counted(x):
        calls[0] += 1
        return e1(x)

    monkeypatch.setattr(spectra, "exp_integral_e1", counted)
    return calls


@pytest.mark.parametrize("spec", [lattice_family(1e-3, 0.5e-3, "positive", 1),
                                  lattice_family(1e-3, 0.0, "positive", 1),
                                  lattice_family(1e-5, 0.3e-5, "positive", 2), ONEPI,
                                  FULLPI3, orbit_spectrum(LoopGroupOrbitSpec(
                                      2, ((1.0, 0.0), (0.5, 0.8)), (1.0, 0.4), 0.2))])
def test_log_det_eps_calls_per_run(spec, monkeypatch):
    # a run costs a bounded number of E1 calls, whatever eps*scale^2 is; the
    # direct sum of the first spectrum made about 6.7e5 at eps = 1e-4
    calls = _count_e1(monkeypatch)
    runs = sum(len(spectra._runs(fam)) for fam in spec.lattices)
    for eps in regdet._VERIFY_EPS:
        calls[0] = 0
        log_det_eps(spec, eps)
        assert calls[0] <= 64 * runs


@pytest.mark.parametrize("scale", [1e-2, 1e-3])
def test_log_det_reg_small_scale(scale):
    # used to take 0.7 s at scale 1e-2 (one E1 call per lattice term in the
    # guard) and 6.7 s at 1e-3
    spec = lattice_family(scale, 0.5 * scale, "positive", 1)
    value, err = log_det_reg(spec)
    assert abs(mp.mpf(value) - _lerch_log_det_reg(spec)) <= err


def test_verify_eps_scales_with_the_largest_lattice():
    for spec in (ONE0, FULLPI3, FIN23, lattice_family(10.0 * math.pi, 1.0, "full", 1)):
        assert regdet._verify_eps(spec) is regdet._VERIFY_EPS
    big = compose(ONE0, lattice_family(1e3, 100.0, "full", 2))
    factor = (10.0 * math.pi / 1e3) ** 2
    assert regdet._verify_eps(big) == tuple(e * factor for e in regdet._VERIFY_EPS)


def test_guard_at_large_scale():
    # eps*scale^2 >> 1 on every fixed cutoff, so the deviations grew (1.35,
    # 1.55, 1.69) and the guard raised although the value was right
    spec = compose(lattice_family(1e3, -490.0, "positive", 1),
                   lattice_family(1e3, 100.0, "full", 2), finite_spectrum([(3.0, 1)]))
    value, err = log_det_reg(spec)
    assert abs(mp.mpf(value) - _lerch_log_det_reg(spec)) <= err


@pytest.mark.xfail(raises=NumericError, strict=True, reason=(
    "the guard wants |det_eps - asymptote| = |int_0^eps F dt/t| to shrink from "
    "the first cutoff to the last, but here that integral changes sign "
    "(-5.8e-4, 3.1e-2, 3.4e-3); ROADMAP item 10 checks the cutoff identity instead"))
def test_guard_false_alarm_on_a_sign_changing_lower_integral():
    spec = compose(finite_spectrum([(3.1793404903691282, 2), (26.860301444763444, 3)]),
                   lattice_family(3.253086215777317, 0.0, "positive", 1),
                   lattice_family(23.61358541378309, 10.911225765516328, "positive", 1),
                   lattice_family(23.61358541378309, -10.911225765516328, "positive", 1),
                   lattice_family(1.8400624460012316, 0.8398154263271145, "positive", 3),
                   lattice_family(1.8400624460012316, -0.8398154263271145, "positive", 3))
    assert spec == list(_solo_free_mixes())[8]
    exp = default_expansion(spec)
    cts = counterterms(exp)
    coeff_err = heat_expansion._coeff_rounding(spec, exp)
    lerch = _lerch_log_det_reg(spec)
    # each deviation the guard reads is the lower integral of eps*B, within
    # the stated errors of the E1 sum, of that integral and of the b-terms
    for eps in regdet._verify_eps(spec):
        det, det_err = regdet._e1_sum(spec, eps)
        predicted, predicted_err = mellin_lower(scale_spectrum(spec, eps))
        with mp.workdps(40):
            powers = {j: mp.mpf(eps) ** (mp.mpf(j) / exp.m) for j in cts if j < 0}
            asymptote = (lerch + exp.b0 * mp.log(eps)
                         + mp.fsum(cts[j] * power for j, power in powers.items()))
            miss = abs(-det - asymptote - predicted)
        b_err = coeff_err[0] * -math.log(eps) + math.fsum(
            (abs(exp.m / j) * coeff_err[j] + special._U * abs(cts[j])) * float(power)
            for j, power in powers.items())
        assert miss <= det_err + predicted_err + b_err
    value, err = log_det_reg(spec)
    assert abs(mp.mpf(value) - lerch) <= err
