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
import specreg.zeta
from specreg import heat_expansion, regdet, special, spectra
from specreg.orbit import LoopGroupOrbitSpec, minimality_report, orbit_spectrum
from specreg.regdet import default_expansion, mellin_lower
from specreg.spectra import LatticeFamily, Spectrum
from specreg.zeta import verify_bridge, zeta_prime0, zeta_value

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
    # the heat route reads the cutoff identity per Poisson part in E1, erfc
    # and Ein terms, the solos through their series integral, and its guard
    # an E1 sum and the scaled spectrum's mellin_lower; the zeta route's
    # zeta'(0) is a closed form for every family.
    # One-sided-pi's tanh-sinh panels took 357 evaluations of F(t).
    refuse("tanh_sinh", "gauss_kronrod", "heat_trace")
    calls = _count_e1_everywhere(monkeypatch)
    for spec in BUILTINS + (TINY,):
        log_det_reg(spec)
    assert calls[0] <= 200  # 164 measured, 200 when the value read E(1)
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
# the direct E1 sum, against mpmath


def _mp_e1_sum(spec, eps: float = 1.0, digits: int = 40) -> mp.mpf:
    """sum mult*E1(eps*lam) over the positive spectrum at 40 digits (or
    `digits`), each lattice eigenvalue (scale*n + shift)^2 and its product
    with eps formed exactly; a run stops at its first term past the crossing
    below 10^-(digits + 5) of the sum so far, so a run whose first term is
    already tiny keeps it."""
    with mp.workdps(digits):
        eps = mp.mpf(eps)
        total = mp.fsum(mult * mp.e1(eps * lam) for lam, mult, _ in spec.rows)
        for fam in spec.lattices:
            c, sigma = mp.mpf(fam.scale), mp.mpf(fam.shift)
            for sign, start in ((1, 1),) if fam.side == "positive" else ((1, 1), (-1, 0)):
                n = start
                while True:
                    u = c * n + sign * sigma
                    if u:
                        term = fam.mult * mp.e1(eps * u * u)
                        if u > 0 and term < mp.mpf(10) ** -(digits + 5) * abs(total):
                            break
                        total += term
                    n += 1
        return total


def test_e1_oracle_keeps_a_tiny_first_term():
    # one-sided-pi at eps = 3: every term has eps*lam >= 27 pi^2 > 130, and
    # the oracle that stopped there returned 0 for -log_det_eps = 6.95e-119
    value, err = regdet._e1_split(ONEPI, (3.0,))[0]
    oracle = _mp_e1_sum(ONEPI, 3.0)
    assert 6.9e-119 < oracle < 7.0e-119
    assert abs(mp.mpf(value) - oracle) <= err


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
# cutoff determinants by the balanced split of each theta


def _split_mixes(count: int = 30, seed: int = 33):
    """Mixes at scales 1e-3 to 1e3, each with a lattice of every theta kind
    (a full lattice, a zero-shift one-sided one, a pair of opposite shifts)
    at shifts drawn anywhere, near 0 or near half a scale, explicit rows,
    and every third a solo."""
    rng = random.Random(seed)
    for k in range(count):
        def scale():
            return 10.0 ** rng.uniform(-3.0, 3.0)

        def frac():
            near = rng.choice((1e-9, 1e-3, 0.5 - 1e-9, 0.5 - 1e-3))
            return rng.choice((rng.uniform(-0.5, 0.5), near, -near))

        c_full, c_half, c_pair = scale(), scale(), scale()
        pair_shift, mult = frac() * c_pair, rng.randint(1, 3)
        parts = [finite_spectrum([(10.0 ** rng.uniform(-2.0, 3.0), rng.randint(1, 3))
                                  for _ in range(rng.randint(0, 2))]),
                 lattice_family(c_full, frac() * c_full, "full", rng.randint(1, 3)),
                 lattice_family(c_half, 0.0, "positive", rng.randint(1, 3)),
                 lattice_family(c_pair, pair_shift, "positive", mult),
                 lattice_family(c_pair, -pair_shift, "positive", mult)]
        if k % 3 == 0:
            c_solo = scale()
            parts.append(lattice_family(c_solo, rng.uniform(-0.9, 2.0) * c_solo, "positive", 1))
        yield compose(*parts)


SPLIT_EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def test_split_against_direct_sum_on_mixes():
    # the split and the direct sum agree within the sum of their stated
    # errors at every cutoff; mirrored shifts give bit-equal splits
    for spec in _split_mixes():
        base = Spectrum(tuple(f for f in spec.families if f not in spec.poisson.solos))
        mirror = Spectrum(tuple(f._replace(shift=-f.shift) if isinstance(f, LatticeFamily)
                                else f for f in base.families))
        for eps in SPLIT_EPS:
            split, split_err = regdet._e1_split(spec, (eps,))[0]
            direct, direct_err = regdet._e1_sum(spec, eps)
            assert abs(split - direct) <= split_err + direct_err, (spec, eps)
            assert regdet._e1_split(mirror, (eps,))[0][0] == regdet._e1_split(base, (eps,))[0][0]


@pytest.mark.parametrize("spec", BUILTINS)
def test_split_against_mpmath_on_builtins(spec):
    # every split value of the default grid is within its stated error of
    # the 40-digit sum, with no slack
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        value, err = regdet._e1_split(spec, (eps,))[0]
        assert abs(mp.mpf(value) - _mp_e1_sum(spec, eps)) <= err, eps
        assert log_det_eps(spec, eps) == -value


# a full lattice listed before a +- pair of equal shift^2 and weight; the
# full lattice dropped its n = 0 term when the split and the zeta bracket
# matched the pair's removed term to a theta by its value
CROSS_LISTED = [
    compose(lattice_family(2.0, 0.5, "full"), lattice_family(3.0, 0.5, "positive"),
            lattice_family(3.0, -0.5, "positive")),
    compose(lattice_family(1.0, -0.25, "full", 2), lattice_family(TWO_PI, 0.25, "positive", 2),
            lattice_family(TWO_PI, -0.25, "positive", 2)),
]


@pytest.mark.parametrize("spec", CROSS_LISTED)
def test_cross_listed_pair_against_mpmath(spec, monkeypatch):
    # each theta keeps its own n = 0 term: only the pair's zeta bracket and
    # split leave it out, and zeta_value at the CLI's five s, the cutoff
    # determinants and the regularised one are each within their stated
    # error of the 40-digit value, with no slack
    removed = {}

    def record(module):
        # the shared walk of a theta's direct terms, as each route binds it
        real = module._theta_direct

        def recording(kernel, scale, shift, magnitude, flag):
            removed.setdefault(scale, set()).add(flag)
            return real(kernel, scale, shift, magnitude, flag)

        monkeypatch.setattr(module, "_theta_direct", recording)

    record(specreg.zeta)
    record(regdet)
    for s in (0.25, 0.75, 1.5, 2.0, 3.0):
        got = zeta_value(spec, s)
        with mp.workdps(40):
            s2 = 2 * mp.mpf(s)
            want = mp.fsum(
                fam.mult * mp.mpf(fam.scale) ** -s2 * mp.zeta(s2, q) for fam in spec.lattices
                for q in ([1 + mp.mpf(fam.shift) / fam.scale] if fam.side == "positive" else
                          [abs(mp.mpf(fam.shift)) / fam.scale,
                           1 - abs(mp.mpf(fam.shift)) / fam.scale]))
        assert abs(mp.mpf(got.value) - want) <= got.error, s
    grid = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    for eps, (value, err) in zip(grid, regdet._e1_split(spec, grid)):
        assert abs(mp.mpf(value) - _mp_e1_sum(spec, eps)) <= err, eps
        assert log_det_eps(spec, eps) == -value
    value, err = log_det_reg(spec)
    assert abs(mp.mpf(value) - _lerch_log_det_reg(spec)) <= err
    full, pair = spec.lattices[0].scale, spec.lattices[1].scale
    assert removed == {full: {False}, pair: {True}}


@pytest.mark.parametrize("spec", [
    Spectrum((LatticeFamily(TWO_PI, TWO_PI, "full", 1),), 1),  # its zero at n = -1
    compose(lattice_family(1.0, 1e-170, "positive"), lattice_family(1.0, -1e-170, "positive")),
    compose(lattice_family(1.0, 1e-160, "positive"), lattice_family(1.0, -1e-160, "positive")),
    compose(lattice_family(1e-3, 1e-170, "positive"), lattice_family(1e-3, -1e-170, "positive")),
    lattice_family(1.0, 1e-155, "full")], ids=["zero-off-0", "pair-0.0", "pair-subnormal",
                                               "pair-0.0-small-scale", "full-subnormal"])
def test_split_on_zeros_and_underflowing_shifts(spec):
    # a structural zero away from n = 0, pairs whose sigma^2 underflows to
    # 0.0 (their row is (0.0, -w)) or is subnormal, and a subnormal
    # eigenvalue: the split agrees with the direct sum within their errors
    for eps in (1e-2, 1e-4):
        split, split_err = regdet._e1_split(spec, (eps,))[0]
        direct, direct_err = regdet._e1_sum(spec, eps)
        assert abs(split - direct) <= split_err + direct_err


def test_split_takes_the_direct_sum_where_no_theta_splits():
    # at eps >= _SPLIT/c^2 for every theta the split is the direct sum, bit
    # for bit, value and error
    far = compose(lattice_family(1e3, 100.0, "full", 2), lattice_family(1e3, 0.0, "positive"),
                  lattice_family(1e3, 490.0, "positive"), lattice_family(1e3, -490.0, "positive"),
                  lattice_family(1e3, 250.0, "positive", 3), finite_spectrum([(3.0, 1)]))
    for spec, eps in [(far, 1e-4), (far, 1e-1)] + [(spec, 2.0) for spec in BUILTINS]:
        assert all(regdet._SPLIT / c / c <= eps for _, c, _, _ in spec.poisson.thetas)
        assert regdet._e1_split(spec, (eps,)) == [regdet._e1_sum(spec, eps)]


def test_split_e1_calls_on_builtins(monkeypatch):
    # each theta's direct side keeps at most two E1 terms at its split point;
    # the direct sums made 495 calls on this grid and the two orbit
    # certificates 132 + 220, gateaux_fd's four cutoff determinants
    calls = _count_e1_everywhere(monkeypatch)
    for spec in BUILTINS:
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            log_det_eps(spec, eps)
    assert calls[0] <= 165  # 50 measured, 30 of them one-sided-pi's, a solo
    calls[0] = 0
    for ospec in (LoopGroupOrbitSpec(1, ((1.0,),), (1.0,), 0.25),
                  LoopGroupOrbitSpec(2, ((1.0, 0.0), (0.5, 0.8)), (1.0, 0.4), 0.2)):
        minimality_report(ospec)
    assert calls[0] <= 117  # 0 measured


def test_closed_run_head_rounding_per_term():
    # the head's argument rounding used to take the largest rate*u^2 and the
    # largest spread from different terms: this solo's E1 sum at 1 stated
    # 1.04e-12 (about 800 u of its value) against a true error of 2.2e-15
    spec = lattice_family(0.3, -0.29, "positive", 1)
    value, err = regdet._e1_sum(spec, 1.0)
    assert err <= 150.0 * special._U * value
    assert abs(mp.mpf(value) - _mp_e1_sum(spec)) <= err


def _large_argument_cases():
    """Two sums whose stated errors a flat 160 u per E1 term missed 3.2 and
    6.7 times over (E1's sensitivity to its argument's rounding is about x
    there), then rows with eps*lam in [300, 700] at eps != 1, and one-sided
    and full lattices whose first term has eps*u^2 in [100, 700]."""
    yield finite_spectrum([(4103.515301768443, 1)]), 0.15211459724139334
    yield lattice_family(25.350314278401036, -5.211577082747821, "positive", 1), 0.9482064191075938
    rng = random.Random(45)
    for _ in range(12):
        eps = 10.0 ** rng.uniform(-4.0, -0.05)
        yield finite_spectrum([(rng.uniform(300.0, 700.0) / eps, rng.randint(1, 3))
                               for _ in range(rng.randint(1, 3))]), eps
    for k in range(12):
        eps = 10.0 ** rng.uniform(-3.0, 0.0)
        first = math.sqrt(rng.uniform(100.0, 700.0) / eps)
        if k % 2:
            scale = first * rng.uniform(0.3, 3.0)
            yield lattice_family(scale, first - scale, "positive", rng.randint(1, 3)), eps
        else:
            scale = 2.0 * first * rng.uniform(1.0, 4.0)
            yield lattice_family(scale, first, "full", rng.randint(1, 3)), eps


def test_large_argument_e1_terms_against_mpmath():
    # each E1 term charges its argument's rounding times E1's sensitivity,
    # about x + 1 here; a lattice composed with one of scale 1 also takes
    # the split, whose direct side walks it at eps
    small = lattice_family(1.0, 0.3, "full", 1)
    for spec, eps in _large_argument_cases():
        value, err = regdet._e1_sum(spec, eps)
        assert abs(mp.mpf(value) - _mp_e1_sum(spec, eps, 50)) <= err, (spec, eps)
        if spec.lattices:
            mix = compose(spec, small)
            value, err = regdet._e1_split(mix, (eps,))[0]
            assert abs(mp.mpf(value) - _mp_e1_sum(mix, eps, 50)) <= err, (spec, eps)


# ---------------------------------------------------------------------------
# the closed-form lower integral against the Lerch formula


def _lerch_log_det_reg(spec, zeta_route: bool = False) -> mp.mpf:
    """log det_reg = -zeta'(0) + gamma*zeta(0), or with `zeta_route` the
    zeta route's -zeta'(0) alone, per family at 40 digits; a lattice family
    sums Hurwitz series with zeta_H(0, q) = 1/2 - q and zeta_H'(0, q) =
    loggamma(q) - log(2 pi)/2, its q formed exactly."""
    with mp.workdps(40):
        gamma = 0 if zeta_route else mp.euler
        total = mp.mpf(0)
        for lam, mult, _ in spec.rows:
            total += mult * (mp.log(lam) + gamma)
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
                total += fam.mult * weight * (-zeta0_prime + gamma * zeta0)
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


@pytest.mark.parametrize("scale, value, stated", [
    (10.0, 1.9944936650450802, 7.361056349074428e-15),
    (1e3, 10.853888174541972, 2.865964932958704e-14),
    (1e21, 93.74340661462581, 2.1893726041596465e-13),
])
def test_split_pair_leaves_out_its_cancelling_ein(scale, value, stated, monkeypatch):
    # where a removed theta splits, mellin_lower reads its value at t*
    # through the cutoff identity, in which Ein(sigma^2) does not appear: only
    # Ein(t*sigma^2) is formed, the value is the one that charging both
    # cancelling Ein(sigma^2) terms gave (pinned) and its error falls below
    # the error stated then (pinned)
    spec = compose(lattice_family(scale, 0.2 * scale, "positive", 1),
                   lattice_family(scale, -0.2 * scale, "positive", 1))
    calls = []
    monkeypatch.setattr(regdet, "_ein", lambda x: calls.append(x) or special._ein(x))
    got, err = mellin_lower(spec)
    assert len(calls) == 1
    oracle, oracle_err = _lerch_lower(spec)
    assert got == value
    assert err < stated
    assert abs(got - oracle) <= err + oracle_err


CLOSED_FORM_SCALES = (0.1, 1.0, TWO_PI, 50.0, 1e3)
CLOSED_FORM_SHIFTS = (0.0, 1e-8, 0.3, 0.49, -0.49)  # absolute 1e-8, else times the scale


def _closed_form_cases():
    # at 1e6 and up the lower integral's dual series needed more than 2^20
    # terms, and log_det_reg refused
    for scale in CLOSED_FORM_SCALES + (1e6, 1e12, 1e21):
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
            if scale == 1e21:
                continue  # the mix's solo overflows in special._em_tail there
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


@pytest.mark.parametrize("spec", BUILTINS + (TINY, lattice_family(0.3, 0.2, "positive", 3),
                                             lattice_family(2.5, -1.0, "positive", 2),
                                             compose(ONEPI, FIN23, lattice_family(7.5, 0.0))))
def test_bridge_heat_error_covers_its_own_rounding(spec):
    # the heat route -gamma*b0' + log_det_reg states log_det_reg's error, b0's
    # rounding times gamma, the rounding of gamma*b0' and half an ulp of the
    # sum; it covers the 40-digit -zeta'(0) with no slack
    report = verify_bridge(spec)
    _, err = log_det_reg(spec)
    b0_err = heat_expansion._coeff_rounding(spec, default_expansion(spec))[0]
    assert report.heat_error >= err + EULER_GAMMA * b0_err + 0.5 * math.ulp(report.heat_route)
    assert abs(mp.mpf(report.heat_route) - _lerch_log_det_reg(spec, True)) <= report.heat_error


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
    assert tail <= regdet._erfc_tail(scale, K) or tail < 2.0 ** -1074


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
    for eps in (1e-2, 1e-3, 1e-4):
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


def test_guard_eps_stays_within_every_solos_series():
    # the guard's one cutoff is at most 1e-4 and at most half each solo's
    # first delta, so that the solos' lower integrals of eps*B are their
    # series alone
    guard_eps = regdet._guard_eps
    mixed = compose(lattice_family(16.742, 0.3 * 16.742, "positive", 2),
                    lattice_family(0.224, 1.1 * 0.224, "positive", 1),
                    lattice_family(1e3, -490.0, "positive", 1), FULLPI3)
    for spec in BUILTINS + (TINY, mixed, compose(ONE0, lattice_family(1e3, 100.0, "full", 2))):
        eps = guard_eps(spec)
        assert eps <= 1e-4
        assert all(eps <= 0.5 * regdet._first_delta(fam) for fam in spec.poisson.solos)
        # every theta of eps*B has its balanced point at t* >= 2, so the
        # lower integral of eps*B is its dual series alone
        assert all(eps <= 0.5 * regdet._SPLIT / c / c for _, c, _, _ in spec.poisson.thetas)
    assert guard_eps(FULLPI3) == guard_eps(lattice_family(501.0, 0.3, "full")) == 1e-4
    assert guard_eps(mixed) == 0.5 * regdet._first_delta(mixed.lattices[2])
    assert (guard_eps(compose(FULLPI3, lattice_family(1e6, 3e5, "full")))
            == 0.5 * regdet._SPLIT / 1e6 / 1e6)


def test_guard_at_large_scale():
    # eps*scale^2 >> 1 on every fixed cutoff, so the deviations grew (1.35,
    # 1.55, 1.69) and the guard raised although the value was right
    spec = compose(lattice_family(1e3, -490.0, "positive", 1),
                   lattice_family(1e3, 100.0, "full", 2), finite_spectrum([(3.0, 1)]))
    value, err = log_det_reg(spec)
    assert abs(mp.mpf(value) - _lerch_log_det_reg(spec)) <= err


def test_guard_false_alarm_on_a_sign_changing_lower_integral():
    # int_0^eps F dt/t changes sign here (-5.8e-4, 3.1e-2, 3.4e-3 at eps =
    # 1e-2, 1e-3, 1e-4), so a guard that wanted |det_eps - asymptote| to
    # shrink raised on a right value; the cutoff identity holds at each eps
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
    # each deviation det_eps - asymptote is the lower integral of eps*B,
    # within the stated errors of the E1 sum, of that integral and of the
    # b-terms
    for eps in (1e-2, 1e-3, 1e-4):
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


# one-sided lattices at the smallest scales, rows and full-lattice shifts
# whose eigenvalues (or eps times them) are subnormal: the three-cutoff guard
# raised on most, and the subnormal E1 arguments understated their error
GUARD_CASES = [lattice_family(scale, frac * scale, "positive", 1)
               for scale in (1e-5, 1e-6) for frac in (0.0, 0.3, 0.5)]
GUARD_CASES += [finite_spectrum([(lam, 1)]) for lam in (1e-310, 1e-315, 1e-318)]
GUARD_CASES += [lattice_family(1.0, shift, "full", 1) for shift in (1e-155, 1e-158)]


@pytest.mark.parametrize("spec", GUARD_CASES)
def test_guard_certifies_small_scales_and_subnormal_arguments(spec):
    # every stated error covers the 40-digit Lerch value, with no slack
    value, err = log_det_reg(spec)
    assert abs(mp.mpf(value) - _lerch_log_det_reg(spec)) <= err


def test_cutoff_overflow_is_a_numeric_error():
    # the solo's certified delta is 2.343e-320, where its b-term delta^(-1)
    # leaves the double range: a bare OverflowError until it named both
    spec = lattice_family(9.17934426094324e+148, 4.58967213047162e+148, "positive")
    with pytest.raises(NumericError, match=r"LatticeFamily\(scale=9\.17934426094324e\+148, "
                       r"shift=4\.58967213047162e\+148.* overflows at T = 2\.343e-320"):
        log_det_reg(spec)


def test_heat_walk_refuses_an_underflowing_argument():
    # t*u^2 at t* = 16 pi/1e6 and u = 1e-160 underflows to 0.0, the direct
    # side's tail bound divided by it (ZeroDivisionError), as the zeta
    # bracket's pi*(u/scale)^2 does
    for call in (log_det_reg, build_report):
        with pytest.raises(NumericError, match=r"t\*u\^2 at u = 1e-160, scale 1000\.0 underflows"):
            call(lattice_family(1e3, 1e-160, "full"))


def test_e1_sum_charges_subnormal_arguments():
    # eps*lam = 1e-322 rounds by up to 2^-1075, 2.5% of itself, which moved
    # E1 by 1.2e-2 where 1.3e-11 was stated; a row at eps = 1 is exact
    for eps in (1e-4, 1.0):
        value, err = regdet._e1_sum(finite_spectrum([(1e-318, 1)]), eps)
        with mp.workdps(40):
            assert abs(value - mp.e1(mp.mpf(eps) * mp.mpf(1e-318))) <= err
    assert err <= 1.4e-11  # at eps = 1 only E1's 8 u and the product's u of 731.6


@pytest.mark.parametrize("shift", [1e-160, 3e-161])
def test_split_charges_subnormal_arguments(shift):
    # the n = 0 term's u^2 = shift^2 is subnormal, and so t*u^2 at the
    # split point t = 16 pi: its rounding moved E1 by 1.4e-5 (9.2e-4 at
    # 3e-161) where 1.6e-12 was stated
    spec = lattice_family(1.0, shift, "full")
    value, err = regdet._e1_split(spec, (0.1,))[0]
    assert abs(mp.mpf(value) - _mp_e1_sum(spec, 0.1)) <= err


# full lattices and pairs at scales where the guard's cutoff follows the scale
GUARD_SPECTRA = BUILTINS + tuple(
    spec for c in (1e6, 1e12)
    for spec in (lattice_family(c, 0.3 * c, "full"),
                 compose(lattice_family(c, 0.2 * c, "positive"),
                         lattice_family(c, -0.2 * c, "positive"))))


def _plus(result, size: float = 1e-10):
    """result moved by `size`: a float, the first float of a pair, or a
    list of terms (as the first item) with one more term."""
    if isinstance(result, float):
        return result + size
    first, *rest = result
    return (first + [size] if isinstance(first, list) else first + size, *rest)


def _shift_where(monkeypatch, owner, name: str, when, size: float = 1e-10) -> None:
    """Replace owner.name by a copy whose result moves by `size` (_plus)
    wherever when(*args, result) holds."""
    original = getattr(owner, name)

    def shifted(*args):
        result = original(*args)
        return _plus(result, size) if result is not None and when(*args, result) else result

    monkeypatch.setattr(owner, name, shifted)


@pytest.mark.parametrize("spec", GUARD_SPECTRA)
def test_guard_sees_an_error_in_the_upper_integral(spec, monkeypatch):
    # 1e-10 added to the guard's own E(eps) = int_eps^inf tr exp(-t*B) dt/t,
    # the direct E1 sum of the whole spectrum, must break the cutoff identity
    _shift_where(monkeypatch, regdet, "_e1_sum",
                 lambda arg, eps, result: arg is spec and eps == regdet._guard_eps(spec))
    with pytest.raises(NumericError, match="cutoff identity"):
        log_det_reg(spec)


@pytest.mark.parametrize("spec", GUARD_SPECTRA)
def test_guard_sees_an_error_in_the_lower_integral(spec, monkeypatch):
    # 1e-10 added to the guard's L(eps), the lower integral of the spectrum
    # scaled by the guard's cutoff
    _shift_where(monkeypatch, regdet, "mellin_lower", lambda arg, result: arg is not spec)
    with pytest.raises(NumericError, match="cutoff identity"):
        log_det_reg(spec)


# a theta whose t* = 0.02 direct side keeps the n = 0 term, a pair (removed,
# so ln t* and Ein(t*sigma^2) enter its value), rows and a solo at delta < 1
THETA50 = lattice_family(50.0, 15.0, "full")
PAIR50 = compose(lattice_family(50.0, 10.0, "positive"), lattice_family(50.0, -10.0, "positive"))
T50 = regdet._SPLIT / 50.0 / 50.0
GUARD_SENSITIVITY = [
    pytest.param(THETA50, regdet, "_heat_direct", lambda theta, t, budget, result: t == T50,
                 id="theta-near"),
    pytest.param(THETA50, regdet, "_theta_lower", lambda theta, t, result: t == T50,
                 id="theta-dual"),
    pytest.param(PAIR50, regdet, "_ein", lambda x, result: x == T50 * 100.0,
                 id="pair-ein"),
    pytest.param(PAIR50, math, "log", lambda x, result: x == T50, id="pair-log"),
    pytest.param(FIN23, regdet, "_row_terms", lambda rows, eps, result: eps == 1.0,
                 id="row-e1"),
    pytest.param(FIN23, regdet, "_ein", lambda x, result: x == 2.0, id="row-ein"),
    pytest.param(ONEPI, regdet, "mellin_cutoff_integral",
                 lambda fam, delta, result: fam.scale == TWO_PI, id="solo-series"),
    pytest.param(ONEPI, regdet, "_e1_sum",
                 lambda arg, eps, result: eps == regdet._first_delta(arg.lattices[0]),
                 id="solo-e1"),
]


@pytest.mark.parametrize("spec, owner, name, when", GUARD_SENSITIVITY)
def test_guard_sees_an_error_in_each_piece_of_the_value(spec, owner, name, when, monkeypatch):
    # 1e-10, and 16 times the value's own stated error, added to one piece
    # that the value reads, and to no piece of the guard's E(eps) or L(eps),
    # must break the cutoff identity; the guard's slack is 4.9-12.7 times
    # the value's stated error on these spectra, so 4 times passes unseen
    _, err = log_det_reg(spec)  # passes unperturbed
    for size in (1e-10, 16.0 * err):
        with monkeypatch.context() as patch:
            _shift_where(patch, owner, name, when, size)
            with pytest.raises(NumericError, match="cutoff identity"):
                log_det_reg(spec)


# ---------------------------------------------------------------------------
# every scale from 1e-8 to 1e21


def _scale_sweep():
    """The four theta kinds at every decade of scale from 1e-8 to 1e21: a
    full lattice at shift 0.3*c and at 0, a zero-shift one-sided lattice and
    a pair at +-0.2*c."""
    for k in range(30):
        c = 10.0 ** (k - 8)
        yield lattice_family(c, 0.3 * c, "full")
        yield lattice_family(c, 0.0, "full")
        yield lattice_family(c, 0.0, "positive")
        yield compose(lattice_family(c, 0.2 * c, "positive"),
                      lattice_family(c, -0.2 * c, "positive"))


SCALE_SWEEP = list(_scale_sweep())


def test_no_refusal_at_any_scale():
    # 64 of these 120 spectra, every one from scale 1e6 up, were refused by
    # all three calls: mellin_lower's dual series needed more than 2^20 terms
    laws = {kind: [] for kind in range(4)}
    for i, spec in enumerate(SCALE_SWEEP):
        value, err = log_det_reg(spec)
        assert math.isfinite(value) and math.isfinite(err)
        assert verify_bridge(spec).passed
        assert build_report(spec).log_det_reg == value
        scale = spec.lattices[0].scale
        with mp.workdps(40):
            laws[i % 4].append((mp.mpf(value) - default_expansion(spec).b0
                                * mp.log(mp.mpf(scale) ** 2), err))
    # log det_reg(c^2*B) = log det_reg(B) + b0'*ln c^2, so each kind's value
    # less b0'*ln c^2 is one number at every scale, within the stated errors
    # (the digits lost to cancelling counterterms and E1 sums at small
    # scales broke this by 2.8e-8 at 1e-8)
    for law in laws.values():
        for a, err_a in law:
            assert all(abs(a - b) <= err_a + err_b for b, err_b in law)
    spec = lattice_family(1e-8, 3e-9, "full")
    value, err = log_det_reg(spec)
    with mp.workdps(40):
        exact = 2 * mp.log(2 * mp.sin(mp.pi * 3 / 10))
    assert abs(value - exact) <= err < 1e-14
    assert float(exact) == 0.9624236501192069


def test_dual_series_stay_short(monkeypatch):
    # regdet takes D(c, sigma; t) only at c*sqrt(t) <= sqrt(16 pi), up to the
    # rounding of t* = _SPLIT/c^2, so no table entry holds more than 14
    # weights, the count at the split point itself; mellin_lower asked for
    # about 2.1*c of them at t = 1 and refused past 2^20
    roots, sizes = [], []
    table = regdet._erfc_table

    def table_recording(root, unit):
        entry = table(root, unit)
        roots.append(root)
        sizes.append(len(entry[1]))
        return entry

    monkeypatch.setattr(regdet, "_erfc_table", table_recording)
    for spec in list(_split_mixes()) + SCALE_SWEEP:
        regdet._e1_split(spec, SPLIT_EPS)
        log_det_reg(spec)
    assert max(roots) <= math.sqrt(regdet._SPLIT) * (1.0 + 4.0 * special._U)
    assert max(sizes) == 14


# ---------------------------------------------------------------------------
# one anchor per Poisson part and call


def test_guard_lower_integral_reads_no_anchor(monkeypatch, refuse):
    # the guard's L(eps) is mellin_lower of eps*B, where every theta has t*
    # >= 2 and every solo certifies its series at delta = 1: dual series,
    # Ein and the solos' series alone, no E1 term (regdet's binding; Ein
    # reads E1 inside special above x = 1), no direct theta walk and no
    # part's anchor, so it shares nothing with the value it checks
    cases = [(spec, scale_spectrum(spec, regdet._guard_eps(spec)))
             for spec in GUARD_SPECTRA + tuple(_split_mixes()) + tuple(SCALE_SWEEP)]
    assert len(cases) == 161

    def refused(*args):
        raise AssertionError("an E1 term")

    monkeypatch.setattr(regdet, "exp_integral_e1", refused)
    refuse("_theta_direct", "_e1_sum", "_anchor", "_theta_anchor", "_solo_anchor")
    for spec, scaled in cases:
        value, err = mellin_lower(scaled)
        assert math.isfinite(value) and err < 1e-10, spec


def test_one_anchor_per_distinct_part_per_call(monkeypatch):
    # build_report walks each distinct theta's S(t*) once, for its value and
    # its cutoff sums alike: 8 walks on the seven built-ins (16 when the
    # value and the sums each kept their own), one for three copies of a theta
    walks = []
    walk = regdet._theta_direct

    def counted(kernel, scale, shift, *rest):
        if kernel.ratio == regdet._SPLIT / scale / scale:
            walks.append(scale)
        return walk(kernel, scale, shift, *rest)

    monkeypatch.setattr(regdet, "_theta_direct", counted)
    for spec in BUILTINS:
        build_report(spec)
    assert len(walks) == 8
    walks.clear()
    build_report(compose(FULLPI3, FULLPI3, FULLPI3))
    assert walks == [TWO_PI]
