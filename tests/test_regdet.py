"""Cutoff and heat-regularised determinants."""

from __future__ import annotations

import math

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
)
from specreg import regdet
from specreg.orbit import LoopGroupOrbitSpec, orbit_spectrum
from specreg.regdet import default_expansion, mellin_lower

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


@pytest.mark.parametrize("lam", [1e20, 1e40, 1e100, 1e200, 1e250, 1e300])
def test_log_det_reg_huge_explicit_row(lam):
    # delta = 1/lam puts the first panel edge far below 1e-8; a panel spanning
    # those decades in one go left tanh-sinh unconverged and the value 3.3 off.
    # From 1e200 on the panels cancel, so they must be summed exactly rounded;
    # at 1e300 the first panel is [1e-300, 1e-298]
    spec = finite_spectrum([(lam, 1), (2.0, 1)])
    value, err = log_det_reg(spec)
    oracle = mp.log(lam) + mp.log(2) + 2 * mp.euler
    assert abs(mp.mpf(value) - oracle) <= err + 1e-13


def test_log_det_reg_frozen_digits():
    # regression pins for the two transcendental cases above
    assert log_det_reg(ONEPI)[0] == pytest.approx(-2.1735282560403877, rel=1e-14)
    assert log_det_reg(FIN23)[0] == pytest.approx(2.946190799031121, rel=1e-14)


def _tamper(exp: HeatExpansion, j: int, delta: float) -> HeatExpansion:
    coeffs = dict(exp.coeffs)
    coeffs[j] += delta
    return HeatExpansion(m=exp.m, J=exp.J, coeffs=coeffs, source=exp.source,
                         remainder_bound=exp.remainder_bound,
                         coeff_derivatives=exp.coeff_derivatives,
                         includes_kernel=exp.includes_kernel)


@pytest.mark.parametrize("j", [0, -1, -2])
def test_log_det_reg_rejects_inconsistent_expansion(j):
    # the remainder is computed structurally, so a doctored coefficient makes
    # the cutoff asymptote drift instead of being silently absorbed
    with pytest.raises(NumericError):
        log_det_reg(ONE0, exp=_tamper(analytic_expansion(ONE0), j, 0.1))


def test_log_det_reg_primed_mismatch():
    full0 = lattice_family(2.0, 0.0, "full", 1)
    unprimed = analytic_expansion(full0, primed=False)
    with pytest.raises(DomainError):
        log_det_reg(full0, exp=unprimed)


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


# ---------------------------------------------------------------------------
# lower Mellin integral routes


def test_mellin_lower_routes_agree():
    exp = analytic_expansion(ONEPI)
    for s in (0.0, 2.0):
        ts = mellin_lower(ONEPI, exp, s, method="tanh-sinh")
        gk = mellin_lower(ONEPI, exp, s, method="gauss-kronrod")
        assert ts[0] == pytest.approx(gk[0], abs=1e-11)


def test_mellin_lower_validation():
    exp = analytic_expansion(ONEPI)
    with pytest.raises(DomainError):
        mellin_lower(ONEPI, exp, 0.0, method="simpson")
    with pytest.raises(DomainError):
        mellin_lower(ONEPI, exp, -1.5)


def test_default_expansion_skips_the_remainder_scan():
    # the same coefficients as analytic_expansion; only the scanned C, which
    # nothing reads for an analytic source, is left out
    spec = compose(ONEPI, FULLPI3, finite_spectrum([(5.0, 2)]))
    full = analytic_expansion(spec)
    assert full.remainder_bound > 0.0
    assert default_expansion(spec) == HeatExpansion(
        m=full.m, J=full.J, coeffs=full.coeffs, source="analytic", remainder_bound=0.0,
        coeff_derivatives=full.coeff_derivatives, includes_kernel=full.includes_kernel)


BUILTINS = (
    FIN23, ONE0, ONEPI, FULLPI3, FULLPI,
    orbit_spectrum(LoopGroupOrbitSpec(1, ((1.0,),), (1.0,), 0.25), primed=True),
    orbit_spectrum(LoopGroupOrbitSpec(2, ((1.0, 0.0), (0.5, 0.8)), (1.0, 0.4), 0.2), primed=True),
)


def test_mellin_lower_integrand_evaluations_on_builtins(monkeypatch):
    # both routes at s = 0 on the seven built-in spectra: 5405 evaluations
    # while the series closed only [0, 1e-10], 4144 with [0, delta] up to 1e-2
    calls = [0]

    def counted(rule):
        def run(f, a, b, **kwargs):
            def g(t):
                calls[0] += 1
                return f(t)
            return rule(g, a, b, **kwargs)
        return run

    monkeypatch.setattr(regdet, "tanh_sinh", counted(regdet.tanh_sinh))
    monkeypatch.setattr(regdet, "gauss_kronrod", counted(regdet.gauss_kronrod))
    for spec in BUILTINS:
        exp = default_expansion(spec)
        for method in ("tanh-sinh", "gauss-kronrod"):
            mellin_lower(spec, exp, 0.0, method)
    assert calls[0] <= 4300
