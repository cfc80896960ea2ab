"""Coadjoint-orbit spectra, shape traces, volumes, and minimality reports."""

from __future__ import annotations

import math
import random
import re
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specreg import (
    DomainError,
    EULER_GAMMA,
    LoopGroupOrbitSpec,
    NumericError,
    Spectrum,
    analytic_expansion,
    compose,
    curvature_to_dict,
    deform,
    finite_spectrum,
    gateaux_fd,
    lattice_family,
    log_det_eps,
    minimality_report,
    orbit_from_dict,
    orbit_spectrum,
    orbit_to_dict,
    scale_spectrum,
    trace_shape_eps,
    vol_eps,
    vol_reg,
    vol_zeta,
    zeta_prime0,
)
from specreg.orbit import root_values
from specreg import orbit, spectra
from specreg.spectra import LatticeFamily

mp.mp.dps = 30

TWO_PI = 2.0 * math.pi
SQRT_PI = math.sqrt(math.pi)

SU2 = LoopGroupOrbitSpec(1, ((1.0,),), (1.0,), 0.25)
RANK2 = LoopGroupOrbitSpec(2, ((1.0, 0.0), (0.5, 0.8)), (1.0, 0.4), 0.2)
ABELIAN = LoopGroupOrbitSpec(1, (), (1.0,))


# ---------------------------------------------------------------------------
# root data and validation


def test_orbit_spec_validation():
    with pytest.raises(DomainError):
        LoopGroupOrbitSpec(0, (), ())
    with pytest.raises(DomainError):
        LoopGroupOrbitSpec(1, ((1.0,),), (1.0,), cartan_mode="other")
    with pytest.raises(DomainError):
        LoopGroupOrbitSpec(1, ((1.0,),), (1.0, 2.0))
    with pytest.raises(DomainError):
        LoopGroupOrbitSpec(2, ((1.0,),), (1.0, 2.0))
    # booleans and non-finite values are not silently taken as numbers
    with pytest.raises(DomainError):
        LoopGroupOrbitSpec(True, ((1.0,),), (1.0,))
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            LoopGroupOrbitSpec(1, ((1.0,),), (1.0,), s=bad)
        with pytest.raises(DomainError):
            LoopGroupOrbitSpec(1, ((bad,),), (1.0,))
        with pytest.raises(DomainError):
            LoopGroupOrbitSpec(1, ((1.0,),), (bad,))


@pytest.mark.parametrize("bad, message", [
    ({"rank": 0}, "rank must be a positive integer"),
    ({"cartan_mode": "other"}, "unknown cartan_mode"),
    ({"x": (1.0, 2.0)}, "base direction x must have `rank` components"),
    ({"positive_roots": ((1.0, 0.0),)}, "every root must have `rank` components"),
    ({"s": math.nan}, "orbit data must be finite"),
], ids=["rank", "cartan_mode", "x", "positive_roots", "s"])
def test_orbit_spec_validates_on_replace(check_record, bad, message):
    check_record(SU2, bad, message)


def test_dim_g():
    assert SU2.dim_g == 3
    assert RANK2.dim_g == 6
    assert ABELIAN.dim_g == 1


def test_orbit_spectrum_structure():
    spec = orbit_spectrum(SU2, primed=True)
    assert spec.kernel_dim == 0
    assert len(spec.families) == 3
    shifts = sorted((f.shift, f.mult, f.shift_derivative) for f in spec.families)
    assert shifts == [(-0.25, 2, -1.0), (0.0, 2, 0.0), (0.25, 2, 1.0)]
    assert all(f.side == "positive" and f.scale == TWO_PI for f in spec.families)


def test_orbit_spectrum_unprimed():
    spec = orbit_spectrum(SU2, primed=False)
    assert spec.kernel_dim == 1
    explicit = [f for f in spec.families if not isinstance(f, LatticeFamily)]
    assert len(explicit) == 1
    assert explicit[0].values == ((0.0625, 2, 0.5),)


def test_orbit_spectrum_base_point_kernel():
    # at s = 0 every root row degenerates to a zero mode: kernel = dim(g)
    base = LoopGroupOrbitSpec(1, ((1.0,),), (1.0,), 0.0)
    assert orbit_spectrum(base, primed=False).kernel_dim == 3
    assert orbit_spectrum(base, primed=True).kernel_dim == 0


def test_orbit_spectrum_cell_guard():
    with pytest.raises(DomainError):
        orbit_spectrum(LoopGroupOrbitSpec(1, ((1.0,),), (1.0,), 6.3))


# ---------------------------------------------------------------------------
# heat coefficients of orbit spectra


@pytest.mark.parametrize("ospec", [SU2, RANK2])
def test_orbit_b_minus1_counts_dimension(ospec):
    exp = analytic_expansion(orbit_spectrum(ospec, primed=True))
    assert exp.coeffs[-1] == pytest.approx(ospec.dim_g / (2.0 * SQRT_PI), rel=1e-14)


@pytest.mark.parametrize("ospec,b0p", [(SU2, -3.0), (RANK2, -6.0)])
def test_orbit_b0_is_minus_dimension(ospec, b0p):
    exp = analytic_expansion(orbit_spectrum(ospec, primed=True))
    assert exp.coeffs[0] == pytest.approx(b0p, abs=1e-13)


def test_paper_4r_cartan_mode():
    su2_4r = LoopGroupOrbitSpec(1, ((1.0,),), (1.0,), 0.25, cartan_mode="paper-4r")
    exp = analytic_expansion(orbit_spectrum(su2_4r, primed=True))
    assert exp.coeffs[-1] == pytest.approx(2.0 / SQRT_PI, rel=1e-14)
    assert exp.coeffs[0] == pytest.approx(-4.0, abs=1e-13)


@pytest.mark.parametrize("ospec", [SU2, RANK2])
def test_orbit_coefficient_derivatives_cancel(ospec):
    # the +/- root pairs have opposite shift derivatives
    exp = analytic_expansion(orbit_spectrum(ospec, primed=True))
    assert all(v == 0.0 for v in exp.coeff_derivatives.values())


# ---------------------------------------------------------------------------
# shape trace


def test_orbit_shape_trace_guards():
    with pytest.raises(DomainError):
        trace_shape_eps(orbit_spectrum(ABELIAN), 0.0)
    with pytest.raises(DomainError, match="finite"):
        trace_shape_eps(orbit_spectrum(ABELIAN), math.inf)


@pytest.mark.parametrize("eps", [1e-3, 0.01, 0.1, 1.0, 10.0])
def test_orbit_shape_trace_vanishes_exactly(eps):
    base = LoopGroupOrbitSpec(1, ((1.0,),), (1.0,))
    assert trace_shape_eps(orbit_spectrum(base), eps) == 0.0
    assert trace_shape_eps(orbit_spectrum(LoopGroupOrbitSpec(2, ((1.0, 0.0), (0.5, 0.8)),
                                                             (1.0, 0.4))), eps) == 0.0


def test_shape_trace_lattice_spectrum():
    syn = lattice_family(TWO_PI, math.pi, "positive", 1, 1.0)
    got = trace_shape_eps(syn, 0.05)
    assert got == pytest.approx(-0.001250213714815259, rel=1e-13)
    ref = -mp.nsum(lambda n: 1 / (2 * mp.pi * n + mp.pi)
                   * mp.e ** (-mp.mpf("0.05") * (2 * mp.pi * n + mp.pi) ** 2),
                   [1, mp.inf])
    assert got == pytest.approx(float(ref), abs=1e-15)


def test_shape_trace_explicit_spectrum():
    spec = finite_spectrum([(1.0, 1, 1.5)])
    assert trace_shape_eps(spec, 1.0) == -0.75 * math.exp(-1.0)


@pytest.mark.parametrize("shift", [0.3, -0.3])
def test_full_lattice_gateaux_slopes_agree(shift):
    # the mirror run n <= 0 has u = scale*n + shift < 0, so its terms
    # -mult*shift_derivative/u * exp(-eps*u^2) change sign with u
    report = minimality_report(lattice_family(1.0, shift, "full", 1, 0.7))
    assert report.gateaux_log_vol_eps_analytic == pytest.approx(
        report.gateaux_log_vol_eps_fd, abs=1e-6)
    assert abs(report.gateaux_log_vol_eps_analytic) > 1.0


# ---------------------------------------------------------------------------
# volumes


def test_volume_regularisation_ratio():
    # vol_zeta / vol_reg = exp(-gamma*b0'/2) with b0' = -3 for the su2 orbit
    ratio = vol_zeta(SU2) / vol_reg(SU2)
    assert ratio == pytest.approx(math.exp(1.5 * EULER_GAMMA), rel=1e-12)
    assert ratio == pytest.approx(2.3769627027243914, rel=1e-12)


def test_volumes_refuse_to_underflow():
    # 24 copies of one root: 1/2 * log det'_eps at eps = 1e-4 is about -1171,
    # so the volume would underflow to 0.0
    ospec = LoopGroupOrbitSpec(1, ((1.0,),) * 24, (1.0,), 0.25)
    log_vol = 0.5 * log_det_eps(orbit_spectrum(ospec), 1e-4)
    assert log_vol < math.log(sys.float_info.min)
    with pytest.raises(NumericError, match=re.escape(f"log-volume is {log_vol!r}")):
        vol_eps(ospec, 1e-4)
    assert vol_eps(ospec, 1e-3) == math.exp(0.5 * log_det_eps(orbit_spectrum(ospec), 1e-3))
    assert orbit._volume("vol_eps", -708.0) == math.exp(-708.0)  # still a normal double


@pytest.mark.parametrize("log_vol", [-745.2, -709.0, 709.8, 1e4, math.nan])
def test_volume_outside_the_normal_doubles_raises(log_vol):
    with pytest.raises(NumericError, match="vol_reg leaves the range of normal doubles"):
        orbit._volume("vol_reg", log_vol)


def test_abelian_volumes():
    assert vol_reg(ABELIAN) == pytest.approx(math.exp(-0.5 * EULER_GAMMA), abs=1e-10)
    assert vol_zeta(ABELIAN) == pytest.approx(1.0, abs=1e-10)
    assert vol_eps(ABELIAN, 0.01) == pytest.approx(
        math.exp(-0.8069706571939648), rel=1e-12)


# ---------------------------------------------------------------------------
# finite differences


def test_gateaux_fd_polynomial():
    value, err = gateaux_fd(lambda s: s * s, 1.5)
    assert value == pytest.approx(3.0, abs=1e-10)
    assert err <= 1e-9


def test_gateaux_fd_log_sine():
    # d/ds log(4 sin^2(s/2)) = cot(s/2) -> 1 at s = pi/2
    value, _ = gateaux_fd(lambda s: math.log(4.0 * math.sin(0.5 * s) ** 2),
                          math.pi / 2.0)
    assert value == pytest.approx(1.0, abs=1e-8)


def test_gateaux_fd_richardson_is_exact_on_cubics():
    # the refinement cancels the h^2 term, the whole truncation error of a
    # cubic, so only the rounding of f(2 +/- h) over 2h is left
    value, _ = gateaux_fd(lambda s: s ** 3, 2.0)
    assert abs(value - 12.0) <= 64 * 2.0 ** -53 * 2.0 ** 3 / 1e-3


def test_gateaux_fd_guards():
    with pytest.raises(NumericError):
        gateaux_fd(lambda s: float("nan"), 0.0)
    with pytest.raises(DomainError):
        gateaux_fd(lambda s: s, 0.0, step=0.0)


# ---------------------------------------------------------------------------
# minimality reports


@pytest.mark.parametrize("ospec", [SU2, RANK2])
def test_orbit_minimality_certificate(ospec):
    report = minimality_report(ospec)
    assert report.strongly_minimal and report.heat_minimal and report.zeta_minimal
    assert report.tr_H_eps == (0.0, 0.0, 0.0)
    assert abs(report.tr_reg_H) <= 1e-10
    assert abs(report.Tr_reg_H) <= 1e-10
    assert report.gateaux_log_vol_eps_analytic == -0.0
    # the deformed spectrum is symmetric under kappa -> -kappa, and fsum makes
    # the cutoff determinant permutation-invariant, so the stencil is exactly 0
    assert report.gateaux_log_vol_eps_fd == 0.0
    assert all(v == 0.0 for v in report.delta_b.values())


def test_synthetic_deformation_traces():
    # one-sided family with unit shift velocity: delta b_0 = -1/(2 pi),
    # tr_reg = (1/(2 pi)) (psi(3/2) + ln(2 pi) + gamma/2), and the zeta-side
    # trace differs from the heat-side one by gamma/2 * delta b_0
    syn = lattice_family(TWO_PI, math.pi, "positive", 1, 1.0)
    report = minimality_report(syn)
    assert report.delta_b[0] == -1.0 / TWO_PI
    resid = report.Tr_reg_H - report.tr_reg_H - 0.5 * EULER_GAMMA * report.delta_b[0]
    assert abs(resid) <= 1e-15
    psi = float(mp.digamma(mp.mpf(3) / 2))
    assert report.Tr_reg_H == pytest.approx(
        (psi + math.log(TWO_PI)) / TWO_PI, abs=1e-14)
    assert report.tr_reg_H == pytest.approx(
        (psi + math.log(TWO_PI) + 0.5 * EULER_GAMMA) / TWO_PI, abs=1e-14)
    assert not report.heat_minimal and not report.zeta_minimal


def test_minimality_grid_validation():
    with pytest.raises(DomainError):
        minimality_report(SU2, eps_grid=())
    with pytest.raises(DomainError):
        minimality_report(SU2, eps_grid=(0.1, -0.1))
    with pytest.raises(DomainError, match="finite"):
        minimality_report(SU2, eps_grid=(0.1, math.inf))


def test_curvature_to_dict_keys():
    d = curvature_to_dict(minimality_report(SU2))
    assert set(d) == {"eps_grid", "tr_H_eps", "tr_reg_H", "Tr_reg_H", "delta_b",
                      "gateaux_log_vol_eps_analytic", "gateaux_log_vol_eps_fd",
                      "strongly_minimal", "heat_minimal", "zeta_minimal"}
    assert d["strongly_minimal"] is True
    assert list(d["delta_b"]) == ["-2", "-1", "0", "1"]


# ---------------------------------------------------------------------------
# regularised shape trace: the closed form of each family against mpmath


def _mp_one_sided(scale, shift, mult, rate):
    c = mp.mpf(scale)
    return mult * rate / c * (mp.log(c) + mp.euler / 2 + mp.digamma(1 + mp.mpf(shift) / c))


def _mp_full(scale, shift, mult, rate):
    c = mp.mpf(scale)
    return -mult * rate * mp.pi / c * mp.cot(mp.pi * mp.mpf(shift) / c)


@pytest.mark.parametrize("scale,shift", [(s, 0.4 * s) for s in (0.1, 1.0, 10.0, 30.0, 100.0)]
                         + [(1.0, 57.3)])
def test_reg_shape_trace_one_sided_digamma(scale, shift):
    report = minimality_report(lattice_family(scale, shift, "positive", 1, 1.0))
    ref = _mp_one_sided(scale, shift, 1, 1.0)
    assert abs(report.tr_reg_H - ref) <= 1e-13 * (1 + abs(ref))
    assert report.delta_b[0] == -1.0 / scale


@pytest.mark.parametrize("scale,shift", [(1.0, 0.3), (1.0, -0.45), (TWO_PI, 1.0),
                                         (50.0, 20.0), (0.2, 0.05), (1.0, 3.3)])
def test_reg_shape_trace_full_cotangent(scale, shift):
    # built directly, so the shift is not reduced into (-scale/2, scale/2]
    report = minimality_report(Spectrum((LatticeFamily(scale, shift, "full", 2, 0.7),)))
    ref = _mp_full(scale, shift, 2, 0.7)
    assert abs(report.tr_reg_H - ref) <= 1e-13 * (1 + abs(ref))
    assert report.Tr_reg_H == report.tr_reg_H  # no log divergence: delta_b_0 = 0


def test_certificate_of_a_structural_zero_kernel_dim_never_counted():
    # built directly with kernel_dim 0; deform used to drive kernel_dim to -1
    spec = Spectrum((LatticeFamily(1.0, 0.0, "full", 1, 0.7),))
    report = minimality_report(spec)
    assert report.tr_reg_H == 0.0
    assert report.tr_H_eps == (0.0, 0.0, 0.0)
    assert deform(spec, 0.1).kernel_dim == 0
    assert deform(spec, 0.0).kernel_dim == 1


@pytest.mark.parametrize("eps", [1e-5, 1e-7])
def test_orbit_shape_trace_vanishes_exactly_on_closed_runs(eps, monkeypatch):
    # the runs here are long enough to be closed by Euler-Maclaurin tails,
    # and the +/- root families still cancel term for term
    closures = []
    em_tail = spectra._em_tail
    monkeypatch.setattr(spectra, "_em_tail",
                        lambda *args: closures.append(args) or em_tail(*args))
    for ospec in (LoopGroupOrbitSpec(1, ((1.0,),), (1.0,)),
                  LoopGroupOrbitSpec(2, ((1.0, 0.0), (0.5, 0.8)), (1.0, 0.4))):
        assert trace_shape_eps(orbit_spectrum(ospec), eps) == 0.0
    # a dyadic scale keeps every u exact, so the full runs cancel too
    spec = Spectrum((LatticeFamily(2.0 ** -10, 2.0 ** -9, "full", 1, 0.7),), kernel_dim=1)
    assert trace_shape_eps(spec, eps) == 0.0
    assert len(closures) == 2 + 4 + 2  # one per run with a shift derivative


@pytest.mark.parametrize("shift", [0.0, 1.0, -2.0])
def test_reg_shape_trace_full_zero_shift(shift):
    # the +n and -n modes cancel, and the zero mode n = -shift sits in the kernel
    spec = Spectrum((LatticeFamily(1.0, shift, "full", 1, 0.7),), kernel_dim=1)
    assert trace_shape_eps(spec, 1e-3) == 0.0
    assert minimality_report(spec).tr_reg_H == 0.0


ROWS = ((2.0, 1, 0.5), (7.5, 3, -1.2))
MIX = compose(finite_spectrum(ROWS), lattice_family(TWO_PI, 1.0, "full", 2, 0.3),
              lattice_family(3.0, 1.2, "positive", 1, -0.7))


def test_reg_shape_trace_mix():
    ref = (mp.fsum(-mp.mpf(mult) * deriv / (2 * lam) for lam, mult, deriv in ROWS)
           + _mp_full(TWO_PI, 1.0, 2, 0.3) + _mp_one_sided(3.0, 1.2, 1, -0.7))
    report = minimality_report(MIX)
    assert abs(report.tr_reg_H - ref) <= 1e-13 * (1 + abs(ref))


def test_reg_shape_trace_is_the_zeta_determinant_slope():
    # Tr_reg_H = -1/2 d/dkappa log Det_zeta = 1/2 d/dkappa zeta'(0), through
    # zeta'(0)'s per-family closed forms (log Gamma, log sin) and gateaux_fd,
    # not through the digamma and cotangent of _reg_shape_trace
    slope, err = gateaux_fd(lambda k: 0.5 * zeta_prime0(deform(MIX, k))[0], 0.0)
    assert minimality_report(MIX).Tr_reg_H == pytest.approx(slope, abs=1e-8 + 10 * err)


def _bench_mix(rng: random.Random) -> Spectrum:
    """A lattice mix as perfbench draws them: one to three explicit rows, a
    shifted full lattice and a shifted one-sided one, every family with a
    derivative along the deformation."""
    rows = [(rng.uniform(0.5, 20.0), rng.randint(1, 3), rng.uniform(-0.5, 0.5))
            for _ in range(rng.randint(1, 3))]
    c_full, c_one = rng.uniform(2.0, 7.0), rng.uniform(2.0, 7.0)

    def shift(scale):
        return scale * rng.uniform(0.05, 0.45) * rng.choice((-1.0, 1.0))

    return compose(finite_spectrum(rows),
                   lattice_family(c_full, shift(c_full), "full", rng.randint(1, 3),
                                  rng.uniform(-1.0, 1.0)),
                   lattice_family(c_one, shift(c_one), "positive", rng.randint(1, 3),
                                  rng.uniform(-1.0, 1.0)))


@pytest.mark.parametrize("seed", range(6))
def test_zeta_prime0_slope_is_twice_the_regularised_trace(seed):
    # the volumes and the certificate describe the same operator: along
    # deform, d/dkappa zeta'(0) = 2*Tr_reg_H = 2*tr_reg_H + gamma*delta_b0,
    # since psi is the derivative of log Gamma and cot that of log sin.  The
    # 4th-order stencil at h = 1e-4 carries 18/(12h) times zeta'(0)'s stated
    # error; its truncation h^4*|f^(5)|/30 is below 1e-13 on these mixes.
    spec = _bench_mix(random.Random(seed))
    h = 1e-4
    values = {k: zeta_prime0(deform(spec, k * h)) for k in (-2, -1, 1, 2)}
    slope = (values[-2][0] - 8.0 * values[-1][0] + 8.0 * values[1][0] - values[2][0]) / (12.0 * h)
    report = minimality_report(spec)
    err = max(e for _, e in values.values())
    assert abs(slope - 2.0 * report.Tr_reg_H) <= 1.5 * err / h + 1e-13


@pytest.mark.parametrize("ospec", [SU2, RANK2])
def test_reg_shape_trace_orbit_sine_product(ospec):
    # Tr_reg_H = -d/ds log vol_zeta, with log vol_zeta = sum_alpha 2 log(2 sin(A/2)/A)
    # (Euler's sine product)
    ref = 0.0
    for a_val, d_val in root_values(ospec):
        a_mp = mp.mpf(a_val)
        ref -= 2 * d_val * (mp.cot(a_mp / 2) / 2 - 1 / a_mp)
    report = minimality_report(orbit_spectrum(ospec, primed=True))
    assert abs(report.Tr_reg_H - ref) <= 1e-14
    assert report.Tr_reg_H == report.tr_reg_H


@st.composite
def _mix(draw):
    """A spectrum of 1-3 families: explicit rows, full and one-sided lattices."""
    families = []
    for kind in draw(st.lists(st.sampled_from(("rows", "full", "one-sided")),
                              min_size=1, max_size=3)):
        rate = draw(st.floats(-1.0, 1.0))
        mult = draw(st.integers(1, 3))
        if kind == "rows":
            families.append(finite_spectrum([(draw(st.floats(0.1, 50.0)), mult, rate)]))
            continue
        scale = draw(st.floats(0.5, 8.0))
        ratio = draw(st.floats(-0.5, 0.5) if kind == "full" else st.floats(-0.9, 3.0))
        side = "full" if kind == "full" else "positive"
        families.append(lattice_family(scale, ratio * scale, side, mult, rate))
    return compose(*families)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(spec=_mix(), log_f=st.floats(-3.0, 5.0))
def test_reg_shape_trace_scale_covariance(spec, log_f):
    # tr H^eps of f*B is tr H^(f*eps) of B, so the finite part moves by the
    # log divergence alone: -1/2 * delta_b_0 * log f
    base = minimality_report(spec)
    scaled = minimality_report(scale_spectrum(spec, math.exp(log_f)))
    expected = base.tr_reg_H - 0.5 * base.delta_b.get(0, 0.0) * log_f
    assert abs(scaled.tr_reg_H - expected) <= 1e-12 * (1 + abs(expected))


# ---------------------------------------------------------------------------
# serialisation


@pytest.mark.parametrize("ospec", [SU2, RANK2, ABELIAN])
def test_orbit_round_trip(ospec):
    assert orbit_from_dict(orbit_to_dict(ospec)) == ospec


def test_orbit_from_dict_malformed():
    with pytest.raises(DomainError):
        orbit_from_dict([1, 2])
    with pytest.raises(DomainError):
        orbit_from_dict({"rank": 1})
    with pytest.raises(DomainError):
        orbit_from_dict({"rank": 1, "positive_roots": [["x"]], "x": [1.0]})
