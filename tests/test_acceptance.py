"""Acceptance gate: ten end-to-end checks, one PASS/FAIL line each.

Each check prints a single status line (visible with pytest -s or in failure
reports) and then asserts.  Two checks encode an expected-constancy property
of the preregularised orbit volume along the orbit parameter that the
implemented shifted-lattice model does not satisfy; they fail with the
measured numbers in the assertion message and are documented in README.md.
"""

from __future__ import annotations

import math
import time

import pytest

from specreg import (
    EULER_GAMMA,
    LoopGroupOrbitSpec,
    analytic_expansion,
    build_report,
    deform,
    euler_gamma_integral,
    finite_spectrum,
    fit_expansion,
    gateaux_fd,
    heat_trace,
    heat_trace_theta,
    hurwitz_zeta_prime0,
    lattice_family,
    log_det_eps,
    log_det_reg,
    minimality_report,
    orbit_spectrum,
    verify_bridge,
    verify_remainder_bound,
    vol_eps,
    vol_reg,
)

TWO_PI = 2.0 * math.pi
SQRT_PI = math.sqrt(math.pi)


def logspace(lo: float, hi: float, num: int) -> list[float]:
    """num points from 10^lo to 10^hi, evenly spaced in the exponent."""
    return [10.0 ** (lo + (hi - lo) * k / (num - 1)) for k in range(num)]


FIN23 = finite_spectrum([(2.0, 1), (3.0, 1)])
ONE0 = lattice_family(TWO_PI, 0.0, "positive", 1)
ONEPI = lattice_family(TWO_PI, math.pi, "positive", 1)
FULLPI3 = lattice_family(TWO_PI, math.pi / 3.0, "full", 1)
FULLPI = lattice_family(TWO_PI, math.pi, "full", 1)
SU2 = LoopGroupOrbitSpec(1, ((1.0,),), (1.0,), 0.25)
RANK2 = LoopGroupOrbitSpec(2, ((1.0, 0.0), (0.5, 0.8)), (1.0, 0.4), 0.2)

LATTICE_BUILTINS = (
    ("one-sided-0", ONE0),
    ("one-sided-pi", ONEPI),
    ("full-pi3", FULLPI3),
    ("full-pi", FULLPI),
    ("orbit-su2", orbit_spectrum(SU2, primed=True)),
    ("orbit-rank2", orbit_spectrum(RANK2, primed=True)),
)

ALL_BUILTINS = (("finite-23", FIN23),) + LATTICE_BUILTINS


def _status(name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_euler_constant_two_routes():
    t0 = time.perf_counter()
    value, err = euler_gamma_integral()
    dt = time.perf_counter() - t0
    dev = abs(value - 0.5772156649015329)
    _status("01 euler-constant", dev <= 1e-10 and dt < 1.0,
            f"dev={dev:.3e} err={err:.1e} dt={dt:.3f}s")
    assert dev <= 1e-10
    assert dt < 1.0


def test_02_explicit_determinant_limit():
    t0 = time.perf_counter()
    head = 2.0 * EULER_GAMMA + math.log(6.0)
    devs = {eps: abs(log_det_eps(FIN23, eps) - 2.0 * math.log(eps) - head)
            for eps in (1e-3, 1e-4, 1e-5)}
    report = build_report(FIN23)
    zeta_dev = abs(report.log_det_zeta - math.log(6.0))
    dt = time.perf_counter() - t0
    ok = all(d <= 5.0 * eps for eps, d in devs.items()) and zeta_dev <= 1e-8
    _status("02 explicit-limit", ok and dt < 1.0,
            f"cutoff devs={ {e: f'{d:.2e}' for e, d in devs.items()} } "
            f"zeta dev={zeta_dev:.2e} dt={dt:.3f}s")
    for eps, d in devs.items():
        assert d <= 5.0 * eps, f"cutoff deviation {d!r} at eps={eps}"
    assert zeta_dev <= 1e-8
    assert dt < 1.0


def test_03_zero_shift_lattice_closed_form():
    t0 = time.perf_counter()
    report = build_report(ONE0)
    dev_zeta = abs(report.log_det_zeta - 0.0)
    dev_reg = abs(report.log_det_reg - (-0.5 * EULER_GAMMA))
    dt = time.perf_counter() - t0
    _status("03 zero-shift-lattice", max(dev_zeta, dev_reg) <= 1e-6 and dt < 5.0,
            f"|log_Det|={dev_zeta:.2e} |log_det+gamma/2|={dev_reg:.2e} dt={dt:.2f}s")
    assert dev_zeta <= 1e-6
    assert dev_reg <= 1e-6
    assert dt < 5.0


def test_04_twisted_full_lattice_sine_formula():
    t0 = time.perf_counter()
    devs = {}
    for theta, spec in ((math.pi / 3.0, FULLPI3), (math.pi, FULLPI)):
        oracle = math.log(4.0 * math.sin(0.5 * theta) ** 2)
        q = theta / TWO_PI
        hurwitz_oracle = -2.0 * (hurwitz_zeta_prime0(q) + hurwitz_zeta_prime0(1.0 - q))
        assert abs(oracle - hurwitz_oracle) <= 1e-10
        devs[theta] = abs(build_report(spec).log_det_zeta - oracle)
    dt = time.perf_counter() - t0
    ok = all(d <= 1e-6 for d in devs.values())
    _status("04 twisted-lattice", ok and dt < 5.0,
            f"devs={[f'{d:.2e}' for d in devs.values()]} dt={dt:.2f}s")
    for theta, d in devs.items():
        assert d <= 1e-6, f"theta={theta}: deviation {d!r}"
    assert dt < 5.0


def test_05_determinant_bridge_all_builtins():
    t0 = time.perf_counter()
    worst_disc, worst_budget = 0.0, 0.0
    for name, spec in ALL_BUILTINS:
        report = verify_bridge(spec)
        assert report.passed, f"{name}: discrepancy {report.discrepancy!r} " \
                              f"vs threshold {report.threshold!r}"
        assert abs(report.discrepancy) <= 2.0 * report.budget
        assert report.budget <= 1e-6, f"{name}: budget {report.budget!r}"
        worst_disc = max(worst_disc, abs(report.discrepancy))
        worst_budget = max(worst_budget, report.budget)
    dt = time.perf_counter() - t0
    _status("05 determinant-bridge", dt < 30.0,
            f"{len(ALL_BUILTINS)} spectra, worst disc={worst_disc:.2e} "
            f"worst budget={worst_budget:.2e} dt={dt:.2f}s")
    assert dt < 30.0


def test_06_expansion_extraction():
    # fit window sits below the scale where the dual (Poisson) terms of this
    # lattice wake up, so the power-law fit sees pure expansion + noise
    fit = fit_expansion(ONE0, logspace(-4, -2, 25))
    dev_m1 = abs(fit.coeffs[-1] - 1.0 / (4.0 * SQRT_PI))
    dev_0 = abs(fit.coeffs[0] - (-0.5))
    worst_fit = verify_remainder_bound(ONE0, fit, logspace(-4, -2, 40))
    analytic = analytic_expansion(ONE0)
    worst_an = verify_remainder_bound(ONE0, analytic, logspace(-4, 0, 40))
    ok = (dev_m1 <= 1e-4 and dev_0 <= 1e-4
          and worst_fit <= fit.remainder_bound
          and worst_an <= analytic.remainder_bound)
    _status("06 expansion-extraction", ok,
            f"d(b-1)={dev_m1:.2e} d(b0)={dev_0:.2e} fitted C={fit.remainder_bound:.2e}")
    assert dev_m1 <= 1e-4
    assert dev_0 <= 1e-4
    assert worst_fit <= fit.remainder_bound
    assert worst_an <= analytic.remainder_bound


def test_07_strong_minimality():
    failures = []
    for name, ospec in (("r1", SU2), ("r2", RANK2)):
        report = minimality_report(ospec, eps_grid=(0.1, 0.01, 0.001))
        for eps, tr in zip(report.eps_grid, report.tr_H_eps):
            if abs(tr) > 1e-12:
                failures.append(f"{name}: |tr H^eps|={abs(tr):.3e} at eps={eps}")
        if abs(report.tr_reg_H) > 1e-10:
            failures.append(f"{name}: tr_reg={report.tr_reg_H:.3e}")
        if abs(report.Tr_reg_H) > 1e-10:
            failures.append(f"{name}: Tr_reg={report.Tr_reg_H:.3e}")
        # volume-slope clause: the smoothed-trace side is 0 (above), so the
        # finite-difference side must vanish too
        for s_point in (0.1, 0.25):
            base = orbit_spectrum(ospec._replace(s=s_point), primed=True)
            for eps in (0.1, 0.01):
                fd, _ = gateaux_fd(
                    lambda k: 0.5 * log_det_eps(deform(base, k), eps),
                    0.0, step=1e-3)
                if abs(fd) > 1e-6:
                    failures.append(
                        f"{name}: volume slope {fd:+.6e} at s={s_point}, eps={eps}")
    _status("07 strong-minimality", not failures,
            "all clauses hold" if not failures else "; ".join(failures))
    assert not failures, (
        "smoothed-trace clauses hold (exact zeros), but the cutoff volume is "
        "not stationary along the deformation: " + "; ".join(failures))


def test_08_volume_constancy():
    s_grid = (0.1, 0.2, 0.3, 0.4, 0.5)
    spreads = {}
    for eps in (0.1, 0.01):
        vols = [vol_eps(SU2._replace(s=s), eps) for s in s_grid]
        spreads[f"vol_eps(eps={eps})"] = (max(vols) - min(vols)) / min(vols)
    logs = [math.log(vol_reg(SU2._replace(s=s))) for s in s_grid]
    spreads["log vol_reg"] = max(logs) - min(logs)
    failures = [f"{key} spread {val:.6e}" for key, val in spreads.items()
                if val > (1e-8 if key.startswith("vol_eps") else 1e-6)]
    _status("08 volume-constancy", not failures,
            "; ".join(f"{k}={v:.3e}" for k, v in spreads.items()))
    assert not failures, (
        "preregularised volume varies along the orbit parameter: "
        + "; ".join(failures))


def test_09_heat_trace_dual_route():
    grid = logspace(-4, 0, 40)
    worst_mixed = 0.0
    worst_name = ""
    for name, spec in LATTICE_BUILTINS:
        for t in grid:
            direct = heat_trace(spec, float(t))
            theta = heat_trace_theta(spec, float(t))
            mixed = abs(direct - theta) / (1.0 + abs(direct))
            if mixed > worst_mixed:
                worst_mixed, worst_name = mixed, f"{name}@t={t:.1e}"
            assert mixed <= 1e-12, \
                f"{name}: |direct-theta|={abs(direct - theta):.3e} at t={t!r}"
            if abs(direct) >= 1e-2:
                assert abs(direct - theta) <= 1e-12 * abs(direct)
    _status("09 dual-route", True, f"worst mixed dev={worst_mixed:.2e} ({worst_name})")


def test_10_deformation_trace_identity():
    syn = lattice_family(TWO_PI, math.pi, "positive", 1, 1.0)
    db0 = analytic_expansion(syn).coeff_derivatives[0]
    assert db0 == -1.0 / TWO_PI
    report = minimality_report(syn)
    resid = report.Tr_reg_H - report.tr_reg_H - 0.5 * EULER_GAMMA * db0
    _status("10 deformation-identity", abs(resid) <= 1e-8,
            f"residual={resid:.3e} delta_b0={db0!r}")
    assert abs(resid) <= 1e-8
