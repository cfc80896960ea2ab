"""Spectral zeta function and the bridge between the two determinants.

zeta_B(s) = sum mult * lam^(-s) over the positive spectrum, continued in s
through the Mellin split

    Gamma(s) zeta_B(s) = sum_j b_j / (j/m + s)
                        + int_1^inf t^(s-1) tr exp(-t*B) dt
                        + int_0^1 t^(s-1) F(t) dt.

zeta_prime0 evaluates zeta_B'(0) = gamma*b0' + sum_{j!=0} m*b_j/j + I1 + I0
with the upper integral done through the exact identity
int_1^inf tr exp(-t*B)/t dt = sum mult*E1(lam) and the lower one by
Gauss-Kronrod panels over the remainder — deliberately different numerics
from the heat route in regdet, which sums the lower integral in closed form
per family, so verify_bridge compares two independently computed numbers:

    -zeta_B'(0)   versus   -gamma*b0' + log det_reg.

zeta_direct (the Dirichlet series, each lattice run closed by the shared
Euler-Maclaurin tail of spectra._lattice_sum) and zeta_closed_form (Hurwitz
zeta per lattice family) are further routes used for cross-checks.
hurwitz_zeta keeps its own Euler-Maclaurin tail on purpose: zeta_closed_form
is zeta_direct's oracle, so the two must not share code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

from .errors import DomainError, PoleError
from .special import EULER_GAMMA, gamma_fn, hurwitz_zeta, _U
from .heat_expansion import HeatExpansion
from .spectra import Spectrum, min_eigenvalue, _lattice_sum, _tail_budget
from .regdet import (
    counterterms,
    default_expansion,
    log_det_reg,
    mellin_lower,
    _e1_sum,
    _mellin_upper,
    _require_finite,
)

S_RANGE = (-2.0, 30.0)


@dataclass(frozen=True)
class ZetaEvaluation:
    s: float
    value: float
    error: float
    route: str


def _check_s_range(s: float) -> None:
    if not (S_RANGE[0] - 1e-12 <= s <= S_RANGE[1] + 1e-12):
        raise DomainError(f"s={s!r} outside the supported range {S_RANGE}")


def _check_poles(s: float, exp: HeatExpansion) -> None:
    for j, b in exp.coeffs.items():
        if b == 0.0:
            continue  # zero residue: the candidate pole at -j/m is removable
        if abs(s + j / exp.m) <= 1e-6:
            raise PoleError(f"s={s!r} is within 1e-6 of the pole at {-j / exp.m}")
    if s < 0.5 and abs(s - round(s)) <= 1e-6 and round(s) <= 0:
        raise PoleError(f"s={s!r} is within 1e-6 of a Gamma pole")


def zeta_value(spec: Spectrum, s: float, exp: HeatExpansion | None = None) -> ZetaEvaluation:
    """zeta_B(s) by the Mellin split; route tag "mellin-split".

    Rejects s within 1e-6 of the poles -j/m and of the non-positive Gamma
    poles.  Spectra whose remainder is only O(t) (shifted one-sided or
    explicit families) are restricted to s > -1 by the lower integral.
    """
    _check_s_range(s)
    if exp is None:
        exp = default_expansion(spec)
    if exp.includes_kernel:
        raise DomainError("zeta continuation needs a kernel-free (primed) expansion")
    _check_poles(s, exp)
    pole_part = fsum(b / (j / exp.m + s)
                     for j, b in sorted(exp.coeffs.items()) if b != 0.0)
    upper, err_up = _mellin_upper(spec, s)
    lower, err_low = mellin_lower(spec, exp, s, "gauss-kronrod")
    inv_gamma = 1.0 / gamma_fn(s)
    value = inv_gamma * (pole_part + upper + lower)
    err = abs(inv_gamma) * (err_up + err_low) + 1e-15 * abs(value)
    _require_finite(value, err, f"zeta({s!r})")
    return ZetaEvaluation(s=s, value=value, error=err, route="mellin-split")


def zeta_direct(spec: Spectrum, s: float) -> ZetaEvaluation:
    """Dirichlet series summed directly with an Euler-Maclaurin tail per
    lattice run (spectra._lattice_sum); route "direct-sum".

    Exact for explicit spectra at any s; lattice families require s > 0.55.
    Each run's head is long enough that the B16 remainder is below u =
    2^-53 times the largest term, lam_min^(-s), shared over the families'
    runs.  The error adds the runs' remainder and rounding bounds, two u
    per row term (pow and the product with mult) and half an ulp for the
    exactly rounded sum.
    """
    if spec.lattices and not s > 0.55:
        raise DomainError("direct summation of a lattice needs s > 0.55")
    parts = [mult * lam ** (-s) for lam, mult, _ in spec.rows]
    err = 2.0 * _U * fsum(parts)
    if spec.lattices:
        budget = _tail_budget(spec, _U * min_eigenvalue(spec) ** -s)
        for fam in spec.lattices:
            terms, bound = _lattice_sum(fam, "power", 2.0 * s, budget)
            parts.extend(terms)
            err += bound
    value = fsum(parts)
    return ZetaEvaluation(s=s, value=value, error=err + 0.5 * math.ulp(value),
                          route="direct-sum")


def zeta_closed_form(spec: Spectrum, s: float) -> ZetaEvaluation:
    """Hurwitz-zeta closed form per lattice family; route "closed-form-oracle".

    positive side: mult * scale^(-2s) * zeta_H(2s, 1 + shift/scale);
    full side:     mult * scale^(-2s) * [zeta_H(2s, q) + zeta_H(2s, 1-q)]
    with q = |shift|/scale (and 2*zeta_H(2s, 1) at zero shift).  Valid for
    2s >= -2 away from s = 1/2.
    """
    if abs(s - 0.5) < 1e-9:
        raise PoleError("spectral zeta of a lattice has its pole at s = 1/2")
    parts = [mult * lam ** (-s) for lam, mult, _ in spec.rows]
    for fam in spec.lattices:
        c2s = fam.scale ** (-2.0 * s)
        if fam.side == "positive":
            parts.append(fam.mult * c2s * hurwitz_zeta(2.0 * s, 1.0 + fam.shift / fam.scale))
        elif fam.shift == 0.0:
            parts.append(2.0 * fam.mult * c2s * hurwitz_zeta(2.0 * s, 1.0))
        else:
            q = abs(fam.shift) / fam.scale
            parts.append(fam.mult * c2s * (hurwitz_zeta(2.0 * s, q)
                                           + hurwitz_zeta(2.0 * s, 1.0 - q)))
    return ZetaEvaluation(s=s, value=fsum(parts), error=5e-13, route="closed-form-oracle")


def zeta_prime0(spec: Spectrum, exp: HeatExpansion | None = None) -> tuple[float, float]:
    """zeta_B'(0) = gamma*b0' + sum_{j!=0} m*b_j/j + I1 + I0; returns (value, err).

    I1 through the E1-sum identity, I0 by Gauss-Kronrod panels (numerics
    independent of the heat-route determinant).
    """
    if exp is None:
        exp = default_expansion(spec)
    if exp.includes_kernel:
        raise DomainError("zeta continuation needs a kernel-free (primed) expansion")
    min_eigenvalue(spec)  # NumericError before E1 meets an underflowed eigenvalue
    upper, tail_err = _e1_sum(spec, 1.0)
    lower, err_low = mellin_lower(spec, exp, 0.0, "gauss-kronrod")
    value = EULER_GAMMA * exp.b0 + fsum(counterterms(exp).values()) + upper + lower
    return value, tail_err + err_low


@dataclass(frozen=True)
class BridgeReport:
    """Comparison of -zeta'(0) against -gamma*b0' + log det_reg."""

    zeta_route: float
    heat_route: float
    discrepancy: float
    zeta_error: float
    heat_error: float
    budget: float
    threshold: float
    passed: bool
    b0_primed: float
    kernel_dim: int


def verify_bridge(spec: Spectrum, exp: HeatExpansion | None = None,
                  abs_tol: float | None = None) -> BridgeReport:
    """Check the determinant bridge on one spectrum; primed throughout.

    passed uses the threshold `abs_tol` when given, else twice the combined
    error budget of the two routes.
    """
    if exp is None:
        exp = default_expansion(spec)
    zp, zeta_err = zeta_prime0(spec, exp)
    heat, heat_err = log_det_reg(spec, exp)
    zeta_route = -zp
    heat_route = -EULER_GAMMA * exp.b0 + heat
    discrepancy = abs(zeta_route - heat_route)
    budget = zeta_err + heat_err + 1e-14
    threshold = abs_tol if abs_tol is not None else 2.0 * budget
    return BridgeReport(
        zeta_route=zeta_route,
        heat_route=heat_route,
        discrepancy=discrepancy,
        zeta_error=zeta_err,
        heat_error=heat_err,
        budget=budget,
        threshold=threshold,
        passed=discrepancy <= threshold,
        b0_primed=exp.b0,
        kernel_dim=spec.kernel_dim,
    )


def bridge_to_dict(report: BridgeReport) -> dict:
    return {
        "zeta_route": report.zeta_route,
        "heat_route": report.heat_route,
        "discrepancy": report.discrepancy,
        "zeta_error": report.zeta_error,
        "heat_error": report.heat_error,
        "budget": report.budget,
        "threshold": report.threshold,
        "passed": report.passed,
        "b0_primed": report.b0_primed,
        "kernel_dim": report.kernel_dim,
    }
