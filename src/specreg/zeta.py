"""Spectral zeta function and the bridge between the two determinants.

zeta_B(s) = sum mult * lam^(-s) over the positive spectrum, continued in s
through the Mellin transform Gamma(s) zeta_B(s) = int_0^inf t^(s-1)
tr exp(-t*B) dt.  zeta_value reads the trace as Spectrum.poisson and splits
each theta sum_{n in Z} exp(-t*(c*n + sigma)^2) at its own balanced point
t = pi/c^2 (Riemann 1859, in the Chowla-Selberg form; E. Elizalde, *Ten
Physical Applications of Spectral Zeta Functions*, 1995): the part above is
a sum of upper incomplete gammas over n, the part below, by Poisson
summation, the pole term 1/(s - 1/2) plus a sum of incomplete gammas over
the dual index k, and both stop after a handful of terms at every scale
(_split_sums, on spectra's split walk with the incomplete-gamma kernel
_gamma_kernel and table _gamma_table).  An explicit row is exactly
mult*lam^(-s).  The solos,
unpaired shifted one-sided lattices, are their Dirichlet series
(zeta_direct), closed by the Euler-Maclaurin tail of spectra._lattice_sum,
which continues them below s = 1/2.  Nothing here integrates numerically.

zeta_prime0 sums zeta_B'(0) per family: -m*log(lam) per row (lam, m);
m*[(2q - 1)*log(c) + 2*log Gamma(q) - log(2 pi)] per one-sided family
(c, sigma, m), q = 1 + sigma/c (Lerch's formula: Whittaker & Watson 13.21,
DLMF 25.11.18); -2m*log(2*sin(pi*|sigma|/c)) per full one (Kronecker's
limit formula), or 2m*log(c/(2 pi)) at sigma = 0.0, its structural zero.
verify_bridge compares two numbers that share no numerics, these closed
forms and the heat route of regdet:

    -zeta_B'(0)   versus   -gamma*b0' + log det_reg.

zeta_direct is also a route of its own for any spectrum, and
zeta_closed_form (Hurwitz zeta per lattice family) the oracle of both.
hurwitz_zeta keeps its own Euler-Maclaurin tail on purpose: an oracle must
not share code with what it checks.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from math import fsum
from typing import NamedTuple

from .errors import DomainError, NumericError, PoleError
from .special import (
    EULER_GAMMA,
    TWO_PI,
    _GAMMA_INC_ROUNDING,
    _GAMMA_ROUNDING,
    _LGAMMA_ROUNDING,
    _U,
    gamma_fn,
    hurwitz_zeta,
    lower_gamma_scaled,
    upper_gamma_scaled,
)
from .heat_expansion import _coeff_rounding
from .spectra import Spectrum, ThetaKernel, _lattice_sum, _theta_direct, _theta_dual
from .regdet import default_expansion, _log_det_reg, _require_finite

S_RANGE = (-2.0, 30.0)
_SMALLEST_NORMAL = 2.0 ** -1022


class ZetaEvaluation(NamedTuple):
    s: float
    value: float
    error: float
    route: str


def _check_s_range(s: float) -> None:
    if not (S_RANGE[0] - 1e-12 <= s <= S_RANGE[1] + 1e-12):
        raise DomainError(f"s={s!r} outside the supported range {S_RANGE}")


def _check_pole(s: float, spec: Spectrum) -> None:
    """PoleError within 1e-6 of zeta_B's one pole, s = 1/2 when spec has
    lattices (residue b_{-1} > 0)."""
    if spec.lattices and abs(s - 0.5) <= 1e-6:
        raise PoleError(f"s={s!r} is within 1e-6 of the pole at 0.5")


def _gamma_tail(lean: float, x: float, v: float, scale: float) -> float:
    """Bound on sum_{m>=0} g(a, pi*(y + m)^2), g(a, x) = x^(-a) Gamma(a, x),
    for y = v/scale > 0, x = pi*y^2 and lean = max(a - 1, 0); inf unless x >
    lean.  On t >= 1, t^(a-1) <= exp(lean*(t - 1)), so g(a, x) =
    int_1^inf t^(a-1) exp(-x*t) dt <= exp(-x)/(x - lean); and (y + m)^2 >=
    y^2 + 2*y*m makes the exponentials geometric."""
    slack = x - lean
    if not slack > 0.0:
        return math.inf
    return math.exp(-x) / (slack * -math.expm1(-2.0 * math.pi * (v / scale)))


@lru_cache(maxsize=128)
def _dual_gamma(a: float) -> list[tuple[int, float, float, float]]:
    """The dual table at a = 1/2 - s, grown by _gamma_table: entry k holds
    2*g(a, pi*k^2), g(a, x) = x^(-a) Gamma(a, x), its error (with x's 1.35 u
    through d g/d(ln x) = -(a*g + exp(-x)), a's u through 0 <= dg/da <=
    (a*g + exp(-x))/x - g) and 2*_gamma_tail at y = k + 1, a bound
    past k."""
    return []


def _gamma_table(a: float, entries: list, level: float) -> tuple:
    """(rest_0, entries), entries = _dual_gamma(a) grown until the last rest
    is at most `level`, so that a series stopping at that level ends within
    them."""
    lean = max(a - 1.0, 0.0)
    while not entries or entries[-1][3] > level:
        k = len(entries) + 1
        x = math.pi * (k * k)
        g = upper_gamma_scaled(a, x)
        slope = a * g + math.exp(-x)
        err = (_GAMMA_INC_ROUNDING * g + 1.35 * _U * abs(slope)
               + _U * abs(a) * max(0.0, slope / x - g) + _U * g)
        entries.append((k, 2.0 * g, 2.0 * err,
                        2.0 * _gamma_tail(lean, math.pi * (k + 1) * (k + 1), k + 1, 1.0)))
    return math.inf, entries


@lru_cache(maxsize=64)
def _unshifted_gamma(s: float, x: float) -> float:
    """upper_gamma_scaled(s, x) for the direct terms of a shift-0 theta,
    which depend on s and x alone (_gamma_kernel)."""
    return upper_gamma_scaled(s, x)


def _gamma_arg(v: float, scale: float) -> float:
    """x = pi*(v/scale)^2 of a direct term."""
    y = v / scale
    return math.pi * y * y


@lru_cache(maxsize=64)
def _gamma_kernel(s: float, unshifted: bool) -> ThetaKernel:
    """The incomplete-gamma kernel at t = pi/scale^2: g(s, x), x =
    pi*(|u|/scale)^2 (the division, float pi, two products: 4.5 u), its error
    _GAMMA_INC_ROUNDING and x's through d g/d(ln x) = -(s*g + exp(-x)); the
    sides split at the nearest crossing, each side's first term unchecked,
    stopping below 2^-60 of the magnitudes summed (_gamma_tail).  A shift-0
    theta's terms come from _unshifted_gamma."""
    direct = _unshifted_gamma if unshifted else upper_gamma_scaled
    return ThetaKernel(
        _gamma_arg, 4.5, 1.0, 1.0, partial(direct, s),
        lambda g, x, rel: _GAMMA_INC_ROUNDING * g + rel * abs(s * g + math.exp(-x)),
        partial(_gamma_tail, max(s - 1.0, 0.0)), lambda shift, c: -round(shift / c), True, 0.0,
        2.0 ** -60, "pi*(u/scale)^2")


def _split_sums(spec: Spectrum, s: float) -> tuple[float, float, float, float]:
    """(Gamma(s) zeta(s) of the thetas of Spectrum.poisson, each less the
    n = 0 term it removes, its error, zeta(s) of the explicit rows, its
    error); the solos are left out.

    Each theta (w, c, sigma, removed) is w*(pi/c^2)^s, formed as
    w*pi^s*c^(-2s), times its bracket B, its Mellin transform split at t =
    pi/c^2 (Chowla-Selberg).  With q = sigma/c and g(a, x) = x^(-a) Gamma(a,
    x), the part above is g(s, pi*(n + q)^2) per n (_gamma_kernel), and
    Poisson summation of the part below the pole term 1/(s - 1/2) plus
    2*cos(2*pi*k*q)*g(1/2 - s, pi*k^2) per k >= 1 (_gamma_table, the angle
    from the exact remainder of sigma modulo c), both stopping below 2^-60
    of the magnitudes summed.  The removed n = 0 term is -x^(-s) gamma(s,
    x) at x = pi*q^2 (special.lower_gamma_scaled), without forming a
    difference.  The pole term states 2 u, the removed one its own error and
    x's 4.5 u, and B half an ulp.  Every explicit row (lam, mult) is
    mult*lam^(-s) exactly.
    """
    parts, errs = [], []
    pole, a = 1.0 / (s - 0.5), 0.5 - s
    entries = _dual_gamma(a)
    for weight, scale, shift, removed in spec.poisson.thetas:
        kernel = _gamma_kernel(s, shift == 0.0)
        terms, term_errs, magnitude = [pole], [2.0 * _U * abs(pole)], abs(pole)
        if removed:
            x = _gamma_arg(abs(shift), scale)
            lower, lower_err = lower_gamma_scaled(s, x)
            terms.append(-lower)
            term_errs.append(lower_err + kernel.ops * _U * abs(math.exp(-x) - s * lower))
            magnitude += abs(lower)
        direct, direct_errs, magnitude = _theta_direct(kernel, scale, shift, magnitude, removed)
        dual, dual_errs = _theta_dual(_gamma_table(a, entries, 2.0 ** -60 * magnitude), scale,
                                      math.remainder(shift, scale), 0.0, 2.0 ** -60, magnitude)
        bracket = fsum(terms + direct + dual)
        bracket_err = fsum(term_errs + direct_errs + dual_errs) + _U * abs(bracket)
        prefactor = weight * math.pi ** s * scale ** (-2.0 * s)
        parts.append(prefactor * bracket)
        # pi^s: float pi (0.35 u) times |s| and one ulp; c^(-2s) one ulp;
        # three products
        errs.append(abs(prefactor) * bracket_err
                    + (0.35 * abs(s) + 7.0) * _U * abs(parts[-1]))
    direct = [mult * lam ** -s for lam, mult, _ in spec.rows]
    mellin = fsum(parts)
    return (mellin, fsum(errs) + _U * abs(mellin),
            fsum(direct), 4.0 * _U * fsum(map(abs, direct)))


def zeta_value(spec: Spectrum, s: float) -> ZetaEvaluation:
    """zeta_B(s) in closed form; route tag "mellin-split".

    Every theta of Spectrum.poisson and every explicit row is a closed form
    (_split_sums), and the solos are their Dirichlet series (zeta_direct),
    which restricts a spectrum with solos to s > -1.  Rejects s within 1e-6
    of the lattice pole (_check_pole) and of the non-positive Gamma poles.
    A term beyond the double range raises NumericError.
    """
    _check_s_range(s)
    spec.lam0  # DomainError or NumericError before any sum meets it
    _check_pole(s, spec)
    if s < 0.5 and abs(s - round(s)) <= 1e-6 and round(s) <= 0:
        raise PoleError(f"s={s!r} is within 1e-6 of a Gamma pole")
    try:
        mellin, mellin_err, direct, direct_err = _split_sums(spec, s)
    except OverflowError as exc:
        raise NumericError(f"a term of zeta({s!r}) overflows") from exc
    solo = zeta_direct(Spectrum(spec.poisson.solos), s)
    inv_gamma = 1.0 / gamma_fn(s)
    scaled = inv_gamma * mellin
    value = fsum((direct, scaled, solo.value))
    err = (abs(inv_gamma) * mellin_err + (_GAMMA_ROUNDING + 3.0 * _U) * abs(scaled)
           + direct_err + solo.error + 0.5 * math.ulp(value))
    _require_finite(value, err, f"zeta({s!r})")
    return ZetaEvaluation(s=s, value=value, error=err, route="mellin-split")


def zeta_direct(spec: Spectrum, s: float) -> ZetaEvaluation:
    """Dirichlet series summed directly with an Euler-Maclaurin tail per
    lattice run (spectra._lattice_sum); route "direct-sum".

    Exact for explicit spectra at any s.  A lattice family needs s > -1 away
    from its pole at 1/2; below 1/2 the closure continues each run's
    divergent series, as the Hurwitz zeta function's Euler-Maclaurin formula
    does.  A family's runs share the budget u*mult*lam^(-s), lam its
    smallest eigenvalue, so the remainder is below u/32 of that term (an
    underflowed term leaves the smallest normal double, which every term is
    then below).  The error adds the runs' remainder and rounding bounds,
    two u per row term (pow and the product with mult) and half an ulp for
    the exactly rounded sum.  A term beyond the double range raises
    NumericError.
    """
    if spec.lattices and not s > -1.0:
        raise DomainError(f"direct summation of a lattice needs s > -1, got {s!r}")
    _check_pole(s, spec)
    try:
        parts = [mult * lam ** (-s) for lam, mult, _ in spec.rows]
        err = 2.0 * _U * fsum(parts)
        for fam in spec.lattices:
            first = fam.mult * Spectrum((fam,)).lam0 ** -s
            terms, bound = _lattice_sum(fam, "power", 2.0 * s,
                                        max(_U * first, _SMALLEST_NORMAL))
            parts.extend(terms)
            err += bound
    except OverflowError as exc:
        raise NumericError(f"a term of zeta({s!r}) overflows") from exc
    value = fsum(parts)
    return ZetaEvaluation(s=s, value=value, error=err + 0.5 * math.ulp(value),
                          route="direct-sum")


def zeta_closed_form(spec: Spectrum, s: float) -> ZetaEvaluation:
    """Hurwitz-zeta closed form per lattice family; route "closed-form-oracle".

    positive side: mult * scale^(-2s) * zeta_H(2s, (scale + shift)/scale);
    full side:     mult * scale^(-2s) * [zeta_H(2s, q) + zeta_H(2s, 1-q)]
    with q = |sigma|/scale and 1 - q = (scale - |sigma|)/scale, sigma the
    reduced shift (LatticeFamily), and 2*zeta_H(2s, 1) when sigma is 0.0,
    a structural zero.  Each q is good to the 2u that hurwitz_zeta's
    bound takes in; a row adds 3u, a family 5u (the power and products), the
    sum half an ulp.  Valid for 2s >= -2 away from s = 1/2.
    """
    if abs(s - 0.5) < 1e-9:
        raise PoleError("spectral zeta of a lattice has its pole at s = 1/2")
    parts = [mult * lam ** (-s) for lam, mult, _ in spec.rows]
    errs = [3.0 * _U * abs(part) for part in parts]
    for fam in spec.lattices:
        c = fam.scale
        c2s = fam.mult * c ** (-2.0 * s)
        if fam.side == "positive":
            qs = [(c + fam.shift) / c]
        else:
            sigma = abs(fam.shift)
            qs = [1.0, 1.0] if sigma == 0.0 else [sigma / c, (c - sigma) / c]
        hurwitz = [hurwitz_zeta(2.0 * s, q) for q in qs]
        parts.append(c2s * fsum(value for value, _ in hurwitz))
        errs.append(abs(c2s) * fsum(err for _, err in hurwitz) + 5.0 * _U * abs(parts[-1]))
    value = fsum(parts)
    return ZetaEvaluation(s=s, value=value, error=fsum(errs) + 0.5 * math.ulp(value),
                          route="closed-form-oracle")


def zeta_prime0(spec: Spectrum) -> tuple[float, float]:
    """zeta_B'(0) per family in closed form (module docstring); returns
    (value, err).

    The error takes, u = 2^-53: 3u of a row's term; for a one-sided family
    4u of (2q - 1)*log c, _LGAMMA_ROUNDING of max(1, |log Gamma(q)|) twice,
    3u of log(2 pi), and q = (c + sigma)/c's 2u relative through d/dq =
    2*log c + 2*psi(q), |q*psi(q)| <= 1 + q*(1 + |log q|); for a full family
    its sine's argument's 2.35u relative (theta*cot(theta) <= 1), the sine's
    ulp and the log's; a u per family sum and product, and half an ulp.
    """
    spec.lam0  # DomainError or NumericError, as every route raises
    log_2pi = math.log(TWO_PI)
    terms, errs = [], []
    for lam, mult, _ in spec.rows:
        terms.append(-mult * math.log(lam))
        errs.append(3.0 * _U * abs(terms[-1]))
    for fam in spec.lattices:
        c, m = fam.scale, fam.mult
        if fam.side == "positive":
            q = (c + fam.shift) / c
            log_c, log_gamma = math.log(c), math.lgamma(q)
            parts = ((2.0 * q - 1.0) * log_c, 2.0 * log_gamma, -log_2pi)
            terms.append(m * fsum(parts))
            q_psi = 1.0 + q * (1.0 + abs(math.log(q)))
            errs.append(m * (4.0 * _U * abs(parts[0])
                             + 2.0 * _LGAMMA_ROUNDING * max(1.0, abs(log_gamma))
                             + 3.0 * _U * log_2pi
                             + 4.0 * _U * (q * abs(log_c) + q_psi))
                        + 2.0 * _U * abs(terms[-1]))
        elif fam.shift == 0.0:
            log_ratio = math.log(c / TWO_PI)
            terms.append(2.0 * m * log_ratio)
            errs.append(2.0 * m * (1.35 + 2.0 * abs(log_ratio)) * _U + _U * abs(terms[-1]))
        else:
            theta = math.pi * (abs(fam.shift) / c)
            log_sine = math.log(2.0 * math.sin(theta))
            terms.append(-2.0 * m * log_sine)
            errs.append(2.0 * m * (4.35 + 2.0 * abs(log_sine)) * _U + _U * abs(terms[-1]))
    value = fsum(terms)
    return value, fsum(errs) + 0.5 * math.ulp(value)


class BridgeReport(NamedTuple):
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


def verify_bridge(spec: Spectrum, abs_tol: float | None = None) -> BridgeReport:
    """Check the determinant bridge on one spectrum; primed throughout.

    passed uses the threshold `abs_tol` when given, else twice the combined
    error budget of the two routes.  The heat route's adds gamma times b0's
    rounding, u each for float gamma and the product, and the sum's half ulp.
    """
    exp = default_expansion(spec)
    zp, zeta_err = zeta_prime0(spec)
    heat, heat_err = _log_det_reg(spec, exp)
    zeta_route = -zp
    heat_route = -EULER_GAMMA * exp.b0 + heat
    heat_err += (EULER_GAMMA * _coeff_rounding(spec, exp)[0]
                 + 2.0 * _U * abs(EULER_GAMMA * exp.b0) + 0.5 * math.ulp(heat_route))
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
