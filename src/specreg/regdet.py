"""Heat-kernel regularised determinants.

The cutoff determinant multiplies per-eigenvalue factors h_eps(lam) =
exp(-E1(eps*lam)), so log det_eps = -sum mult*E1(eps*lam) over the positive
spectrum.  Each lattice run of that sum (_e1_sum) is summed directly for a
head and closed by the Euler-Maclaurin tail of spectra._lattice_sum, so it
costs a bounded number of E1 calls whatever eps*scale^2 is.  As eps -> 0 it
diverges like the counterterm sum; the regularised determinant is the
closed form

    log det_reg = - sum_{j != 0} m*b_j/j
                  - int_1^inf tr exp(-t*B) dt/t
                  - int_0^1 F(t) dt/t,

with b_j and F from the spectrum's own expansion (default_expansion), the
only one these routes take.  The upper integral is the same E1 sum at
eps = 1, since int_1^inf exp(-lam*t) dt/t = E1(lam) (A&S 5.1.1).  The lower
one is a closed form from Spectrum.poisson (_lower_closed_form): each
theta's Poisson dual terms integrate to an erfc series, and each
exponential to Ein = gamma + log + E1.  Only the solos (unpaired shifted
one-sided families) go through mellin_lower's tanh-sinh panels.  It then
verifies that the cutoff determinant approaches the matching asymptote
value + sum_{j<0} (m*b_j/j) eps^{j/m} + b_0*ln(eps) on a decreasing eps
sequence, scaled down for lattice scales above 10*pi (_verify_eps; a
non-divergence check on the expansion; the deviations measure
|int_0^eps F/t|, not numerical error, so they are not folded into the
reported error bound).  The guard and the upper integral share _e1_sum:
what the guard checks is that the E1 sums at eps and at 1 differ by the
counterterms, b_0*ln(eps) and the lower integral's dual series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Sequence

from .errors import DomainError, NumericError
from .quadrature import tanh_sinh
from .special import EULER_GAMMA, exp_integral_e1, _ein, _E1_ROUNDING, _U
from .heat_expansion import (
    HeatExpansion,
    finite_expansion,
    mellin_cutoff_integral,
    remainder_fn,
    _analytic_coeffs,
    _solo_rounding,
)
from .spectra import (
    Spectrum,
    min_eigenvalue,
    _dual_mellin,
    _lattice_sum,
    _tail_budget,
)


def default_expansion(spec: Spectrum) -> HeatExpansion:
    """finite_expansion for explicit-only spectra, otherwise the coefficients
    of analytic_expansion without its scan of C (left at 0.0): the one
    expansion that the determinant and zeta routes take."""
    if spec.families and not spec.lattices:
        return finite_expansion(spec)
    return _analytic_coeffs(spec)


def _e1_sum(spec: Spectrum, eps: float) -> tuple[float, float]:
    """(sum mult*E1(eps*lam) over the positive spectrum, error bound).

    Each lattice run goes through spectra._lattice_sum: a short run is
    summed directly and bounds its omitted tail by the Gaussian heat-trace
    tail over eps*lam at the first omitted index (E1(x) <= exp(-x)/x); a
    long one sums a head directly and closes the rest with an
    Euler-Maclaurin tail, so it costs O(1) E1 calls whatever eps*scale^2 is,
    and bounds the remainder and the rounding.  An explicit row's term
    carries _E1_ROUNDING and u for the product with its multiplicity (E1's
    160 u also absorbs the rounding of eps*lam where E1 is not negligible,
    as in _lattice_sum), and the exactly rounded sum half an ulp.
    min_eigenvalue raises NumericError first when the smallest eigenvalue
    underflows to 0.0, where E1 has no value.
    """
    min_eigenvalue(spec)
    budget = _tail_budget(spec)
    terms = [mult * exp_integral_e1(eps * lam) for lam, mult, _ in spec.rows]
    err = (_E1_ROUNDING + _U) * fsum(map(abs, terms))
    for fam in spec.lattices:
        fam_terms, fam_bound = _lattice_sum(fam, "e1", eps, budget)
        terms.extend(fam_terms)
        err += fam_bound
    value = fsum(terms)
    return value, err + 0.5 * math.ulp(value)


def log_det_eps(spec: Spectrum, eps: float) -> float:
    """log of the cutoff determinant over the positive (kernel-free)
    spectrum, -sum mult*E1(eps*lam), with lattice runs closed and certified
    as in _e1_sum.
    """
    if not eps > 0.0:
        raise DomainError(f"cutoff parameter must be positive, got {eps!r}")
    return -_e1_sum(spec, eps)[0]


def counterterms(exp: HeatExpansion) -> dict[int, float]:
    """Divergent-part coefficients of -log det_eps: j -> m*b_j/j for j != 0."""
    return {j: exp.m * b / j for j, b in sorted(exp.coeffs.items()) if j != 0}


def _require_finite(value: float, err: float, what: str) -> None:
    """NumericError if the value or its error is NaN or infinite."""
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NumericError(f"{what} is not finite: {value!r} with error {err!r}")


# mellin_lower's panel edges above delta: every second decade up to 1e-2
_EDGES = tuple(float(f"1e-{k}") for k in range(322, 0, -2)) + (1e-1, 1.0)
# the deltas mellin_lower tries for the series closure of [0, delta], largest
# first, and how many of them: without explicit rows, 1e-2 down to 1e-30
_DELTAS = tuple(float(f"1e-{k}") for k in range(2, 324))
_DELTA_TRIES = 29


def mellin_lower(spec: Spectrum) -> tuple[float, float]:
    """int_0^1 F(t) dt/t with F the remainder of default_expansion; the one
    part of log_det_reg's lower integral without a closed form, which takes
    it for its solos.

    [0, delta] is closed with the exact small-time series integral
    (mellin_cutoff_integral), at the largest decade delta <= 1e-2 where
    every part certifies its series; delta also stays at or below 1/lam over
    the explicit rows lam, where the series of exp(-lam*t) - 1 has no
    cancellation.  If none of 29 decades certifies, NumericError is raised.
    Tanh-sinh panels cover [delta, 1] with edges at most two decades apart;
    starting them at delta keeps the endpoint behaviour of F(t)/t out of the
    quadrature.  F is built once (remainder_fn) and evaluated at every node.
    The error adds the solos' coefficient rounding
    (heat_expansion._solo_rounding).
    """
    lam_max = max((lam for lam, _, _ in spec.rows), default=0.0)
    deltas = [d for d in _DELTAS if d * lam_max <= 1.0][:_DELTA_TRIES]
    for delta in deltas:
        cut = mellin_cutoff_integral(spec, delta, 0.0)
        if cut is not None:
            break
    else:
        raise NumericError(
            f"the small-time series does not certify [0, delta] for delta "
            f"down to {deltas[-1]!r}")
    cutoff_value, cutoff_err = cut
    edges = [delta] + [e for e in _EDGES if e > delta]
    remainder = remainder_fn(spec, default_expansion(spec))

    def integrand(t: float) -> float:
        return remainder(t) * t ** -1.0

    values = [cutoff_value]
    err = cutoff_err + fsum(_solo_rounding(fam, delta) for fam in spec.poisson.solos)
    for a, b in zip(edges[:-1], edges[1:]):
        part, part_err = tanh_sinh(integrand, a, b, abs_tol=3e-15)
        values.append(part)
        err += part_err
    # exactly rounded: the panels can cancel, and a running sum would add a
    # rounding error that no panel's estimate covers
    return fsum(values), err


# relative error of special._ein (derived in its docstring)
_EIN_ROUNDING = 8.0 * _U


def _lower_closed_form(spec: Spectrum) -> tuple[float, float]:
    """int_0^1 F(t) dt/t, F the remainder of default_expansion, from
    Spectrum.poisson, and its error bound.

    A theta of weight w gives w*D(c, sigma) (spectra._dual_mellin) and an
    exponential (lam, w) gives -w*Ein(lam), from exp(-lam*t) - 1; a row at
    lam = 0.0 adds nothing.  The solos have no closed form: their share of F
    is the remainder of their own analytic expansion, integrated by
    mellin_lower's tanh-sinh panels.  Each Ein term carries _EIN_ROUNDING and
    each product with its weight a further u; the sum is exactly rounded.
    """
    poisson = spec.poisson
    parts, errs = [], []
    for weight, scale, shift in poisson.thetas:
        dual, dual_err = _dual_mellin(scale, shift)
        parts.append(weight * dual)
        errs.append(weight * dual_err + _U * abs(parts[-1]))
    for lam, weight in poisson.exponentials:
        if lam > 0.0:
            parts.append(-weight * _ein(lam))
            errs.append((_EIN_ROUNDING + _U) * abs(parts[-1]))
    if poisson.solos:
        value, err = mellin_lower(Spectrum(poisson.solos))
        parts.append(value)
        errs.append(err)
    value = fsum(parts)
    return value, fsum(errs) + 0.5 * math.ulp(value)


# cutoffs on which log_det_reg checks the approach to its asymptote, for
# lattice scales up to _VERIFY_SCALE
_VERIFY_EPS = (1e-2, 1e-3, 1e-4)
_VERIFY_SCALE = 10.0 * math.pi


def _verify_eps(spec: Spectrum) -> tuple[float, ...]:
    """_VERIFY_EPS, times (_VERIFY_SCALE/c_max)^2 when the largest lattice
    scale c_max exceeds _VERIFY_SCALE: the expansion is asymptotic only once
    eps*c_max^2 is small, and a lattice's dual terms fall like
    exp(-pi^2/(eps*c^2)).  The Euler-Maclaurin tails keep the smaller
    cutoffs cheap."""
    c_max = max((fam.scale for fam in spec.lattices), default=0.0)
    if c_max <= _VERIFY_SCALE:
        return _VERIFY_EPS
    factor = (_VERIFY_SCALE / c_max) ** 2
    return tuple(eps * factor for eps in _VERIFY_EPS)


def _log_det_reg(spec: Spectrum,
                 exp: HeatExpansion) -> tuple[float, float, dict[float, float]]:
    """log_det_reg's (value, error) and the cutoff determinants, by eps, on
    which it checked the asymptote; exp is default_expansion(spec)."""
    upper, err_up = _e1_sum(spec, 1.0)
    lower, err_low = _lower_closed_form(spec)
    cts = counterterms(exp)
    ct_sum = fsum(cts.values())
    head = -ct_sum - upper
    value = head - lower
    # forming the value rounds each m*b_j/j twice, their sum once and the two
    # subtractions once each
    err = (err_up + err_low + _U * fsum(abs(c) for c in cts.values())
           + 0.5 * (math.ulp(ct_sum) + math.ulp(head) + math.ulp(value)))
    dets = {eps: log_det_eps(spec, eps) for eps in _verify_eps(spec)}
    devs = []
    for eps, det in dets.items():
        asymptote = value + exp.b0 * math.log(eps)
        asymptote += fsum(cts[j] * eps ** (j / exp.m) for j in cts if j < 0)
        devs.append(abs(det - asymptote))
    if not all(math.isfinite(d) for d in devs) or devs[-1] > devs[0] + 1e-9:
        raise NumericError(
            f"cutoff determinant does not approach the computed asymptote: {devs}")
    _require_finite(value, err, "log_det_reg")
    return value, err, dets


def log_det_reg(spec: Spectrum) -> tuple[float, float]:
    """Heat-kernel regularised log-determinant of the positive (kernel-free)
    spectrum; returns (value, error_bound).

    Evaluates the closed form (module docstring) with the coefficients of
    default_expansion and verifies the cutoff asymptote on eps = 1e-2,
    1e-3, 1e-4 (scaled down for lattice scales above 10*pi, see
    _verify_eps), raising NumericError if the deviations grow.
    """
    value, err, _ = _log_det_reg(spec, default_expansion(spec))
    return value, err


@dataclass(frozen=True)
class RegDetReport:
    """Determinant report in both regularisations on one eps grid.

    log_det_zeta is the zeta-regularised value obtained through the bridge
    -gamma*b0' + log_det_reg; it is serialised under the wire name
    "log_Det_reg".
    """

    eps_grid: tuple[float, ...]
    log_det_eps: tuple[float, ...]
    log_det_reg: float
    log_det_zeta: float
    b0: float
    b0_primed: float
    kernel_dim: int
    quadrature_error: float
    counterterms: dict[int, float]


def build_report(spec: Spectrum,
                 eps_grid: Sequence[float] = (1e-1, 1e-2, 1e-3, 1e-4)) -> RegDetReport:
    """Cutoff determinants on a grid plus both regularised values, all of the
    positive (kernel-free) spectrum; kernel_dim and b0 are reported beside
    them."""
    if not eps_grid or any(not e > 0.0 for e in eps_grid):
        raise DomainError("eps grid must be non-empty with positive entries")
    exp = default_expansion(spec)
    value, err, dets = _log_det_reg(spec, exp)
    grid = tuple(float(e) for e in eps_grid)
    return RegDetReport(
        eps_grid=grid,
        log_det_eps=tuple(dets[e] if e in dets else log_det_eps(spec, e) for e in grid),
        log_det_reg=value,
        log_det_zeta=-EULER_GAMMA * exp.b0 + value,
        b0=exp.b0 + spec.kernel_dim,
        b0_primed=exp.b0,
        kernel_dim=spec.kernel_dim,
        quadrature_error=err,
        counterterms=counterterms(exp),
    )


def report_to_dict(report: RegDetReport) -> dict:
    return {
        "eps_grid": list(report.eps_grid),
        "log_det_eps": list(report.log_det_eps),
        "log_det_reg": report.log_det_reg,
        "log_Det_reg": report.log_det_zeta,
        "b0": report.b0,
        "b0_primed": report.b0_primed,
        "kernel_dim": report.kernel_dim,
        "quadrature_error": report.quadrature_error,
        "counterterms": {str(j): c for j, c in sorted(report.counterterms.items())},
    }
