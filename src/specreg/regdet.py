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
one, mellin_lower, is a closed form from Spectrum.poisson for any
spectrum: each theta's Poisson dual terms integrate to an erfc series, and
each exponential to Ein = gamma + log + E1.  Each solo (an unpaired
shifted one-sided family) goes alone (_solo_lower): its small-time
Bernoulli series on [0, delta] and, on [delta, 1], the cutoff identity
(Ray-Singer; Minakshisundaram-Pleijel)

    log det_delta = log det_reg + sum_{j != 0} (m*b_j/j)*delta^(j/m)
                    + b_0*ln(delta) + int_0^delta F(t) dt/t,

read as int_delta^1 F dt/t = E(delta) - E(1) - sum_{j != 0} (m*b_j/j)*(1 -
delta^(j/m)) + b_0*ln(delta), with E the E1 sums.  So log_det_reg
integrates nothing numerically.  It stays independent of the zeta route
(zeta.zeta_prime0), which takes Lerch's formula through math.lgamma and
Kronecker's limit formula: this route reads only E1 sums, erfc and Ein,
and the solos' Bernoulli series.

log_det_reg then verifies that the cutoff determinant approaches the
matching asymptote value + sum_{j<0} (m*b_j/j) eps^{j/m} + b_0*ln(eps) on
a decreasing eps sequence, scaled down for lattice scales above 10*pi
(_verify_eps; a non-divergence check on the expansion; the deviations
measure |int_0^eps F/t|, not numerical error, so they are not folded into
the reported error bound).  The guard, the upper integral and the
solos' lower integrals share _e1_sum: each deviation the guard reads is
the identity's last term at eps, mellin_lower(scale_spectrum(B, eps)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Sequence

from .errors import DomainError, NumericError
from .special import EULER_GAMMA, exp_integral_e1, _ein, _E1_ROUNDING, _U
from .heat_expansion import (
    HeatExpansion,
    finite_expansion,
    mellin_cutoff_integral,
    _MAX_WHOLE_SCALES,
    _analytic_coeffs,
    _coeff_rounding,
    _one_sided_power_coeffs,
)
from .spectra import (
    LatticeFamily,
    Spectrum,
    min_eigenvalue,
    _dual_mellin,
    _lattice_sum,
    _series_relief,
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
    carries E1's error, _E1_ROUNDING or, below 1, _E1_SERIES_ROUNDING
    (through spectra._series_relief), either of which absorbs the rounding
    of eps*lam as in _lattice_sum, and u for the product with its
    multiplicity, and the
    exactly rounded sum half an ulp.  NumericError is raised first when the
    smallest eigenvalue lam0 (min_eigenvalue) or eps*lam0 underflows to
    0.0, where E1 has no value.
    """
    lam0 = min_eigenvalue(spec)
    if not eps * lam0 > 0.0:
        raise NumericError(f"eps*lam0 = {eps!r}*{lam0!r} underflows to 0.0")
    budget = _tail_budget(spec)
    args = [eps * lam for lam, _, _ in spec.rows]
    terms = [mult * exp_integral_e1(x) for x, (_, mult, _) in zip(args, spec.rows)]
    err = ((_E1_ROUNDING + _U) * fsum(map(abs, terms))
           - _series_relief(args, terms))
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
    if not 0.0 < eps < math.inf:
        raise DomainError(f"cutoff parameter must be positive and finite, got {eps!r}")
    return -_e1_sum(spec, eps)[0]


def counterterms(exp: HeatExpansion) -> dict[int, float]:
    """Divergent-part coefficients of -log det_eps: j -> m*b_j/j for j != 0."""
    return {j: exp.m * b / j for j, b in sorted(exp.coeffs.items()) if j != 0}


def _require_finite(value: float, err: float, what: str) -> None:
    """NumericError if the value or its error is NaN or infinite."""
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NumericError(f"{what} is not finite: {value!r} with error {err!r}")


# how many deltas _solo_lower tries, a decade apart, for the series closure
# of [0, delta]
_DELTA_TRIES = 29


def _first_delta(fam: LatticeFamily) -> float:
    """The largest delta at which mellin_cutoff_integral can certify the solo
    fam: at most 1, and at most pi^2/(50*c^2) for its scale c, where its dual
    terms decay like exp(-50 k^2), less 16 u so that the check's own
    rounding reads at least 50."""
    return min(1.0, math.pi ** 2 / (50.0 * fam.scale * fam.scale) * (1.0 - 16.0 * _U))


def _solo_lower(fam: LatticeFamily) -> tuple[float, float]:
    """int_0^1 F(t) dt/t for one solo, F the remainder of its own analytic
    expansion, and its error bound.

    [0, delta] is the exact small-time series integral
    (mellin_cutoff_integral), at the first of _first_delta(fam) and the
    decades below it where the series certifies; if none of _DELTA_TRIES
    does, NumericError is raised.  [delta, 1] is the cutoff identity:
    int_delta^1 exp(-lam*t) dt/t = E1(delta*lam) - E1(lam) and
    int_delta^1 t^(j/m - 1) dt = (1 - delta^(j/m))*m/j, so

        int_delta^1 F dt/t = E(delta) - E(1)
                             - sum_{j != 0} (m*b_j/j)*(1 - delta^(j/m))
                             + b_0*ln(delta),

    E the E1 sums of _e1_sum and m*b_j/j the counterterms; it is empty at
    delta = 1, the solos of scale below pi/sqrt(50).  The error adds the
    series', both E1 sums', the rounding of b_j as the expansion forms them
    (heat_expansion._coeff_rounding) times their weights 1 - delta^(j/m)
    and ln(delta), the rounding of forming each term, and half an ulp of
    the exactly rounded sum.  A solo whose shift spans more than
    heat_expansion._MAX_WHOLE_SCALES whole scales has no table of series
    coefficients, so nothing certifies [0, delta]: NumericError, naming it.
    """
    if not _one_sided_power_coeffs(fam.scale, fam.shift):
        cause = (f"its shift spans more than {_MAX_WHOLE_SCALES} whole scales"
                 if fam.shift / fam.scale >= _MAX_WHOLE_SCALES
                 else "its first coefficient overflows")
        raise NumericError(
            f"a one-sided lattice (scale={fam.scale!r}, shift={fam.shift!r}) has no "
            f"small-time series coefficients ({cause}), so no delta "
            f"certifies [0, delta]")
    first = _first_delta(fam)
    for k in range(_DELTA_TRIES):
        delta = first * 10.0 ** -k
        cut = mellin_cutoff_integral(fam, delta)
        if cut is not None:
            break
    else:
        raise NumericError(
            f"the small-time series does not certify [0, delta] for delta from "
            f"{first!r} down to {delta!r}")
    if delta == 1.0:
        return cut
    spec = Spectrum((fam,))
    exp = default_expansion(spec)
    near, near_err = _e1_sum(spec, delta)
    far, far_err = _e1_sum(spec, 1.0)
    coeff_err = _coeff_rounding(spec, exp)
    log_delta = math.log(delta)
    parts = [cut[0], near, -far, exp.b0 * log_delta]
    # ln rounds by an ulp and the product by half of one
    errs = [cut[1], near_err, far_err,
            (coeff_err[0] + 3.0 * _U * abs(exp.b0)) * -log_delta]
    for j, ct in counterterms(exp).items():
        power = delta ** (j / exp.m)
        parts.append(-ct * (1.0 - power))
        # the power rounds by an ulp, m*b_j/j, 1 - power and the product by
        # half of one each
        errs.append(abs(exp.m / j) * coeff_err[j] * abs(1.0 - power)
                    + _U * abs(ct) * (2.0 * abs(power) + 3.0 * abs(1.0 - power)))
    value = fsum(parts)
    return value, fsum(errs) + 0.5 * math.ulp(value)


# relative error of special._ein (derived in its docstring)
_EIN_ROUNDING = 8.0 * _U


def mellin_lower(spec: Spectrum) -> tuple[float, float]:
    """int_0^1 F(t) dt/t, F the remainder of default_expansion, in closed
    form from Spectrum.poisson, and its error bound: log_det_reg's lower
    integral.

    A theta of weight w gives w*D(c, sigma) (spectra._dual_mellin) and an
    exponential (lam, w) gives -w*Ein(lam), from exp(-lam*t) - 1; a row at
    lam = 0.0 adds nothing.  The solos have no Poisson form: each solo's
    share of F is the remainder of its own analytic expansion, which
    _solo_lower integrates by its small-time series and the cutoff
    identity.  Each solo goes alone, at the delta of its own scale: a delta
    set by a larger scale would make a small solo's E1 sum at delta grow
    like 1/(scale*sqrt(delta)), and its cancellation against the b-terms
    cost digits (solos of scales 16.7 and 0.22 together stated 2e-12, apart
    9e-14).  Each Ein term carries _EIN_ROUNDING and each product with its
    weight a further u; the sum is exactly rounded.  Nothing is integrated
    numerically.
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
    for fam in poisson.solos:
        value, err = _solo_lower(fam)
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
    lower, err_low = mellin_lower(spec)
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
    if not eps_grid or any(not 0.0 < e < math.inf for e in eps_grid):
        raise DomainError("eps grid must be non-empty with positive finite entries")
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
