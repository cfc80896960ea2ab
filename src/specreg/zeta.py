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
(_theta_bracket).  An explicit row is exactly mult*lam^(-s).  Only the
solos, unpaired shifted one-sided lattices with no such form, keep the
split at t = 1 of their own expansion,

    Gamma(s) zeta_B(s) = sum_j b_j / (j/m + s)
                        + int_1^inf t^(s-1) tr exp(-t*B) dt
                        + int_0^1 t^(s-1) F(t) dt,

with both integrals by Gauss-Kronrod panels.

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
from collections import Counter
from dataclasses import dataclass
from math import fsum

from .errors import DomainError, NumericError, PoleError
from .special import (
    EULER_GAMMA,
    _GAMMA_INC_ROUNDING,
    _GAMMA_ROUNDING,
    _U,
    gamma_fn,
    hurwitz_zeta,
    lower_gamma_scaled,
    upper_gamma_scaled,
)
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


# relative rounding of x = pi*(u/scale)^2 beyond twice that of u: the
# division (twice, through the square), the square, the product and float pi
# (0.35 u)
_X_ROUNDING = 4.5 * _U


def _gamma_tail(a: float, y: float) -> float:
    """Bound on sum_{m>=0} g(a, pi*(y + m)^2), g(a, x) = x^(-a) Gamma(a, x),
    for y > 0; inf unless pi*y^2 > max(a - 1, 0).  On t >= 1, t^(a-1) <=
    exp(max(a - 1, 0)*(t - 1)), so g(a, x) = int_1^inf t^(a-1) exp(-x*t) dt
    <= exp(-x)/(x - max(a - 1, 0)); and (y + m)^2 >= y^2 + 2*y*m makes the
    exponentials geometric."""
    x = math.pi * y * y
    slack = x - max(a - 1.0, 0.0)
    if not slack > 0.0:
        return math.inf
    return math.exp(-x) / (slack * -math.expm1(-2.0 * math.pi * y))


def _theta_bracket(scale: float, shift: float, s: float,
                   removed: bool) -> tuple[float, float]:
    """B with Gamma(s) zeta(s) = (pi/scale^2)^s * B for the theta sum_{n in Z}
    exp(-t*(scale*n + shift)^2), less its n = 0 term when `removed`, and B's
    error bound.

    Split at its balanced point t_theta = pi/scale^2, where both series
    below stop after a handful of terms at every scale.  With q =
    shift/scale and g(a, x) = x^(-a) Gamma(a, x) (special.upper_gamma_scaled),
    the terms over t > t_theta are g(s, pi*(n + q)^2) per n, and Poisson
    summation of those over t < t_theta gives 1/(s - 1/2) plus
    2*cos(2*pi*k*q)*g(1/2 - s, pi*k^2) per k >= 1.  A structural zero (u_n =
    scale*n + shift == 0.0, as enumeration finds it) gives -1/s instead.  The
    removed n = 0 term and its row together give -x^(-s) gamma(s, x) at x =
    pi*q^2 (special.lower_gamma_scaled): the term's share over t > t_theta
    less the row's whole Gamma(s) x^(-s), without forming that difference.
    Each side stops once _gamma_tail of the rest is below 2^-60 of the
    magnitudes summed, and states that tail.

    Each term's error adds _GAMMA_INC_ROUNDING and the rounding of its
    argument x through d g/d(ln x) = -(a*g + exp(-x)): u = scale*n + shift
    is good to u*(1 + |scale*n|/|u|), x = pi*(u/scale)^2 to twice that plus
    _X_ROUNDING.  A dual term adds the rounding of a = 1/2 - s through 0 <=
    dg/da <= (a*g + exp(-x))/x - g (from log t <= t - 1), and its cosine the
    k-fold rounding of its angle, formed from the exact remainder of shift
    modulo scale.
    """
    terms, errs = [1.0 / (s - 0.5)], []
    errs.append(2.0 * _U * abs(terms[0]))
    magnitude = abs(terms[0])
    if removed:
        q = shift / scale
        x = math.pi * q * q
        lower, lower_err = lower_gamma_scaled(s, x)
        terms.append(-lower)
        errs.append(lower_err + _X_ROUNDING * abs(math.exp(-x) - s * lower))
        magnitude += abs(lower)
    n0 = -round(shift / scale)
    for step in (1, -1):
        n = n0 if step == 1 else n0 - 1
        while True:
            u = scale * n + shift
            y = abs(u) / scale
            # past the first term of a side, |y| grows by 1 per step
            if n not in (n0, n0 - 1):
                tail = _gamma_tail(s, y)
                if tail <= 2.0 ** -60 * magnitude:
                    errs.append(tail)
                    break
            if not (removed and n == 0):
                if u == 0.0:
                    term, err = -1.0 / s, _U / abs(s)
                else:
                    x = math.pi * y * y
                    term = upper_gamma_scaled(s, x)
                    rel_x = 2.0 * _U * (1.0 + abs(scale * n) / abs(u)) + _X_ROUNDING
                    err = (_GAMMA_INC_ROUNDING * term
                           + rel_x * abs(s * term + math.exp(-x)))
                terms.append(term)
                errs.append(err)
                magnitude += abs(term)
            n += step
    a = 0.5 - s
    angle = 2.0 * math.pi * math.remainder(shift, scale) / scale
    k = 1
    while True:
        if k > 1:
            tail = 2.0 * _gamma_tail(a, k)
            if tail <= 2.0 ** -60 * magnitude:
                errs.append(tail)
                break
        # x: float pi and one product (1.35 u); the angle: float pi, two
        # products and the k-fold one (3.35 u of k*angle)
        x = math.pi * (k * k)
        g = upper_gamma_scaled(a, x)
        slope = a * g + math.exp(-x)
        cos = math.cos(angle * k)
        terms.append(2.0 * cos * g)
        g_err = (_GAMMA_INC_ROUNDING * g + 1.35 * _U * abs(slope)
                 + _U * abs(a) * max(0.0, slope / x - g) + _U * g)
        errs.append(2.0 * (abs(cos) * g_err + g * (3.35 * abs(angle * k) + 2.0) * _U))
        magnitude += abs(terms[-1])
        k += 1
    value = fsum(terms)
    return value, fsum(errs) + _U * abs(value)


def _split_sums(spec: Spectrum, s: float) -> tuple[float, float, float, float]:
    """(Gamma(s) zeta(s) of the thetas, with the rows that remove their n =
    0 terms, its error, zeta(s) of the other rows, its error), from
    Spectrum.poisson; the solos are left out.

    A theta (w, c, sigma) takes the row (sigma^2, -w) that removes its n = 0
    term, when Spectrum.poisson holds one, into _theta_bracket, which then
    has no cancellation between the two; w*(pi/c^2)^s is formed as
    w*pi^s*c^(-2s).  Every other row (lam, w) is w*lam^(-s) exactly, and
    nothing at lam = 0.0, which only cancels a structural zero that
    _theta_bracket leaves out itself.
    """
    poisson = spec.poisson
    rows = Counter(poisson.exponentials)
    parts, errs = [], []
    for weight, scale, shift in poisson.thetas:
        key = (shift * shift, -weight)
        removed = rows[key] > 0
        rows[key] -= removed
        bracket, bracket_err = _theta_bracket(scale, shift, s, removed)
        prefactor = weight * math.pi ** s * scale ** (-2.0 * s)
        parts.append(prefactor * bracket)
        # pi^s: float pi (0.35 u) times |s| and one ulp; c^(-2s) one ulp;
        # three products
        errs.append(abs(prefactor) * bracket_err
                    + (0.35 * abs(s) + 7.0) * _U * abs(parts[-1]))
    direct = [weight * lam ** -s for (lam, weight), count in rows.items()
              for _ in range(count) if lam > 0.0]
    mellin = fsum(parts)
    return (mellin, fsum(errs) + _U * abs(mellin),
            fsum(direct), 4.0 * _U * fsum(map(abs, direct)))


def zeta_value(spec: Spectrum, s: float) -> ZetaEvaluation:
    """zeta_B(s) by the Mellin split; route tag "mellin-split".

    Every theta and row of Spectrum.poisson is a closed form (_split_sums).
    The solos, which have none, keep the split at t = 1 of their own
    analytic expansion: its pole part, the upper integral by Gauss-Kronrod
    panels (regdet._mellin_upper) and the lower one by mellin_lower's
    Gauss-Kronrod panels, which restricts a spectrum with solos to s > -1;
    their share carries a further 1e-15 of itself for the rounding that
    those bounds leave out.  Rejects s within 1e-6 of the poles -j/m of the
    analytic or finite expansion and of the non-positive Gamma poles.  A
    term beyond the double range raises NumericError.
    """
    _check_s_range(s)
    min_eigenvalue(spec)  # DomainError or NumericError before any sum meets it
    _check_poles(s, default_expansion(spec))
    try:
        mellin, mellin_err, direct, direct_err = _split_sums(spec, s)
    except OverflowError as exc:
        raise NumericError(f"a term of zeta({s!r}) overflows") from exc
    solo, solo_err = 0.0, 0.0
    solos = spec.poisson.solos
    if solos:
        sub = Spectrum(solos)
        exp = default_expansion(sub)
        pole_part = fsum(b / (j / exp.m + s)
                         for j, b in sorted(exp.coeffs.items()) if b != 0.0)
        upper, err_up = _mellin_upper(sub, s)
        lower, err_low = mellin_lower(sub, s, "gauss-kronrod")
        solo, solo_err = pole_part + upper + lower, err_up + err_low
    inv_gamma = 1.0 / gamma_fn(s)
    scaled = inv_gamma * fsum((mellin, solo))
    value = direct + scaled
    err = (abs(inv_gamma) * (mellin_err + solo_err) + 1e-15 * abs(inv_gamma * solo)
           + (_GAMMA_ROUNDING + 3.0 * _U) * abs(scaled) + direct_err
           + 0.5 * math.ulp(value))
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
    with q = |sigma|/scale and sigma the exact remainder of shift modulo
    scale, in [-scale/2, scale/2] (math.remainder, as
    orbit._reg_shape_trace reduces it), and 2*zeta_H(2s, 1) when sigma is
    0.0, a structural zero.  Valid for 2s >= -2 away from s = 1/2.
    """
    if abs(s - 0.5) < 1e-9:
        raise PoleError("spectral zeta of a lattice has its pole at s = 1/2")
    parts = [mult * lam ** (-s) for lam, mult, _ in spec.rows]
    for fam in spec.lattices:
        c2s = fam.scale ** (-2.0 * s)
        if fam.side == "positive":
            parts.append(fam.mult * c2s * hurwitz_zeta(2.0 * s, 1.0 + fam.shift / fam.scale))
            continue
        sigma = math.remainder(fam.shift, fam.scale)
        if sigma == 0.0:
            parts.append(2.0 * fam.mult * c2s * hurwitz_zeta(2.0 * s, 1.0))
        else:
            q = abs(sigma) / fam.scale
            parts.append(fam.mult * c2s * (hurwitz_zeta(2.0 * s, q)
                                           + hurwitz_zeta(2.0 * s, 1.0 - q)))
    return ZetaEvaluation(s=s, value=fsum(parts), error=5e-13, route="closed-form-oracle")


def zeta_prime0(spec: Spectrum) -> tuple[float, float]:
    """zeta_B'(0) = gamma*b0' + sum_{j!=0} m*b_j/j + I1 + I0; returns (value, err).

    I1 through the E1-sum identity, I0 by Gauss-Kronrod panels (numerics
    independent of the heat-route determinant).
    """
    exp = default_expansion(spec)
    min_eigenvalue(spec)  # NumericError before E1 meets an underflowed eigenvalue
    upper, tail_err = _e1_sum(spec, 1.0)
    lower, err_low = mellin_lower(spec, 0.0, "gauss-kronrod")
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


def verify_bridge(spec: Spectrum, abs_tol: float | None = None) -> BridgeReport:
    """Check the determinant bridge on one spectrum; primed throughout.

    passed uses the threshold `abs_tol` when given, else twice the combined
    error budget of the two routes.
    """
    b0 = default_expansion(spec).b0
    zp, zeta_err = zeta_prime0(spec)
    heat, heat_err = log_det_reg(spec)
    zeta_route = -zp
    heat_route = -EULER_GAMMA * b0 + heat
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
        b0_primed=b0,
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
