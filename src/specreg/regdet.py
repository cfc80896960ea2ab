"""Heat-kernel regularised determinants.

The cutoff determinant multiplies per-eigenvalue factors h_eps(lam) =
exp(-E1(eps*lam)), so log det_eps = -E(eps), E(eps) = sum mult*E1(eps*lam)
over the positive spectrum.  Every theta integral splits at its balanced
point t* = _SPLIT/c^2 (Chowla-Selberg: spectra's split walk with the E1
kernel _e1_kernel and the erfc table _erfc_table) into E1 terms with |u|
below about 0.8*c and Poisson summation's pole term and erfc series, about
15 terms; log_det_eps so splits each theta where eps < t* (_e1_split).  The
direct sum (_e1_sum), each lattice run closed by spectra._lattice_sum,
serves the solos, which have no theta, and the guard.
The regularised determinant is the finite part of -E(eps) as eps -> 0, by
the cutoff identity (Ray-Singer; Minakshisundaram-Pleijel), exact at every
T > 0:

    -E(T) = log det_reg + C(T) + L(T),   L(T) = int_0^T F(t) dt/t,
    C(T) = sum_{j != 0} (m*b_j/j)*T^(j/m) + b_0*ln(T),

with b_j and F from the spectrum's own expansion (default_expansion).  It
holds for each part of Spectrum.poisson alone, and log_det_reg sums the
parts' values v, each read at a cutoff where E and L are a few closed-form
terms, so that no digits cancel at any scale: a theta at t*
(_theta_value), an explicit row (lam, m) at 1, v = m*(Ein(lam) -
E1(lam)), and a solo at the largest delta where its small-time Bernoulli
series certifies L(delta) (_solo_identity).  This route reads only E1
sums, erfc, Ein and the solos' series, so it stays independent of the zeta
route (zeta.zeta_prime0: Lerch's formula through math.lgamma and
Kronecker's limit formula).  mellin_lower, L(1), reads the same identity.

log_det_reg then checks the identity for the whole spectrum on the value
it returns, at one cutoff eps (_guard_eps, at most 1e-4): E(eps) + value +
C(eps) + L(eps), with L(eps) = mellin_lower(scale_spectrum(B, eps)), must
vanish within the sum of the four pieces' stated errors, else
NumericError.  Pieces within their stated errors pass; an error beyond them
in a piece the value reads, in E(eps), in L(eps) or in the whole
spectrum's b_j raises.  The check does not feed the reported error bound.
It compares different sums: E(eps) is the direct sum over the whole
spectrum, no theta of eps*B splits, so L(eps) is the dual series alone,
and the whole spectrum's b_j enter only here.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from math import fsum
from typing import NamedTuple, Sequence

from .errors import DomainError, NumericError
from .special import (EULER_GAMMA, exp_integral_e1, _e1_error, _ein, _ein_error,
                      _ERFC_ROUNDING, _NORMAL_MIN, _U)
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
    SQRT_PI,
    LatticeFamily,
    Spectrum,
    ThetaKernel,
    scale_spectrum,
    _lattice_sum,
    _tail_budget,
    _theta_direct,
    _theta_dual,
)


def default_expansion(spec: Spectrum) -> HeatExpansion:
    """finite_expansion for explicit-only spectra, otherwise the coefficients
    of analytic_expansion without its scan of C (left at 0.0): the one
    expansion that the determinant and zeta routes take."""
    if spec.families and not spec.lattices:
        return finite_expansion(spec)
    return _analytic_coeffs(spec)


def _row_terms(rows: Sequence[tuple[float, float]], eps: float) -> tuple[list[float], float]:
    """weight*E1(eps*lam) for each row (lam, weight), lam > 0, and their error
    bound, each term's by special._e1_error: eps*lam is good to u, or exact
    at eps = 1."""
    rounding = 0.0 if eps == 1.0 else _U
    args = [eps * lam for lam, _ in rows]
    terms = [weight * exp_integral_e1(x) for x, (_, weight) in zip(args, rows)]
    return terms, fsum(_e1_error(weight, term, x, rounding)
                       for term, x, (_, weight) in zip(terms, args, rows))


def _check_eps_lam0(spec: Spectrum, eps: float) -> None:
    """NumericError when the smallest eigenvalue lam0 (Spectrum.lam0) or
    eps*lam0 underflows to 0.0, where E1 has no value."""
    lam0 = spec.lam0
    if not eps * lam0 > 0.0:
        raise NumericError(f"eps*lam0 = {eps!r}*{lam0!r} underflows to 0.0")


def _e1_sum(spec: Spectrum, eps: float) -> tuple[float, float]:
    """(sum mult*E1(eps*lam) over the positive spectrum, error bound), summed
    directly: the guard's and the solos' route.

    Each lattice run goes through spectra._lattice_sum: a short run is
    summed directly and bounds its omitted tail by the Gaussian heat-trace
    tail over eps*lam at the first omitted index (E1(x) <= exp(-x)/x); a
    long one sums a head directly and closes the rest with an
    Euler-Maclaurin tail, so it costs O(1) E1 calls whatever eps*scale^2 is,
    and bounds the remainder and the rounding.  The explicit rows are
    _row_terms; the exactly rounded sum adds half an ulp.  NumericError is
    raised first when eps*lam0 underflows (_check_eps_lam0).
    """
    _check_eps_lam0(spec, eps)
    budget = _tail_budget(spec)
    terms, err = _row_terms([(lam, mult) for lam, mult, _ in spec.rows], eps)
    for fam in spec.lattices:
        fam_terms, fam_bound = _lattice_sum(fam, "e1", eps, budget)
        terms.extend(fam_terms)
        err += fam_bound
    value = fsum(terms)
    return value, err + 0.5 * math.ulp(value)


# a theta of scale c splits at t* = _SPLIT/c^2: its direct side then keeps
# the terms with |u| below about 0.8*c, one or two E1 calls, and its dual
# side about 15 erfc terms (BENCH_theta_split.json compares other choices)
_SPLIT = 16.0 * math.pi
# truncation target of each dual series D, per unit of weight
_DUAL_TAIL = 1e-17
_DUAL_LOG = math.log(2.0 / (math.pi ** 1.5 * _DUAL_TAIL))


@lru_cache(maxsize=64)
def _e1_kernel(weight: float, T: float, budget: float) -> ThetaKernel:
    """The E1 kernel at the split T: x = T*u^2 (the square and the product),
    weight*E1(x) with special._e1_error's error, sides split by the sign of u
    and checked from their first term, stopping below half the budget; a
    side's tail from y = |u| is |weight|*exp(-T*y^2)/(T*y^2*(1 -
    exp(-T*c*(2y + c)))) by E1(x) <= exp(-x)/x."""
    size = abs(weight)
    return ThetaKernel(
        lambda v, c: T * (v * v), 2.0, T, weight, exp_integral_e1, partial(_e1_error, weight),
        lambda x, v, c: size * math.exp(-x) / (x * -math.expm1(-T * c * (2.0 * v + c))),
        lambda shift, c: math.ceil(-shift / c), False, 0.5 * budget, 0.0, "t*u^2")


def _heat_direct(theta: tuple[float, float, float, bool], T: float, budget: float
                 ) -> tuple[list[float], list[float]]:
    """S(T) = w*sum_n E1(T*u_n^2) of a theta (w, c, sigma, removed), u_n =
    c*n + sigma over n != 0 if removed: its terms and errors."""
    weight, scale, shift, removed = theta
    terms, errs, _ = _theta_direct(_e1_kernel(weight, T, budget), scale, shift, 0.0, removed)
    return terms, errs


def _erfc_tail(root: float, K: int) -> float:
    """Bound on sum_{k>K} 2*erfc(pi*k/root)/k: with a = (pi/root)^2,
    erfc(x) <= exp(-x^2)/(x*sqrt(pi)) and k^2 - (K+1)^2 >= (k-K-1)(2K+3), it
    is 2*root*exp(-a(K+1)^2)/(pi^(3/2)*(K+1)^2*(1 - exp(-a(2K+3))))."""
    a = (math.pi / root) ** 2
    return (2.0 * root * math.exp(-a * (K + 1) ** 2)
            / (math.pi ** 1.5 * (K + 1) ** 2 * -math.expm1(-a * (2 * K + 3))))


@lru_cache(maxsize=32)
def _erfc_table(root: float, unit: bool) -> tuple:
    """The dual table of D at c*sqrt(t) = root (t == 1 when `unit`): entry k
    = 1..K holds W_k = 2*erfc(x)/k, x = pi*k/root, and its rounding; the
    last, and rest_0, _erfc_tail(root, K), where K grows until that meets
    _DUAL_TAIL, 12 at root = 2pi, 14 at sqrt(16 pi).  W_k rounds by _ERFC_ROUNDING, u for /k, and
    x's rounding (float pi, *k and /root: 2.35 u; 2 u more for sqrt(t) and
    *c where t != 1) times erfc's relative sensitivity, at most 2x^2 + 1."""
    # a(K+1)^2 >= log(2c sqrt(t)/(pi^(3/2) _DUAL_TAIL))
    log_target = _DUAL_LOG + math.log(root)
    K = max(0, math.ceil(root / math.pi * math.sqrt(max(log_target, 0.0))) - 1)
    tail = _erfc_tail(root, K)
    while tail > _DUAL_TAIL:
        K += 1
        tail = _erfc_tail(root, K)
    arg_rounding = (2.35 if unit else 4.35) * _U
    entries = []
    for k in range(1, K + 1):
        x = math.pi * k / root
        weight = 2.0 * math.erfc(x) / k
        rounding = weight * (_ERFC_ROUNDING + _U + (2.0 * x * x + 1.0) * arg_rounding)
        entries.append((k, weight, rounding, tail if k == K else math.inf))
    return tail, tuple(entries)


def _theta_lower(theta: tuple[float, float, float, bool], T: float
                 ) -> tuple[list[float], list[float]]:
    """The lower side of a theta (w, c, sigma, removed) split at T, int_0^T
    of its trace less the pole term and, where removed, less -w, against
    dt/t: w*D(c, sigma; T), D = sum_{k>=1} 2*cos(2*pi*k*sigma/c)*
    erfc(pi*k/(c*sqrt(T)))/k (DLMF 8.4.6, 7.11.2), and where removed
    w*Ein(T*sigma^2); and their errors.  D is the whole _erfc_table entry of
    the float c*sqrt(T) <= sqrt(16 pi), so at most 14 terms, shared by every
    theta of its scale; it adds half an ulp of its sum and u of *w.  Ein's
    argument carries two roundings, and a subnormal or underflowing sigma^2
    T*2^-1074 per unit of |w|."""
    weight, scale, shift, removed = theta
    terms, errs = _theta_dual(_erfc_table(scale * math.sqrt(T), T == 1.0), scale, shift)
    dual = fsum(terms)
    parts = [weight * dual]
    errs = [abs(weight) * (fsum(errs) + 0.5 * math.ulp(dual)) + _U * abs(parts[0])]
    if removed:
        square = shift * shift
        x = T * square
        if x > 0.0:
            parts.append(weight * _ein(x))
            errs.append(_ein_error(parts[-1], weight, x, 2.0 * _U))
        if shift and square < _NORMAL_MIN:
            errs.append(abs(weight) * T * 2.0 ** -1074)
    return parts, errs


def _balanced_point(scale: float) -> float:
    """t* = _SPLIT/c^2, where a theta of scale c splits; NumericError where it
    overflows or underflows (scale below about 1.4e-154 or above 1e163)."""
    t = _SPLIT / scale / scale
    if not 0.0 < t < math.inf:
        raise NumericError(f"the balanced point _SPLIT/c^2 of a theta of scale {scale!r} "
                           f"is {t!r}")
    return t


def _theta_cutoff(theta: tuple[float, float, float, bool], t: float
                  ) -> tuple[list[float], list[float]]:
    """The b-terms C(t*) of a theta (w, c, sigma, removed) at t* =
    _balanced_point(c) and their errors: the pole term, -w/2 within 0.75
    u*|w| at the float t*, charged u*|w|; where removed, -w*ln t*, an ulp
    of the log and half of one for the product."""
    weight, _, _, removed = theta
    parts, errs = [-0.5 * weight], [_U * abs(weight)]
    if removed:
        log_t = math.log(t)
        parts.append(-weight * log_t)
        errs.append(abs(weight) * math.ulp(log_t) + 0.5 * math.ulp(parts[-1]))
    return parts, errs


def _theta_split(theta: tuple[float, float, float, bool], T: float, budget: float,
                 sides: dict) -> tuple[list[float], list[float]]:
    """The terms of S(T) = w*sum_n E1(T*u_n^2), T <= t* = _SPLIT/c^2, of a
    theta (w, c, sigma, removed), and their errors, by the cutoff identity
    (module docstring) at T and at t*:

        S(T) = S(t*) + lower(t*) - lower(T)
               + (sqrt(pi)/c)*2*w*(T^(-1/2) - t*^(-1/2)) - [removed] w*ln(t*/T),

    S(t*) (tails below `budget`) and lower(t*) kept per theta in `sides`.
    The pole term states 3 u, the log an ulp of itself and of t*/T and (t* +
    1)*2^-1073 for a subnormal or underflowing sigma^2.
    """
    weight, scale, shift, removed = theta
    t = _SPLIT / scale / scale
    if theta not in sides:
        sides[theta] = _heat_direct(theta, t, budget) + _theta_lower(theta, t)
    near, near_errs, lower_t, lower_t_errs = sides[theta]
    lower_T, lower_T_errs = _theta_lower(theta, T)
    inv_T, inv_t = 1.0 / math.sqrt(T), 1.0 / math.sqrt(t)
    prefactor = weight * 2.0 * SQRT_PI / scale
    parts = [prefactor * (inv_T - inv_t)] + lower_t + [-part for part in lower_T]
    errs = [3.0 * _U * abs(parts[0]) + abs(prefactor) * (inv_T + inv_t) * _U]
    if removed:
        log_ratio = math.log(t / T)
        parts.append(-weight * log_ratio)
        errs.append(abs(weight) * ((2.0 * abs(log_ratio) + 1.0) * _U
                                   + (t + 1.0) * 2.0 ** -1073))
    return near + parts, near_errs + lower_t_errs + lower_T_errs + errs


def _e1_split(spec: Spectrum, grid: Sequence[float]) -> list[tuple[float, float]]:
    """The same sum and bound as _e1_sum at each eps of `grid`, with each
    theta of Spectrum.poisson split at its balanced point t* = max(eps,
    _SPLIT/c^2): a theta with t* = eps is its direct sum at eps
    (_heat_direct), any other _theta_split at T = eps with one t* record for
    the whole grid; each explicit row is an E1 term at eps (_row_terms) and
    each solo a direct _lattice_sum run.  The error adds theirs and half an
    ulp of the exactly rounded sum.  _e1_sum is taken instead, bit for bit,
    when no theta splits (eps >= _SPLIT/c^2 for each) or a theta's split
    point overflows (scale below about 1e-154).
    """
    poisson = spec.poisson
    budget = _tail_budget(spec)
    rows = [(lam, mult) for lam, mult, _ in spec.rows]
    sides = {}

    def split(eps: float) -> tuple[float, float]:
        stars = [max(eps, _SPLIT / scale / scale) for _, scale, _, _ in poisson.thetas]
        if all(t == eps for t in stars) or math.inf in stars:
            return _e1_sum(spec, eps)
        _check_eps_lam0(spec, eps)
        terms, errs = [], []
        for theta, t in zip(poisson.thetas, stars):
            piece, piece_errs = (_heat_direct(theta, t, budget) if t == eps
                                 else _theta_split(theta, eps, budget, sides))
            terms.extend(piece)
            errs.extend(piece_errs)
        err = fsum(errs)
        row_terms, row_err = _row_terms(rows, eps)
        terms.extend(row_terms)
        err += row_err
        for fam in poisson.solos:
            fam_terms, fam_bound = _lattice_sum(fam, "e1", eps, budget)
            terms.extend(fam_terms)
            err += fam_bound
        value = fsum(terms)
        return value, err + 0.5 * math.ulp(value)

    return [split(eps) for eps in grid]


def log_det_eps(spec: Spectrum, eps: float) -> float:
    """log of the cutoff determinant over the positive (kernel-free)
    spectrum, -sum mult*E1(eps*lam), with each theta of Spectrum.poisson
    split at its balanced point (_e1_split).
    """
    if not 0.0 < eps < math.inf:
        raise DomainError(f"cutoff parameter must be positive and finite, got {eps!r}")
    return -_e1_split(spec, (eps,))[0][0]


def counterterms(exp: HeatExpansion) -> dict[int, float]:
    """Divergent-part coefficients of -log det_eps: j -> m*b_j/j for j != 0."""
    return {j: exp.m * b / j for j, b in sorted(exp.coeffs.items()) if j != 0}


def _require_finite(value: float, err: float, what: str) -> None:
    """NumericError if the value or its error is NaN or infinite."""
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NumericError(f"{what} is not finite: {value!r} with error {err!r}")


def _cutoff_terms(spec: Spectrum, exp: HeatExpansion, T: float, less_one: bool
                  ) -> tuple[list[float], list[float]]:
    """The terms of C(T), the cutoff identity's b-terms (module docstring), or
    with `less_one` of C(T) - C(1), and their errors: the rounding of b_j in
    exp, the default expansion of spec (heat_expansion._coeff_rounding),
    times its weight, and of forming each term.  A power T^(j/m) beyond the
    double range (a solo's certified delta below about 1e-308) raises
    NumericError naming the family and T."""
    coeff_err = _coeff_rounding(spec, exp)
    one = 1.0 if less_one else 0.0
    log_T = math.log(T)
    parts = [exp.b0 * log_T]
    # ln rounds by an ulp and the product by half of one
    errs = [(coeff_err[0] + 3.0 * _U * abs(exp.b0)) * abs(log_T)]
    for j, ct in counterterms(exp).items():
        try:
            power = T ** (j / exp.m)
        except OverflowError as exc:
            raise NumericError(f"the b-term T^({j}/{exp.m}) of the cutoff identity of "
                               f"{spec.families[0] if len(spec.families) == 1 else 'the spectrum'}"
                               f" overflows at T = {T!r}") from exc
        gap = power - one
        parts.append(ct * gap)
        # the power rounds by an ulp, m*b_j/j, the difference and the
        # product by half of one each
        errs.append(abs(exp.m / j) * coeff_err[j] * abs(gap)
                    + _U * abs(ct) * (2.0 * abs(power) + 3.0 * abs(gap)))
    return parts, errs


def _theta_value(theta: tuple[float, float, float, bool]) -> tuple[list[float], list[float]]:
    """The terms of the log det_reg of a theta (w, c, sigma, removed), its
    removed term included, and their errors, by the cutoff identity at t* =
    _balanced_point(c): v = -S(t*) - lower(t*) - C(t*), S(t*) walked to
    _DUAL_TAIL per unit of weight."""
    t = _balanced_point(theta[1])
    near, near_errs = _heat_direct(theta, t, _DUAL_TAIL * theta[0])
    lower, lower_errs = _theta_lower(theta, t)
    cut, cut_errs = _theta_cutoff(theta, t)
    return [-term for term in near + lower + cut], near_errs + lower_errs + cut_errs


# how many deltas _solo_identity tries, a decade apart, for the series
# closure of [0, delta]
_DELTA_TRIES = 29


def _first_delta(fam: LatticeFamily) -> float:
    """The largest delta at which mellin_cutoff_integral can certify the solo
    fam: at most 1, and at most pi^2/(50*c^2) for its scale c, where its dual
    terms decay like exp(-50 k^2), less 16 u so that the check's own
    rounding reads at least 50."""
    return min(1.0, math.pi ** 2 / (50.0 * fam.scale * fam.scale) * (1.0 - 16.0 * _U))


def _solo_identity(fam: LatticeFamily, lower: bool) -> tuple[float, float]:
    """One solo's cutoff identity at its certified delta, E, C and L its own:
    its log det_reg v = -E(delta) - C(delta) - L(delta), or with `lower`
    mellin_lower's L(1) = E(delta) - E(1) + C(delta) - C(1) + L(delta), the
    series alone at delta = 1 (scales below pi/sqrt(50)); and the error
    bound, its pieces' and half an ulp of the exactly rounded sum.

    L(delta) is the small-time series integral (mellin_cutoff_integral) at
    the first of _first_delta(fam) and the decades below it that it
    certifies; if none of _DELTA_TRIES does, NumericError.  A solo whose
    shift spans more than heat_expansion._MAX_WHOLE_SCALES whole scales has
    no table of series coefficients, so nothing certifies [0, delta]:
    NumericError, naming it.
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
    if lower and delta == 1.0:
        return cut
    spec = Spectrum((fam,))
    parts, errs = _cutoff_terms(spec, default_expansion(spec), delta, lower)
    for T in (delta, 1.0) if lower else (delta,):
        total, total_err = _e1_sum(spec, T)
        parts.append(total if T == delta else -total)
        errs.append(total_err)
    value = fsum([cut[0]] + parts)
    err = fsum([cut[1]] + errs) + 0.5 * math.ulp(value)
    return (value, err) if lower else (-value, err)


def mellin_lower(spec: Spectrum) -> tuple[float, float]:
    """L(1) = int_0^1 F(t) dt/t, F the remainder of default_expansion, in
    closed form from Spectrum.poisson, part by part, and its error bound.

    A theta splits at T = min(1, t*), t* = _balanced_point(c), and gives its
    lower side there; where T = t* < 1 the cutoff identity adds S(t*) - S(1)
    + C(t*) - C(1), empty at T = 1, C(1) = -2w*sqrt(pi)/c (4 u).  A row
    (lam, m) gives -m*Ein(lam), its argument exact.  Each solo goes alone
    (_solo_identity), at the delta of its own scale: at one set by a larger
    scale a small solo's E1 sum grows like 1/(scale*sqrt(delta)) and cancels
    digits against its b-terms (solos of scales 16.7 and 0.22 stated 2e-12
    together, 9e-14 apart).  The sum is exactly rounded.
    """
    parts, errs = [], []
    for theta in spec.poisson.thetas:
        weight, scale = theta[:2]
        T = 1.0 if _SPLIT / scale / scale >= 1.0 else _balanced_point(scale)
        lower, lower_errs = _theta_lower(theta, T)
        parts += lower
        errs += lower_errs
        if T < 1.0:
            near, near_errs = _heat_direct(theta, T, _DUAL_TAIL * weight)
            far, far_errs = _heat_direct(theta, 1.0, _DUAL_TAIL * weight)
            cut, cut_errs = _theta_cutoff(theta, T)
            pole = weight * 2.0 * SQRT_PI / scale
            parts += near + [-term for term in far] + cut + [pole]
            errs += near_errs + far_errs + cut_errs + [4.0 * _U * pole]
    for lam, mult, _ in spec.rows:
        parts.append(-mult * _ein(lam))
        errs.append(_ein_error(parts[-1], mult, lam, 0.0))
    for fam in spec.poisson.solos:
        value, err = _solo_identity(fam, True)
        parts.append(value)
        errs.append(err)
    value = fsum(parts)
    return value, fsum(errs) + 0.5 * math.ulp(value)


def _guard_eps(spec: Spectrum) -> float:
    """The one cutoff at which log_det_reg checks the cutoff identity: 1e-4,
    or less: half a solo's _first_delta, so that its share of int_0^eps F
    dt/t is its small-time series alone, and half a theta's _SPLIT/c^2 (c
    above about 501), so that mellin_lower of eps*B does not split it."""
    poisson = spec.poisson
    return min([1e-4] + [0.5 * _first_delta(fam) for fam in poisson.solos]
               + [0.5 * _SPLIT / scale / scale for _, scale, _, _ in poisson.thetas])


def _log_det_reg(spec: Spectrum, exp: HeatExpansion) -> tuple[float, float]:
    """log_det_reg's (value, error): the exactly rounded sum of each Poisson
    part's value, checked by the guard (module docstring); exp is
    default_expansion(spec)."""
    # first the error of a spectrum whose lam0 is not a positive float
    _check_eps_lam0(spec, 1.0)
    rows = [(lam, mult) for lam, mult, _ in spec.rows]
    e1_terms, e1_err = _row_terms(rows, 1.0)
    parts, errs = [-term for term in e1_terms], [e1_err]
    for lam, mult in rows:
        parts.append(mult * _ein(lam))
        errs.append(_ein_error(parts[-1], mult, lam, 0.0))
    for piece, piece_errs in map(_theta_value, spec.poisson.thetas):
        parts += piece
        errs += piece_errs
    for solo, solo_err in (_solo_identity(fam, False) for fam in spec.poisson.solos):
        parts.append(solo)
        errs.append(solo_err)
    value = fsum(parts)
    err = fsum(errs) + 0.5 * math.ulp(value)
    _require_finite(value, err, "log_det_reg")
    # the guard: E(eps) + value + C(eps) + L(eps) = 0 (module docstring)
    eps = _guard_eps(spec)
    near, near_err = _e1_sum(spec, eps)
    tail, tail_err = mellin_lower(scale_spectrum(spec, eps))
    b_terms, b_errs = _cutoff_terms(spec, exp, eps, False)
    residual = fsum(b_terms + [near, value, tail])
    slack = fsum(b_errs + [near_err, err, tail_err]) + 0.5 * math.ulp(residual)
    if not abs(residual) <= slack:
        raise NumericError(f"the cutoff identity fails at eps = {eps!r}: residual "
                           f"{residual!r} exceeds the stated errors {slack!r}")
    return value, err


def log_det_reg(spec: Spectrum) -> tuple[float, float]:
    """Heat-kernel regularised log-determinant of the positive (kernel-free)
    spectrum; returns (value, error_bound).

    Sums each Poisson part's value by the cutoff identity (module docstring)
    and checks the identity for the whole spectrum on it at one eps, raising
    NumericError if it fails by more than the stated errors of its pieces.
    """
    return _log_det_reg(spec, default_expansion(spec))


class RegDetReport(NamedTuple):
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


DEFAULT_EPS_GRID = (1e-1, 1e-2, 1e-3, 1e-4)


def build_report(spec: Spectrum, eps_grid: Sequence[float] = DEFAULT_EPS_GRID) -> RegDetReport:
    """Cutoff determinants on a grid plus both regularised values, all of the
    positive (kernel-free) spectrum; kernel_dim and b0 are reported beside
    them.  Every grid point is log_det_eps, the split, also where the guard
    of log_det_reg took the direct sum at the same eps; one _e1_split
    serves the whole grid."""
    if not eps_grid or any(not 0.0 < e < math.inf for e in eps_grid):
        raise DomainError("eps grid must be non-empty with positive finite entries")
    exp = default_expansion(spec)
    value, err = _log_det_reg(spec, exp)
    grid = tuple(float(e) for e in eps_grid)
    return RegDetReport(
        eps_grid=grid,
        log_det_eps=tuple(-value for value, _ in _e1_split(spec, grid)),
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
