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
holds for each part of Spectrum.poisson alone, at one anchor T0 per part
and call where its E = S and L are a few closed-form terms (_Anchor), so
no digits cancel at any scale: a theta's t*, a solo's largest delta where
its small-time Bernoulli series certifies L(delta), a row (lam, m)'s 1.
log_det_reg sums the values v = -(S(T0) + L(T0) + C(T0)), a row's
m*(Ein(lam) - E1(lam)); log_det_eps reads S(eps < t*) and mellin_lower
L(1 > T0) from the same anchors.  This route reads only E1 sums, erfc, Ein
and the solos' series, independent of the zeta route (zeta.zeta_prime0:
Lerch's formula through math.lgamma and Kronecker's limit formula).

log_det_reg then checks the identity for the whole spectrum on the value
it returns, at one cutoff eps (_guard_eps, at most 1e-4): E(eps) + value +
C(eps) + L(eps), with L(eps) = mellin_lower(scale_spectrum(B, eps)), must
vanish within the sum of the four pieces' stated errors, else
NumericError.  Pieces within their stated errors pass; an error beyond them
in a piece the value reads, in E(eps), in L(eps) or in the whole
spectrum's b_j raises.  The check does not feed the reported error bound.
It compares different sums: E(eps) is the direct sum over the whole
spectrum, eps*B forms no anchor, so L(eps) is the dual series alone, and
the whole spectrum's b_j enter only here.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from math import fsum
from typing import Callable, NamedTuple, Sequence

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


class _Anchor(NamedTuple):
    """One Poisson part's cutoff identity (module docstring) at its anchor
    T0, formed once per call (_anchor): S(T0) = E(T0), L(T0) and C(T0), the
    last formed when value() reads it, as terms and errors; (b_{-1}, b_0,
    their roundings)."""

    T0: float
    near: tuple[list[float], list[float]]
    lower: tuple[list[float], list[float]]
    cut: Callable[[], tuple[list[float], list[float]]]
    b: tuple[float, float, float, float]

    def value(self) -> tuple[list[float], list[float]]:
        """v = -(S(T0) + L(T0) + C(T0)): its terms and errors."""
        (near, near_errs), (lower, lower_errs), (cut, cut_errs) = self.near, self.lower, self.cut()
        return [-term for term in near + lower + cut], near_errs + lower_errs + cut_errs

    def read(self, T: float, other: tuple[list[float], list[float]]
             ) -> tuple[list[float], list[float]]:
        """S(T0) + L(T0) + [C(T0) - C(T)] - other: S(T) where other is L(T),
        L(T) where it is S(T); terms and errors.  C(T0) - C(T) =
        2*b_{-1}*(T^(-1/2) - T0^(-1/2)) + b_0*ln(T0/T), each term charging its
        coefficient's rounding times its factor; the pole term 3 u of itself
        and u of each inverse root, the log an ulp of itself and of T0/T and
        (T0 + 1)*2^-1073 per unit of b_0 (a theta's subnormal sigma^2)."""
        T0, (near, near_errs), (lower, lower_errs), _, (bm1, b0, bm1_err, b0_err) = self
        inv_T, inv_T0 = 1.0 / math.sqrt(T), 1.0 / math.sqrt(T0)
        pole, gap = 2.0 * bm1, inv_T - inv_T0
        parts = [pole * gap]
        errs = [2.0 * bm1_err * abs(gap) + 3.0 * _U * abs(parts[0])
                + abs(pole) * (inv_T + inv_T0) * _U]
        if b0 or b0_err:
            log_ratio = math.log(T0 / T)
            parts.append(b0 * log_ratio)
            errs.append(b0_err * abs(log_ratio) + abs(b0) * (
                (2.0 * abs(log_ratio) + 1.0) * _U + (T0 + 1.0) * 2.0 ** -1073))
        return (near + lower + parts + [-term for term in other[0]],
                near_errs + lower_errs + errs + other[1])


def _anchor(anchors: dict, part, build) -> _Anchor:
    """build(part), the anchor of a part of Spectrum.poisson, formed on its
    first read and kept in `anchors`: identical parts share one."""
    anchor = anchors.get(part)
    if anchor is None:
        anchor = anchors[part] = build(part)
    return anchor


def _theta_anchor(theta: tuple[float, float, float, bool]) -> _Anchor:
    """The anchor of a theta (w, c, sigma, removed) at t* = _SPLIT/c^2
    (NumericError where it overflows or underflows: c below about 1.4e-154
    or above 1e163): S(t*) walked to _DUAL_TAIL per unit of weight, the
    lower side (_theta_lower), C(t*) = -w/2 (0.75 u*|w| at the float t*,
    charged u*|w|) and where removed -w*ln t* (an ulp of the log, half of
    one for the product); b_{-1} = w*sqrt(pi)/c and b_0 = -w where removed,
    whose rounding _Anchor.read's own charges cover."""
    weight, scale, _, removed = theta
    t = _SPLIT / scale / scale
    if not 0.0 < t < math.inf:
        raise NumericError(f"the balanced point _SPLIT/c^2 of a theta of scale {scale!r} "
                           f"is {t!r}")

    def cut() -> tuple[list[float], list[float]]:
        terms, errs = [-0.5 * weight], [_U * abs(weight)]
        if removed:
            log_t = math.log(t)
            terms.append(-weight * log_t)
            errs.append(abs(weight) * math.ulp(log_t) + 0.5 * math.ulp(terms[-1]))
        return terms, errs

    return _Anchor(t, _heat_direct(theta, t, _DUAL_TAIL * weight), _theta_lower(theta, t), cut,
                   (weight * SQRT_PI / scale, -weight if removed else 0.0, 0.0, 0.0))


def _e1_split(spec: Spectrum, grid: Sequence[float], anchors: dict | None = None
              ) -> list[tuple[float, float]]:
    """The same sum and bound as _e1_sum at each eps of `grid`: a theta of
    Spectrum.poisson with eps >= t* = _SPLIT/c^2 is its direct sum at eps
    (_heat_direct), any other S(eps) from its anchor (_Anchor.read with
    L(eps)), kept in `anchors`; each explicit row is an E1 term at eps
    (_row_terms), each solo a direct _lattice_sum run.  The error adds theirs
    and half an ulp of the exactly rounded sum.  _e1_sum is taken instead,
    bit for bit, when no theta splits or a t* overflows (scale below about 1e-154).
    """
    poisson = spec.poisson
    budget = _tail_budget(spec)
    rows = [(lam, mult) for lam, mult, _ in spec.rows]
    anchors = {} if anchors is None else anchors

    def split(eps: float) -> tuple[float, float]:
        stars = [max(eps, _SPLIT / scale / scale) for _, scale, _, _ in poisson.thetas]
        if all(t == eps for t in stars) or math.inf in stars:
            return _e1_sum(spec, eps)
        _check_eps_lam0(spec, eps)
        terms, errs = [], []
        for theta, t in zip(poisson.thetas, stars):
            piece, piece_errs = (_heat_direct(theta, t, budget) if t == eps else
                                 _anchor(anchors, theta, _theta_anchor).read(
                                     eps, _theta_lower(theta, eps)))
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
    spectrum, -sum mult*E1(eps*lam), each theta of Spectrum.poisson with
    eps < t* read from its anchor (_e1_split).
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


def _cutoff_terms(spec: Spectrum, exp: HeatExpansion, T: float
                  ) -> tuple[list[float], list[float]]:
    """The terms of C(T), the cutoff identity's b-terms (module docstring),
    and their errors: the rounding of b_j in exp, the default expansion of
    spec (heat_expansion._coeff_rounding), times its weight, and of forming
    each term.  A power T^(j/m) beyond the double range (a solo's certified
    delta below about 1e-308) raises NumericError naming the family and T."""
    coeff_err = _coeff_rounding(spec, exp)
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
        parts.append(ct * power)
        # an ulp of the power (2 u), half of one each of m*b_j/j and the product (3 u)
        size = abs(power)
        errs.append(abs(exp.m / j) * coeff_err[j] * size + _U * abs(ct) * (2.0 * size + 3.0 * size))
    return parts, errs


# how many deltas _solo_anchor tries, a decade apart, for the series
# closure of [0, delta]
_DELTA_TRIES = 29


def _first_delta(fam: LatticeFamily) -> float:
    """The largest delta at which mellin_cutoff_integral can certify the solo
    fam: at most 1, and at most pi^2/(50*c^2) for its scale c, where its dual
    terms decay like exp(-50 k^2), less 16 u so that the check's own
    rounding reads at least 50."""
    return min(1.0, math.pi ** 2 / (50.0 * fam.scale * fam.scale) * (1.0 - 16.0 * _U))


def _solo_anchor(fam: LatticeFamily) -> _Anchor:
    """The anchor of a solo, E, C and L its own, at the first delta of
    _first_delta(fam) and the _DELTA_TRIES decades below it where its series
    integral (mellin_cutoff_integral) certifies L(delta), else NumericError:
    its E1 sum (_e1_sum) and C(delta) (_cutoff_terms) there, b_{-1} and b_0
    with heat_expansion._coeff_rounding.  A solo whose shift spans more than
    heat_expansion._MAX_WHOLE_SCALES whole scales has no table of series
    coefficients: NumericError, naming it."""
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
        series = mellin_cutoff_integral(fam, delta)
        if series is not None:
            break
    else:
        raise NumericError(
            f"the small-time series does not certify [0, delta] for delta from "
            f"{first!r} down to {delta!r}")
    spec = Spectrum((fam,))
    exp = default_expansion(spec)
    cut = _cutoff_terms(spec, exp, delta)
    near, near_err = _e1_sum(spec, delta)
    rounding = _coeff_rounding(spec, exp)
    return _Anchor(delta, ([near], [near_err]), ([series[0]], [series[1]]), lambda: cut,
                   (exp.coeffs[-1], exp.b0, rounding[-1], rounding[0]))


def _row_lower(rows: Sequence[tuple[float, int, float]]) -> tuple[list[float], list[float]]:
    """L(1) = -m*Ein(lam) of each explicit row (lam, m, _), read at T0 = 1,
    where a row's C(1) is 0, and their errors, the arguments exact."""
    parts = [-mult * _ein(lam) for lam, mult, _ in rows]
    return parts, [_ein_error(part, mult, lam, 0.0) for part, (lam, mult, _) in zip(parts, rows)]


def mellin_lower(spec: Spectrum) -> tuple[float, float]:
    """L(1) = int_0^1 F(t) dt/t, F the remainder of default_expansion, in
    closed form from Spectrum.poisson, part by part, and its error bound.

    A theta with t* = _SPLIT/c^2 >= 1 gives its lower side at 1
    (_theta_lower), a row -m*Ein(lam) (_row_lower), a solo whose series
    certifies delta = 1 that integral; these form no anchor, so the guard's
    L(eps) reads only them.  Any other theta or solo reads L(1) from its
    anchor (_Anchor.read with S(1)), a solo's at the delta of its own scale:
    at one set by a larger scale a small solo's E1 sum grows like
    1/(scale*sqrt(delta)) and cancels digits against its b-terms (solos of
    scales 16.7 and 0.22 stated 2e-12 together, 9e-14 apart).  Exactly
    rounded."""
    poisson = spec.poisson
    anchors = {}
    pieces = [_row_lower(spec.rows)]
    for theta in poisson.thetas:
        weight, scale = theta[:2]
        pieces.append(_theta_lower(theta, 1.0) if _SPLIT / scale / scale >= 1.0 else
                      _anchor(anchors, theta, _theta_anchor).read(
                          1.0, _heat_direct(theta, 1.0, _DUAL_TAIL * weight)))
    for fam in poisson.solos:
        series = mellin_cutoff_integral(fam, 1.0) if _first_delta(fam) == 1.0 else None
        if series is None:
            far, far_err = _e1_sum(Spectrum((fam,)), 1.0)
            pieces.append(_anchor(anchors, fam, _solo_anchor).read(1.0, ([far], [far_err])))
        else:
            pieces.append(([series[0]], [series[1]]))
    value = fsum(term for terms, _ in pieces for term in terms)
    return value, fsum(err for _, errs in pieces for err in errs) + 0.5 * math.ulp(value)


def _guard_eps(spec: Spectrum) -> float:
    """The one cutoff at which log_det_reg checks the cutoff identity: 1e-4,
    or less: half a solo's _first_delta, so that its share of int_0^eps F
    dt/t is its small-time series alone, and half a theta's _SPLIT/c^2 (c
    above about 501), so that mellin_lower of eps*B does not split it."""
    poisson = spec.poisson
    return min([1e-4] + [0.5 * _first_delta(fam) for fam in poisson.solos]
               + [0.5 * _SPLIT / scale / scale for _, scale, _, _ in poisson.thetas])


def _log_det_reg(spec: Spectrum, exp: HeatExpansion, anchors: dict | None = None
                 ) -> tuple[float, float]:
    """log_det_reg's (value, error): the exactly rounded sum of each Poisson
    part's value v, read from its anchor (a row's at 1), each solo's rounded
    on its own, checked by the guard (module docstring); exp is
    default_expansion(spec), and the anchors are kept in `anchors`."""
    # first the error of a spectrum whose lam0 is not a positive float
    _check_eps_lam0(spec, 1.0)
    anchors = {} if anchors is None else anchors
    e1_terms, e1_err = _row_terms([(lam, mult) for lam, mult, _ in spec.rows], 1.0)
    lower, lower_errs = _row_lower(spec.rows)
    parts, errs = [-term for term in e1_terms + lower], [e1_err] + lower_errs
    for theta in spec.poisson.thetas:
        piece, piece_errs = _anchor(anchors, theta, _theta_anchor).value()
        parts += piece
        errs += piece_errs
    for fam in spec.poisson.solos:
        terms, terms_errs = _anchor(anchors, fam, _solo_anchor).value()
        parts.append(fsum(terms))
        errs.append(fsum(terms_errs) + 0.5 * math.ulp(parts[-1]))
    value = fsum(parts)
    err = fsum(errs) + 0.5 * math.ulp(value)
    _require_finite(value, err, "log_det_reg")
    # the guard: E(eps) + value + C(eps) + L(eps) = 0 (module docstring)
    eps = _guard_eps(spec)
    near, near_err = _e1_sum(spec, eps)
    tail, tail_err = mellin_lower(scale_spectrum(spec, eps))
    b_terms, b_errs = _cutoff_terms(spec, exp, eps)
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
    anchors = {}
    value, err = _log_det_reg(spec, exp, anchors)
    grid = tuple(float(e) for e in eps_grid)
    return RegDetReport(
        eps_grid=grid,
        log_det_eps=tuple(-value for value, _ in _e1_split(spec, grid, anchors)),
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
