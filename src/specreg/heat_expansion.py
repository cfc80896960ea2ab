"""Small-time expansion of the heat trace and its remainder.

tr exp(-t*B)  ~  sum_j b_j t^(j/m),   j = -J .. m-1,

with remainder F(t) = tr exp(-t*B) - sum_j b_j t^(j/m) satisfying |F| <= C*t
on (0, 1].  Every expansion is kernel-free: the trace runs over the positive
spectrum, so b_0 is the primed b_0' (the reports add kernel_dim beside it).

Coefficient sources:

* analytic  - exact table for lattice families (m=2, J=2), read from
  Spectrum.poisson: each theta of weight w contributes w*sqrt(pi)/scale to
  b_{-1} and nothing to b_0, each exponential its weight to b_0 (explicit
  rows their multiplicity, a removed n = 0 term a negative weight), and
  each solo sqrt(pi)/(2*scale) * mult to b_{-1} and -mult*(1/2 +
  shift/scale) to b_0.  Coefficient derivatives along the stored
  deformation: only b_0 moves, by -mult*shift_derivative/scale per
  one-sided family.
* finite    - exact m=1, J=1 expansion for explicit spectra with the sharp
  remainder bound C = sum mult*lam (since |expm1(-x)| <= x).
* fitted    - least squares in the t^(j/m) basis on a user grid, for
  verify_remainder_bound; the determinant and zeta routes never read one.

The remainder is evaluated cancellation-free from the same data: each theta
through its dual (Poisson) series, each exponential via expm1.  A solo uses
its exact small-time power series F = sum_k a_k t^k (coefficients from odd
Bernoulli polynomials of 1 + shift/scale, computed in double precision from
their Fourier series and cached per family) whenever the dual terms are
certifiably below 1e-20; only above that window does it fall back to a
direct big-minus-big difference, which is then short and carries ~1e-14
noise.  The determinant route evaluates no F: regdet reads the cutoff
identity part by part, each solo's lower integral its series integral
mellin_cutoff_integral, and the b-terms carry _coeff_rounding.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from math import fsum
from operator import add, mul
from typing import Callable

from .errors import DomainError, FitConditionError, UnsupportedSpectrumError
from .spectra import (
    ABS_TOL,
    SQRT_PI,
    LatticeFamily,
    Spectrum,
    heat_trace,
    _direct_run,
    _dual_decay,
    _theta_rest,
    _Validated,
)


class HeatExpansion(_Validated, namedtuple(
        "HeatExpansion", "m J coeffs source remainder_bound coeff_derivatives")):
    """Expansion data: coeffs maps j -> b_j for -J <= j <= m-1."""

    __slots__ = ()

    def __new__(cls, m: int, J: int, coeffs: dict[int, float], source: str,
                remainder_bound: float, coeff_derivatives: dict[int, float]):
        self = super().__new__(cls, m, J, coeffs, source, remainder_bound, coeff_derivatives)
        if m < 1 or J < 0:
            raise DomainError(f"need m >= 1 and J >= 0, got m={m}, J={J}")
        expected = set(range(-J, m))
        if set(coeffs) != expected:
            raise DomainError(f"coeffs must cover j = {-J}..{m - 1}, got {sorted(coeffs)}")
        return self

    @property
    def b0(self) -> float:
        return self.coeffs[0]


def expansion_value(exp: HeatExpansion, t: float) -> float:
    """sum_j b_j t^(j/m) at a single t > 0."""
    if not t > 0.0:
        raise DomainError(f"expansion defined for t > 0, got {t!r}")
    return fsum(exp.coeffs[j] * t ** (j / exp.m) for j in sorted(exp.coeffs))


# The small-time series of a shifted one-sided lattice trace,
#
#   sum_{n>=1} exp(-t*(c*n+theta)^2)
#     = sqrt(pi)/(2c) t^(-1/2) - (1/2 + theta/c) + sum_{k>=1} a_k t^k + O(exp(-pi^2/(c^2 t))),
#
# has a_k = (-1)^(k+1) c^(2k) B_{2k+1}(1 + theta/c) / (k! (2k+1)) with B_n(q)
# the Bernoulli polynomials (for theta = 0 every a_k vanishes: the family is
# then half a theta sum less 1/2).  The series has zero radius but its terms only
# start growing near k ~ pi^2/(c^2 t), so truncating at the smallest term
# leaves an error comparable to the dual terms already being neglected.
_SERIES_KMAX = 60

# For x in [0, 1] and n = 2k+1 >= 3 (DLMF 24.8.2),
#   B_n(x) = (-1)^(k+1) 2 n! / (2 pi)^n * S_k(x),  S_k(x) = sum_{j>=1} sin(2 pi j x) / j^n,
# so the part of a_k carried by B_n(x) is (1/pi) * (2k)!/k! * (c/(2 pi))^(2k) * S_k(x).
# Since |sin(2 pi j x)| <= j |sin(2 pi x)|, the terms j <= J_n with
# J_n^(2-n)/(n-2) <= 1e-17 leave a relative tail below 1e-17 (J_9 = 204,
# J_n = 2 from n = 53 on); n = 3, 5, 7 use the polynomials instead.
_SINE_WEIGHTS = tuple(
    tuple(j ** -float(n) for j in range(1, math.ceil((1e17 / (n - 2)) ** (1.0 / (n - 2))) + 1))
    for n in range(9, 2 * _SERIES_KMAX + 2, 2))
# S_k(x) = (-1)^(k+1) (2 pi)^n / (2 n!) * B_n(x) for k = 1, 2, 3
_POLY_TO_SINE = tuple((2.0 * math.pi) ** n / (2.0 * math.factorial(n)) for n in (3, 5, 7))
# the power part costs one pass per whole scale in the shift; beyond this
# many the table is left empty and callers take the direct evaluation
_MAX_WHOLE_SCALES = 2 ** 18


def _pairwise_sum(terms: list[float]) -> float:
    """Sum by pairwise halving: rounding error grows like log2(len), not len."""
    while len(terms) > 1:
        terms = list(map(add, terms[::2], terms[1::2])) + terms[len(terms) & ~1:]
    return terms[0] if terms else 0.0


@lru_cache(maxsize=256)
def _one_sided_power_coeffs(scale: float, shift: float) -> tuple[float, ...]:
    """(a_1, .., a_K) for one one-sided family, in double precision.

    For shift >= 0, write q = 1 + shift/scale = 1 + M + x0 with M whole and
    x0 in [0, 1); then B_n(q) = B_n(x0) + n * sum_{i=0..M} (x0 + i)^(n-1), and
    each u = (x0 + i)*scale adds (-1)^(k+1) u^(2k)/k! to a_k, the Taylor
    coefficient of 1 - exp(-t*u^2).  For shift < 0, B_n(q) = -B_n(-shift/scale).
    B_n(x) is then reflected onto x in [0, 1/2] (B_n(1 - x) = -B_n(x)) and
    taken from the sine series above, or for n < 9 from B_3 = x(x-1/2)(x-1),
    B_5 = B_3 (x^2-x-1/3), B_7 = B_3 (x^4-2x^3+x+1/3).  The reduced arguments
    x and 1/2 - x are formed from exact float differences (fmod and
    Sterbenz), not from the rounded ratio shift/scale, so B_n keeps its full
    relative accuracy next to its zeros at x = 0 and 1/2.

    The list is truncated early if a coefficient overflows float range (only
    possible for extreme scale values), and left empty if the shift spans
    more than _MAX_WHOLE_SCALES scales; callers then fall back to the direct
    evaluation sooner.
    """
    if shift < 0.0:
        y, sign, pieces = -shift, -1.0, 0
    else:
        y, sign = math.fmod(shift, scale), 1.0
        whole = (shift - y) / scale
        if whole >= _MAX_WHOLE_SCALES:
            return ()
        pieces = round(whole) + 1
    # u*u and plain additions, since float ** and fsum raise OverflowError
    # where the table should instead end at its first infinite coefficient
    coeffs = []
    u2 = [u * u for u in (y + scale * i for i in range(pieces))]
    term = [1.0] * pieces
    for k in range(1, _SERIES_KMAX + 1):
        term = [a * (b / k) for a, b in zip(term, u2)]
        coeffs.append((-1.0) ** (k + 1) * _pairwise_sum(term))
        if not math.isfinite(coeffs[-1]):
            break  # every later power sum overflows too
    if y > 0.5 * scale:
        y, sign = scale - y, -sign
    x = y / scale
    gap = (0.5 * scale - y) / scale
    if x != 0.0 and gap != 0.0:
        if x <= gap:
            theta, flip = 2.0 * math.pi * x, 1.0
        else:
            # sin(2 pi j (1/2 - gap)) = (-1)^(j+1) sin(2 pi j gap)
            theta, flip = 2.0 * math.pi * gap, -1.0
        sines = [flip ** (j + 1) * math.sin(theta * j)
                 for j in range(1, len(_SINE_WEIGHTS[0]) + 1)]
        # B_3, -B_5, B_7 with p = x(1-x) and x - 1/2 = -gap
        p = x * (1.0 - x)
        low = (gap * p, gap * p * (p + 1.0 / 3.0), gap * p * (p * p + p + 1.0 / 3.0))
        sums = [b * f for b, f in zip(low, _POLY_TO_SINE)] + [
            fsum(w * v for w, v in zip(weights, sines)) for weights in _SINE_WEIGHTS]
        # the running prefactor (2k)!/k! (c/(2 pi))^(2k) starts at the size
        # sin(2 pi x) of S_k, so it overflows only where a_k itself does
        c_over_2pi = scale / (2.0 * math.pi)
        prefactor = sign * sines[0] / math.pi
        for k, series in enumerate(sums[:len(coeffs)], start=1):
            prefactor *= 2.0 * (2 * k - 1) * (c_over_2pi * c_over_2pi)
            coeffs[k - 1] += prefactor * (series / sines[0])
    kept = next((k for k, a in enumerate(coeffs) if not math.isfinite(a)), len(coeffs))
    return tuple(coeffs[:kept])


def _one_sided_series(fam: LatticeFamily, coeffs: tuple[float, ...], t: float) -> float | None:
    """Series value of a shifted one-sided remainder, or None out of reach;
    coeffs is the family's _one_sided_power_coeffs table."""
    if _dual_decay(fam.scale, t) < 50.0:
        return None
    total = 0.0
    prev = math.inf
    power = 1.0
    for a in coeffs:
        power *= t
        term = a * power
        if abs(term) > prev:
            return None
        prev = abs(term)
        total += term
        if abs(term) <= 1e-19 * max(1.0, abs(total)):
            return fam.mult * total
    return None


def _solo_coeffs(fam: LatticeFamily) -> tuple[float, float]:
    """(b_{-1}, b_0) of one one-sided family's trace."""
    return fam.mult * SQRT_PI / (2.0 * fam.scale), -fam.mult * (0.5 + fam.shift / fam.scale)


def analytic_expansion(spec: Spectrum) -> HeatExpansion:
    """Exact m=2, J=2 expansion for lattice (plus explicit) spectra.

    Coefficient derivatives are populated from the families' shift
    derivatives.  The remainder bound C is scanned on [1e-3, 1]
    (_scan_remainder_bound).
    """
    exp = _analytic_coeffs(spec)
    return exp._replace(remainder_bound=_scan_remainder_bound(spec, exp))


def _analytic_coeffs(spec: Spectrum) -> HeatExpansion:
    """analytic_expansion without the scan of C, left at 0.0, which the
    determinant and zeta routes never read."""
    poisson = spec.poisson
    solos = [_solo_coeffs(fam) for fam in poisson.solos]
    b_minus1 = fsum([weight * SQRT_PI / scale for weight, scale, _, _ in poisson.thetas]
                    + [bm1 for bm1, _ in solos])
    b0 = fsum([weight for _, weight in poisson.exponentials] + [b for _, b in solos])
    # only one-sided families have a shift-dependent b_0
    db0 = fsum(-fam.mult * fam.shift_derivative / fam.scale
               for fam in spec.lattices if fam.side == "positive")
    coeffs = {-2: 0.0, -1: b_minus1, 0: b0, 1: 0.0}
    derivs = {-2: 0.0, -1: 0.0, 0: db0, 1: 0.0}
    return HeatExpansion(m=2, J=2, coeffs=coeffs, source="analytic",
                         remainder_bound=0.0, coeff_derivatives=derivs)


def finite_expansion(spec: Spectrum) -> HeatExpansion:
    """Exact m=1, J=1 expansion for explicit spectra; C = sum mult*lam."""
    if spec.lattices:
        raise UnsupportedSpectrumError("finite_expansion needs an explicit spectrum")
    total = 0
    c_bound = 0.0
    for lam, mult, _ in spec.rows:
        total += mult
        c_bound += mult * lam
    return HeatExpansion(m=1, J=1, coeffs={-1: 0.0, 0: float(total)}, source="finite",
                         remainder_bound=c_bound,
                         coeff_derivatives={-1: 0.0, 0: 0.0})


def _jacobi_svd(columns: list[list[float]]):
    """One-sided Jacobi SVD (Golub & Van Loan, *Matrix Computations*, 8.6) of
    a tall matrix A given by its columns: rotate column pairs until all are
    orthogonal to working precision, so A V = W with W_j = sigma_j u_j.
    Returns (W, sigma, V), W and V by columns.  Unlike the Gram matrix, whose
    condition is the square, this keeps the singular values accurate.
    """
    w = [list(col) for col in columns]
    p = len(w)
    v = [[float(i == j) for j in range(p)] for i in range(p)]
    for _ in range(60):
        rotated = False
        for j in range(p - 1):
            for k in range(j + 1, p):
                alpha = fsum(x * x for x in w[j])
                beta = fsum(x * x for x in w[k])
                gamma = fsum(map(mul, w[j], w[k]))
                if abs(gamma) <= 2.0 ** -52 * math.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                tan = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                cos = 1.0 / math.hypot(1.0, tan)
                sin = cos * tan
                for cols in (w, v):
                    cols[j], cols[k] = ([cos * a - sin * b for a, b in zip(cols[j], cols[k])],
                                        [sin * a + cos * b for a, b in zip(cols[j], cols[k])])
        if not rotated:
            break
    sigma = [math.hypot(*col) for col in w]
    return w, sigma, v


def fit_expansion(spec: Spectrum, grid, max_condition: float = 1e12) -> HeatExpansion:
    """Least-squares fit of the t^(j/m) basis, m = J = 2 as for a lattice
    spectrum, to the heat trace on `grid`.

    The grid must lie in (0, 1] and carry at least J+m+2 = 6 points.
    Columns are normalised, and one SVD of that matrix gives both its
    2-norm condition number (above max_condition raises FitConditionError)
    and the solution.  The remainder bound is estimated from the scaled
    residuals (doubled for safety).
    """
    m = J = 2
    ts = sorted(float(t) for t in grid)
    if len(ts) < J + m + 2:
        raise DomainError(f"fit grid needs at least {J + m + 2} points, got {len(ts)}")
    if not all(0.0 < t <= 1.0 for t in ts) or len(set(ts)) != len(ts):
        raise DomainError("fit grid must be distinct points in (0, 1]")
    columns = [[t ** (j / m) for t in ts] for j in range(-J, m)]
    norms = [math.hypot(*col) for col in columns]
    w, sigma, v = _jacobi_svd([[x / nrm for x in col] for col, nrm in zip(columns, norms)])
    condition = max(sigma) / min(sigma) if min(sigma) > 0.0 else math.inf
    if condition > max_condition:
        raise FitConditionError(
            f"fit basis condition {condition:.3e} exceeds {max_condition:.1e}")
    y = [heat_trace(spec, t) for t in ts]
    # least squares through the SVD, dropping singular values below the
    # relative cutoff eps*max(rows, columns) as LAPACK's lstsq does
    cutoff = 2.0 ** -52 * len(ts) * max(sigma)
    weights = [fsum(map(mul, col, y)) / (sg * sg) if sg > cutoff else 0.0
               for col, sg in zip(w, sigma)]
    coeff_vec = [fsum(map(mul, row, weights)) / nrm for row, nrm in zip(zip(*v), norms)]
    coeffs = dict(zip(range(-J, m), coeff_vec))
    c_bound = 2.0 * max(abs(yi - fsum(col[i] * c for col, c in zip(columns, coeff_vec))) / t
                        for i, (t, yi) in enumerate(zip(ts, y)))
    return HeatExpansion(m=m, J=J, coeffs=coeffs, source="fitted",
                         remainder_bound=c_bound,
                         coeff_derivatives={j: 0.0 for j in range(-J, m)})


def remainder_fn(spec: Spectrum, exp: HeatExpansion) -> Callable[[float], float]:
    """t -> F(t) = tr exp(-t*B) - sum_j b_j t^(j/m), for t > 0.

    For analytic/finite sources F is evaluated from Spectrum.poisson as in
    the module docstring: the sum of w*_theta_rest over its thetas,
    w*expm1(-t*lam) over its exponentials and each solo's series or direct
    difference; for fitted sources it is the direct difference against the
    fitted coefficients.  A theta takes its dual series alone and refuses
    where spectra.heat_trace_theta does, past c*sqrt(t) of about 5e5.  The
    solos' series coefficients and b-coefficients are resolved here, once,
    so a caller evaluating F at many t (verify_remainder_bound) builds it
    once.
    """
    if exp.source == "fitted":
        return lambda t: heat_trace(spec, t) - expansion_value(exp, t)
    if exp.source == "finite" and spec.lattices:
        raise UnsupportedSpectrumError("finite expansion paired with a lattice spectrum")
    poisson = spec.poisson
    # (family, coefficients, b_{-1}, b_0) per solo
    solos = [(fam, _one_sided_power_coeffs(fam.scale, fam.shift)) + _solo_coeffs(fam)
             for fam in poisson.solos]

    def value(t: float) -> float:
        if not t > 0.0:
            raise DomainError(f"remainder defined for t > 0, got {t!r}")
        parts = [weight * _theta_rest(scale, shift, t)
                 for weight, scale, shift, _ in poisson.thetas]
        parts.extend(weight * math.expm1(-t * lam) for lam, weight in poisson.exponentials)
        for fam, coeffs, bm1, b0 in solos:
            # series at small t, else direct
            series = _one_sided_series(fam, coeffs, t)
            if series is not None:
                parts.append(series)
            else:
                trace_fam = _direct_run(fam, t, ABS_TOL * 0.25)
                parts.append(trace_fam - bm1 / math.sqrt(t) - b0)
        return fsum(parts)

    return value


# The coefficients' rounding as _analytic_coeffs forms them, u = 2^-53: a
# solo's b_0 = -mult*(1/2 + r), r = shift/scale, rounds r, the sum and the
# product, u*mult*(|r| + 2|1/2 + r|) <= 3u*mult*(1/2 + |r|); each term
# w*sqrt(pi)/c of b_{-1} takes float sqrt(pi) (1.2 u), a product and a
# division, 3.2 u, and the terms are all positive, so with half an ulp of
# their sum b_{-1} is good to 4.2 u, stated as 4.5 u.
_B0_ROUNDING = 3.0 * 2.0 ** -53
_BM1_ROUNDING = 4.5 * 2.0 ** -53


def _coeff_rounding(spec: Spectrum, exp: HeatExpansion) -> dict[int, float]:
    """j -> a bound on the rounding of b_j in exp, the default expansion of
    spec: analytic (_BM1_ROUNDING of b_{-1}; the solos' _B0_ROUNDING and
    half an ulp of the sum for b_0, whose other weights are exact) or
    finite (exact counts); the zero coefficients are exact."""
    errs = {j: 0.0 for j in exp.coeffs}
    if exp.source == "analytic":
        errs[-1] = _BM1_ROUNDING * abs(exp.coeffs[-1])
        errs[0] = fsum(_B0_ROUNDING * fam.mult * (0.5 + abs(fam.shift / fam.scale))
                       for fam in spec.poisson.solos) + 0.5 * math.ulp(exp.b0)
    return errs


def remainder(spec: Spectrum, exp: HeatExpansion, t: float) -> float:
    """F(t) = tr exp(-t*B) - sum_j b_j t^(j/m) at one t > 0; see remainder_fn,
    which callers evaluating F at many t should build once instead."""
    return remainder_fn(spec, exp)(t)


# Rounding allowance of a cutoff series per unit of k*|term_k|: the
# coefficient (Bernoulli tables good to ~2k ulps of their larger part, or k
# products), the k products of the running power of delta and the division
# each cost a few ulps; the terms themselves are summed exactly rounded.
_CUTOFF_ROUNDING = 8.0 * 2.0 ** -52


def mellin_cutoff_integral(fam: LatticeFamily, delta: float) -> tuple[float, float] | None:
    """int_0^delta F(t) dt/t for one solo fam (an unpaired shifted one-sided
    family of Spectrum.poisson), F the remainder of its own analytic
    expansion, from its exact small-time series F = sum a_k t^k, integrated
    term by term.

    The Poisson dual terms the series omits must decay at least like
    exp(-50 k^2) at delta, and the series must fall below 1e-22 of its sum
    before its terms start growing.  The error bound adds the dual terms'
    bound, the last term and the rounding allowance.  Returns (value,
    error_bound), or None when the series does not certify at delta
    (regdet's solo integral then tries a smaller delta).  Any delta > 0 may
    be asked for; the checks, not a fixed cap, decide.
    """
    if not 0.0 < delta:
        return None
    decay = _dual_decay(fam.scale, delta)
    if decay < 50.0:
        return None
    # dual terms contribute below prefactor*exp(-decay) on (0, delta]
    prefactor = fam.mult * SQRT_PI / (fam.scale * math.sqrt(delta))
    dual_err = 2.0 * prefactor * math.exp(-decay)
    terms: list[float] = []
    total = 0.0
    prev = math.inf
    weighted = 0.0
    power = 1.0
    for k, a in enumerate(_one_sided_power_coeffs(fam.scale, fam.shift), start=1):
        power *= delta
        term = a * power / k
        if abs(term) > prev:
            return None
        prev = abs(term)
        terms.append(term)
        total += term
        weighted += k * abs(term)
        if abs(term) <= 1e-22 * max(1.0, abs(total)):
            err = fam.mult * (abs(term) + _CUTOFF_ROUNDING * weighted)
            return fam.mult * fsum(terms), dual_err + err + 1e-18
    return None


def _scan_remainder_bound(spec: Spectrum, exp: HeatExpansion) -> float:
    """Empirical C with |F(t)| <= C*t, scanned on a log grid in [1e-3, 1]."""
    return 2.0 * verify_remainder_bound(spec, exp, [10.0 ** (-3 + k / 8) for k in range(25)])


def verify_remainder_bound(spec: Spectrum, exp: HeatExpansion, grid) -> float:
    """max_t |F(t)|/t over a grid; <= exp.remainder_bound when the bound holds."""
    value = remainder_fn(spec, exp)
    worst = 0.0
    for t in grid:
        worst = max(worst, abs(value(float(t))) / float(t))
    return worst
