"""Scalar special functions for the regularised-determinant machinery.

Everything here is double precision and deterministic: the exponential
integral E1 and its entire companion Ein, from fixed polynomial tables
(Taylor below 1, Chebyshev interpolants of x*exp(x)*E1(x) from 1 on, each
summed by Horner's rule), the Gamma function (math.gamma
with typed poles), the upper and lower incomplete gamma functions scaled by
x^(-a) (zeta_value's closed form), the digamma function, the Hurwitz zeta
function (Euler-Maclaurin), the Euler-Mascheroni constant by two
independent routes (used by the `specreg gamma` self-check), and the
closed forms of the Euler-Maclaurin tail of the lattice summands (tail
integrals, derivatives and remainder bounds) that spectra._lattice_sum
closes its long runs with.  hurwitz_zeta keeps its own Euler-Maclaurin
sum: it is the oracle of zeta_direct and of zeta_value's solos, which go
through _lattice_sum.
"""

from __future__ import annotations

import math
import sys
from math import fsum

from .errors import DomainError, NumericError, PoleError
from .quadrature import gauss_kronrod

# Euler-Mascheroni constant, correctly rounded double.
EULER_GAMMA = 0.5772156649015328606065120900824024

TWO_PI = 2.0 * math.pi

# unit roundoff
_U = 2.0 ** -53
# relative errors of exp_integral_e1 and _ein: the worst measured on any of
# their pieces against 40-digit mpmath (their docstrings: 5.8 u and 2.1 u,
# on the points of tests/test_special.py and on ten times as many), rounded
# up to a power of two; an E1 term adds its argument's rounding (_e1_error);
# and of math.erfc (within 2.7 u of mpmath on [0, 26.5])
_E1_ROUNDING = 8.0 * _U
_EIN_ROUNDING = 4.0 * _U
_ERFC_ROUNDING = 4.0 * _U
# the smallest normal double
_NORMAL_MIN = sys.float_info.min


# Polynomial tables of exp_integral_e1 and _ein, highest power first, each
# summed by Horner's rule.  tests/test_special.py rebuilds every table with
# mpmath and checks that it equals the committed one.  Each degree is the
# lowest whose first dropped term is below u/4 of the piece's smallest value.
#
# Ein(x)/x = sum_{k>=0} (-1)^k x^k/((k+1)(k+1)!) (DLMF 6.6.4), through
# degree 16 on [0.25, 1) and 11 (the last 12 coefficients) below 0.25.
_EIN_TAYLOR = (
    1.6537983849091297e-16, -2.9871733327421158e-15, 5.0981091545465446e-14,
    -8.193389712664089e-13, 1.2353110643708935e-11, -1.7397297489890083e-10,
    2.27746439867652e-09, -2.755731922398589e-08, 3.0619243582206544e-07,
    -3.1001984126984127e-06, 2.834467120181406e-05, -0.0002314814814814815,
    0.0016666666666666668, -0.010416666666666666, 0.05555555555555555, -0.25, 1.0,
)
_EIN_TAYLOR_SHORT = _EIN_TAYLOR[-12:]
# g(x) = x exp(x) E1(x) (DLMF 6.8.1: 1/2 < g < 1 for x >= 1), interpolated at
# the Chebyshev points of the first kind from 40-digit mpmath values and
# written out in monomials of t: degree 19 on [1, 2] in t = 2x - 3, degree
# 19 on [2, 4] in t = x - 3 and degree 25 on [4, inf) in t = 8/x - 1.
_G_1_2 = (
    5.1508041022925595e-12, -1.7025847932825592e-11, 3.0803215241102515e-11,
    -1.0377537449060462e-10, 4.0674501625024094e-10, -1.3841785331632418e-09,
    4.685371428144805e-09, -1.6240537378571917e-08, 5.6954586196587714e-08,
    -2.0208902967153363e-07, 7.276360964909993e-07, -2.6657063330130347e-06,
    9.969588472249185e-06, -3.82276862407574e-05, 0.00015112891068722235,
    -0.0006205521421678448, 0.002672210894234232, -0.012221040518266387,
    0.06032083661447869, 0.6723850039373744,
)
_G_2_4 = (
    8.898696687825777e-12, -2.919562140680952e-11, 5.169208685895561e-11,
    -1.723500527088338e-10, 6.724123461743093e-10, -2.2597085270343483e-09,
    7.533025319561065e-09, -2.5685975949184738e-08, 8.839554690639614e-08,
    -3.0679468473469733e-07, 1.0762412040107013e-06, -3.82231599488987e-06,
    1.3769260716051317e-05, -5.042787001490753e-05, 0.00018829873306012323,
    -0.0007194029193250904, 0.0028244809960595555, -0.011457316028371464,
    0.048334961021273985, 0.7862512207659554,
)
_G_4_INF = (
    -8.001615440631582e-10, 1.3285774745001097e-09, 2.9736042588853118e-09,
    -4.8625955150373845e-09, -6.936769924234592e-09, 1.1500621715097312e-08,
    5.75650301385878e-09, -8.878663409757859e-09, -1.3475768564487912e-08,
    2.462767137675858e-08, -2.6481877592364328e-08, 5.6338975575042305e-08,
    -1.3215123474013128e-07, 2.8822257569074726e-07, -6.45255688616513e-07,
    1.5063951919336178e-06, -3.6597936535096397e-06, 9.305059491892854e-06,
    -2.4960876882546316e-05, 7.138003833004577e-05, -0.0002207091278137072,
    0.0007530386322150118, -0.0029245277761943867, 0.013618587371725343,
    -0.08413402625195046, 0.8982371140279946,
)


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf exp(-u)/u du, x > 0.

    Below 1, E1(x) = x*P(x) - gamma - ln(x) with P(x) = Ein(x)/x from
    _EIN_TAYLOR (degree 11 below 0.25, 16 on [0.25, 1)); from 1 on, E1(x) =
    g(t)*exp(-x)/x with g from _G_1_2, _G_2_4 or _G_4_INF (degrees 19, 19
    and 25; Cody and Thacher, Math. Comp. 22, 1968, split at 1 and 4 too,
    with rational functions).  Beyond ~745 the result underflows cleanly to
    0.0, and E1(inf) is 0.0, for an eps*lam that overflows.

    Relative error, measured against 40-digit mpmath on 1.6e4 points
    (tests/test_special.py: 2500 per piece, packed at each boundary, next to
    1e-300 and up to 745, and 3400 below 1): at most 2.3 u (u = 2^-53) below
    0.25, 5.8 u on [0.25, 1) (where gamma + ln(x) cancels x*P(x) by up to a
    factor 3.6), 2.9 u on [1, 2), 3.5 u on [2, 4) and 3.2 u on [4, 745]; a
    result below the normal range (x above ~708) is within 2^-1074.  On ten
    times as many points of the same pieces the worst is 6.2 u, on [0.25,
    1).  _E1_ROUNDING = 8 u states every piece.
    """
    if not x > 0.0:
        raise DomainError(f"E1 requires x > 0, got {x!r}")
    if x < 1.0:
        p = 0.0
        for coeff in _EIN_TAYLOR_SHORT if x < 0.25 else _EIN_TAYLOR:
            p = p * x + coeff
        return x * p - EULER_GAMMA - math.log(x)
    if x < 2.0:
        t, coeffs = 2.0 * x - 3.0, _G_1_2
    elif x < 4.0:
        t, coeffs = x - 3.0, _G_2_4
    elif x == math.inf:
        return 0.0
    else:
        t, coeffs = 8.0 / x - 1.0, _G_4_INF
    g = 0.0
    for coeff in coeffs:
        g = g * t + coeff
    return g / x * math.exp(-x)


def _ein(x: float) -> float:
    """Ein(x) = int_0^x (1 - exp(-u))/u du = gamma + ln(x) + E1(x), x > 0
    (DLMF 6.2.3).

    Below 1, x*P(x) with exp_integral_e1's Taylor table, so small x loses
    nothing to cancellation; from 1 on, gamma + ln(x) + E1(x), three positive
    terms.  The relative error stays below _EIN_ROUNDING = 4 u (u = 2^-53):
    measured against 40-digit mpmath on 1.25e4 points of exp_integral_e1's
    pieces (tests/test_special.py), at most 1.5 u below 1 and 2.1 u from 1
    on, where the sum carries two roundings, an ulp of ln(x) and E1's 3.5 u
    of a term below 0.22 against a value above 0.79; on ten times as many
    points, 1.7 u and 2.1 u.
    """
    if not x > 0.0:
        raise DomainError(f"Ein requires x > 0, got {x!r}")
    if x >= 1.0:
        return EULER_GAMMA + math.log(x) + exp_integral_e1(x)
    p = 0.0
    for coeff in _EIN_TAYLOR_SHORT if x < 0.25 else _EIN_TAYLOR:
        p = p * x + coeff
    return x * p


def _e1_error(weight: float, term: float, x: float, rounding: float) -> float:
    """The error bound of one E1 term, term = weight*exp_integral_e1(x), whose
    argument x carries the relative rounding `rounding` (0.0 where x is
    exact): E1's own _E1_ROUNDING, u for the product with the weight, and
    `rounding` times E1's relative sensitivity exp(-x)/E1(x) < 2/log1p(2/x)
    (from E1(x) > exp(-x)*log(1 + 2/x)/2, DLMF 6.8.2), below 2 for x < 1 and
    tending to x + 1 above.  A rounded x below the normal range is off by up
    to 2^-1075 absolute, which moves E1 (slope -exp(-x)/x, exp(-x) = 1.0) by
    at most 2^-1074/x per unit of |weight|, and its sensitivity is taken at
    the smallest normal x, where 2/x is finite.  A term that underflowed to
    0.0 (x above about 745, or inf) states 0.0.
    """
    if not term:
        return 0.0
    if x < _NORMAL_MIN and rounding:
        return (abs(term) * (_E1_ROUNDING + _U + rounding * 2.0 / math.log1p(2.0 / _NORMAL_MIN))
                + abs(weight) * 2.0 ** -1074 / x)
    return abs(term) * (_E1_ROUNDING + _U + rounding * 2.0 / math.log1p(2.0 / x))


def _ein_error(term: float, weight: float, x: float, rounding: float) -> float:
    """The error bound of one Ein term, term = weight*_ein(x), whose argument
    x carries the relative rounding `rounding`: _EIN_ROUNDING, u for the
    product with the weight, and |weight|*rounding*min(x, 1) by x*Ein'(x) =
    1 - exp(-x)."""
    return (_EIN_ROUNDING + _U) * abs(term) + abs(weight) * rounding * min(x, 1.0)


def gamma_fn(s: float) -> float:
    """Gamma(s) by math.gamma, with PoleError at the poles s = 0, -1, -2, ...

    Relative error at most 8.4 u, measured against mpmath on 2e4 points of
    [-2, 30] including points within 1e-6 of the poles; _GAMMA_ROUNDING =
    16 u states it.  OverflowError past s ~ 171.6.
    """
    if s <= 0.0 and s == math.floor(s):
        raise PoleError(f"Gamma has a pole at s = {s!r}")
    return math.gamma(s)


# relative errors of gamma_fn and upper_gamma_scaled (see their docstrings)
_GAMMA_ROUNDING = 16.0 * _U
# error of math.lgamma relative to max(1, |log Gamma(q)|): at most 12.5 u,
# measured against 40-digit mpmath on 3e4 points of q in [1e-8, 1e6], packed
# next to the zeros at 1 and 2 and below 1e-3
_LGAMMA_ROUNDING = 16.0 * _U
_GAMMA_INC_ROUNDING = 48.0 * _U

# G1(b) = (1/Gamma(1 + b) - 1)/b = sum_j _G1_COEFFS[j] b^j: the Taylor
# coefficients c_2, c_3, .. of 1/Gamma(z) = sum_k c_k z^k (DLMF 5.7.1),
# correctly rounded (from 50-digit mpmath).  At |b| <= 1/2 the first omitted
# term is below 2e-21.
_G1_COEFFS = (
    EULER_GAMMA, -0.6558780715202539, -0.04200263503409524, 0.16653861138229148,
    -0.04219773455554433, -0.009621971527876973, 0.0072189432466631,
    -0.0011651675918590652, -0.00021524167411495098, 0.0001280502823881162,
    -2.013485478078824e-05, -1.2504934821426706e-06, 1.133027231981696e-06,
    -2.056338416977607e-07, 6.116095104481416e-09, 5.002007644469223e-09,
    -1.18127457048702e-09, 1.0434267116911005e-10, 7.782263439905071e-12,
    -3.696805618642206e-12, 5.100370287454476e-13, -2.0583260535665066e-14,
)


def _upper_gamma_cf(a: float, x: float) -> float:
    """x^(-a) Gamma(a, x) by the Legendre continued fraction (DLMF 8.9.2)

        exp(-x) / (x + 1 - a - 1(1-a)/(x + 3 - a - 2(2-a)/(x + 5 - a - ...))).

    Modified Lentz (Gautschi, ACM TOMS 5, 1979; Numerical Recipes 5.2) finds
    the depth n at which one more level changes the value by less than
    1e-16 relative; the fraction is then evaluated bottom-up from level n,
    which does not accumulate one rounding per level into the result as
    Lentz's running product does (90 u against 14 u at x = 1).  Every
    denominator below `tiny` in magnitude is replaced by `tiny`, the first
    one too: it is 0.0 at a = x + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / (b if b >= tiny or b <= -tiny else tiny)
    for n in range(1, 1000):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if d >= tiny or d <= -tiny else tiny)
        c = b + an / c
        c = c if c >= tiny or c <= -tiny else tiny
        if -1e-16 < d * c - 1.0 < 1e-16:
            break
    else:
        raise NumericError(f"Gamma({a!r}, {x!r}): continued fraction does not converge")
    f = x + 2 * n + 1.0 - a
    for i in range(n, 0, -1):
        f = (x + 2 * i - 1.0 - a) - i * (i - a) / f
    return math.exp(-x) / f


def _upper_gamma_temme(b: float, x: float) -> float:
    """x^(-b) Gamma(b, x) for |b| <= 1/2, 0 < x < 0.8, from

        Gamma(b, x) = Gamma(b) - x^b/b - x^b sum_{k>=1} (-x)^k/(k! (b+k))

    (DLMF 8.7.3), regrouped (Temme; Gautschi 1979) so that b -> 0 is smooth:
    x^(-b) Gamma(b) - 1/b = x^(-b) (Gamma(1+b) - 1)/b + (x^(-b) - 1)/b, the
    first -x^(-b) G1(b)/(1 + b G1(b)) with G1 from _G1_COEFFS, the second
    expm1(-b ln x)/b (-ln x at b = 0), or (x^(-b) - 1)/b once |b ln x| >= 1,
    where expm1 would carry the rounding of b ln x into a large power.  At
    b = 0 this is the series of E1 (DLMF 6.6.2)."""
    g1 = 0.0
    for coeff in reversed(_G1_COEFFS):
        g1 = g1 * b + coeff
    power = x ** -b
    log_x = math.log(x)
    if b == 0.0:
        second = -log_x
    elif abs(b * log_x) < 1.0:
        second = math.expm1(-b * log_x) / b
    else:
        second = (power - 1.0) / b
    terms = [-power * g1 / (1.0 + b * g1), second]
    term = 1.0
    for k in range(1, 60):
        term *= -x / k
        terms.append(-term / (b + k))
        if abs(term) < 1e-19:
            break
    return fsum(terms)


def upper_gamma_scaled(a: float, x: float) -> float:
    """x^(-a) Gamma(a, x) = int_1^inf t^(a-1) exp(-x*t) dt, for x > 0 and
    a in [-30, 30]: the upper incomplete gamma function, scaled so that x^a
    never leaves the double range on its own.  It is positive and decreasing
    in x, and d/d(ln x) of it is -(a*value + exp(-x)).

    * x >= 0.8 and a <= x + 1: the continued fraction (_upper_gamma_cf);
    * a > 1/2 otherwise: Gamma(a)*x^(-a) - x^(-a) gamma(a, x), the second by
      lower_gamma_scaled's series; there Gamma(a, x) >= Gamma(a)/5, so the
      difference loses less than three bits;
    * a <= 1/2 and x < 0.8: Temme's form (_upper_gamma_temme) at b = a + m
      in (-1/2, 1/2], then m steps of DLMF 8.8.2 down,
      x^(-b+1) Gamma(b-1, x) = (x * x^(-b) Gamma(b, x) - exp(-x))/(b - 1),
      whose subtraction cancels at most a factor 4 for x < 0.8.
    The series lose most next to x = 0.8 (Temme's form at b = -1/2 sums
    terms 14 times its value) and the continued fraction takes the most
    levels there (about 130), so 0.8 balances the two.

    Relative error, measured against mpmath at 40 digits on 1.3e5 points (a
    in [-2, 30] with x in [1e-300, 60]; a in [-29.5, 2.5] with x in [pi,
    700]; a in [-30, -2] with x in [1e-3, 1]; a within 1e-3 of 0, -1, -2,
    1/2, -1/2, 1; and 9e4 points packed next to x = 0.8 and 1): at most
    28 u (u = 2^-53), where the routes meet at x = 0.8; 19 u elsewhere.
    _GAMMA_INC_ROUNDING = 48 u states it.  A value beyond the double range
    raises OverflowError.
    """
    if not x > 0.0:
        raise DomainError(f"Gamma(a, x) requires x > 0, got {x!r}")
    if not -30.0 - 1e-12 <= a <= 30.0 + 1e-12:  # zeta.S_RANGE's tolerance
        raise DomainError(f"Gamma(a, x) implemented for a in [-30, 30], got {a!r}")
    if x >= 0.8 and a <= x + 1.0:
        return _upper_gamma_cf(a, x)
    if a > 0.5:
        return math.gamma(a) * x ** -a - lower_gamma_scaled(a, x)[0]
    steps = max(0, math.ceil(-a - 0.5))
    b = a + steps
    value = _upper_gamma_temme(b, x)
    for _ in range(steps):
        b -= 1.0
        value = (x * value - math.exp(-x)) / b
    return value


def lower_gamma_scaled(a: float, x: float) -> tuple[float, float]:
    """(x^(-a) gamma(a, x), error bound) for x >= 0 and a not in {0, -1, -2,
    ...}, by the series exp(-x) * sum_{k>=0} x^k/(a(a+1)...(a+k)) (DLMF
    8.7.1); 1/a at x = 0.

    Term k is the previous one times x/(a + k), three roundings, so it is
    good to (3k + 1) u; once a + k + 1 >= 2x the terms shrink at least by
    half each, and the sum stops at the first such term below 2^-60 of the
    running sum of magnitudes, which bounds the omitted tail.  The sum is
    exactly rounded; exp(-x) (one ulp), the product and the sum's rounding
    add 4 u of the value.
    """
    if not x >= 0.0:
        raise DomainError(f"gamma(a, x) requires x >= 0, got {x!r}")
    if a <= 0.0 and a == math.floor(a):
        raise PoleError(f"gamma(a, x) has a pole at a = {a!r}")
    term = 1.0 / a
    terms, weighted, magnitude = [term], abs(term), abs(term)
    k = 0
    while not (a + k + 1.0 >= 2.0 * x and abs(term) <= 2.0 ** -60 * magnitude):
        k += 1
        term *= x / (a + k)
        terms.append(term)
        magnitude += abs(term)
        weighted += (3 * k + 1) * abs(term)
    scale = math.exp(-x)
    value = scale * fsum(terms)
    return value, scale * (_U * weighted + abs(term)) + 4.0 * _U * abs(value)


# Bernoulli numbers B2, B4, ..., B16 for the Euler-Maclaurin tail and the
# digamma asymptotic series.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)


# ---------------------------------------------------------------------------
# Euler-Maclaurin tails of Gaussian and power lattice sums
#
# spectra._lattice_sum sums a run of f(scale*n + sigma), n >= start, directly
# up to N and closes the rest here.  f is one of the summands named by
# `kind`: exp(-rate*u^2) ("heat"), E1(rate*u^2) ("e1"), exp(-rate*u^2)/u
# ("shape") and u^-rate ("power"); a = scale*N + sigma > 0.


# Euler-Maclaurin weights B_2k/(2k)!, k = 1..8 (DLMF 2.10.1).  After the B16
# term the remainder is at most |B_16|/16! * int_N^inf |F^(16)(x)| dx, since
# the periodic Bernoulli function obeys |B~_16(x)| <= |B_16| (DLMF 24.9.1).
_EM_WEIGHTS = tuple(b / math.factorial(2 * k) for k, b in enumerate(_BERNOULLI, start=1))
_EM_REMAINDER = abs(_EM_WEIGHTS[-1])
# Cramer's inequality |H_j(y)|*exp(-y^2/2) <= k*sqrt(2^j j!), k = 1.086435
# (A&S 22.14.17), rounded up; the round-up (6e-5 relative) also covers the
# rounding of the bounds computed from it
_CRAMER = 1.0865
_INV_SQRT_FACT = tuple(1.0 / math.sqrt(math.factorial(i)) for i in range(17))
# the factor of _em_remainder's "heat" bound that does not depend on a
_HEAT_LEAD = _EM_REMAINDER * _CRAMER / _INV_SQRT_FACT[16] * math.sqrt(math.pi)


def _em_remainder(kind: str, scale: float, a: float, rate: float) -> float:
    """Bound on the Euler-Maclaurin remainder of sum_{n >= N} f(scale*n + sigma),
    a = scale*N + sigma > 0, after the B16 term, for unit weight.

    With F(x) = f(scale*x + sigma) the remainder is at most
    _EM_REMAINDER * scale^15 * int_a^inf |f^(16)(u)| du.  For the Gaussian
    kinds write g = exp(-rate*u^2), y = sqrt(rate)*u; then g^(i) =
    (-sqrt(rate))^i H_i(y) g, so Cramer's inequality gives |g^(i)| <=
    k*(2*rate)^(i/2)*sqrt(i!)*exp(-y^2/2).  For phi = g/u, Leibniz gives
    |phi^(j)(u)| <= j!/u^(j+1) * sum_i |g^(i)(u)| u^i/i!, which integrates
    over [a, inf) to at most j!/a^j * exp(-y_a^2/2) * S_j with
    S_j = 1/j + k*sum_{0<i<j} w^i/(sqrt(i!)(j-i)) + k*w^j*log(1+2/y_a^2)/(2 sqrt(j!)),
    w = sqrt(2)*y_a (the last from E1(x) < exp(-x)*log(1+1/x), DLMF 6.8.2).
    "shape" needs j = 16, "e1" twice j = 15 (its derivative is -2*phi),
    "heat" int |g^(16)| <= k*sqrt(16!)*sqrt(pi)*(2*rate)^7.5*exp(-y_a^2/2), and
    "power" int |f^(16)| = |(rate)_16| * a^(-rate-15)/(rate+15) exactly for
    rate > -15, where |f^(16)| falls to 0; below rate 1 that bounds the
    remainder of the continued sum (the Hurwitz zeta function's
    Euler-Maclaurin continuation, DLMF 25.11.5).
    """
    ratio = scale / a
    if kind == "power":
        rising = abs(math.prod(rate + i for i in range(16)))
        return _EM_REMAINDER * ratio ** 15 * rising * a ** -rate / (rate + 15.0)
    y2 = rate * a * a
    if kind == "heat":
        return _HEAT_LEAD * (2.0 * scale * scale * rate) ** 7.5 * math.exp(-0.5 * y2)
    j = 15 if kind == "e1" else 16
    w = math.sqrt(2.0 * y2)
    total, power = 1.0 / j, 1.0
    for i in range(1, j):
        power *= w
        total += _CRAMER * power * _INV_SQRT_FACT[i] / (j - i)
    if y2 > 0.0:
        total += _CRAMER * power * w * _INV_SQRT_FACT[j] * math.log1p(2.0 / y2) / 2.0
    bound = (_EM_REMAINDER * ratio ** 15 * math.factorial(j) * math.exp(-0.5 * y2)
             * total)
    return 2.0 * bound if kind == "e1" else bound / a


def _em_guess(kind: str, scale: float, rate: float, target: float) -> float:
    """The a at which the leading factor of _em_remainder meets `target`
    (the factors exp(-y^2/2)*S_j, which start near 1/j, left out)."""
    if kind == "heat":
        lead = _HEAT_LEAD * (2.0 * scale * scale * rate) ** 7.5
        return math.sqrt(2.0 * math.log(lead / target) / rate) if lead > target else 0.0
    if kind == "e1":
        return scale * (2.0 * _EM_REMAINDER * math.factorial(14) / target) ** (1.0 / 15.0)
    if kind == "shape":
        return scale * (_EM_REMAINDER * math.factorial(15) / (scale * target)) ** (1.0 / 16.0)
    rising = abs(math.prod(rate + i for i in range(16)))
    if rising == 0.0:
        return 0.0  # f is a polynomial of degree below 16: the closure is exact
    return math.exp((math.log(_EM_REMAINDER * rising / (rate + 15.0)) - math.log(target)
                     + 15.0 * math.log(scale)) / (rate + 15.0))


def _em_tail(kind: str, scale: float, a: float, rate: float,
             index_part: float) -> tuple[list[float], float]:
    """The Euler-Maclaurin closure [integral, f(a)/2, corrections] of
    sum_{n >= N} f(scale*n + sigma) with a = scale*N + sigma, for unit weight,
    and a bound on its rounding.

    The integrals int_a^inf f(u) du/scale are closed forms: (-a*E1(y^2) +
    sqrt(pi/rate)*erfc(y))/scale for "e1", E1(y^2)/(2*scale) for "shape",
    sqrt(pi)*erfc(y)/(2*scale*sqrt(rate)) for "heat" (y = sqrt(rate)*a) and
    a^(1-rate)/((rate-1)*scale) for "power".  The corrections are
    -sum_k B_2k/(2k)! * scale^(2k-1) * f^(2k-1)(a), with g^(j) from the
    Hermite recurrence H_(j+1) = 2y*H_j - 2j*H_(j-1) and phi = g/u from
    a*phi^(j) = g^(j) - j*phi^(j-1).  The rounding bound carries each closed
    form's relative error and the sensitivity to its rounded argument, a
    running bound on each derivative (the same recurrences on magnitudes,
    times u per operation on the longest chain), and the shift of the whole
    tail by the rounding of a itself, |delta a| <= u*(index_part + a), times
    |sum_n f'(u_n)| <= f(a)/scale + max_{u>=a} |f'(u)|; for "power", whose
    sum of f' is a continuation below rate 0, max |f'| is replaced by the
    closure of that sum less its integral.  Below rate 1 the "power"
    integral is negative (the continuation) and cancels against the head.
    """
    if kind == "power":
        fa = a ** -rate
        integral = a * fa / ((rate - 1.0) * scale)
        half = 0.5 * fa
        errs = [6.0 * _U * abs(integral), 2.0 * _U * half]
        # f^(j)(a) = (-1)^j (rate)_j a^(-rate-j), j = 0..16
        fjs = [fa]
        for j in range(1, 17):
            fjs.append(fjs[-1] * -(rate + j - 1.0) / a)
        derivs = fjs[1:16:2]
        mags = list(map(abs, derivs))
        chain = [3.0 * j + 4.0 for j in range(1, 16, 2)]
        # sum_n f'(u_n), continued below rate 0, by this closure applied to
        # f': -f(a)/scale + f'(a)/2 - sum_k B_2k/(2k)! scale^(2k-1) f^(2k)(a),
        # remainder at most _EM_REMAINDER * scale^15 * |f^(16)(a)|
        slope = 0.5 * abs(fjs[1]) + fsum(
            abs(weight) * scale ** (2 * k - 1) * abs(fjs[2 * k])
            for k, weight in enumerate(_EM_WEIGHTS, start=1)) + (
            _EM_REMAINDER * scale ** 15 * abs(fjs[16]))
    else:
        y2 = rate * a * a
        y = math.sqrt(y2)
        g = math.exp(-y2)
        root = math.sqrt(rate)
        # g^(j) = p_j * H_j(y) with p_j = (-root)^j * g; magnitudes alongside
        h_prev, h, m_prev, m = 0.0, 1.0, 0.0, 1.0
        p = pm = g
        phi = phim = g / a
        gs, gms, phis, phims = [], [], [], []
        for j in range(16):
            gj, gjm = p * h, pm * m
            if j:
                phi = (gj - j * phi) / a
                phim = (gjm + j * phim) / a
            gs.append(gj)
            gms.append(gjm)
            phis.append(phi)
            phims.append(phim)
            h_prev, h = h, 2.0 * y * h - 2.0 * j * h_prev
            m_prev, m = m, 2.0 * y * m + 2.0 * j * m_prev
            p *= -root
            pm *= root
        odd = range(1, 16, 2)
        if kind == "heat":
            derivs, mags = [gs[j] for j in odd], [gms[j] for j in odd]
            integral = math.sqrt(math.pi) * math.erfc(y) / (2.0 * scale * root)
            half = 0.5 * g
            errs = [(_ERFC_ROUNDING + (4.0 * y2 + 6.0) * _U) * integral,
                    (2.0 * y2 + 2.0) * _U * half]
            slope = 2.0 * root * y * g if y2 >= 0.5 else math.sqrt(2.0 * rate / math.e)
            fa = g
        else:
            e1 = exp_integral_e1(y2)
            if kind == "shape":
                derivs, mags = [phis[j] for j in odd], [phims[j] for j in odd]
                integral = e1 / (2.0 * scale)
                half = 0.5 * g / a
                errs = [(_E1_ROUNDING + (2.0 * y2 + 4.0) * _U) * integral,
                        (2.0 * y2 + 4.0) * _U * half]
                slope = (1.0 / (a * a) + 2.0 * rate) * g
                fa = g / a
            else:
                derivs = [-2.0 * phis[j - 1] for j in odd]
                mags = [2.0 * phims[j - 1] for j in odd]
                edge = a * e1
                erfc_part = math.sqrt(math.pi / rate) * math.erfc(y)
                integral = (erfc_part - edge) / scale
                half = 0.5 * e1
                errs = [(edge * (_E1_ROUNDING + (2.0 * y2 + 4.0) * _U)
                         + erfc_part * (_ERFC_ROUNDING + (4.0 * y2 + 5.0) * _U)
                         + _U * abs(erfc_part - edge)) / scale + _U * abs(integral),
                        (_E1_ROUNDING + (2.0 * y2 + 2.0) * _U) * half]
                slope = 2.0 * g / a
                fa = e1
        chain = [8.0 * j + 8.0 + 2.0 * y2 for j in odd]
    corrections, power = [], scale
    for weight, deriv, mag, steps in zip(_EM_WEIGHTS, derivs, mags, chain):
        corrections.append(-weight * power * deriv)
        errs.append(steps * _U * abs(weight) * power * mag)
        power *= scale * scale
    if not all(map(math.isfinite, corrections)):
        raise NumericError(f"an Euler-Maclaurin correction of a {kind!r} lattice sum at "
                           f"scale {scale!r} is not finite")
    correction = fsum(corrections)
    errs.append(_U * abs(correction))
    errs.append(_U * (index_part + a) * (fa / scale + slope))
    return [integral, half, correction], fsum(errs)


def _digamma(x: float) -> float:
    """Digamma psi(x) = Gamma'(x)/Gamma(x) for x > 0.

    Shifts x up to at least 10 by psi(x) = psi(x+1) - 1/x (DLMF 5.5.2), then
    sums the asymptotic series log x - 1/(2x) - sum B_2k/(2k x^2k) through
    B16 (DLMF 5.11.2); its first omitted term is at most 3.1e-18.
    """
    if not x > 0.0:
        raise DomainError(f"digamma implemented for x > 0, got {x!r}")
    terms = []
    while x < 10.0:
        terms.append(-1.0 / x)
        x += 1.0
    terms += [math.log(x), -0.5 / x]
    inv_x2 = 1.0 / (x * x)
    power = 1.0
    for k, bernoulli in enumerate(_BERNOULLI, start=1):
        power *= inv_x2
        terms.append(-bernoulli / (2.0 * k) * power)
    return fsum(terms)


def hurwitz_zeta(s: float, q: float) -> tuple[float, float]:
    """(zeta_H(s, q), error bound), zeta_H(s, q) = sum_{k>=0} (q+k)^(-s)
    continued in s: Euler-Maclaurin with N = 16 explicit terms and
    Bernoulli corrections through B16 at q_N = q + 16.  Raises PoleError at
    s = 1, DomainError for q <= 0 or s < -2, and NumericError when a head
    term or the tail integral leaves the double range.

    The bound takes q as rounded by 2u (u = 2^-53), as zeta_closed_form
    forms it, and q + k by a further u, so a power x^(-p) carries 3|p| u
    from its base, |p| log(x) u from a rounded exponent (1 - s, -s - 1), an
    ulp (2u) of its own and u per further operation; the k-th correction,
    2k - 1 Pochhammer factors and 2k - 2 divisions by q_N, 18k u.  At s < 0 the head and the tail integral q_N^(1-s)/(s-1) cancel
    (each about 400 times the value at s = -0.7), where these terms bind.
    The partial sums add a u each; the remainder after B16 is at most
    |B16|/16! |(s)_16| q_N^(-s-15)/(s+15), as special._em_remainder derives
    (kept apart from it, as is all of this oracle).
    """
    if not q > 0.0:
        raise DomainError(f"Hurwitz zeta requires q > 0, got {q!r}")
    if abs(s - 1.0) < 1e-12:
        raise PoleError("Hurwitz zeta has its pole at s = 1")
    if s < -2.0 - 1e-9:
        raise DomainError(f"Hurwitz zeta implemented for s >= -2, got {s!r}")
    n_explicit = 16
    q_n = q + n_explicit
    try:
        head = [(q + k) ** (-s) for k in range(n_explicit)]
        head_sum = fsum(head)
        tail_integral = q_n ** (1.0 - s) / (s - 1.0)
    except OverflowError as exc:
        raise NumericError(f"a term of zeta_H({s!r}, {q!r}) overflows") from exc
    half = 0.5 * q_n ** (-s)
    # Corrections B_{2k}/(2k)! * (s)_{2k-1} * q_n^{-s-2k+1}.
    poch = s
    factorial_inv = 0.5
    q_pow = q_n ** (-s - 1.0)
    corrections = []
    for k, bernoulli in enumerate(_BERNOULLI, start=1):
        corrections.append(bernoulli * factorial_inv * poch * q_pow)
        two_k = 2.0 * k
        poch *= (s + two_k - 1.0) * (s + two_k)
        factorial_inv /= (two_k + 1.0) * (two_k + 2.0)
        q_pow /= q_n * q_n
    correction = fsum(corrections)
    tail = tail_integral + half
    value = head_sum + tail + correction
    rising = abs(math.prod(s + i for i in range(16)))
    log_q_n = math.log(q_n)
    errs = [(3.0 * abs(s) + 2.0) * _U * fsum(map(abs, head)),
            (abs(1.0 - s) * (3.0 + log_q_n) + 4.0) * _U * abs(tail_integral),
            (3.0 * abs(s) + 2.0) * _U * half,
            _U * (abs(head_sum) + abs(tail) + abs(correction) + abs(head_sum + tail)
                  + abs(value)),
            abs(_BERNOULLI[-1]) / math.factorial(16) * rising * q_n ** (-s - 15.0) / (s + 15.0)]
    errs.extend((3.0 * abs(s) + abs(s + 1.0) * log_q_n + 18.0 * k) * _U * abs(c)
                for k, c in enumerate(corrections, start=1))
    return value, fsum(errs)


def hurwitz_zeta_prime0(q: float) -> float:
    """d/ds zeta_H(s, q) at s = 0, via the Lerch formula ln Gamma(q) - ln(2 pi)/2."""
    if not q > 0.0:
        raise DomainError(f"Hurwitz zeta requires q > 0, got {q!r}")
    return math.lgamma(q) - 0.5 * math.log(TWO_PI)


def euler_gamma_integral() -> tuple[float, float]:
    """Euler-Mascheroni constant by quadrature, with an error estimate.

    gamma = int_0^1 (1 - exp(-t))/t dt - int_1^inf exp(-t)/t dt, both pieces
    by adaptive Gauss-Kronrod.  Returns (value, error_bound).
    """

    def lower(t: float) -> float:
        if t == 0.0:
            return 1.0
        return -math.expm1(-t) / t

    low, err_low = gauss_kronrod(lower, 0.0, 1.0)
    up, err_up = gauss_kronrod(lambda t: math.exp(-t) / t, 1.0, math.inf)
    return low - up, err_low + err_up


def euler_gamma_series() -> float:
    """Euler-Mascheroni constant as -psi(1) (_digamma): H_9 - ln(10) + 1/20
    + sum_{k=1..8} B_2k/(2k*10^(2k)), the harmonic sum and the
    Euler-Maclaurin series of psi(10) through B16 (DLMF 5.11.2), with no
    quadrature and no E1.

    For real x > 0 that series' remainder is bounded by its first omitted
    term (DLMF 5.11(ii)): |B18|/(18*10^18) < 3.1e-18.  The exactly rounded
    sum of rounded terms is good to 5e-16, mostly half an ulp of ln(10); it
    is 2.6e-16 below the constant, two ulps under its correctly rounded
    double.
    """
    return -_digamma(1.0)
