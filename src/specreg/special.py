"""Scalar special functions for the regularised-determinant machinery.

Everything here is double precision and deterministic: the exponential
integral E1 and its entire companion Ein, the logarithm of the spectral
cutoff factor h_eps, the Gamma function (math.gamma with typed poles), the
digamma function, the Hurwitz zeta function (Euler-Maclaurin), and the
Euler-Mascheroni constant by two independent routes (used by the `specreg
gamma` self-check).
"""

from __future__ import annotations

import math
from math import fsum

from .errors import DomainError, PoleError
from .quadrature import gauss_kronrod

# Euler-Mascheroni constant, correctly rounded double.
EULER_GAMMA = 0.5772156649015328606065120900824024

TWO_PI = 2.0 * math.pi


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf exp(-u)/u du, x > 0.

    Convergent power series

        E1(x) = -gamma - ln(x) + sum_{k>=1} (-1)^{k+1} x^k / (k * k!)

    for x < 1, and the modified Lentz evaluation of the continued fraction

        E1(x) = exp(-x) / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...)))

    for x >= 1.  Relative error is a few 1e-15 over [1e-300, 700]; beyond
    ~745 the result underflows cleanly to 0.0.
    """
    if not x > 0.0:
        raise DomainError(f"E1 requires x > 0, got {x!r}")
    if x < 1.0:
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        k = 1
        while k < 80:
            term *= -x / k
            contrib = -term / k
            total += contrib
            if abs(contrib) <= 1e-18 * max(abs(total), 1e-300):
                break
            k += 1
        return total
    # Modified Lentz continued fraction (Numerical Recipes style).
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 300):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x)


def _ein(x: float) -> float:
    """Ein(x) = int_0^x (1 - exp(-u))/u du = gamma + ln(x) + E1(x), x > 0
    (DLMF 6.2.3).

    Below x = 2 the series sum_{k>=1} (-1)^(k+1) x^k/(k*k!) (DLMF 6.6.4),
    whose terms never outweigh the value by more than a factor 2.8 there, so
    small x loses nothing to cancellation; from 2 on gamma + ln(x) + E1(x),
    three positive terms, with E1(x) <= 0.049.  Both sums are exactly
    rounded.  The relative error stays below 8 u (u = 2^-53): the series
    terms carry at most (k + 1/2) u each, and above 2 the error is one ulp of
    ln(x) plus exp_integral_e1's, which is within 84 u of mpmath on [1, 700]
    (largest near x = 1, which is why the series reaches to 2).
    """
    if not x > 0.0:
        raise DomainError(f"Ein requires x > 0, got {x!r}")
    if x >= 2.0:
        return fsum((EULER_GAMMA, math.log(x), exp_integral_e1(x)))
    terms = []
    term = -1.0
    for k in range(1, 40):
        term *= -x / k
        terms.append(term / k)
        if abs(term) <= 2.0 ** -60 * x:
            break
    return fsum(terms)


def log_cutoff(lam: float, eps: float) -> float:
    """log of the cutoff factor h_eps(lam) = exp(-E1(eps*lam)).

    Per-eigenvalue building block of the cutoff determinant: summing
    mult * log_cutoff over the positive spectrum gives log det_eps.
    Requires lam > 0 and eps > 0.
    """
    if not lam > 0.0:
        raise DomainError(f"cutoff factor requires a positive eigenvalue, got {lam!r}")
    if not eps > 0.0:
        raise DomainError(f"cutoff factor requires eps > 0, got {eps!r}")
    return -exp_integral_e1(eps * lam)


def gamma_fn(s: float) -> float:
    """Gamma(s) by math.gamma, with PoleError at the poles s = 0, -1, -2, ...

    Relative error within about 1e-15 on [-2, 30]; OverflowError past
    s ~ 171.6.
    """
    if s <= 0.0 and s == math.floor(s):
        raise PoleError(f"Gamma has a pole at s = {s!r}")
    return math.gamma(s)


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


def hurwitz_zeta(s: float, q: float) -> float:
    """Hurwitz zeta zeta_H(s, q) = sum_{k>=0} (q+k)^(-s), continued in s.

    Euler-Maclaurin with N = 16 explicit terms and Bernoulli corrections
    through B16.  Validated against mpmath to ~1e-13 (mixed abs/rel) for
    s in [-2, 30], q in (0, 3]; larger q only improves convergence.
    Raises PoleError at s = 1 and DomainError for q <= 0 or s < -2.
    """
    if not q > 0.0:
        raise DomainError(f"Hurwitz zeta requires q > 0, got {q!r}")
    if abs(s - 1.0) < 1e-12:
        raise PoleError("Hurwitz zeta has its pole at s = 1")
    if s < -2.0 - 1e-9:
        raise DomainError(f"Hurwitz zeta implemented for s >= -2, got {s!r}")
    n_explicit = 16
    head = [(q + k) ** (-s) for k in range(n_explicit)]
    q_n = q + n_explicit
    tail = q_n ** (1.0 - s) / (s - 1.0) + 0.5 * q_n ** (-s)
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
    return fsum(head) + tail + fsum(corrections)


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


def euler_gamma_series(n: int = 100_000) -> float:
    """Euler-Mascheroni constant via H_n - ln n with Euler-Maclaurin correction.

    The correction terms -1/(2n) + 1/(12 n^2) - 1/(120 n^4) leave an error
    below 1/(252 n^6), so the default n is far past double precision.
    """
    if n < 10:
        raise DomainError("series route needs n >= 10")
    harmonic = fsum(1.0 / k for k in range(1, n + 1))
    nf = float(n)
    return harmonic - math.log(nf) - 0.5 / nf + 1.0 / (12.0 * nf * nf) - 1.0 / (120.0 * nf ** 4)
