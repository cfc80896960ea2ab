"""Quadrature backends: adaptive Gauss-Kronrod and a tanh-sinh rule.

gauss_kronrod is a global adaptive rule in the manner of QUADPACK's qag
(Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK*, 1983):
each panel gets the 21-point Kronrod extension of the 10-point Gauss rule
(qk21) with QUADPACK's error heuristic, and the panel with the largest error
estimate is bisected until the summed estimate meets the tolerance.  There is
no epsilon-algorithm extrapolation, so an algebraic endpoint singularity
t^p costs about a factor 2^(p+1) of error per bisection: integrable, but
slow as p approaches -1.  [a, inf) is mapped onto (0, 1] by t = a + (1-u)/u.

The tanh-sinh (double-exponential) rule handles integrable endpoint
singularities without any endpoint evaluation.  No library route calls it:
the heat route's Mellin integrals are E1 sums and regdet.mellin_lower's
closed form, erfc series and Ein terms and, for each solo of
Spectrum.poisson, a small-time series and the cutoff identity.
gauss_kronrod takes only the integral route of the Euler-constant
self-check; the zeta route integrates nothing, its values being closed
forms and lattice sums.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable

from .errors import NumericError

# qk21 abscissae on [-1, 1] (positive half; the centre 0 is separate) with
# their Kronrod weights, and the 10-point Gauss weights on the same nodes: the
# Gauss nodes are every second abscissa, and the other entries are 0.
_XK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208067057210, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
)
_WK_CENTRE = 0.149445554002916905664936468389821
_WG = (
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
)
_EPS = sys.float_info.epsilon
_REL_TOL = 1e-12
# tanh-sinh's rounding per unit of |w*f|, in u = 2^-53: the weight rounds
# float pi (0.35), cosh(u) (2), cosh(v)^2 (4), three products and a division
# (4); v's rounding (3.35) moves node and weight together and leaves the
# weight off the node's by at most as much (tanh(u)^2 <= 1); w*f (1): 14.7.
_TS_NODE_ROUNDING = 16.0 * 2.0 ** -53


def _qk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One 21-point Kronrod panel on [a, b]: (value, error) as QUADPACK's qk21."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    fv1 = [f(centr - hlgth * x) for x in _XK]
    fv2 = [f(centr + hlgth * x) for x in _XK]
    resk = _WK_CENTRE * fc
    resg = 0.0
    resabs = abs(resk)
    for wk, wg, f1, f2 in zip(_WK, _WG, fv1, fv2):
        resk += wk * (f1 + f2)
        resg += wg * (f1 + f2)
        resabs += wk * (abs(f1) + abs(f2))
    reskh = 0.5 * resk
    resasc = _WK_CENTRE * abs(fc - reskh)
    for wk, f1, f2 in zip(_WK, fv1, fv2):
        resasc += wk * (abs(f1 - reskh) + abs(f2 - reskh))
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    err = abs((resk - resg) * hlgth)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > sys.float_info.min / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return resk * hlgth, err


def gauss_kronrod(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = 1e-13,
    limit: int = 200,
) -> tuple[float, float]:
    """Integrate f over [a, b] (b may be math.inf); returns (value, error).

    Bisects the panel with the largest error estimate until the summed
    estimate is at most max(abs_tol, 1e-12*|value|) or `limit` panels are in
    use.  Stopping short of the tolerance with an error still below 1e-8 is
    accepted and that error returned for the caller's budget; a larger error,
    or a value or error that is not finite, raises NumericError.
    """
    g, lo, hi = f, a, b
    if b == math.inf:
        def g(u: float) -> float:
            return f(a + (1.0 - u) / u) / (u * u)

        lo, hi = 0.0, 1.0
    value, err = _qk21(g, lo, hi)
    heap = [(-err, lo, hi, value)]
    while err > max(abs_tol, _REL_TOL * abs(value)) and len(heap) < limit:
        lo, hi = heap[0][1:3]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the worst panel is too narrow to split
        left, left_err = _qk21(g, lo, mid)
        right, right_err = _qk21(g, mid, hi)
        heapq.heapreplace(heap, (-left_err, lo, mid, left))
        heapq.heappush(heap, (-right_err, mid, hi, right))
        # exact sums: running updates would cancel the first, largest estimates
        value = math.fsum(panel[3] for panel in heap)
        err = -math.fsum(panel[0] for panel in heap)
    if not (math.isfinite(value) and err <= max(abs_tol, _REL_TOL * abs(value), 1e-8)):
        raise NumericError(
            f"Gauss-Kronrod failed on [{a}, {b}]: error {err!r} after {len(heap)} panels")
    return value, err


def tanh_sinh(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = 1e-13,
    max_level: int = 12,
) -> tuple[float, float]:
    """Tanh-sinh integration of f over the finite interval [a, b].

    Nodes x = mid + half*tanh(pi/2 * sinh(u)) on a trapezoid ladder in u,
    halving the step each level until two consecutive levels agree to
    abs_tol (with a relative floor).  Node positions near the ends are formed
    as offsets from the nearer endpoint (1 -+ tanh v = 2/(exp(+-2v)+1)), so an
    integrable endpoint singularity is sampled at accurate abscissae.
    Endpoints themselves are never evaluated: nodes that round onto a or b
    carry double-exponentially small weights and are skipped.  Every other
    node is kept, so the rule scales with the panel: its weights are at
    least about 4.7e-29 * half-width.  Returns (value, error_estimate);
    NumericError if max_level halvings end before two levels agree.  Levels
    that agree to the last bit still round: the error is at least
    _TS_NODE_ROUNDING of h*sum |w*f| plus u of each level sum and total.
    """
    if not b > a:
        raise NumericError(f"tanh-sinh needs b > a, got [{a}, {b}]")
    half = 0.5 * (b - a)
    u_max = 3.8  # tanh argument ~ pi/2*sinh(3.8) ~ 35; weights beyond are < 5e-29*half

    def node(u: float) -> tuple[float, float]:
        su = math.sinh(u)
        v = 0.5 * math.pi * su
        ch = math.cosh(v)
        w = half * 0.5 * math.pi * math.cosh(u) / (ch * ch)
        offset = half * 2.0 / (math.exp(2.0 * abs(v)) + 1.0)
        x = a + offset if u < 0.0 else b - offset
        return x, w

    def level_sum(h: float, first: float) -> tuple[float, float]:
        # Sum f at u = +/- (first, first + h, first + 2h, ...) up to u_max; its rounding
        terms = []
        u = first
        while u <= u_max:
            for su in (u, -u) if u > 0.0 else (u,):
                x, w = node(su)
                if x <= a or x >= b:
                    continue
                terms.append(w * f(x))
            u += h
        total = math.fsum(terms)
        return total, _TS_NODE_ROUNDING * math.fsum(map(abs, terms)) + 0.5 * _EPS * abs(total)

    h = 1.0
    total, rounding = level_sum(h, 0.0)
    estimate = h * total
    err = abs(estimate)
    for _ in range(max_level):
        h *= 0.5
        level, level_rounding = level_sum(2.0 * h, h)  # new nodes at odd multiples of h
        total += level
        rounding += level_rounding + 0.5 * _EPS * abs(total)
        new_estimate = h * total
        err = abs(new_estimate - estimate)
        estimate = new_estimate
        if err <= max(abs_tol, 1e-15 * abs(estimate)):
            return estimate, max(err, h * rounding)
    raise NumericError(
        f"tanh-sinh failed on [{a}, {b}]: levels still differ by {err!r} after {max_level}")
