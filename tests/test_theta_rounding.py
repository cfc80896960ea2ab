"""The theta split's rounding statement against exact arithmetic.

spectra._theta_direct states the relative rounding of each direct term's
argument, x = t*u^2 (the heat kernel) or pi*(u/c)^2 (the zeta kernel), and
passes it to the kernel's error; regdet._erfc_table states that of each erfc
argument pi*k/(c*sqrt(t)) in the weight's rounding; spectra._theta_dual states
that of each cosine angle k*2*pi*sigma/c in the term's error.  Each is u =
2^-53 per correctly rounded operation.  Here every argument a seeded set of
thetas forms is compared with its exact value (fractions.Fraction, or mpmath
at 60 digits where pi enters) and must lie within what the code states.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath as mp

from specreg import regdet, spectra, zeta
from specreg.special import _ERFC_ROUNDING, _U

SCALES = (2.0 * math.pi, 1.0, 0.37, 3.3, 7.0)


def _thetas(rng: random.Random, count: int):
    """(scale, shift) pairs: the fixed scales and random ones, shifts within a
    scale either way (a pair's shift is not reduced)."""
    for i in range(count):
        scale = SCALES[i % len(SCALES)] if i < 2 * len(SCALES) else rng.uniform(0.1, 8.0)
        yield scale, rng.uniform(-0.999, 0.999) * scale


def _direct_arguments(kernel, scale: float, shift: float) -> list[tuple[int, float, float]]:
    """(n, x, stated relative rounding) of each term _theta_direct keeps."""
    seen = []
    recording = kernel._replace(error=lambda term, x, rel: seen.append((x, rel)) or 0.0)
    spectra._theta_direct(recording, scale, shift, 0.0, False)
    index = {}
    first = kernel.start(shift, scale)
    for n in range(first - 4000, first + 4000):
        index.setdefault(kernel.arg(abs(scale * n + shift), scale), n)
    return [(index[x], x, rel) for x, rel in seen]


def _relative(got: float, exact) -> float:
    return float(abs(mp.mpf(got) - exact) / exact) if isinstance(exact, mp.mpf) else float(
        abs(Fraction(got) - exact) / exact)


def test_direct_arguments_within_their_stated_rounding():
    rng = random.Random(61)
    beyond_half = 0
    with mp.workdps(60):
        for scale, shift in _thetas(rng, 60):
            t_star = regdet._SPLIT / scale / scale
            for T in (t_star, 10.0 ** rng.uniform(-3.0, 0.0) * t_star):
                kernel = regdet._e1_kernel(1.0, T, 1e-17)
                for n, x, rel in _direct_arguments(kernel, scale, shift):
                    exact = Fraction(T) * (Fraction(scale) * n + Fraction(shift)) ** 2
                    miss = _relative(x, exact)
                    assert miss <= rel, (scale, shift, T, n)
                    # half a u per operation: u*(2 + |c*n|/|u|)
                    u = scale * n + shift
                    beyond_half += miss > (2.0 + abs(scale * n) / abs(u)) * _U
            kernel = zeta._gamma_kernel(0.75, shift == 0.0)
            for n, x, rel in _direct_arguments(kernel, scale, shift):
                u = (mp.mpf(scale) * n + mp.mpf(shift)) / mp.mpf(scale)
                assert _relative(x, mp.pi * u * u) <= rel, (scale, shift, n)
    assert beyond_half


def test_erfc_arguments_within_their_stated_rounding():
    rng = random.Random(62)
    worst = {True: 0.0, False: 0.0}
    with mp.workdps(60):
        for scale, _ in _thetas(rng, 400):
            t = rng.choice((1.0, regdet._SPLIT / scale / scale,
                            10.0 ** rng.uniform(-4.0, 0.0) * regdet._SPLIT / scale / scale))
            root = scale * math.sqrt(t)
            _, entries = regdet._erfc_table(root, t == 1.0)
            for k, weight, rounding, _ in entries:
                x = math.pi * k / root
                stated = (rounding / weight - _ERFC_ROUNDING - _U) / (2.0 * x * x + 1.0)
                miss = _relative(x, mp.pi * k / (mp.mpf(scale) * mp.sqrt(mp.mpf(t))))
                assert miss <= stated, (scale, t, k)
                worst[t == 1.0] = max(worst[t == 1.0], miss / _U)
    # stated 1.5 u at t = 1 and 2.5 u elsewhere at half a u per operation
    assert worst[True] > 1.5 and worst[False] > 2.5


def test_cosine_angles_within_their_stated_rounding():
    # a table of unit weights with no rounding leaves each term's error
    # (3.35*|k*angle| + 2)*u: the angle's statement and 2 u for the cosine
    # and the product
    rng = random.Random(63)
    table = (math.inf, tuple((k, 1.0, 0.0, 1.0) for k in range(1, 15)))
    worst = 0.0
    with mp.workdps(60):
        for scale, shift in _thetas(rng, 400):
            for phase in (shift, math.remainder(shift, scale)):
                _, errs = spectra._theta_dual(table, scale, phase, 0.0, 0.0, 0.0)
                angle = 2.0 * math.pi * phase / scale
                for k, err in enumerate(errs[:-1], start=1):
                    if not angle:
                        continue
                    exact = abs(2 * mp.pi * mp.mpf(phase) / mp.mpf(scale) * k)
                    miss = _relative(abs(angle * k), exact)
                    assert miss * float(exact) <= err - 2.0 * _U, (scale, phase, k)
                    worst = max(worst, miss / _U)
    # stated 2 u of k*angle at half a u per operation
    assert worst > 2.0
