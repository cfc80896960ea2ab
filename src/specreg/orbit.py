"""Coadjoint-orbit model: spectra from root data, shape traces, volumes.

The orbit operator at the point a = s*x has, per positive root alpha with
A = alpha(a) = s*alpha(x) and direction value D = alpha(x):

    (2*pi*n - A)^2 and (2*pi*n + A)^2,  n >= 1, multiplicity 2 each,

realised as one-sided lattice families with shifts -A and +A and shift
derivatives -D and +D, plus a Cartan family (2*pi*n)^2 of multiplicity 2r
("consistent-2r", the default) or 4r ("paper-4r").  The primed spectrum
excludes every n = 0 mode; the unprimed spectrum adds the explicit modes A^2
(multiplicity 2, eigenvalue derivative 2*A*D) per root and counts the r
Cartan zero modes in kernel_dim.

The eps-smoothed shape trace at the constant-loop base point (s = 0) is the
general spectrum formula on the orbit spectrum, where the +/- root families
cancel to exactly 0.0; volumes are square roots of the primed determinants.
Shape quantities at s != 0 are reduced to s = 0 (isometry reduction); only
s = 0 is implemented.

The regularised shape trace (the eps -> 0 limit of the shape trace once its
-1/2 * delta_b_0 * log(eps) divergence is removed) is exact per family: with
scale c, shift sigma and shift derivative sigma',

    explicit row          -1/2 * mult * lam'/lam
    one-sided lattice     (mult*sigma'/c) * (log c + gamma/2 + psi(1 + sigma/c))
    full lattice          -mult * sigma' * (pi/c) * cot(pi*sigma/c), 0 at sigma = 0

(DLMF 5.5, 5.11: the full lattice pairs its two runs into
psi(-sigma/c) - psi(1 + sigma/c) = pi*cot(pi*sigma/c), and their log(eps)
terms cancel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import fsum
from typing import Sequence, Union

from .errors import DomainError, NumericError, UnsupportedSpectrumError
from .special import EULER_GAMMA, TWO_PI, _digamma
from .spectra import (
    Spectrum,
    compose,
    deform,
    finite_spectrum,
    lattice_family,
    _lattice_sum,
    _number,
    _tail_budget,
)
from .regdet import default_expansion, log_det_eps, log_det_reg


@dataclass(frozen=True)
class LoopGroupOrbitSpec:
    """Root data for one coadjoint orbit through the point s*x."""

    rank: int
    positive_roots: tuple[tuple[float, ...], ...]
    x: tuple[float, ...]
    s: float = 0.0
    cartan_mode: str = "consistent-2r"

    def __post_init__(self) -> None:
        if not (type(self.rank) is int and self.rank >= 1):
            raise DomainError(f"rank must be a positive integer, got {self.rank!r}")
        if self.cartan_mode not in ("consistent-2r", "paper-4r"):
            raise DomainError(f"unknown cartan_mode {self.cartan_mode!r}")
        if len(self.x) != self.rank:
            raise DomainError("base direction x must have `rank` components")
        for root in self.positive_roots:
            if len(root) != self.rank:
                raise DomainError("every root must have `rank` components")
        components = (a for root in self.positive_roots for a in root)
        if not all(map(math.isfinite, (self.s, *self.x, *components))):
            raise DomainError(f"orbit data must be finite, got {self!r}")

    @property
    def dim_g(self) -> int:
        return self.rank + 2 * len(self.positive_roots)


def root_values(ospec: LoopGroupOrbitSpec) -> list[tuple[float, float]]:
    """Per positive root: (A, D) = (alpha(s*x), alpha(x))."""
    out = []
    for root in ospec.positive_roots:
        direction = fsum(a * xi for a, xi in zip(root, ospec.x))
        out.append((ospec.s * direction, direction))
    return out


def orbit_spectrum(ospec: LoopGroupOrbitSpec, primed: bool = True) -> Spectrum:
    """Spectrum of the orbit operator; primed excludes all n = 0 modes."""
    parts = []
    for a_val, d_val in root_values(ospec):
        if not abs(a_val) < TWO_PI:
            raise DomainError(
                f"root value alpha(a) = {a_val!r} leaves the principal cell (-2pi, 2pi)")
        parts.append(lattice_family(TWO_PI, -a_val, "positive", 2, -d_val))
        parts.append(lattice_family(TWO_PI, +a_val, "positive", 2, +d_val))
    cartan_mult = 2 * ospec.rank if ospec.cartan_mode == "consistent-2r" else 4 * ospec.rank
    parts.append(lattice_family(TWO_PI, 0.0, "positive", cartan_mult, 0.0))
    spec = compose(*parts)
    if primed:
        return spec
    rows = [(a_val * a_val, 2, 2.0 * a_val * d_val) for a_val, d_val in root_values(ospec)]
    with_roots = compose(spec, finite_spectrum(rows))
    return Spectrum(with_roots.families, with_roots.kernel_dim + ospec.rank)


OrbitOrSpectrum = Union[LoopGroupOrbitSpec, Spectrum]


def trace_shape_eps(target: OrbitOrSpectrum, eps: float) -> float:
    """Trace of the smoothed shape operator,
    -1/2 * sum mult * (dlam/lam) * exp(-eps*lam) over the positive spectrum,
    each lattice run summed directly or closed by an Euler-Maclaurin tail
    (spectra._lattice_sum).  An orbit spec goes through its
    primed spectrum, at s = 0 only (UnsupportedSpectrumError otherwise).
    """
    if isinstance(target, LoopGroupOrbitSpec):
        if target.s != 0.0:
            raise UnsupportedSpectrumError(
                "the orbit shape trace is computed at the constant-loop point s = 0")
        target = orbit_spectrum(target, primed=True)
    if not 0.0 < eps < math.inf:
        raise DomainError(f"shape trace requires a finite eps > 0, got {eps!r}")
    budget = _tail_budget(target)
    terms = [-0.5 * mult * (deriv / lam) * math.exp(-eps * lam)
             for lam, mult, deriv in target.rows]
    for fam in target.lattices:
        # dlam = 2*u*shift_derivative, lam = u^2, with u carrying its sign
        if fam.shift_derivative != 0.0:
            terms.extend(_lattice_sum(fam, "shape", eps, budget)[0])
    return fsum(terms)


def vol_eps(ospec: LoopGroupOrbitSpec, eps: float) -> float:
    """Preregularised volume sqrt(det'_eps) of the orbit operator."""
    return math.exp(0.5 * log_det_eps(orbit_spectrum(ospec, True), eps))


def vol_reg(ospec: LoopGroupOrbitSpec) -> float:
    """Heat-kernel regularised volume sqrt(det'_reg)."""
    value, _ = log_det_reg(orbit_spectrum(ospec, True))
    return math.exp(0.5 * value)


def vol_zeta(ospec: LoopGroupOrbitSpec) -> float:
    """Zeta-regularised volume sqrt(Det'_reg) = e^(-gamma*b0'/2) * vol_reg."""
    spec = orbit_spectrum(ospec, True)
    value, _ = log_det_reg(spec)
    return math.exp(0.5 * (-EULER_GAMMA * default_expansion(spec).b0 + value))


def gateaux_fd(f, s0: float, step: float = 1e-3, order: int = 4) -> tuple[float, float]:
    """Central finite difference of f at s0; returns (value, error_estimate).

    order=2 is the plain central stencil; order=4 (default) adds one
    Richardson refinement, with the error gauged from the two stencil widths.
    """
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    if order not in (2, 4):
        raise DomainError(f"order must be 2 or 4, got {order!r}")

    def central(h: float) -> float:
        hi, lo = f(s0 + h), f(s0 - h)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NumericError(f"non-finite samples at s0 +/- {h!r}")
        return (hi - lo) / (2.0 * h)

    d_h = central(step)
    d_half = central(0.5 * step)
    if order == 2:
        return d_half, abs(d_half - d_h)
    refined = (4.0 * d_half - d_h) / 3.0
    return refined, abs(refined - d_half)


@dataclass(frozen=True)
class CurvatureReport:
    """Minimality certificate: shape traces, regularised traces, volume slopes."""

    eps_grid: tuple[float, ...]
    tr_H_eps: tuple[float, ...]
    tr_reg_H: float
    Tr_reg_H: float
    delta_b: dict[int, float]
    gateaux_log_vol_eps_analytic: float
    gateaux_log_vol_eps_fd: float
    strongly_minimal: bool
    heat_minimal: bool
    zeta_minimal: bool


MINIMALITY_TOL = 1e-8


def _reg_shape_trace(spec: Spectrum) -> float:
    """Regularised limit of trace_shape_eps(spec, eps) as eps -> 0, summed
    from the closed form of each family (module docstring)."""
    terms = [-0.5 * mult * deriv / lam for lam, mult, deriv in spec.rows]
    for fam in spec.lattices:
        c, rate = fam.scale, fam.mult * fam.shift_derivative
        if fam.side == "positive":
            psi = _digamma(1.0 + fam.shift / c)
            terms.append(rate / c * (math.log(c) + 0.5 * EULER_GAMMA + psi))
            continue
        # exact reduction: a full family built directly may hold any shift, and
        # at a multiple of c its zero mode is skipped and the +/-n modes cancel
        sigma = math.remainder(fam.shift, c)
        if sigma != 0.0:
            terms.append(-rate * math.pi / (c * math.tan(math.pi * sigma / c)))
    return fsum(terms)


def minimality_report(target: OrbitOrSpectrum,
                      eps_grid: Sequence[float] = (1e-1, 1e-2, 1e-3)) -> CurvatureReport:
    """Assemble the minimality certificate for an orbit or a synthetic spectrum.

    Orbit inputs are anchored at the constant-loop point s = 0 (isometry
    reduction), through the general shape formula on their s = 0 spectrum;
    the Gateaux direction is the stored family deformation, which reproduces
    the orbit at geodesic parameter kappa.  tr_reg_H is the per-family closed
    form of the regularised shape trace (_reg_shape_trace); delta_b are the
    coefficient derivatives of default_expansion, and Tr_reg_H = tr_reg_H +
    gamma/2 * delta_b_0.  The shape trace is evaluated on eps_grid only, and
    the volume-slope fields compare -tr H^eps against a central finite
    difference of (1/2) log det'_eps at the reference eps (second grid
    point).
    """
    if not eps_grid or any(not 0.0 < e < math.inf for e in eps_grid):
        raise DomainError("eps grid must be non-empty with positive finite entries")
    if isinstance(target, LoopGroupOrbitSpec):
        target = orbit_spectrum(replace(target, s=0.0), primed=True)
    delta_b = dict(sorted(default_expansion(target).coeff_derivatives.items()))
    tr_reg = _reg_shape_trace(target)
    tr_zeta = tr_reg + 0.5 * EULER_GAMMA * delta_b.get(0, 0.0)
    tr_grid = tuple(trace_shape_eps(target, float(e)) for e in eps_grid)
    ref_index = 1 if len(eps_grid) > 1 else 0
    eps_ref = float(eps_grid[ref_index])
    analytic = -tr_grid[ref_index]
    fd, _ = gateaux_fd(lambda k: 0.5 * log_det_eps(deform(target, k), eps_ref),
                       0.0, step=1e-3)
    return CurvatureReport(
        eps_grid=tuple(float(e) for e in eps_grid),
        tr_H_eps=tr_grid,
        tr_reg_H=tr_reg,
        Tr_reg_H=tr_zeta,
        delta_b=delta_b,
        gateaux_log_vol_eps_analytic=analytic,
        gateaux_log_vol_eps_fd=fd,
        strongly_minimal=max(abs(v) for v in tr_grid) <= MINIMALITY_TOL,
        heat_minimal=abs(tr_reg) <= MINIMALITY_TOL,
        zeta_minimal=abs(tr_zeta) <= MINIMALITY_TOL,
    )


def curvature_to_dict(report: CurvatureReport) -> dict:
    return {
        "eps_grid": list(report.eps_grid),
        "tr_H_eps": list(report.tr_H_eps),
        "tr_reg_H": report.tr_reg_H,
        "Tr_reg_H": report.Tr_reg_H,
        "delta_b": {str(j): v for j, v in sorted(report.delta_b.items())},
        "gateaux_log_vol_eps_analytic": report.gateaux_log_vol_eps_analytic,
        "gateaux_log_vol_eps_fd": report.gateaux_log_vol_eps_fd,
        "strongly_minimal": report.strongly_minimal,
        "heat_minimal": report.heat_minimal,
        "zeta_minimal": report.zeta_minimal,
    }


def orbit_to_dict(ospec: LoopGroupOrbitSpec) -> dict:
    return {
        "rank": ospec.rank,
        "positive_roots": [list(root) for root in ospec.positive_roots],
        "x": list(ospec.x),
        "s": ospec.s,
        "cartan_mode": ospec.cartan_mode,
    }


def orbit_from_dict(data: dict) -> LoopGroupOrbitSpec:
    if not isinstance(data, dict):
        raise DomainError("orbit JSON must be an object")
    try:
        rank = _number(data["rank"], "rank", whole=True)
        roots = tuple(tuple(_number(a, "root component") for a in root)
                      for root in data["positive_roots"])
        return LoopGroupOrbitSpec(
            rank=rank,
            positive_roots=roots,
            x=tuple(_number(v, "base direction component") for v in data["x"]),
            s=_number(data.get("s", 0.0), "s"),
            cartan_mode=str(data.get("cartan_mode", "consistent-2r")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed orbit object: {exc}") from exc
