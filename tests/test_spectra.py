"""Spectrum model, heat traces, and the direct-vs-theta dual route."""

from __future__ import annotations

import math
import re
from pathlib import Path

import mpmath as mp
import pytest

import specreg
from specreg import (
    DomainError,
    ExplicitFamily,
    LatticeFamily,
    Spectrum,
    compose,
    deform,
    finite_spectrum,
    heat_trace,
    heat_trace_theta,
    lattice_family,
    min_eigenvalue,
    scale_spectrum,
    spectrum_dumps,
    spectrum_from_dict,
    spectrum_loads,
    spectrum_to_dict,
)
from specreg.heat_expansion import remainder_fn
from specreg.regdet import default_expansion

mp.mp.dps = 30

TWO_PI = 2.0 * math.pi


def logspace(lo: float, hi: float, num: int) -> list[float]:
    """num points from 10^lo to 10^hi, evenly spaced in the exponent."""
    return [10.0 ** (lo + (hi - lo) * k / (num - 1)) for k in range(num)]


ONE0 = lattice_family(TWO_PI, 0.0, "positive", 1)
ONEPI = lattice_family(TWO_PI, math.pi, "positive", 1)
FULLPI3 = lattice_family(TWO_PI, math.pi / 3.0, "full", 1)
FULLPI = lattice_family(TWO_PI, math.pi, "full", 1)
FIN23 = finite_spectrum([(2.0, 1), (3.0, 1)])

LATTICE_SPECS = [ONE0, ONEPI, FULLPI3, FULLPI,
                 lattice_family(TWO_PI, 1.0, "positive", 3)]

# 30-digit brute-force sums sum_n exp(-t*(2 pi n + theta)^2), rounded once
BRUTE_ONE0_T001 = 0.9104739589085679      # theta=0, n >= 1, t = 0.01
BRUTE_ONEPI_T001 = 0.5044559030412906     # theta=pi, n >= 1
BRUTE_FULLPI_T001 = 2.8209479176604271    # theta=pi, n in Z


# ---------------------------------------------------------------------------
# construction and validation


def test_lattice_validation():
    with pytest.raises(DomainError):
        LatticeFamily(scale=0.0)
    with pytest.raises(DomainError):
        LatticeFamily(scale=1.0, side="neither")
    with pytest.raises(DomainError):
        LatticeFamily(scale=1.0, mult=0)
    with pytest.raises(DomainError):
        # one-sided shift must stay above -scale so all eigenvalues are positive
        lattice_family(1.0, -1.0, "positive")


def test_explicit_validation():
    with pytest.raises(DomainError):
        ExplicitFamily(((0.0, 1, 0.0),))
    with pytest.raises(DomainError):
        finite_spectrum([(1.0, 0)])
    with pytest.raises(DomainError):
        finite_spectrum([(-1.0, 1)])
    with pytest.raises(DomainError):
        finite_spectrum([(1.0, 1, 0.0, 9.0)])
    with pytest.raises(DomainError):
        Spectrum((), kernel_dim=-1)


NON_FINITE_OR_NON_INTEGRAL = {
    "scale-inf": lambda: LatticeFamily(scale=math.inf),
    "full-shift-nan": lambda: lattice_family(1.0, math.nan, "full"),
    "full-shift-inf": lambda: lattice_family(1.0, math.inf, "full"),
    "shift-derivative-nan": lambda: lattice_family(1.0, 0.2, "positive", 1, math.nan),
    "lattice-mult-true": lambda: LatticeFamily(scale=1.0, mult=True),
    "eigenvalue-inf": lambda: ExplicitFamily(((math.inf, 1, 0.0),)),
    "derivative-nan": lambda: ExplicitFamily(((1.0, 1, math.nan),)),
    "row-mult-fraction": lambda: finite_spectrum([(2.0, 1.7)]),
    "row-mult-true": lambda: finite_spectrum([(2.0, True)]),
    "eigenvalue-string": lambda: finite_spectrum([("2.0", 1)]),
    "kernel-dim-true": lambda: Spectrum((), kernel_dim=True),
    "wire-mult-fraction": lambda: spectrum_from_dict(
        {"families": [{"kind": "lattice", "scale": 1.0, "mult": 1.7}]}),
    "wire-kernel-dim-true": lambda: spectrum_from_dict({"families": [], "kernel_dim": True}),
}


@pytest.mark.parametrize("build", NON_FINITE_OR_NON_INTEGRAL.values(),
                         ids=NON_FINITE_OR_NON_INTEGRAL.keys())
def test_non_finite_and_non_integral_input_rejected(build):
    with pytest.raises(DomainError):
        build()


def test_integral_float_multiplicity_accepted():
    assert finite_spectrum([(2.0, 2.0)]).families[0].values == ((2.0, 2, 0.0),)


def test_full_shift_canonicalisation():
    # shifts congruent mod the scale serialise identically, boundary maps to +scale/2
    assert lattice_family(2.0, -1.0, "full").families[0].shift == 1.0
    assert lattice_family(2.0, 3.5, "full").families[0].shift == -0.5
    assert lattice_family(2.0, 1.5, "full").families[0].shift == -0.5
    assert spectrum_dumps(lattice_family(2.0, 3.0, "full")) == \
        spectrum_dumps(lattice_family(2.0, -1.0, "full"))


def test_structural_zero_goes_to_kernel():
    spec = lattice_family(2.0, 0.0, "full", 3)
    assert spec.kernel_dim == 3
    assert lattice_family(2.0, 0.5, "full", 3).kernel_dim == 0
    assert ONE0.kernel_dim == 0


def test_finite_spectrum_kernel_and_sorting():
    spec = finite_spectrum([(3.0, 1), (0.0, 2), (1.0, 4)])
    assert spec.kernel_dim == 2
    assert spec.families[0].values == ((1.0, 4, 0.0), (3.0, 1, 0.0))


def test_min_eigenvalue():
    assert min_eigenvalue(ONE0) == pytest.approx(TWO_PI ** 2, rel=1e-15)
    assert min_eigenvalue(ONEPI) == pytest.approx((3.0 * math.pi) ** 2, rel=1e-15)
    assert min_eigenvalue(FULLPI) == pytest.approx(math.pi ** 2, rel=1e-15)
    assert min_eigenvalue(FULLPI3) == pytest.approx((math.pi / 3.0) ** 2, rel=1e-15)
    assert min_eigenvalue(FIN23) == 2.0
    with pytest.raises(DomainError):
        min_eigenvalue(finite_spectrum([]))


def test_min_eigenvalue_one_sided_shift_beyond_scale():
    # every index n >= 1 lies right of the zero crossing: the minimum is at n = 1
    assert min_eigenvalue(lattice_family(1.0, 2.5)) == 3.5 ** 2
    assert min_eigenvalue(lattice_family(2.0, 2.0)) == 16.0


def test_tolerance_validation():
    for abs_tol in (0.0, -1e-12, math.nan):
        with pytest.raises(DomainError):
            heat_trace(ONE0, 0.1, abs_tol)


# ---------------------------------------------------------------------------
# heat trace values


def test_heat_trace_explicit():
    assert heat_trace(FIN23, 1.0) == pytest.approx(
        math.exp(-2.0) + math.exp(-3.0), rel=1e-15)


def test_heat_trace_lattice_brute_values():
    assert heat_trace(ONE0, 0.01) == pytest.approx(BRUTE_ONE0_T001, rel=5e-15)
    assert heat_trace(ONEPI, 0.01) == pytest.approx(BRUTE_ONEPI_T001, rel=5e-15)
    assert heat_trace(FULLPI, 0.01) == pytest.approx(BRUTE_FULLPI_T001, rel=5e-15)


def test_heat_trace_against_live_mpmath():
    t = mp.mpf(3) / 10
    ref = mp.nsum(lambda n: mp.e ** (-t * (2 * mp.pi * n + mp.pi) ** 2), [1, mp.inf])
    assert heat_trace(ONEPI, 0.3) == pytest.approx(float(ref), rel=1e-13, abs=1e-15)


def test_heat_trace_domain():
    with pytest.raises(DomainError):
        heat_trace(ONE0, 0.0)
    with pytest.raises(DomainError):
        heat_trace_theta(ONE0, -1.0)
    for trace in (heat_trace, heat_trace_theta):
        with pytest.raises(DomainError, match="finite"):
            trace(lattice_family(TWO_PI, 1.0, "full"), math.inf)


def test_heat_trace_excludes_kernel():
    # the three zero modes of the shift-0 full lattice sit in kernel_dim, and
    # both traces run over the positive spectrum only
    spec = lattice_family(2.0, 0.0, "full", 3)
    assert spec.kernel_dim == 3
    t = 0.7
    ref = 3 * (mp.jtheta(3, 0, mp.exp(-4 * mp.mpf(t))) - 1)
    assert heat_trace(spec, t) == pytest.approx(float(ref), rel=1e-14)
    assert heat_trace_theta(spec, t) == pytest.approx(float(ref), abs=1e-13)


def test_heat_trace_compose_additive():
    combined = compose(ONE0, FULLPI, FIN23)
    for t in (0.01, 0.3, 1.0):
        parts = heat_trace(ONE0, t) + heat_trace(FULLPI, t) + heat_trace(FIN23, t)
        assert heat_trace(combined, t) == pytest.approx(parts, rel=1e-14, abs=1e-14)


def test_heat_trace_monotone_and_log_convex():
    ts = [0.01, 0.02, 0.04, 0.08, 0.16]
    values = [heat_trace(FULLPI3, t) for t in ts]
    assert all(a > b for a, b in zip(values, values[1:]))
    # log-convexity: tr(t1)*tr(t3) >= tr((t1+t3)/2)^2
    for t1, t3 in zip(ts, ts[2:]):
        mid = heat_trace(FULLPI3, 0.5 * (t1 + t3))
        lhs = heat_trace(FULLPI3, t1) * heat_trace(FULLPI3, t3)
        assert lhs >= mid * mid * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# dual route: direct summation vs theta transform


@pytest.mark.parametrize("spec", LATTICE_SPECS, ids=lambda s: spectrum_dumps(s)[:48])
def test_dual_route_mixed_tolerance(spec):
    for t in logspace(-4, 0, 25):
        direct = heat_trace(spec, float(t))
        theta = heat_trace_theta(spec, float(t))
        assert abs(direct - theta) <= 1e-12 * (1.0 + abs(direct)), \
            f"t={t}: direct={direct!r} theta={theta!r}"


@pytest.mark.parametrize("spec", LATTICE_SPECS, ids=lambda s: spectrum_dumps(s)[:48])
def test_dual_route_pure_relative_above_floor(spec):
    # where the trace is not tiny, the agreement is genuinely relative
    for t in logspace(-4, 0, 25):
        direct = heat_trace(spec, float(t))
        if abs(direct) < 1e-2:
            continue
        theta = heat_trace_theta(spec, float(t))
        assert abs(direct - theta) <= 1e-12 * abs(direct)


def test_theta_route_explicit_families_pass_through():
    assert heat_trace_theta(FIN23, 0.5) == pytest.approx(heat_trace(FIN23, 0.5),
                                                         abs=1e-15)


# ---------------------------------------------------------------------------
# the views: explicit rows, lattice families and their Poisson data


def test_views_split_families_in_order():
    first = lattice_family(2.0, 0.3)
    second = lattice_family(3.0, 0.1, "full")
    spec = compose(finite_spectrum([(5.0, 2, 0.5)]), first,
                   finite_spectrum([(7.0, 3), (1.0, 1)]), second)
    assert spec.rows == ((5.0, 2, 0.5), (1.0, 1, 0.0), (7.0, 3, 0.0))
    assert spec.lattices == first.families + second.families


NINE_FAMILIES = (
    LatticeFamily(2.0, 0.5),
    LatticeFamily(2.0, 0.5, shift_derivative=1.0),  # unmatched once 0 pairs
    LatticeFamily(2.0, 0.0),
    LatticeFamily(2.0, -0.5),                       # pairs with the earliest, 0
    LatticeFamily(2.0, 0.25, "full"),
    LatticeFamily(2.0, 0.0, "full"),
    LatticeFamily(3.0, -0.5),                       # other scale
    LatticeFamily(2.0, -0.5, mult=2),               # other mult
    LatticeFamily(2.0, 0.4),                        # same sign, not opposite
)


def test_poisson_pairing_rules():
    fams = NINE_FAMILIES
    spec = Spectrum(fams[:2] + (ExplicitFamily(((1.0, 1, 0.0),)),) + fams[2:])
    poisson = spec.poisson
    # half of the zero-shift family's theta, family 0 paired with family 3 as
    # the theta of family 0 less its n = 0 term, then the two full families
    assert poisson.thetas == ((0.5, 2.0, 0.0), (1, 2.0, 0.5), (1, 2.0, 0.25), (1, 2.0, 0.0))
    assert poisson.exponentials == ((0.0, -0.5), (0.25, -1), (0.0, -1), (1.0, 1))
    # the earliest partner wins; scale, mult and an opposite shift must match
    assert [next(i for i, f in enumerate(fams) if f is fam)
            for fam in poisson.solos] == [1, 6, 7, 8]


def _poisson_trace(spec: Spectrum, t: float) -> float:
    """Spectrum.poisson summed term by term: each theta over n in Z, each
    exponential once and each solo over n >= 1, to exp(-50)."""
    reach = math.sqrt(50.0 / t)
    poisson = spec.poisson
    terms = [weight * math.exp(-t * lam) for lam, weight in poisson.exponentials]
    lattices = [(weight, scale, shift, True) for weight, scale, shift in poisson.thetas]
    lattices += [(fam.mult, fam.scale, fam.shift, False) for fam in poisson.solos]
    for weight, scale, shift, full in lattices:
        top = math.ceil((reach + abs(shift)) / scale)
        terms.extend(weight * math.exp(-t * (scale * n + shift) ** 2)
                     for n in range(-top if full else 1, top + 1))
    return math.fsum(terms)


def test_explicit_placement_does_not_move_traces():
    rows = finite_spectrum([(0.7, 2, 0.1), (3.5, 1)])
    lattices = [lattice_family(2.0, 0.4), lattice_family(2.0, -0.4),
                lattice_family(3.0, 0.2, "full", 2), lattice_family(2.5, 0.3)]
    orders = [compose(rows, *lattices), compose(*lattices[:2], rows, *lattices[2:]),
              compose(*lattices, rows)]
    remainders = [remainder_fn(spec, default_expansion(spec)) for spec in orders]
    for t in (1e-3, 0.1, 2.0):
        for values in ([heat_trace(spec, t) for spec in orders],
                       [heat_trace_theta(spec, t) for spec in orders],
                       [f(t) for f in remainders]):
            assert len({value.hex() for value in values}) == 1


POISSON_SPECS = [
    compose(finite_spectrum([(0.7, 2, 0.1), (3.5, 1)]), lattice_family(2.0, 0.4),
            lattice_family(2.0, -0.4), lattice_family(3.0, 0.2, "full", 2),
            lattice_family(2.5, 0.3)),
    Spectrum(NINE_FAMILIES[:2] + (ExplicitFamily(((1.0, 1, 0.0),)),) + NINE_FAMILIES[2:]),
]


@pytest.mark.parametrize("spec", POISSON_SPECS, ids=["placement", "nine-families"])
def test_poisson_data_sums_to_heat_trace(spec):
    for t in (1e-3, 0.1, 2.0):
        direct = heat_trace(spec, t)
        assert abs(_poisson_trace(spec, t) - direct) <= 1e-12 * (1.0 + abs(direct))


def test_unknown_family_type_rejected():
    with pytest.raises(DomainError, match="unknown family type"):
        Spectrum((object(),))


def test_family_type_dispatch_only_in_spectra():
    # Spectrum.rows, .lattices and .poisson are where the family types are
    # told apart; every other module reads those views, and no module brings
    # back the retired per-kind groups
    dispatch = re.compile(r"isinstance\([^)]*\b(ExplicitFamily|LatticeFamily)\b")
    retired = re.compile(r"""["'](pair|half|solo)["']|\.groups\b""")
    package = Path(specreg.__file__).parent
    found = [f"{path.name}:{number}" for path in sorted(package.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if path.name != "spectra.py" and dispatch.search(line) or retired.search(line)]
    assert found == []


# ---------------------------------------------------------------------------
# deformation and scaling


def test_deform_lattice_shift():
    base = lattice_family(TWO_PI, math.pi, "positive", 1, 1.0)
    moved = deform(base, 0.1)
    assert moved.families[0].shift == pytest.approx(math.pi + 0.1, rel=1e-15)
    assert moved.families[0].shift_derivative == 1.0


def test_deform_explicit_and_domain():
    base = finite_spectrum([(2.0, 1, -1.0)])
    assert deform(base, 1.0).families[0].values[0][0] == pytest.approx(1.0)
    with pytest.raises(DomainError):
        deform(base, 2.0)


def test_deform_rederives_structural_kernel():
    base = lattice_family(2.0, 0.0, "full", 2, 1.0)
    assert base.kernel_dim == 2
    assert deform(base, 0.5).kernel_dim == 0
    assert deform(base, 0.0).kernel_dim == 2
    # a full period returns the structural zero
    assert deform(base, 2.0).kernel_dim == 2


def test_scale_spectrum_trace_identity():
    spec = compose(ONEPI, FIN23)
    for c in (0.5, 4.0):
        scaled = scale_spectrum(spec, c)
        for t in (0.05, 0.4):
            assert heat_trace(scaled, t) == pytest.approx(
                heat_trace(spec, c * t), rel=1e-12, abs=1e-14)
    assert scale_spectrum(spec, 2.0).kernel_dim == spec.kernel_dim
    with pytest.raises(DomainError):
        scale_spectrum(spec, 0.0)


# ---------------------------------------------------------------------------
# serialisation


@pytest.mark.parametrize("spec", [ONE0, ONEPI, FULLPI, FIN23,
                                  compose(ONEPI, FIN23),
                                  lattice_family(2.0, 0.0, "full", 3)])
def test_serialisation_round_trip(spec):
    assert spectrum_loads(spectrum_dumps(spec)) == spec
    assert spectrum_from_dict(spectrum_to_dict(spec)) == spec


def test_from_dict_validation():
    with pytest.raises(DomainError):
        spectrum_from_dict([])
    with pytest.raises(DomainError):
        spectrum_from_dict({"kernel_dim": 0})
    with pytest.raises(DomainError):
        spectrum_from_dict({"families": [{"kind": "mystery"}], "kernel_dim": 0})
    with pytest.raises(DomainError):
        spectrum_from_dict({"families": [{"kind": "lattice", "scale": 1.0}],
                            "kernel_dim": -1})
    # kernel_dim below the structural zero count is inconsistent
    with pytest.raises(DomainError):
        spectrum_from_dict({"families": [{"kind": "lattice", "scale": 2.0,
                                          "shift": 0.0, "side": "full",
                                          "mult": 2}],
                            "kernel_dim": 1})


# ---------------------------------------------------------------------------
# lattice runs closed by an Euler-Maclaurin tail


def _mp_lattice_sum(kind: str, fam: LatticeFamily, rate: float) -> mp.mpf:
    """sum weight*f(u) over fam's runs, by routes that share no code with
    _lattice_sum: Hurwitz zeta for "power", the Jacobi theta function for
    "heat" (full families and zero-shift one-sided ones), and for "e1" and
    "shape" the terms up to u > 0 plus mpmath's own Euler-Maclaurin
    summation (numerical derivatives and quadrature) at 18 digits."""
    c, r = mp.mpf(fam.scale), mp.mpf(rate)
    weight = -fam.mult * mp.mpf(fam.shift_derivative) if kind == "shape" else fam.mult
    if kind == "heat":
        q = mp.e ** (-mp.pi ** 2 / (c * c * r))
        full = mp.sqrt(mp.pi / r) / c * mp.jtheta(3, mp.pi * mp.mpf(fam.shift) / c, q)
        if fam.side == "full":
            return weight * (full - (1 if fam.shift == 0.0 else 0))
        assert fam.shift == 0.0
        return weight * (full - 1) / 2
    total = mp.mpf(0)
    for sigma, start, sign in specreg.spectra._runs(fam):
        sigma = mp.mpf(sigma)
        n0 = start
        while c * n0 + sigma <= 0:
            n0 += 1
        if kind == "power":
            total += mp.fsum(abs(c * n + sigma) ** -r for n in range(start, n0)
                             if c * n + sigma != 0)
            total += c ** -r * mp.zeta(r, n0 + sigma / c)
            continue

        def f(n):
            u = c * n + sigma
            if u == 0:
                return mp.mpf(0)
            return mp.e1(r * u * u) if kind == "e1" else sign * mp.e ** (-r * u * u) / u

        total += mp.fsum(f(n) for n in range(start, n0))
        with mp.workdps(18):
            total += mp.nsum(f, [n0, mp.inf], method="euler-maclaurin")
    return weight * total


def _em_oracle_cases():
    # each summand at every scale and both cutoffs, with zero and nonzero
    # shifts, one-sided and full runs
    grid = [(s, r) for s in (1e-4, 1e-2, 1.0, TWO_PI) for r in (1e-2, 1e-4)]
    for i, (scale, rate) in enumerate(grid):
        frac = (0.0, 0.3, -0.45)[i % 3]
        side = ("positive", "full")[i % 2]
        yield "e1", LatticeFamily(scale, frac * scale, "positive", 2), rate
        yield "heat", LatticeFamily(scale, 0.0, side, 2), rate
        yield "heat", LatticeFamily(scale, 0.3 * scale, "full", 1), rate
        yield "power", LatticeFamily(scale, frac * scale, side, 2), (1.2, 3.0, 61.0)[i % 3]
        yield "shape", LatticeFamily(scale, -0.3 * scale, "positive", 1, 0.7), rate
    yield "e1", LatticeFamily(1e-2, -0.45e-2, "full", 1), 1e-4
    yield "e1", LatticeFamily(TWO_PI, 0.3 * TWO_PI, "full", 1), 1e-4
    yield "shape", LatticeFamily(1.0, 0.3, "full", 1, -1.5), 1e-4


@pytest.mark.parametrize("kind,fam,rate", list(_em_oracle_cases()))
def test_lattice_sum_against_mpmath(kind, fam, rate):
    terms, bound = specreg.spectra._lattice_sum(fam, kind, rate, 1e-13)
    value = math.fsum(terms)
    miss = abs(mp.mpf(value) - _mp_lattice_sum(kind, fam, rate))
    # direct and closed runs alike: the stated bound covers the miss with no
    # slack beyond the final rounding
    assert miss <= bound + 0.5 * math.ulp(value)
