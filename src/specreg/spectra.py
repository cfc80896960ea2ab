"""Spectrum model and heat traces.

A Spectrum is a finite union of eigenvalue families plus a count of zero
modes (kernel_dim).  Two family kinds are supported, and any other type is
rejected at construction:

* LatticeFamily: eigenvalues (scale*n + shift)^2 with multiplicity `mult`,
  where n runs over n >= 1 ("positive" side) or all integers ("full" side).
  `shift_derivative` records d(shift)/d(kappa) along a one-parameter
  deformation, which is how geodesic directions enter Gateaux derivatives.
* ExplicitFamily: a finite list of (eigenvalue, mult, eigenvalue_derivative).

Zero modes never live inside a family: structural zeros (scale*n + shift
equal to 0.0 in exact float arithmetic) are detected at construction and
moved into kernel_dim, and enumeration skips them defensively.

A Spectrum keeps its families in order (deform, scale_spectrum and the wire
format walk them so) and holds three views built once, on first use: its
explicit rows (Spectrum.rows), its lattice families (Spectrum.lattices) and
its trace as Poisson data (Spectrum.poisson): full theta sums, signed
exponentials that complete them to the actual trace (every explicit row
among them), and the unpaired shifted one-sided families, the solos, which
have no such form.  Every routine reads the views; only this module tells
the family types apart.  Every walk over a lattice family reads its
structure from here: index runs (_runs), the pairing, the Poisson dual
series (_theta_terms, and its Mellin integral _dual_mellin) and the tail
budget (_tail_budget).

Every sum of a summand over a lattice family's runs goes through
_lattice_sum: the heat trace exp(-t*u^2), the cutoff determinant's
E1(eps*u^2), the shape trace's exp(-eps*u^2)/u and the Dirichlet series'
|u|^-2s (zeta_direct, and zeta_value's solos, continued below s = 1/2).  A
short run is summed term by term.  A long one is summed directly up to an
index N and closed by Euler-Maclaurin through B16 (special._em_tail): the
tail integral in closed form, f(N)/2, and the odd derivatives from a
Hermite recurrence.  N is the first index where a derived remainder bound
(special._em_remainder) meets _EM_SHARE of the run's budget, and the run
states that bound plus its rounding, so its cost no longer grows like
1/(scale*sqrt(t)).

heat_trace sums mult * exp(-t*lam) over the positive spectrum with
certified lattice tails and never reads Spectrum.poisson; heat_trace_theta
evaluates the same quantity from it through the Jacobi theta transform
(Poisson summation), which is the independent oracle route for small t.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from math import fsum
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import DomainError, NumericError
from .special import (
    _E1_ROUNDING,
    _E1_SERIES_ROUNDING,
    _ERFC_ROUNDING,
    _U,
    _em_guess,
    _em_remainder,
    _em_tail,
    exp_integral_e1,
)

SQRT_PI = math.sqrt(math.pi)

# absolute accuracy target of every certified lattice sum (see _tail_budget)
ABS_TOL = 1e-12


def _number(value: object, what: str, whole: bool = False):
    """A wire number as float, or as int when `whole`; bools, non-numbers and
    (when `whole`) fractions raise DomainError instead of being coerced."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or whole
            and not (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise DomainError(f"{what} must be {'an integer' if whole else 'a number'}, "
                          f"got {value!r}")
    return int(value) if whole else float(value)


@dataclass(frozen=True)
class LatticeFamily:
    """Eigenvalues (scale*n + shift)^2 for n >= 1 (positive) or n in Z (full)."""

    scale: float
    shift: float = 0.0
    side: str = "positive"
    mult: int = 1
    shift_derivative: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.scale, self.shift, self.shift_derivative))):
            raise DomainError(f"lattice data must be finite, got {self!r}")
        if not self.scale > 0.0:
            raise DomainError(f"lattice scale must be positive, got {self.scale!r}")
        if self.side not in ("positive", "full"):
            raise DomainError(f"lattice side must be 'positive' or 'full', got {self.side!r}")
        if not (type(self.mult) is int and self.mult >= 1):
            raise DomainError(f"multiplicity must be a positive integer, got {self.mult!r}")
        if self.side == "positive" and not self.shift > -self.scale:
            # keeps scale*n + shift > 0-adjacent ordering and q = 1 + shift/scale > 0
            raise DomainError("one-sided lattice requires shift > -scale")


@dataclass(frozen=True)
class ExplicitFamily:
    """Finitely many explicit eigenvalues as (lam, mult, lam_derivative) triples."""

    values: tuple[tuple[float, int, float], ...]

    def __post_init__(self) -> None:
        for lam, mult, deriv in self.values:
            if not (lam > 0.0 and math.isfinite(lam)):
                raise DomainError(f"explicit eigenvalues must be positive and finite, got {lam!r}")
            if not math.isfinite(deriv):
                raise DomainError(f"eigenvalue derivatives must be finite, got {deriv!r}")
            if not (type(mult) is int and mult >= 1):
                raise DomainError(f"multiplicity must be a positive integer, got {mult!r}")


Family = Union[LatticeFamily, ExplicitFamily]


class Poisson(NamedTuple):
    """A positive spectrum's heat trace as Poisson data: the sum of weight *
    sum_{n in Z} exp(-t*(scale*n + shift)^2) over thetas, of weight *
    exp(-t*lam) over exponentials, and the one-sided traces of the solos."""

    thetas: tuple[tuple[float, float, float], ...]  # (weight, scale, shift)
    exponentials: tuple[tuple[float, float], ...]  # (lam, weight)
    solos: tuple[LatticeFamily, ...]


@dataclass(frozen=True)
class Spectrum:
    """A finite union of families plus the number of zero modes."""

    families: tuple[Family, ...]
    kernel_dim: int = 0

    def __post_init__(self) -> None:
        if not (type(self.kernel_dim) is int and self.kernel_dim >= 0):
            raise DomainError(f"kernel_dim must be a non-negative integer, got {self.kernel_dim!r}")
        for fam in self.families:
            if not isinstance(fam, (LatticeFamily, ExplicitFamily)):
                raise DomainError(f"unknown family type {type(fam).__name__}")

    @cached_property
    def rows(self) -> tuple[tuple[float, int, float], ...]:
        """Every explicit (lam, mult, lam_derivative) row, across families."""
        return tuple(row for fam in self.families if isinstance(fam, ExplicitFamily)
                     for row in fam.values)

    @cached_property
    def lattices(self) -> tuple[LatticeFamily, ...]:
        """The lattice families, in order."""
        return tuple(fam for fam in self.families if isinstance(fam, LatticeFamily))

    @cached_property
    def poisson(self) -> Poisson:
        """The trace as Poisson data.  A full family is the theta (mult, scale,
        shift), plus the row (0.0, -mult) if it holds a structural zero; a
        zero-shift one-sided family is the theta (mult/2, scale, 0.0) plus
        (0.0, -mult/2).  A shifted one-sided family and the earliest unmatched
        earlier one of equal scale and mult and opposite shift are that
        family's theta (mult, scale, shift) plus the row (shift^2, -mult) that
        removes its n = 0 term.  Shifted one-sided families left unmatched are
        the solos, in order.  The explicit rows (lam, mult) come last."""
        thetas, exponentials, waiting = [], [], []
        for fam in self.lattices:
            if fam.side == "full":
                thetas.append((fam.mult, fam.scale, fam.shift))
                if _zero_modes(fam):
                    exponentials.append((0.0, -fam.mult))
            elif fam.shift == 0.0:
                thetas.append((0.5 * fam.mult, fam.scale, 0.0))
                exponentials.append((0.0, -0.5 * fam.mult))
            else:
                for i, other in enumerate(waiting):
                    if (other.shift == -fam.shift and other.scale == fam.scale
                            and other.mult == fam.mult):
                        waiting.pop(i)
                        thetas.append((other.mult, other.scale, other.shift))
                        exponentials.append((other.shift * other.shift, -other.mult))
                        break
                else:
                    waiting.append(fam)
        exponentials.extend((lam, mult) for lam, mult, _ in self.rows)
        return Poisson(tuple(thetas), tuple(exponentials), tuple(waiting))


def _zero_modes(fam: LatticeFamily) -> int:
    """fam's structural zero modes: mult if an index of its runs gives
    scale*n + shift == 0.0 in float arithmetic (which enumeration skips), else 0."""
    for sigma, start, _ in _runs(fam):
        c = -sigma / fam.scale
        if any(n >= start and fam.scale * n + sigma == 0.0
               for n in (math.floor(c), math.ceil(c))):
            return fam.mult
    return 0


# ---------------------------------------------------------------------------
# constructors


def _canonical_full_shift(scale: float, shift: float) -> float:
    """Reduce a full-lattice shift into (-scale/2, scale/2]."""
    reduced = shift - scale * round(shift / scale)
    if reduced == -0.5 * scale:
        reduced = 0.5 * scale
    return reduced + 0.0  # normalise -0.0


def lattice_family(
    scale: float,
    shift: float = 0.0,
    side: str = "positive",
    mult: int = 1,
    shift_derivative: float = 0.0,
) -> Spectrum:
    """Build a one-family Spectrum, moving any structural zero mode to the kernel.

    Full-side shifts are canonicalised into (-scale/2, scale/2], so congruent
    inputs compare and serialise identically.  After canonicalisation the only
    possible structural zero is n = 0 of a full lattice with shift exactly 0.0;
    one-sided families (shift > -scale, n >= 1) never contain one.
    """
    fam = LatticeFamily(scale=scale, shift=shift, side=side, mult=mult,
                        shift_derivative=shift_derivative)
    kernel = 0
    if side == "full":
        fam = replace(fam, shift=_canonical_full_shift(scale, shift))
        if fam.shift == 0.0:
            kernel = mult
    return Spectrum((fam,), kernel)


def finite_spectrum(values: Iterable[Sequence[float]]) -> Spectrum:
    """Spectrum from (lam, mult) or (lam, mult, derivative) rows.

    Rows with lam == 0 are counted into kernel_dim; negative lam is rejected.
    Rows are sorted by eigenvalue for a deterministic representation.
    """
    rows = []
    kernel = 0
    for row in values:
        if len(row) == 2:
            lam, mult = row
            deriv = 0.0
        elif len(row) == 3:
            lam, mult, deriv = row
        else:
            raise DomainError(f"expected (lam, mult[, derivative]) row, got {row!r}")
        mult = _number(mult, "multiplicity", whole=True)
        if mult < 1:
            raise DomainError(f"multiplicity must be >= 1, got {mult!r}")
        lam = _number(lam, "eigenvalue")
        if lam < 0.0:
            raise DomainError(f"eigenvalues must be >= 0, got {lam!r}")
        if lam == 0.0:
            kernel += mult
        else:
            rows.append((lam, mult, _number(deriv, "eigenvalue derivative")))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    families: tuple[Family, ...] = (ExplicitFamily(tuple(rows)),) if rows else ()
    return Spectrum(families, kernel)


def compose(*spectra: Spectrum) -> Spectrum:
    """Disjoint union: concatenates families and adds kernel dimensions."""
    fams: list[Family] = []
    kernel = 0
    for spec in spectra:
        fams.extend(spec.families)
        kernel += spec.kernel_dim
    return Spectrum(tuple(fams), kernel)


def deform(spec: Spectrum, kappa: float) -> Spectrum:
    """Move each family along its stored derivative by parameter kappa.

    Lattice shifts become shift + kappa*shift_derivative; explicit eigenvalues
    become lam + kappa*derivative (DomainError if one leaves the positive
    axis).  kernel_dim keeps its zero modes that no lattice holds and counts
    the structural zeros of the moved lattices afresh.
    """
    # the zero modes not tied to a lattice; a family built directly may hold a
    # structural zero that kernel_dim never counted
    base_kernel = max(0, spec.kernel_dim - sum(map(_zero_modes, spec.lattices)))
    new_fams: list[Family] = []
    for fam in spec.families:
        if isinstance(fam, LatticeFamily):
            moved = lattice_family(fam.scale, fam.shift + kappa * fam.shift_derivative,
                                   fam.side, fam.mult, fam.shift_derivative)
            new_fams.extend(moved.families)
            base_kernel += moved.kernel_dim
        else:
            rows = []
            for lam, mult, deriv in fam.values:
                new_lam = lam + kappa * deriv
                if not new_lam > 0.0:
                    raise DomainError(
                        f"deformation pushed eigenvalue {lam!r} to {new_lam!r} <= 0")
                rows.append((new_lam, mult, deriv))
            new_fams.append(ExplicitFamily(tuple(rows)))
    return Spectrum(tuple(new_fams), base_kernel)


def scale_spectrum(spec: Spectrum, factor: float) -> Spectrum:
    """Spectrum of factor*B: eigenvalues scale by `factor` (factor > 0).

    Lattice data scales by sqrt(factor) (including shift_derivative, so that
    eigenvalue derivatives scale by `factor` as they must); kernel_dim is
    unchanged.
    """
    if not factor > 0.0:
        raise DomainError(f"scaling factor must be positive, got {factor!r}")
    root = math.sqrt(factor)
    new_fams: list[Family] = []
    for fam in spec.families:
        if isinstance(fam, LatticeFamily):
            new_fams.append(LatticeFamily(fam.scale * root, fam.shift * root, fam.side,
                                          fam.mult, fam.shift_derivative * root))
        else:
            new_fams.append(ExplicitFamily(tuple(
                (lam * factor, mult, deriv * factor) for lam, mult, deriv in fam.values)))
    return Spectrum(tuple(new_fams), spec.kernel_dim)


def min_eigenvalue(spec: Spectrum) -> float:
    """Smallest strictly positive eigenvalue of the spectrum.

    A lattice eigenvalue u^2 below the smallest subnormal float rounds to 0.0;
    that raises NumericError, since no routine can work with it.
    """
    best = min((lam for lam, _, _ in spec.rows), default=math.inf)
    for fam in spec.lattices:
        for sigma, start, _ in _runs(fam):
            # |u| is smallest next to where the run crosses zero, or at its start
            c = -sigma / fam.scale
            for n in {start, math.floor(c) - 1, math.floor(c), math.ceil(c), math.ceil(c) + 1}:
                u = fam.scale * n + sigma
                if n >= start and u != 0.0:
                    best = min(best, u * u)
    if not math.isfinite(best):
        raise DomainError("spectrum has no positive eigenvalues")
    if best == 0.0:
        raise NumericError("the smallest eigenvalue underflows to 0.0 in double precision")
    return best


# ---------------------------------------------------------------------------
# lattice sums: a direct head closed by an Euler-Maclaurin tail


# a run enumerates at most this many indices directly (a list of 2^20 floats
# is about 32 MB, and each term costs one exp)
_MAX_RUN_TERMS = 2 ** 20
# no run is closed by Euler-Maclaurin below |u| = _EM_MIN_HEAD * scale
_EM_MIN_HEAD = 4
# what closing a run costs (the head's rounding, _em_start and _em_tail: two
# dozen microseconds), in direct terms of each summand; a run is closed only
# when that saves more terms than this
_EM_OVERHEAD = {"e1": 8, "heat": 256, "shape": 256, "power": 0}
# the share of a run's budget its Euler-Maclaurin remainder may take: a
# direct E1 run's truncation bound is its Gaussian tail over rate*u^2 >=
# log(4*mult/budget), about 30, and closing a run should not cost accuracy
_EM_SHARE = 1.0 / 32.0


def _run_upper_index(scale: float, sigma: float, start: int, decay: float,
                     mult: int, budget: float) -> tuple[int, float]:
    """Last index n_hi (and tail bound) so that sum_{n > n_hi} mult*exp(-decay*u^2)
    with u = scale*n + sigma is below `budget`.

    Uses the Gaussian tail bound  term(n_hi+1) * (1 + 1/(2*decay*scale*u)).
    n_hi may be far beyond what a direct sum can enumerate; _lattice_sum
    closes such runs with an Euler-Maclaurin tail.
    """
    turn = max(start, math.ceil(-sigma / scale))
    log_target = (math.log(max(mult, 1) * 4.0 / budget)
                  + max(0.0, -math.log(decay) - math.log(scale)))
    u_target = math.sqrt(max(log_target, 1.0) / decay)
    # 1e18 only keeps ceil() finite
    n_hi = max(turn + 1, math.ceil(min((u_target - sigma) / scale, 1e18)) + 1)
    for _ in range(200):
        u1 = scale * (n_hi + 1) + sigma
        tail = mult * math.exp(-decay * u1 * u1) * (1.0 + 1.0 / (2.0 * decay * scale * u1))
        if tail <= budget:
            return n_hi, tail
        n_hi += max(4, n_hi // 4)
    raise NumericError(f"no lattice tail bound found (scale={scale!r}, decay={decay!r})")


def _runs(fam: LatticeFamily) -> tuple[tuple[float, int, float], ...]:
    """The index runs (sigma, start, sign), u = sign*(scale*n + sigma), n >= start.

    n >= 1 with +shift; a full family adds the mirror n <= 0, re-indexed as
    m >= 0 with -shift and sign -1 so that u keeps its true sign.
    """
    if fam.side == "positive":
        return ((fam.shift, 1, 1.0),)
    return ((fam.shift, 1, 1.0), (-fam.shift, 0, -1.0))


def _summands(kind: str, weight: float, rate: float, xs: list[float]) -> list[float]:
    """weight*f(x) for each x: f is exp(-rate*x^2) ("heat"), E1(rate*x^2)
    ("e1"), exp(-rate*x^2)/x ("shape") or |x|^-rate ("power")."""
    if kind == "heat":
        return [weight * math.exp(-rate * x * x) for x in xs]
    if kind == "e1":
        return [weight * exp_integral_e1(rate * x * x) for x in xs]
    if kind == "shape":
        return [weight / x * math.exp(-rate * x * x) for x in xs]
    return [weight * abs(x) ** -rate for x in xs]


def _points(scale: float, sigma: float, start: int, stop: int, sign: float) -> list[float]:
    """u = sign*(scale*n + sigma) for start <= n < stop, structural zeros
    (u == 0.0) dropped; at most _MAX_RUN_TERMS of them."""
    if stop - start > _MAX_RUN_TERMS:
        raise NumericError(f"lattice sum would need more than {_MAX_RUN_TERMS} direct "
                           f"terms (scale={scale!r}, shift={sigma!r})")
    return [sign * x for x in (scale * n + sigma for n in range(start, stop)) if x != 0.0]


def _em_start(kind: str, scale: float, sigma: float, start: int, rate: float,
              target: float, n_hi: int | None) -> tuple[int, float] | None:
    """First index N of a run's Euler-Maclaurin tail and its remainder bound,
    or None when the run that _run_upper_index ends at n_hi (None: never) is
    better summed directly: it ends below |u| = _EM_MIN_HEAD*scale, or fewer
    than _EM_OVERHEAD terms after N.  A run that never ends and would need
    more than _MAX_RUN_TERMS direct terms raises NumericError.

    N is the first index with scale*N + sigma >= a and remainder at most
    `target` on the sequence a = max(_em_guess, _EM_MIN_HEAD*scale), then
    a + max(a/16, scale), ..., so at most 1/16 past the smallest such index.
    It depends on the run only through a, so runs of equal scale meet at the
    same a (and the mirrored runs of a full family cancel exactly).
    """
    overhead = _EM_OVERHEAD[kind]
    # N >= start, so this only skips the search when its result is direct anyway
    if n_hi is not None and (n_hi < start + overhead
                             or scale * n_hi + sigma < _EM_MIN_HEAD * scale):
        return None
    last = start + _MAX_RUN_TERMS if n_hi is None else n_hi - overhead
    a = max(_em_guess(kind, scale, rate, target), _EM_MIN_HEAD * scale)
    while (n := max(start, math.ceil((a - sigma) / scale))) <= last:
        remainder = _em_remainder(kind, scale, scale * n + sigma, rate)
        if remainder <= target:
            return n, remainder
        a += max(a / 16.0, scale)
    if n_hi is not None:
        return None
    raise NumericError(f"lattice sum would need more than {_MAX_RUN_TERMS} direct "
                       f"terms (scale={scale!r}, shift={sigma!r})")


def _closed_run(kind: str, weight: float, rate: float, scale: float, sigma: float,
                start: int, sign: float, n_em: int, remainder: float
                ) -> tuple[list[float], float]:
    """A run's head n < n_em summed directly plus its Euler-Maclaurin closure
    (special._em_tail), and their error bound: the remainder, the closure's
    rounding, and the head's: per term the summand's own error plus its
    sensitivity to the rounding of u = scale*n + sigma (relative
    u*(2 + |sigma|/|u|)) and of rate*u^2."""
    xs = _points(scale, sigma, start, n_em, sign)
    head = _summands(kind, weight, rate, xs)
    a = scale * n_em + sigma
    pieces, err = _em_tail(kind, scale, a, rate, abs(scale * n_em))
    signed = weight * sign if kind == "shape" else weight
    pieces = [signed * p for p in pieces]
    bound = abs(signed) * (remainder + err) + _U * fsum(map(abs, pieces))
    if head:
        spread = 2.0 + abs(sigma) / min(map(abs, xs))
        top = max(abs(xs[0]), a)
        sensitivity = (abs(rate) * spread + 3.0 if kind == "power"
                       else (rate * top * top + 1.0) * (2.0 * spread + 2.0) + 4.0)
        own = _E1_ROUNDING if kind == "e1" else _U
        bound += (own + sensitivity * _U) * fsum(map(abs, head))
        if kind == "e1":
            bound -= _series_relief((rate * x * x for x in xs), head)
    return head + pieces, bound


# the smallest normal double
_NORMAL_MIN = sys.float_info.min


def _series_relief(args: Iterable[float], terms: list[float],
                   spread: float | None = None) -> float:
    """What a run of E1 terms weight*E1(x), x in args, that charged each
    term _E1_ROUNDING (and, for a direct run, 4 u) gives back where x is
    below 1 and exp_integral_e1 takes its series, good to
    _E1_SERIES_ROUNDING; exactly 0.0 when no x is below 1.  A subnormal x
    has lost the relative precision that this assumes and gives nothing
    back.  With `spread`
    (a direct run's, as in _lattice_sum) the term keeps u for the product
    with the weight and the rounding of x itself, relative (2*spread + 2) u,
    times E1's sensitivity exp(-x)/E1(x) < 2/log(1 + 2/x) (from E1(x) >
    exp(-x)*log(1 + 2/x)/2, DLMF 6.8.2); without, the caller budgets that
    already."""
    series = [(x, abs(f)) for x, f in zip(args, terms) if _NORMAL_MIN <= x < 1.0]
    relief = _E1_ROUNDING - _E1_SERIES_ROUNDING
    if spread is None:
        return relief * fsum(f for _, f in series)
    argument = 2.0 * (2.0 * spread + 2.0) * _U
    return fsum((relief + 3.0 * _U - argument / math.log1p(2.0 / x)) * f for x, f in series)


def _lattice_sum(fam: LatticeFamily, kind: str, rate: float, budget: float,
                 runs=None) -> tuple[list[float], float]:
    """Terms whose sum is sum weight*f(u) over `runs` of fam (default: all of
    them), and a bound on that sum's error; f and `rate` as in _summands.

    The weight is mult, or -mult*shift_derivative for "shape", whose summand
    is odd (u carries its sign).  `budget` is split evenly over the runs.  A
    run that _em_start leaves direct is summed term for term as it always
    was and states its Gaussian tail bound (over rate*u^2 for "e1", times
    |weight|/(mult*u) for "shape"); every other run, and every "power" run,
    is a _closed_run, whose remainder is at most _EM_SHARE of its share of
    the budget.  A direct run also states its rounding, (own + 4 u) times
    the sum of its terms' magnitudes: "own" is the summand's error
    (_E1_ROUNDING for E1, u for the others) and 4 u the product with the
    weight and the rounding of rate*u^2 where it is of order one.  Further
    out the argument's rounding grows with rate*u^2 in a term that has
    fallen like exp(-rate*u^2); for the E1 runs of regdet._e1_sum, E1's
    stated 160 u (at most 36 u measured beyond x = 2) absorbs it.  Below
    x = 1 an E1 term states its series' error and the rounding of x
    instead (_series_relief).
    """
    weight = -fam.mult * fam.shift_derivative if kind == "shape" else fam.mult
    runs = runs or _runs(fam)
    share = budget / len(runs)
    scale = fam.scale
    terms, bound = [], 0.0
    for sigma, start, sign in runs:
        n_hi = None
        if kind != "power":
            n_hi, tail = _run_upper_index(scale, sigma, start, rate, fam.mult, share)
        closing = _em_start(kind, scale, sigma, start, rate,
                            _EM_SHARE * share / abs(weight), n_hi)
        if closing:
            run_terms, run_bound = _closed_run(kind, weight, rate, scale, sigma, start,
                                               sign, *closing)
            terms.extend(run_terms)
            bound += run_bound
            continue
        xs = _points(scale, sigma, start, n_hi + 1, sign)
        run_terms = _summands(kind, weight, rate, xs)
        terms.extend(run_terms)
        u_next = scale * (n_hi + 1) + sigma
        bound += (tail / (rate * u_next * u_next) if kind == "e1"
                  else tail * abs(weight) / (fam.mult * u_next) if kind == "shape"
                  else tail)
        own = _E1_ROUNDING if kind == "e1" else _U
        bound += (own + 4.0 * _U) * fsum(map(abs, run_terms))
        if kind == "e1" and xs:
            spread = 2.0 + abs(sigma) / min(map(abs, xs))
            bound -= _series_relief((rate * x * x for x in xs), run_terms, spread)
    return terms, bound


def _direct_run(fam: LatticeFamily, t: float, budget: float, runs=None) -> float:
    """mult * sum exp(-t*u^2) over `runs` of fam (default: all), to within budget
    (see _lattice_sum)."""
    return fsum(_lattice_sum(fam, "heat", t, budget, runs)[0])


def _tail_budget(spec: Spectrum, abs_tol: float = ABS_TOL) -> float:
    """Truncation budget of one family's lattice tails in a sum over spec."""
    return abs_tol / (2.0 * max(1, len(spec.families)))


def heat_trace(spec: Spectrum, t: float, abs_tol: float = ABS_TOL) -> float:
    """tr exp(-t*B) over the positive (kernel-free) spectrum.

    Summed exactly rounded by math.fsum, so the order of the terms does not
    matter; each lattice run is summed directly with its tail certified
    below abs_tol by the Gaussian tail bound, or, when it is long, closed by
    an Euler-Maclaurin tail with remainder below abs_tol (_lattice_sum).
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"heat trace requires a finite t > 0, got {t!r}")
    if not abs_tol > 0.0:
        raise DomainError(f"heat trace requires abs_tol > 0, got {abs_tol!r}")
    budget = _tail_budget(spec, abs_tol)
    terms = [mult * math.exp(-t * lam) for lam, mult, _ in spec.rows]
    for fam in spec.lattices:
        terms.extend(_lattice_sum(fam, "heat", t, budget)[0])
    return fsum(terms)


# ---------------------------------------------------------------------------
# theta-transform route


def _dual_decay(scale: float, t: float) -> float:
    """Decay rate pi^2/(scale^2 t) of the Poisson dual terms in k^2."""
    return math.pi * math.pi / (scale * scale * t)


def _theta_terms(scale: float, shift: float, t: float, log_target: float,
                 cosines: list[float] | None = None) -> list[float]:
    """Dual terms 2*exp(-decay*k^2)*cos(2*pi*k*shift/scale), k = 1..k_max past
    exp(-log_target), of sum_{n in Z} exp(-t*(scale*n + shift)^2) =
    sqrt(pi)/(scale*sqrt(t)) * (1 + sum_k dual_k).  They fall double-
    exponentially for small t, exactly where direct summation is expensive.

    `cosines`, when given, is a table of cos(2*pi*k*shift/scale) for k = 1, 2,
    .. that one family reuses across many t; it is extended here as far as
    k_max needs.
    """
    decay = _dual_decay(scale, t)
    k_max = max(2, math.ceil(math.sqrt(max(log_target, 1.0) / decay)) + 2)
    if cosines is None:
        cosines = []
    if len(cosines) < k_max:
        angle = 2.0 * math.pi * shift / scale
        cosines.extend(math.cos(angle * k) for k in range(len(cosines) + 1, k_max + 1))
    return [2.0 * math.exp(-decay * k * k) * cosines[k - 1] for k in range(1, k_max + 1)]


def _theta_full(scale: float, shift: float, t: float, budget: float) -> float:
    """sum_{n in Z} exp(-t*(scale*n + shift)^2) by Poisson summation, with the
    dual series truncated below `budget`."""
    prefactor = SQRT_PI / (scale * math.sqrt(t))
    log_target = math.log(max(2.0 * prefactor, 2.0) / budget)
    return prefactor * fsum([1.0] + _theta_terms(scale, shift, t, log_target))


def _theta_rest(scale: float, shift: float, t: float, cosines: list[float]) -> float:
    """sum_{n in Z} exp(-t*(scale*n+shift)^2) - sqrt(pi)/(scale*sqrt(t)) from
    the dual terms down to exp(-45), without cancellation; it is exponentially
    small for t*scale^2 << pi^2.  `cosines` is the family's table, as in
    _theta_terms."""
    prefactor = SQRT_PI / (scale * math.sqrt(t))
    return prefactor * fsum(_theta_terms(scale, shift, t, 45.0, cosines))


# truncation target of each dual series D, per unit of weight
_DUAL_TAIL = 1e-17


def _dual_tail(scale: float, K: int) -> float:
    """Bound on sum_{k>K} 2*erfc(pi*k/c)/k, c = scale; see _dual_mellin."""
    a = (math.pi / scale) ** 2
    return (2.0 * scale * math.exp(-a * (K + 1) ** 2)
            / (math.pi ** 1.5 * (K + 1) ** 2 * -math.expm1(-a * (2 * K + 3))))


def _dual_mellin(scale: float, shift: float) -> tuple[float, float]:
    """D(c, sigma) = sum_{k>=1} 2*cos(2*pi*k*sigma/c)*erfc(pi*k/c)/k and its
    error bound, with c = scale and sigma = shift.

    D is int_0^1 of the Poisson dual part of sum_{n in Z} exp(-t*(c*n +
    sigma)^2) against dt/t: per dual term, int_0^1 t^(-3/2) exp(-beta/t) dt
    = sqrt(pi/beta)*erfc(sqrt(beta)) at beta = (pi*k/c)^2 (DLMF 8.4.6,
    7.11.2).  With a = (pi/c)^2, erfc(x) <= exp(-x^2)/(x*sqrt(pi)) and
    k^2 - (K+1)^2 >= (k-K-1)(2K+3) bound the terms past K by
    2c*exp(-a(K+1)^2) / (pi^(3/2)*(K+1)^2*(1 - exp(-a(2K+3)))) (_dual_tail);
    K starts where the exponential alone meets _DUAL_TAIL and grows until the
    whole bound does.  The error adds, per term, erfc's own rounding, its
    argument's (relative sensitivity at most 2x^2 + 1, since erfc(x) >
    2exp(-x^2)/(sqrt(pi)(x + sqrt(x^2 + 2)))), the k-fold rounding of the
    cosine's angle, and the products; then half an ulp for the exactly
    rounded sum.  More than _MAX_RUN_TERMS terms (scales above about 5e5)
    raise NumericError.  regdet.mellin_lower takes each theta's share of the
    lower integral from here.  The solos have no such series: it integrates
    each alone by its small-time Bernoulli series and the cutoff identity's
    E1 sums, and refuses, naming the cause, a shift of more than
    2^18 whole scales (heat_expansion._MAX_WHOLE_SCALES; one-sided shift
    0.5 at scale 1e-6, for instance), which has no table of series
    coefficients.
    """
    # a(K+1)^2 >= log(2c/(pi^(3/2) _DUAL_TAIL))
    log_target = math.log(2.0 / (math.pi ** 1.5 * _DUAL_TAIL)) + math.log(scale)
    K = max(0, math.ceil(scale / math.pi * math.sqrt(max(log_target, 0.0))) - 1)
    if K > _MAX_RUN_TERMS:
        raise NumericError(f"the dual series of a lattice with scale {scale!r} "
                           f"would need more than {_MAX_RUN_TERMS} terms")
    while _dual_tail(scale, K) > _DUAL_TAIL:
        K += 1
    angle = 2.0 * math.pi * shift / scale
    terms, errs = [], []
    for k in range(1, K + 1):
        x = math.pi * k / scale
        weight = 2.0 * math.erfc(x) / k
        cos = math.cos(angle * k)
        terms.append(weight * cos)
        errs.append(weight * (abs(cos) * (_ERFC_ROUNDING + (3.0 * x * x + 2.5) * _U)
                              + (2.0 * abs(angle * k) + 2.0) * _U))
    value = fsum(terms)
    return value, _dual_tail(scale, K) + fsum(errs) + 0.5 * math.ulp(value)


def heat_trace_theta(spec: Spectrum, t: float) -> float:
    """Same trace as heat_trace, but through Spectrum.poisson: each theta by
    the Jacobi transform (Poisson summation), each exponential directly, and
    each solo as its full lattice's transform less its directly summed mirror
    run.  This is the independent small-t route used for cross-checks.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"heat trace requires a finite t > 0, got {t!r}")
    budget = _tail_budget(spec)
    poisson = spec.poisson
    parts = [weight * _theta_full(scale, shift, t, budget / weight)
             for weight, scale, shift in poisson.thetas]
    parts.extend(weight * math.exp(-t * lam) for lam, weight in poisson.exponentials)
    for fam in poisson.solos:
        mirror = _runs(replace(fam, side="full"))[1:]  # n <= 0 of the full lattice
        parts.append(fam.mult * _theta_full(fam.scale, fam.shift, t, budget / fam.mult)
                     - _direct_run(fam, t, budget, mirror))
    return fsum(parts)


# ---------------------------------------------------------------------------
# serialisation


def spectrum_to_dict(spec: Spectrum) -> dict:
    """JSON-ready dict in the documented wire format."""
    fams = []
    for fam in spec.families:
        if isinstance(fam, LatticeFamily):
            fams.append({
                "kind": "lattice",
                "scale": fam.scale,
                "shift": fam.shift,
                "side": fam.side,
                "mult": fam.mult,
                "shift_derivative": fam.shift_derivative,
            })
        else:
            fams.append({
                "kind": "explicit",
                "values": [[lam, mult, deriv] for lam, mult, deriv in fam.values],
            })
    return {"families": fams, "kernel_dim": spec.kernel_dim}


def spectrum_from_dict(data: dict) -> Spectrum:
    """Parse the wire format, validating structure and kernel accounting."""
    if not isinstance(data, dict):
        raise DomainError("spectrum JSON must be an object")
    raw_fams = data.get("families")
    if not isinstance(raw_fams, list):
        raise DomainError("spectrum JSON needs a 'families' array")
    kernel = data.get("kernel_dim", 0)
    if not (type(kernel) is int and kernel >= 0):
        raise DomainError(f"kernel_dim must be a non-negative integer, got {kernel!r}")
    fams: list[Family] = []
    structural = 0
    for idx, raw in enumerate(raw_fams):
        if not isinstance(raw, dict):
            raise DomainError(f"family #{idx} must be an object")
        kind = raw.get("kind")
        if kind == "lattice":
            try:
                fam_spec = lattice_family(
                    scale=_number(raw["scale"], "lattice scale"),
                    shift=_number(raw.get("shift", 0.0), "lattice shift"),
                    side=str(raw.get("side", "positive")),
                    mult=_number(raw.get("mult", 1), "multiplicity", whole=True),
                    shift_derivative=_number(raw.get("shift_derivative", 0.0),
                                             "shift_derivative"),
                )
            except KeyError as exc:
                raise DomainError(f"family #{idx} is missing key {exc}") from exc
        elif kind == "explicit":
            rows = raw.get("values")
            if not isinstance(rows, list):
                raise DomainError(f"family #{idx} needs a 'values' array")
            fam_spec = finite_spectrum(rows)
        else:
            raise DomainError(f"family #{idx} has unknown kind {kind!r}")
        fams.extend(fam_spec.families)
        structural += fam_spec.kernel_dim
    if kernel < structural:
        raise DomainError(
            f"kernel_dim={kernel} cannot be below the {structural} structural zero mode(s)")
    return Spectrum(tuple(fams), kernel)


def spectrum_dumps(spec: Spectrum) -> str:
    return json.dumps(spectrum_to_dict(spec), sort_keys=True)


def spectrum_loads(text: str) -> Spectrum:
    return spectrum_from_dict(json.loads(text))
