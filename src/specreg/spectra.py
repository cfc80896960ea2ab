"""Spectrum model and heat traces.

A Spectrum is a finite union of eigenvalue families plus a count of zero
modes (kernel_dim).  Two family kinds are supported, and any other type is
rejected at construction:

* LatticeFamily: eigenvalues (scale*n + shift)^2 with multiplicity `mult`,
  where n runs over n >= 1 ("positive" side) or all integers ("full" side).
  `shift_derivative` records d(shift)/d(kappa) along a one-parameter
  deformation, which is how geodesic directions enter Gateaux derivatives.
* ExplicitFamily: a finite list of (eigenvalue, mult, eigenvalue_derivative).

A full family stores its shift reduced (LatticeFamily), so its only
possible structural zero (scale*n + shift equal to 0.0 in float arithmetic)
is n = 0 at shift 0.0; a one-sided family (shift > -scale, n >= 1) holds
none.  lattice_family counts that zero into kernel_dim, and enumeration
skips it.

A Spectrum keeps its families in order (deform, scale_spectrum and the wire
format walk them so) and holds four views built once, on first use: its
explicit rows (Spectrum.rows), its lattice families (Spectrum.lattices), its
smallest positive eigenvalue (Spectrum.lam0) and its trace as Poisson data
(Spectrum.poisson): full theta sums, each saying whether it leaves out its
n = 0 term, signed exponentials that complete them to the actual trace
(every explicit row among them), and the unpaired shifted one-sided
families, the solos, which have no such form.  Every routine reads the
views; only this module tells the family types apart.  Every walk over a
lattice family reads its structure from here: index runs (_runs), the
pairing, the Poisson dual series (_theta_terms), the tail budget
(_tail_budget), and the Chowla-Selberg split of a theta's Mellin transform:
its direct terms (_theta_direct) and its cosine dual series over a
shift-free table (_theta_dual), under one rounding statement, with E1 and
erfc kernels for regdet and incomplete gammas for zeta.

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
1/(scale*sqrt(t)).  An E1 term states its error as every E1 term does
(special._e1_error), with its argument's rounding.

heat_trace sums mult * exp(-t*lam) over the positive spectrum with
certified lattice tails and never reads Spectrum.poisson; heat_trace_theta
evaluates the same quantity from it through the Jacobi theta transform
(Poisson summation), the independent oracle route for small t, dual-only.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from functools import cached_property
from itertools import count
from math import fsum
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import DomainError, NumericError
from .special import (
    _NORMAL_MIN,
    _U,
    _e1_error,
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


class _Validated:
    """Mixin for a named tuple whose __new__ validates: namedtuple's _replace
    builds through _make, so _make goes through the class as construction does."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class LatticeFamily(_Validated, namedtuple(
        "LatticeFamily", "scale shift side mult shift_derivative")):
    """Eigenvalues (scale*n + shift)^2 for n >= 1 (positive) or n in Z (full).

    A full family stores its shift reduced exactly into (-scale/2, scale/2]
    (math.remainder), or 0.0 where scale*k == shift in float arithmetic for
    an integer k (a structural zero), so congruent shifts give one record
    and the only possible zero is n = 0 at shift 0.0."""

    __slots__ = ()

    def __new__(cls, scale: float, shift: float = 0.0, side: str = "positive",
                mult: int = 1, shift_derivative: float = 0.0):
        self = super().__new__(cls, scale, shift, side, mult, shift_derivative)
        if not all(map(math.isfinite, (scale, shift, shift_derivative))):
            raise DomainError(f"lattice data must be finite, got {self!r}")
        if not scale > 0.0:
            raise DomainError(f"lattice scale must be positive, got {scale!r}")
        if side not in ("positive", "full"):
            raise DomainError(f"lattice side must be 'positive' or 'full', got {side!r}")
        if not (type(mult) is int and mult >= 1):
            raise DomainError(f"multiplicity must be a positive integer, got {mult!r}")
        if side == "positive":
            if not shift > -scale:
                # keeps scale*n + shift > 0-adjacent ordering and q = 1 + shift/scale > 0
                raise DomainError("one-sided lattice requires shift > -scale")
            return self
        c = shift / scale
        if scale * math.floor(c) == shift or scale * math.ceil(c) == shift:
            shift = 0.0
        else:
            shift = math.remainder(shift, scale)
            if shift == -0.5 * scale:
                shift = 0.5 * scale
        return super().__new__(cls, scale, shift, side, mult, shift_derivative)


class ExplicitFamily(_Validated, namedtuple("ExplicitFamily", "values")):
    """Finitely many explicit eigenvalues as (lam, mult, lam_derivative) triples."""

    __slots__ = ()

    def __new__(cls, values: tuple[tuple[float, int, float], ...]):
        self = super().__new__(cls, values)
        for lam, mult, deriv in self.values:
            if not (lam > 0.0 and math.isfinite(lam)):
                raise DomainError(f"explicit eigenvalues must be positive and finite, got {lam!r}")
            if not math.isfinite(deriv):
                raise DomainError(f"eigenvalue derivatives must be finite, got {deriv!r}")
            if not (type(mult) is int and mult >= 1):
                raise DomainError(f"multiplicity must be a positive integer, got {mult!r}")
        return self


Family = Union[LatticeFamily, ExplicitFamily]


class Poisson(NamedTuple):
    """A positive spectrum's heat trace as Poisson data: the sum of weight *
    sum_{n in Z} exp(-t*(scale*n + shift)^2) over thetas, of weight *
    exp(-t*lam) over exponentials, and the one-sided traces of the solos.

    A theta marked `removed` stands for its sum less the n = 0 term
    weight*exp(-t*shift^2); `exponentials` holds each removed term as
    (shift^2, -weight), then the explicit rows (lam, mult)."""

    thetas: tuple[tuple[float, float, float, bool], ...]  # (weight, scale, shift, removed)
    exponentials: tuple[tuple[float, float], ...]  # (lam, weight)
    solos: tuple[LatticeFamily, ...]


class Spectrum(_Validated, namedtuple("Spectrum", "families kernel_dim")):
    """A finite union of families plus the number of zero modes.  Unlike the
    other records it keeps a __dict__, where its four views are cached; no
    attribute can be assigned."""

    def __new__(cls, families: tuple[Family, ...], kernel_dim: int = 0):
        self = super().__new__(cls, families, kernel_dim)
        if not (type(kernel_dim) is int and kernel_dim >= 0):
            raise DomainError(f"kernel_dim must be a non-negative integer, got {kernel_dim!r}")
        for fam in families:
            if not isinstance(fam, (LatticeFamily, ExplicitFamily)):
                raise DomainError(f"unknown family type {type(fam).__name__}")
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a Spectrum is immutable")

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
    def lam0(self) -> float:
        """The smallest positive eigenvalue; its DomainError (no eigenvalues)
        or NumericError (one that overflows or underflows) is raised again
        on every read."""
        best = min((lam for lam, _, _ in self.rows), default=math.inf)
        for fam in self.lattices:
            for sigma, start, _ in _runs(fam):
                # |u| is smallest next to where the run crosses zero, or at its start
                c = -sigma / fam.scale
                for n in {start, math.floor(c) - 1, math.floor(c), math.ceil(c),
                          math.ceil(c) + 1}:
                    u = fam.scale * n + sigma
                    if n >= start and u != 0.0:
                        best = min(best, u * u)
        if not math.isfinite(best):
            if self.lattices:
                raise NumericError("the smallest eigenvalue overflows to inf in double precision")
            raise DomainError("spectrum has no positive eigenvalues")
        if best == 0.0:
            raise NumericError("the smallest eigenvalue underflows to 0.0 in double precision")
        return best

    @cached_property
    def poisson(self) -> Poisson:
        """The trace as Poisson data.  A full family is the theta (mult, scale,
        shift), removed when shift is 0.0, its one possible zero; a
        zero-shift one-sided family is the theta (mult/2, scale, 0.0),
        removed.  A shifted one-sided family and
        the earliest unmatched earlier one of equal scale and mult and
        opposite shift are that family's theta (mult, scale, shift),
        removed.  Shifted one-sided families left unmatched are the solos, in
        order."""
        thetas, waiting = [], []
        for fam in self.lattices:
            if fam.side == "full":
                thetas.append((fam.mult, fam.scale, fam.shift, fam.shift == 0.0))
            elif fam.shift == 0.0:
                thetas.append((0.5 * fam.mult, fam.scale, 0.0, True))
            else:
                for i, other in enumerate(waiting):
                    if (other.shift == -fam.shift and other.scale == fam.scale
                            and other.mult == fam.mult):
                        waiting.pop(i)
                        thetas.append((other.mult, other.scale, other.shift, True))
                        break
                else:
                    waiting.append(fam)
        exponentials = [(shift * shift, -weight) for weight, _, shift, removed in thetas
                        if removed]
        exponentials.extend((lam, mult) for lam, mult, _ in self.rows)
        return Poisson(tuple(thetas), tuple(exponentials), tuple(waiting))


# ---------------------------------------------------------------------------
# constructors


def lattice_family(
    scale: float,
    shift: float = 0.0,
    side: str = "positive",
    mult: int = 1,
    shift_derivative: float = 0.0,
) -> Spectrum:
    """Build a one-family Spectrum, moving its structural zero mode, the
    n = 0 term of a full lattice whose reduced shift is 0.0 (LatticeFamily),
    to the kernel."""
    fam = LatticeFamily(scale, shift, side, mult, shift_derivative)
    return Spectrum((fam,), mult if side == "full" and fam.shift == 0.0 else 0)


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
    base_kernel = max(0, spec.kernel_dim - sum(
        fam.mult for fam in spec.lattices if fam.side == "full" and fam.shift == 0.0))
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
    u*(2 + |sigma|/|u|)) and of rate*u^2, each factor that term's own; an
    E1 head's by _e1_head_error."""
    xs = _points(scale, sigma, start, n_em, sign)
    head = _summands(kind, weight, rate, xs)
    a = scale * n_em + sigma
    pieces, err = _em_tail(kind, scale, a, rate, abs(scale * n_em))
    signed = weight * sign if kind == "shape" else weight
    pieces = [signed * p for p in pieces]
    bound = abs(signed) * (remainder + err) + _U * fsum(map(abs, pieces))
    if kind == "e1":
        bound += _e1_head_error(weight, rate, sigma, xs, head)
    elif head:
        # spread = 2 + |sigma|/|u|, so 2*spread + 2 = 6 + 2|sigma|/|u|
        lean = abs(sigma)
        sensitivity = (fsum((abs(rate) * (2.0 + lean / abs(x)) + 3.0) * abs(f)
                            for x, f in zip(xs, head)) if kind == "power"
                       else fsum(((rate * x * x + 1.0) * (6.0 + 2.0 * lean / abs(x)) + 4.0) * abs(f)
                                 for x, f in zip(xs, head)))
        bound += _U * fsum(map(abs, head)) + sensitivity * _U
    return head + pieces, bound


def _e1_head_error(weight: float, rate: float, sigma: float, xs: list[float],
                   terms: list[float]) -> float:
    """The error of directly summed E1 terms weight*E1(rate*u^2), u in xs, of
    a run of shift sigma: each term's by special._e1_error, with rate*u^2
    good to (2*spread + 2) u, spread = 2 + |sigma|/|u| as in _closed_run."""
    lean = abs(sigma)
    return fsum(_e1_error(weight, f, rate * x * x, (6.0 + 2.0 * lean / abs(x)) * _U)
                for x, f in zip(xs, terms))


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
    the budget.  A direct run also states its rounding: an E1 run each
    term's (_e1_head_error), any other 5 u times the sum of its terms'
    magnitudes, u for the summand and 4 u for the product with the weight
    and the rounding of rate*u^2 where it is of order one (further out that
    rounding grows with rate*u^2 in a term that has fallen like
    exp(-rate*u^2)).
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
        bound += (_e1_head_error(weight, rate, sigma, xs, run_terms) if kind == "e1"
                  else 5.0 * _U * fsum(map(abs, run_terms)))
    return terms, bound


def _direct_run(fam: LatticeFamily, t: float, budget: float, runs=None) -> float:
    """mult * sum exp(-t*u^2) over `runs` of fam (default: all), to within budget
    (see _lattice_sum)."""
    return fsum(_lattice_sum(fam, "heat", t, budget, runs)[0])


def _tail_budget(spec: Spectrum) -> float:
    """Truncation budget of one family's lattice tails in a sum over spec."""
    return ABS_TOL / (2.0 * max(1, len(spec.families)))


def heat_trace(spec: Spectrum, t: float) -> float:
    """tr exp(-t*B) over the positive (kernel-free) spectrum.

    Summed exactly rounded by math.fsum, so the order of the terms does not
    matter; each lattice run is summed directly with its tail certified
    below ABS_TOL by the Gaussian tail bound, or, when it is long, closed by
    an Euler-Maclaurin tail with remainder below ABS_TOL (_lattice_sum).
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"heat trace requires a finite t > 0, got {t!r}")
    budget = _tail_budget(spec)
    terms = [mult * math.exp(-t * lam) for lam, mult, _ in spec.rows]
    for fam in spec.lattices:
        terms.extend(_lattice_sum(fam, "heat", t, budget)[0])
    return fsum(terms)


# ---------------------------------------------------------------------------
# theta-transform route


def _dual_decay(scale: float, t: float) -> float:
    """Decay rate pi^2/(scale^2 t) of the Poisson dual terms in k^2."""
    return math.pi * math.pi / (scale * scale * t)


def _theta_terms(scale: float, shift: float, t: float, log_target: float) -> list[float]:
    """Dual terms 2*exp(-decay*k^2)*cos(2*pi*k*shift/scale), k = 1..k_max past
    exp(-log_target), of sum_{n in Z} exp(-t*(scale*n + shift)^2) =
    sqrt(pi)/(scale*sqrt(t)) * (1 + sum_k dual_k).  They fall double-
    exponentially for small t, exactly where direct summation is expensive.
    More than _MAX_RUN_TERMS terms raise NumericError.
    """
    decay = _dual_decay(scale, t)
    # k_max > _MAX_RUN_TERMS, asked without dividing by a decay of 0.0
    if max(log_target, 1.0) > decay * (_MAX_RUN_TERMS - 2) ** 2:
        raise NumericError(f"the theta dual series at t = {t!r} (scale {scale!r}) "
                           f"would need more than {_MAX_RUN_TERMS} terms")
    k_max = max(2, math.ceil(math.sqrt(max(log_target, 1.0) / decay)) + 2)
    angle = 2.0 * math.pi * shift / scale
    return [2.0 * math.exp(-decay * k * k) * math.cos(angle * k) for k in range(1, k_max + 1)]


def _theta_full(scale: float, shift: float, t: float, budget: float) -> float:
    """sum_{n in Z} exp(-t*(scale*n + shift)^2) by Poisson summation, with the
    dual series truncated below `budget`."""
    prefactor = SQRT_PI / (scale * math.sqrt(t))
    log_target = math.log(max(2.0 * prefactor, 2.0) / budget)
    return prefactor * fsum([1.0] + _theta_terms(scale, shift, t, log_target))


def _theta_rest(scale: float, shift: float, t: float) -> float:
    """sum_{n in Z} exp(-t*(scale*n+shift)^2) - sqrt(pi)/(scale*sqrt(t)) from
    the dual terms down to exp(-45), without cancellation; it is exponentially
    small for t*scale^2 << pi^2."""
    prefactor = SQRT_PI / (scale * math.sqrt(t))
    return prefactor * fsum(_theta_terms(scale, shift, t, 45.0))


# ---------------------------------------------------------------------------
# the Chowla-Selberg split of a theta


class ThetaKernel(namedtuple("ThetaKernel", "arg ops ratio weight term error tail start free "
                                            "level rel_level form")):
    """What a split evaluates per direct term (_theta_direct): x = arg(|u|,
    scale), `ops` roundings from |u|, `ratio` = x/(the square it scales); the
    term weight*term(x), its error(term, x, rel) and tail(x, |u|, scale), a
    bound on a side from |u| on; start(shift, scale), the upward side's first
    index, whether a side's first term goes unchecked, the stop level +
    rel_level*magnitude, x's name.  A kernel serves every theta at its split
    point: the theta's scale and shift come with each call."""

    __slots__ = ()


def _theta_direct(kernel: ThetaKernel, scale: float, shift: float, magnitude: float,
                  removed: bool) -> tuple[list[float], list[float], float]:
    """The direct side of a theta's split: its terms over n (n != 0 if
    `removed`), their errors and each side's stated tail, and `magnitude`
    plus the terms' magnitudes.  Each side walks outward from kernel.start
    (upward) or the index below it and stops before the first checked term
    whose tail is at most kernel.level + kernel.rel_level*magnitude; a
    removed n = 0 is left out, unchecked where it opens its side and after
    its side's check elsewhere.  A term
    whose x was already evaluated (a mirror term) is not evaluated again.

    The rounding, at u = 2^-53 per correctly rounded operation: u_n =
    scale*n + shift is good to u*(1 + |scale*n|/|u_n|), x to twice that plus
    kernel.ops*u, and a square below the normal range, off by up to 2^-1075,
    adds 2^-1074/square.  An x that underflows to 0.0 raises NumericError.
    """
    arg, ops, ratio, weight, f, error, tail, start, free, level, rel_level, form = kernel
    first = start(shift, scale)
    floor, lift = ratio * _NORMAL_MIN, ratio * 2.0 ** -1074
    terms, errs, seen = [], [], {}
    left_out = 0 if removed else None
    for opening, step in ((first, 1), (first - 1, -1)):
        unchecked = opening if free else None
        for n in count(opening + step if opening == left_out else opening, step):
            cn = scale * n
            u = cn + shift
            v = abs(u)
            x = arg(v, scale)
            if x == 0.0 and n != left_out:
                raise NumericError(f"the theta term {form} at u = {u!r}, scale {scale!r} "
                                   f"underflows to 0.0")
            if n != unchecked:
                bound = tail(x, v, scale)
                if bound <= level + rel_level * magnitude:
                    errs.append(bound)
                    break
            if n == left_out:
                continue
            term = seen.get(x)
            if term is None:
                term = seen[x] = weight * f(x)
            rel = (2.0 * (1.0 + abs(cn) / v) + ops) * _U
            if x < floor:
                rel += lift / x
            terms.append(term)
            errs.append(error(term, x, rel))
            magnitude += abs(term)
    return terms, errs, magnitude


def _theta_dual(table: tuple, scale: float, phase: float, level: float = 0.0,
                rel_level: float = 0.0, magnitude: float = 0.0) -> tuple[list[float], list[float]]:
    """The cosine dual series sum_k W_k*cos(k*angle), angle =
    2*pi*phase/scale, of a theta's split: its terms and errors.  `table` is
    (rest_0, entries of (k, W_k, W_k's rounding, a bound past k)); the series
    stops after the first k whose bound is at most level +
    rel_level*magnitude (each term adding its own), or at the table's end,
    and states that bound.  k*angle carries 3.35 u (float pi, two products,
    the quotient, *k), a term u for the cosine and u for the product."""
    rest, entries = table
    angle = 2.0 * math.pi * phase / scale
    terms, errs = [], []
    for k, weight, rounding, rest in entries:
        turn = angle * k
        cos = math.cos(turn)
        size = abs(cos)
        terms.append(weight * cos)
        errs.append(size * rounding + weight * (3.35 * abs(turn) + 2.0) * _U)
        magnitude += weight * size
        if rest <= level + rel_level * magnitude:
            break
    errs.append(rest)
    return terms, errs


def heat_trace_theta(spec: Spectrum, t: float) -> float:
    """Same trace as heat_trace, but through Spectrum.poisson: each theta by
    the Jacobi transform (Poisson summation), each exponential directly, and
    each solo as its full lattice's transform less its directly summed mirror
    run: the independent small-t route of the cross-checks, so it stays
    dual-only, and raises NumericError past c*sqrt(t) of about 5e5, where a
    dual series needs more than _MAX_RUN_TERMS terms, rather than sum directly.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"heat trace requires a finite t > 0, got {t!r}")
    budget = _tail_budget(spec)
    poisson = spec.poisson
    parts = [weight * _theta_full(scale, shift, t, budget / weight)
             for weight, scale, shift, _ in poisson.thetas]
    parts.extend(weight * math.exp(-t * lam) for lam, weight in poisson.exponentials)
    for fam in poisson.solos:
        mirror = ((-fam.shift, 0, -1.0),)  # n <= 0 of the full lattice
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

