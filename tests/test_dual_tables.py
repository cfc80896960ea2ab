"""The bounded tables of shift-free dual factors change no value or error.

The zeta bracket's cosine series (spectra._theta_dual) reads its dual
incomplete gammas from zeta._dual_gamma, one table per 1/2 - s grown to the
index it needs, and a shift-0 theta's direct terms come from
zeta._unshifted_gamma, keyed by (s, x); the heat split's series reads its
erfc weights from regdet._erfc_table, keyed by (c*sqrt(t), t == 1), and
regdet asks it for no c*sqrt(t) above sqrt(16 pi), so an entry holds at
most 14 weights (test_regdet.py's test_dual_series_stay_short).  The
autouse fixture of conftest.py empties all three before every test.
"""

from __future__ import annotations

import math
import random

import pytest

import specreg.regdet
import specreg.zeta
from specreg import (
    LoopGroupOrbitSpec,
    build_report,
    compose,
    finite_spectrum,
    lattice_family,
    log_det_reg,
    orbit_spectrum,
    report_to_dict,
    verify_bridge,
    zeta_value,
)
from specreg.regdet import _e1_split, mellin_lower

TWO_PI = 2.0 * math.pi
S_GRID = (0.25, 0.75, 1.5, 2.0, 3.0, -0.7)

BUILTINS = (
    finite_spectrum([(2.0, 1), (3.0, 1)]),
    lattice_family(TWO_PI, 0.0, "positive", 1),
    lattice_family(TWO_PI, math.pi, "positive", 1),
    lattice_family(TWO_PI, math.pi / 3.0, "full", 1),
    lattice_family(TWO_PI, math.pi, "full", 1),
    orbit_spectrum(LoopGroupOrbitSpec(1, ((1.0,),), (1.0,), 0.25)),
    orbit_spectrum(LoopGroupOrbitSpec(2, ((1.0, 0.0), (0.5, 0.8)), (1.0, 0.4), 0.2)),
)
RANK2 = BUILTINS[-1]


def _mixes() -> list:
    """Seeded mixes of explicit rows, full lattices (shift 0, half a scale or
    random), +- pairs, zero-shift one-sided lattices and a solo, at scales
    that repeat across families and at random ones."""
    rng = random.Random(34)
    mixes = []
    for _ in range(12):
        parts = [finite_spectrum([(rng.uniform(0.5, 20.0), rng.randint(1, 3))])]
        for _ in range(rng.randint(1, 3)):
            scale = rng.choice((TWO_PI, 2.0, rng.uniform(0.3, 8.0)))
            kind = rng.choice(("full", "pair", "half", "solo"))
            if kind == "full":
                shift = rng.choice((0.0, 0.5 * scale, rng.uniform(-0.5, 0.5) * scale))
                parts.append(lattice_family(scale, shift, "full", rng.randint(1, 2)))
            elif kind == "pair":
                shift = rng.uniform(0.05, 0.9) * scale
                parts += [lattice_family(scale, shift, "positive", 2),
                          lattice_family(scale, -shift, "positive", 2)]
            elif kind == "half":
                parts.append(lattice_family(scale, 0.0, "positive", rng.randint(1, 4)))
            else:
                parts.append(lattice_family(scale, rng.uniform(-0.9, 1.5) * scale, "positive"))
        mixes.append(compose(*parts))
    return mixes


def _outputs(spec, clear) -> list[str]:
    """Reprs of every call that reads the tables, each after clear()."""
    calls = [lambda s=s: zeta_value(spec, s) for s in S_GRID]
    calls += [lambda: log_det_reg(spec), lambda: report_to_dict(build_report(spec)),
              lambda: verify_bridge(spec), lambda: mellin_lower(spec)]
    calls += [lambda eps=eps: _e1_split(spec, (eps,)) for eps in (1e-1, 1e-3, 1e-5)]
    out = []
    for call in calls:
        clear()
        out.append(repr(call()))
    return out


def test_tables_change_no_value(cold_dual_tables):
    # every value and error is the same bit for bit whether the tables are
    # empty before each call or hold what every earlier call left in them
    def clear():
        for table in cold_dual_tables:
            table.cache_clear()

    specs = list(BUILTINS) + _mixes()
    cold = [_outputs(spec, clear) for spec in specs]
    warm = [_outputs(spec, lambda: None) for spec in specs]
    assert warm == cold
    assert any(table.cache_info().hits for table in cold_dual_tables)


@pytest.mark.parametrize("s", [0.75, 3.0])
def test_dual_gamma_once_per_k(s, monkeypatch):
    # the rank-2 orbit has three thetas (two +- pairs and the Cartan family);
    # each dual index k costs one incomplete gamma, not one per theta, and
    # no direct x is evaluated twice (the Cartan theta's mirror terms)
    calls = []
    upper = specreg.zeta.upper_gamma_scaled
    monkeypatch.setattr(specreg.zeta, "upper_gamma_scaled",
                        lambda a, x: calls.append((a, x)) or upper(a, x))
    assert len(RANK2.poisson.thetas) == 3
    zeta_value(RANK2, s)
    dual = [x for a, x in calls if a == 0.5 - s]
    ks = {round(math.sqrt(x / math.pi)) for x in dual}
    assert len(dual) == len(ks) == max(ks) >= 3
    assert dual == [math.pi * (k * k) for k in sorted(ks)]
    assert len(calls) == len(set(calls))
    # a second call at the same s makes no dual or zero-shift call at all
    calls.clear()
    zeta_value(RANK2, s)
    assert [a for a, _ in calls] == [s] * len(calls)
    assert all(x not in {math.pi, 4.0 * math.pi} for _, x in calls)


def test_dual_weights_once_per_scale(monkeypatch):
    # the three thetas share the scale 2 pi: mellin_lower's erfc weights are
    # one table entry of K terms, not three
    calls = []
    erfc = math.erfc
    monkeypatch.setattr(math, "erfc", lambda x: calls.append(x) or erfc(x))
    mellin_lower(RANK2)
    rest, entries = specreg.regdet._erfc_table(TWO_PI, True)
    assert len(calls) == len(entries) == 12
    calls.clear()
    mellin_lower(RANK2)
    assert calls == []


def test_tables_stay_bounded(cold_dual_tables):
    rng = random.Random(5)
    spec = compose(lattice_family(TWO_PI, 0.0, "full"), lattice_family(2.0, 0.7, "full"))
    for _ in range(150):
        zeta_value(spec, rng.uniform(0.6, 6.0))
        mellin_lower(lattice_family(rng.uniform(0.5, 9.0), 0.3, "full"))
    for table in cold_dual_tables:
        info = table.cache_info()
        assert info.maxsize is not None and info.maxsize <= 128
        assert info.currsize == info.maxsize
