"""Every value and stated error on the built-in spectra, bit for bit.

golden_reprs.json holds the repr of each public result (or of the error it
raises) on the seven built-in spectra and TINY, and of the orbit
certificates.  A change that means to move no number leaves the file as it
is; one that moves a number on purpose rewrites it and says which and why.
Run this module as a script to write the file from the current code:

    PYTHONPATH=src python tests/test_golden_reprs.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from specreg import (
    LoopGroupOrbitSpec,
    build_report,
    finite_spectrum,
    lattice_family,
    log_det_eps,
    minimality_report,
    orbit_spectrum,
    verify_bridge,
    zeta_value,
)
from specreg.errors import DomainError, NumericError
from specreg.regdet import mellin_lower

GOLDEN = Path(__file__).with_name("golden_reprs.json")
TWO_PI = 2.0 * math.pi
# the CLI's default s values
S_VALUES = (0.25, 0.75, 1.5, 2.0, 3.0)
ORBITS = {
    "su2": LoopGroupOrbitSpec(1, ((1.0,),), (1.0,), 0.25),
    "rank2": LoopGroupOrbitSpec(2, ((1.0, 0.0), (0.5, 0.8)), (1.0, 0.4), 0.2),
}
SPECTRA = {
    "finite-2-3": finite_spectrum([(2.0, 1), (3.0, 1)]),
    "one-sided-0": lattice_family(TWO_PI, 0.0, "positive", 1),
    "one-sided-pi": lattice_family(TWO_PI, math.pi, "positive", 1),
    "full-pi/3": lattice_family(TWO_PI, math.pi / 3.0, "full", 1),
    "full-pi": lattice_family(TWO_PI, math.pi, "full", 1),
    "orbit-su2": orbit_spectrum(ORBITS["su2"]),
    "orbit-rank2": orbit_spectrum(ORBITS["rank2"]),
    # a full lattice whose smallest eigenvalue (7.2e-226) is tiny but nonzero
    "tiny": lattice_family(4.585, 2.68e-113, "full", 1),
    # full shifts off (-scale/2, scale/2], reduced on construction: to -0.7,
    # and to a zero at n = -3 (kernel 1)
    "full-5.3/2": lattice_family(2.0, 5.3, "full", 1),
    "full-3*2pi": lattice_family(TWO_PI, 3.0 * TWO_PI, "full", 1),
}


def _repr(call) -> str:
    """repr of call()'s result, or of the error it raises."""
    try:
        return repr(call())
    except (DomainError, NumericError) as exc:
        return f"{type(exc).__name__}: {exc}"


def reprs() -> dict[str, dict[str, str]]:
    """name -> call -> repr, for every spectrum and orbit certificate."""
    out = {}
    for name, spec in SPECTRA.items():
        calls = {
            "build_report": lambda: build_report(spec),
            "verify_bridge": lambda: verify_bridge(spec),
            "mellin_lower": lambda: mellin_lower(spec),
        }
        calls.update({f"zeta_value({s!r})": lambda s=s: zeta_value(spec, s)
                      for s in S_VALUES})
        calls.update({f"log_det_eps({eps!r})": lambda eps=eps: log_det_eps(spec, eps)
                      for eps in (1e-5, 3.0)})
        out[name] = {key: _repr(call) for key, call in calls.items()}
    for name, ospec in ORBITS.items():
        out[f"certificate-{name}"] = {"minimality_report":
                                      _repr(lambda: minimality_report(ospec))}
    return out


def test_reprs_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    got = reprs()
    assert got.keys() == golden.keys()
    for name in golden:
        assert got[name] == golden[name], name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(reprs(), indent=1, sort_keys=True) + "\n")
