"""Independent oracles for every benchmark job, run outside the timed phase.

The closed forms work on the generator's own family data, not on specreg
objects:

* -zeta'(0) and log_Det_reg against the Lerch formula, with
  zeta_H(0, q) = 1/2 - q and zeta_H'(0, q) = lgamma(q) - log(2 pi)/2 from
  math.lgamma;
* zeta_value against mpmath.zeta(2s, q) per lattice family, within the
  reported `error`;
* the determinant bridge must pass with a budget below 1e-6;
* the certificate's two Gateaux slopes must agree to 1e-6.

The minimality flags are not checked.  Each check returns None or a message.
"""

from __future__ import annotations

import json
import math

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
BRIDGE_BUDGET_MAX = 1e-6
GATEAUX_TOL = 1e-6
# Rounding floor of the closed-form sums, relative to their term magnitudes.
ROUNDING = 1e-13


def _lattice_parts(fam: dict) -> list[tuple[float, int, float]]:
    """(scale, mult, q) per Hurwitz series: eigenvalues scale^2*(n+q)^2, n >= 0."""
    scale, shift, mult = fam["scale"], fam["shift"], fam["mult"]
    if fam["side"] == "positive":
        return [(scale, mult, 1.0 + shift / scale)]
    shift -= scale * round(shift / scale)  # same lattice, shift in [-scale/2, scale/2]
    if shift == 0.0:
        return [(scale, 2 * mult, 1.0)]  # n = 0 is the kernel, not in the spectrum
    q = abs(shift) / scale
    return [(scale, mult, q), (scale, mult, 1.0 - q)]


def lerch_minus_zeta_prime0(families: list[dict]) -> tuple[float, float]:
    """(-zeta'(0), rounding floor) of the spectrum, from the Lerch formula."""
    terms = []
    for fam in families:
        if fam["kind"] == "explicit":
            terms.extend(mult * math.log(lam) for lam, mult, _ in fam["values"])
            continue
        for scale, mult, q in _lattice_parts(fam):
            # zeta(s) = mult * scale^(-2s) * zeta_H(2s, q)
            zeta_h0 = 0.5 - q
            zeta_h0_prime = math.lgamma(q) - HALF_LOG_2PI
            terms.append(2.0 * mult * (math.log(scale) * zeta_h0 - zeta_h0_prime))
    return math.fsum(terms), ROUNDING * (1.0 + sum(abs(t) for t in terms))


def mpmath_zeta(families: list[dict], s: float) -> float:
    import mpmath

    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for fam in families:
            if fam["kind"] == "explicit":
                total += sum(mult * mpmath.mpf(lam) ** (-s) for lam, mult, _ in fam["values"])
                continue
            for scale, mult, q in _lattice_parts(fam):
                total += mult * mpmath.mpf(scale) ** (-2 * s) * mpmath.zeta(2 * s, q)
        return float(total)


def _nonfinite(value, path: str = "") -> str | None:
    if isinstance(value, float) and not math.isfinite(value):
        return f"non-finite {path or 'value'}: {value!r}"
    if isinstance(value, dict):
        value = value.items()
    elif isinstance(value, (list, tuple)):
        value = enumerate(value)
    else:
        return None
    for key, item in value:
        bad = _nonfinite(item, f"{path}.{key}" if path else str(key))
        if bad:
            return bad
    return None


def _close(name: str, got: float, want: float, tol: float) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{name} {got!r} misses oracle {want!r} by {abs(got - want):.3e} > {tol:.3e}"


def _check_report(report: dict, families: list[dict]) -> str | None:
    want, floor = lerch_minus_zeta_prime0(families)
    return _close("log_Det_reg", report["log_Det_reg"], want,
                  2.0 * report["quadrature_error"] + floor)


def _check_bridge(report: dict, families: list[dict]) -> str | None:
    if not report["passed"]:
        return f"bridge failed: discrepancy {report['discrepancy']!r}"
    if not report["budget"] < BRIDGE_BUDGET_MAX:
        return f"bridge budget {report['budget']!r} is not below {BRIDGE_BUDGET_MAX}"
    want, floor = lerch_minus_zeta_prime0(families)
    return (_close("-zeta'(0)", report["zeta_route"], want, 2.0 * report["zeta_error"] + floor)
            or _close("heat route", report["heat_route"], want,
                      2.0 * report["heat_error"] + floor))


def _check_zeta(evaluations: list[dict], families: list[dict]) -> str | None:
    for ev in evaluations:
        bad = _close(f"zeta({ev['s']!r})", ev["value"], mpmath_zeta(families, ev["s"]),
                     ev["error"])
        if bad:
            return bad
    return None


def _check_certificate(report: dict, families: list[dict]) -> str | None:
    return _close("Gateaux slope", report["gateaux_log_vol_eps_analytic"],
                  report["gateaux_log_vol_eps_fd"], GATEAUX_TOL)


CHECKS = {
    "build_report": _check_report,
    "verify_bridge": _check_bridge,
    "zeta_value": _check_zeta,
    "minimality_report": _check_certificate,
}


def check(kind: str, payload, families: list[dict]) -> str | None:
    """Oracle verdict for one in-process job's result, as wire-format data."""
    return _nonfinite(payload) or CHECKS[kind](payload, families)


def check_cli(job: dict, stdout: bytes) -> str | None:
    """Oracle verdict for one CLI report, parsed from the child's stdout."""
    text = stdout.decode()
    command = job["argv"][0]
    if command == "gamma":
        payload = json.loads(text)
        if not payload["passed"]:
            return f"gamma self-check failed: {payload}"
        return _nonfinite(payload) or _close(
            "gamma", payload["integral_route"], 0.5772156649015329, 1e-10)
    if "csv" in job["argv"]:
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#")][1:]
        if command == "zeta":
            payload = [{"s": float(s), "value": float(v), "error": float(e)}
                       for s, v, e, _ in rows]
        else:  # detreg: scalars in "# key=value" comments
            payload = {line[2:].split("=", 1)[0]: float(line.split("=", 1)[1])
                       for line in text.splitlines()
                       if line.startswith("# ") and "=" in line}
            payload["log_det_eps"] = [float(v) for _, v in rows]
    else:
        payload = json.loads(text)
    if command == "zeta" and isinstance(payload, dict):
        payload = payload["evaluations"]
    kind = {"detreg": "build_report", "bridge": "verify_bridge", "zeta": "zeta_value",
            "orbit": "minimality_report"}[command]
    return check(kind, payload, job["families"])
