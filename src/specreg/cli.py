"""specreg command line: batch runs over spectrum/orbit JSON inputs.

Subcommands: detreg (determinant report), zeta (zeta evaluations), bridge
(dual-route determinant check), orbit (minimality certificate), gamma
(Euler-constant self-check).  Reports are JSON (default) or plot-ready CSV;
floats serialise with repr, so identical inputs give byte-identical output.
Exit codes: 0 success, 1 verification/numeric failure, 2 input or usage
error (malformed JSON reports line and column on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import DomainError, NumericError, UnsupportedSpectrumError
from .special import euler_gamma_integral, euler_gamma_series
from .spectra import _number, spectrum_from_dict, spectrum_to_dict
from .regdet import build_report, report_to_dict
from .zeta import bridge_to_dict, verify_bridge, zeta_value
from .orbit import curvature_to_dict, minimality_report, orbit_from_dict

DEFAULT_EPS_GRID = (1e-1, 1e-2, 1e-3, 1e-4)
DEFAULT_ORBIT_EPS = (1e-1, 1e-2, 1e-3)
DEFAULT_S_VALUES = (0.25, 0.75, 1.5, 2.0, 3.0)
DEFAULT_GAMMA_TOL = 1e-10


def _reject_constant(name: str) -> float:
    raise DomainError(f"non-finite number {name} is not allowed in the input")


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read input {path}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _finite(report: dict) -> dict:
    """The report, or NumericError if any number in it is NaN or infinite."""
    try:
        json.dumps(report, allow_nan=False)
    except ValueError as exc:
        raise NumericError("the result has a NaN or infinite value") from exc
    return report


def _json_block(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_lines(comments: list[tuple[str, object]], header: list[str],
               rows: list[list[object]]) -> str:
    out = [f"# {key}={value!r}" if isinstance(value, float) else f"# {key}={value}"
           for key, value in comments]
    out.append(",".join(header))
    out.extend(",".join(repr(cell) if isinstance(cell, float) else str(cell)
                        for cell in row) for row in rows)
    return "\n".join(out) + "\n"


def _cmd_detreg(args: argparse.Namespace) -> int:
    spec = spectrum_from_dict(_load_json(args.input))
    grid = args.eps or DEFAULT_EPS_GRID
    report = _finite(report_to_dict(build_report(spec, eps_grid=grid)))
    if args.format == "csv":
        comments = [(key, report[key]) for key in
                    ("log_det_reg", "log_Det_reg", "b0", "b0_primed", "kernel_dim",
                     "quadrature_error")]
        comments += [(f"counterterm_{j}", val)
                     for j, val in sorted(report["counterterms"].items(), key=lambda kv: int(kv[0]))]
        rows = [[eps, val] for eps, val in zip(report["eps_grid"], report["log_det_eps"])]
        _emit(_csv_lines(comments, ["eps", "log_det_eps"], rows), args)
    else:
        _emit(_json_block(report), args)
    if args.output:
        print(f"detreg: log_det_reg={report['log_det_reg']!r} "
              f"log_Det_reg={report['log_Det_reg']!r} -> {args.output}")
    return 0


def _cmd_zeta(args: argparse.Namespace) -> int:
    raw = _load_json(args.input)
    spec = spectrum_from_dict(raw)
    s_values = raw.get("s_values", list(DEFAULT_S_VALUES))
    if not isinstance(s_values, list) or not s_values:
        raise DomainError("'s_values' must be a non-empty array of numbers")
    s_values = [_number(s, "each of 's_values'") for s in s_values]
    evaluations = [zeta_value(spec, s) for s in s_values]
    payload = _finite({
        "spectrum": spectrum_to_dict(spec),
        "evaluations": [
            {"s": ev.s, "value": ev.value, "error": ev.error, "route": ev.route}
            for ev in evaluations
        ],
    })
    if args.format == "csv":
        rows = [[ev.s, ev.value, ev.error, ev.route] for ev in evaluations]
        _emit(_csv_lines([], ["s", "value", "error", "route"], rows), args)
    else:
        _emit(_json_block(payload), args)
    if args.output:
        print(f"zeta: {len(evaluations)} evaluation(s) -> {args.output}")
    return 0


def _cmd_bridge(args: argparse.Namespace) -> int:
    spec = spectrum_from_dict(_load_json(args.input))
    report = verify_bridge(spec, abs_tol=args.abs_tol)
    payload = _finite(bridge_to_dict(report))
    if args.format == "csv":
        rows = [[key, payload[key]] for key in sorted(payload)]
        _emit(_csv_lines([], ["quantity", "value"], rows), args)
    else:
        _emit(_json_block(payload), args)
    if args.output:
        verdict = "OK" if report.passed else "FAIL"
        print(f"bridge: discrepancy={report.discrepancy!r} "
              f"threshold={report.threshold!r} {verdict} -> {args.output}")
    if not report.passed:
        print(f"bridge check failed: discrepancy {report.discrepancy!r} "
              f"exceeds threshold {report.threshold!r}", file=sys.stderr)
        return 1
    return 0


def _cmd_orbit(args: argparse.Namespace) -> int:
    ospec = orbit_from_dict(_load_json(args.input))
    grid = args.eps or DEFAULT_ORBIT_EPS
    report = _finite(curvature_to_dict(minimality_report(ospec, eps_grid=grid)))
    if args.format == "csv":
        comments = [(key, report[key]) for key in
                    ("tr_reg_H", "Tr_reg_H", "gateaux_log_vol_eps_analytic",
                     "gateaux_log_vol_eps_fd", "strongly_minimal", "heat_minimal",
                     "zeta_minimal")]
        rows = [[eps, val] for eps, val in zip(report["eps_grid"], report["tr_H_eps"])]
        _emit(_csv_lines(comments, ["eps", "tr_H_eps"], rows), args)
    else:
        _emit(_json_block(report), args)
    if args.output:
        print(f"orbit: strongly_minimal={report['strongly_minimal']} "
              f"-> {args.output}")
    return 0


def _cmd_gamma(args: argparse.Namespace) -> int:
    integral, integral_err = euler_gamma_integral()
    series = euler_gamma_series()
    difference = abs(integral - series)
    tolerance = args.abs_tol if args.abs_tol is not None else DEFAULT_GAMMA_TOL
    passed = difference <= tolerance
    payload = {
        "integral_route": integral,
        "integral_error": integral_err,
        "series_route": series,
        "difference": difference,
        "tolerance": tolerance,
        "passed": passed,
    }
    if args.format == "csv":
        rows = [[key, payload[key]] for key in sorted(payload)]
        _emit(_csv_lines([], ["quantity", "value"], rows), args)
    else:
        _emit(_json_block(payload), args)
    if args.output:
        print(f"gamma: integral={integral!r} series={series!r} "
              f"difference={difference!r} -> {args.output}")
    if not passed:
        print(f"gamma routes disagree by {difference!r} (tolerance {tolerance!r})",
              file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "detreg": _cmd_detreg,
    "zeta": _cmd_zeta,
    "bridge": _cmd_bridge,
    "orbit": _cmd_orbit,
    "gamma": _cmd_gamma,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code."""
    try:
        return _HANDLERS[args.command](args)
    except ArithmeticError as exc:  # NumericError, or a float overflow or division by zero
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except (DomainError, UnsupportedSpectrumError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def _parse_eps(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise DomainError(f"bad --eps list {text!r}: {exc}") from exc
    if not values or any(not 0.0 < v < math.inf for v in values):
        raise DomainError(f"--eps needs positive finite comma-separated values, got {text!r}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specreg",
        description="Regularised determinants, zeta values, and orbit volumes "
                    "for explicit spectra.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "detreg": "cutoff and regularised determinant report for a spectrum",
        "zeta": "spectral zeta evaluations for a spectrum",
        "bridge": "compare the zeta and heat determinant routes",
        "orbit": "minimality certificate for a coadjoint orbit",
        "gamma": "Euler constant by two routes (self check)",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        if name != "gamma":
            cmd.add_argument("--input", required=True, help="input JSON path")
        cmd.add_argument("--output", help="write the report here (default stdout)")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        if name in ("detreg", "orbit"):
            cmd.add_argument("--eps", help="comma-separated cutoff grid override")
        if name in ("bridge", "gamma"):
            cmd.add_argument("--abs-tol", type=float, dest="abs_tol",
                             help="override the pass/fail threshold")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    abs_tol = getattr(args, "abs_tol", None)
    try:
        if getattr(args, "eps", None):
            args.eps = _parse_eps(args.eps)
        if abs_tol is not None and not 0.0 < abs_tol < math.inf:
            raise DomainError(f"--abs-tol needs a positive finite number, got {abs_tol!r}")
    except DomainError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
