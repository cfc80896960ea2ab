"""End-to-end CLI checks: exit codes, wire formats, determinism.

Most cases run `specreg.cli.main` in this interpreter and capture its output;
`test_module_entry_point` and `test_console_script_installed` start real
processes. `test_console_script_installed` runs the installed `specreg` script,
or, where none is on PATH, starts the `[project.scripts]` target declared in
pyproject.toml the way the script's wrapper would.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specreg
from specreg import (
    LoopGroupOrbitSpec,
    finite_spectrum,
    lattice_family,
    orbit_to_dict,
    spectrum_to_dict,
)
from specreg.cli import main

TWO_PI = 2.0 * math.pi
README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FIN23 = finite_spectrum([(2.0, 1), (3.0, 1)])
ONE0 = lattice_family(TWO_PI, 0.0, "positive", 1)
SU2 = LoopGroupOrbitSpec(1, ((1.0,),), (1.0,), 0.25)


@pytest.fixture
def run_cli(capsys):
    """Run `specreg ARGS` in-process; returns exit code, stdout and stderr."""
    def run(*args: str) -> subprocess.CompletedProcess:
        capsys.readouterr()
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(list(args), code, out, err)
    return run


def write_json(tmp_path, name: str, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# detreg


def test_detreg_stdout_json(run_cli, tmp_path):
    path = write_json(tmp_path, "fin23.json", spectrum_to_dict(FIN23))
    proc = run_cli("detreg", "--input", path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["log_Det_reg"] == pytest.approx(math.log(6.0), abs=1e-8)
    assert payload["eps_grid"] == [1e-1, 1e-2, 1e-3, 1e-4]
    assert payload["kernel_dim"] == 0


def test_detreg_eps_override(run_cli, tmp_path):
    path = write_json(tmp_path, "fin23.json", spectrum_to_dict(FIN23))
    proc = run_cli("detreg", "--input", path, "--eps", "0.5,0.05")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["eps_grid"] == [0.5, 0.05]


def test_detreg_reruns_byte_identical(run_cli, tmp_path):
    path = write_json(tmp_path, "one0.json", spectrum_to_dict(ONE0))
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    proc1 = run_cli("detreg", "--input", path, "--output", out1)
    proc2 = run_cli("detreg", "--input", path, "--output", out2)
    assert proc1.returncode == 0 and proc2.returncode == 0
    blob1 = (tmp_path / "a.json").read_bytes()
    assert blob1 == (tmp_path / "b.json").read_bytes()
    assert len(blob1) > 0
    # the summary line goes to stdout, not into the report file
    assert "log_det_reg=" in proc1.stdout


def test_detreg_small_scale_lattice(run_cli, tmp_path):
    # the asymptote guard summed ~6.7e5 E1 terms here and took about 15 s
    path = write_json(tmp_path, "small.json", {
        "families": [{"kind": "lattice", "scale": 1e-3, "shift": 0.5}], "kernel_dim": 0})
    proc = run_cli("detreg", "--input", path)
    assert proc.returncode == 0, proc.stderr
    assert math.isfinite(json.loads(proc.stdout)["log_det_reg"])


def test_detreg_csv(run_cli, tmp_path):
    path = write_json(tmp_path, "fin23.json", spectrum_to_dict(FIN23))
    proc = run_cli("detreg", "--input", path, "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    comments = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# log_det_reg=") for ln in comments)
    header_at = lines.index("eps,log_det_eps")
    rows = lines[header_at + 1:]
    assert len(rows) == 4
    eps0, val0 = rows[0].split(",")
    # repr round trip: 17 significant digits survive float()
    assert float(eps0) == 0.1
    assert val0 == repr(float(val0))


# ---------------------------------------------------------------------------
# zeta


def test_zeta_values(run_cli, tmp_path):
    obj = spectrum_to_dict(ONE0)
    obj["s_values"] = [2.0, 3.0]
    proc = run_cli("zeta", "--input", write_json(tmp_path, "z.json", obj))
    assert proc.returncode == 0
    evals = json.loads(proc.stdout)["evaluations"]
    assert [ev["s"] for ev in evals] == [2.0, 3.0]
    assert evals[0]["value"] == pytest.approx(1.0 / 1440.0, abs=1e-9)
    assert evals[1]["value"] == pytest.approx(1.0 / 60480.0, abs=1e-9)


def test_zeta_csv_route_column(run_cli, tmp_path):
    obj = spectrum_to_dict(FIN23)
    obj["s_values"] = [1.5]
    proc = run_cli("zeta", "--input", write_json(tmp_path, "z.json", obj),
                   "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "s,value,error,route"
    assert lines[1].endswith(",mellin-split")


def test_zeta_bad_s_values(run_cli, tmp_path):
    obj = spectrum_to_dict(FIN23)
    obj["s_values"] = []
    proc = run_cli("zeta", "--input", write_json(tmp_path, "z.json", obj))
    assert proc.returncode == 2
    assert "s_values" in proc.stderr


# ---------------------------------------------------------------------------
# bridge


def test_bridge_pass(run_cli, tmp_path):
    path = write_json(tmp_path, "one0.json", spectrum_to_dict(ONE0))
    proc = run_cli("bridge", "--input", path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert abs(payload["discrepancy"]) <= 1e-10


def test_bridge_tight_tolerance_fails(run_cli, tmp_path):
    # a spectrum whose two routes differ (4.4e-16); one-sided-pi's agree to
    # the last bit
    fullpi3 = lattice_family(TWO_PI, math.pi / 3.0, "full", 1)
    path = write_json(tmp_path, "fullpi3.json", spectrum_to_dict(fullpi3))
    proc = run_cli("bridge", "--input", path, "--abs-tol", "1e-18")
    assert proc.returncode == 1
    assert "bridge check failed" in proc.stderr


# ---------------------------------------------------------------------------
# orbit


def test_orbit_certificate(run_cli, tmp_path):
    path = write_json(tmp_path, "su2.json", orbit_to_dict(SU2))
    proc = run_cli("orbit", "--input", path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["strongly_minimal"] is True
    assert payload["tr_H_eps"] == [0.0, 0.0, 0.0]
    assert payload["eps_grid"] == [1e-1, 1e-2, 1e-3]


def test_orbit_eps_override(run_cli, tmp_path):
    path = write_json(tmp_path, "su2.json", orbit_to_dict(SU2))
    proc = run_cli("orbit", "--input", path, "--eps", "0.2,0.02")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["eps_grid"] == [0.2, 0.02]


# ---------------------------------------------------------------------------
# gamma


def test_bridge_underflowing_eigenvalue_exits_1(run_cli, tmp_path):
    # a valid spectrum whose smallest eigenvalue (1e-170)^2 underflows: a
    # numeric failure, not an input error
    path = write_json(tmp_path, "tiny.json", spectrum_to_dict(lattice_family(1.0, 1e-170, "full")))
    proc = run_cli("bridge", "--input", path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("numeric failure: ")


def test_zeta_overflowing_term_exits_1(run_cli, tmp_path):
    # q = 1e-8: the solo's first term q^(-60) at s = 30 leaves the double
    # range; a numeric failure, not an input error
    data = dict(spectrum_to_dict(lattice_family(1.0, 1e-8 - 1.0, "positive")), s_values=[30.0])
    proc = run_cli("zeta", "--input", write_json(tmp_path, "solo.json", data))
    assert proc.returncode == 1
    assert proc.stderr.startswith("numeric failure: ")


def test_gamma_self_check(run_cli):
    proc = run_cli("gamma")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert payload["difference"] <= 1e-12


def test_gamma_tight_tolerance_fails(run_cli):
    proc = run_cli("gamma", "--abs-tol", "1e-18")
    assert proc.returncode == 1
    assert "gamma routes disagree" in proc.stderr


# ---------------------------------------------------------------------------
# error handling


def test_malformed_json_reports_position(run_cli, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ bad")
    proc = run_cli("detreg", "--input", str(path))
    assert proc.returncode == 2
    assert "line 1 column 3" in proc.stderr


def test_missing_input_file(run_cli, tmp_path):
    proc = run_cli("detreg", "--input", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    assert "cannot read input" in proc.stderr


def test_bad_eps_list(run_cli, tmp_path):
    path = write_json(tmp_path, "fin23.json", spectrum_to_dict(FIN23))
    proc = run_cli("detreg", "--input", path, "--eps", "0,1")
    assert proc.returncode == 2
    assert "--eps" in proc.stderr


def test_detreg_underflowing_cutoff_argument_exits_1(run_cli, tmp_path):
    # eps*lam = 1e-330 underflows: a numeric failure (exit 1), not bad input
    path = write_json(tmp_path, "row.json", spectrum_to_dict(finite_spectrum([(1e-300, 1)])))
    proc = run_cli("detreg", "--input", path, "--eps", "1e-30")
    assert proc.returncode == 1
    assert "underflows" in proc.stderr


def test_unknown_subcommand(run_cli):
    assert run_cli("frobnicate").returncode == 2


def test_no_arguments(run_cli):
    assert run_cli().returncode == 2


# ---------------------------------------------------------------------------
# README examples, pinned byte for byte


def _readme_blocks() -> list[tuple[str, str, str]]:
    """(info string, prose since the previous block, body) of each fenced block."""
    blocks, prose, info, body = [], [], None, []
    for line in README.read_text().splitlines(keepends=True):
        if info is None and line.startswith("```"):
            info, body = line[3:].strip(), []
        elif info is None:
            prose.append(line)
        elif line.rstrip() == "```":
            blocks.append((info, "".join(prose), "".join(body)))
            info, prose = None, []
        else:
            body.append(line)
    return blocks


def _readme_inputs() -> dict[str, str]:
    """README json blocks by the last `name.json` named in the prose before them."""
    inputs = {}
    for info, prose, body in _readme_blocks():
        names = re.findall(r"`(\w+\.json)`", prose)
        if info == "json" and names:
            inputs[names[-1]] = body
    return inputs


README_CALLS = [(body.split("\n", 1)[0], body.split("\n", 1)[1])
                for _, _, body in _readme_blocks() if body.startswith("$ specreg ")]


def test_readme_lists_every_subcommand_example():
    calls = [call for call, _ in README_CALLS]
    assert len(calls) == 6
    assert {shlex.split(call)[2] for call in calls} == {
        "detreg", "zeta", "bridge", "orbit", "gamma"}


@pytest.mark.parametrize("call, expected", README_CALLS,
                         ids=[call[2:] for call, _ in README_CALLS])
def test_readme_example_output(run_cli, tmp_path, monkeypatch, call, expected):
    for name, body in _readme_inputs().items():
        (tmp_path / name).write_text(body)
    monkeypatch.chdir(tmp_path)
    proc = run_cli(*shlex.split(call)[2:])
    assert proc.returncode == 0
    assert proc.stdout == expected


# ---------------------------------------------------------------------------
# bad wire input: exit 2 with an input error, never a traceback

LATTICE = {"kind": "lattice", "scale": 1.0, "shift": 0.25, "side": "positive", "mult": 1}
EXPLICIT = {"kind": "explicit", "values": [[2.0, 1, 0.0]]}


def _spectrum_text(family: dict, kernel_dim: str = "0", **override: str) -> str:
    fields = {**{key: json.dumps(val) for key, val in family.items()}, **override}
    body = ", ".join(f'"{key}": {val}' for key, val in fields.items())
    return f'{{"families": [{{{body}}}], "kernel_dim": {kernel_dim}}}'


def _orbit_text(**override: str) -> str:
    fields = {"rank": "1", "positive_roots": "[[1.0]]", "x": "[1.0]", "s": "0.25", **override}
    return "{" + ", ".join(f'"{key}": {val}' for key, val in fields.items()) + "}"


BAD_INPUTS = {  # name: (input text, fragment the error message must name)
    "scale-infinity": (_spectrum_text(LATTICE, scale="Infinity"), "non-finite"),
    "full-shift-nan": (_spectrum_text(LATTICE, side='"full"', shift="NaN"), "non-finite"),
    "scale-overflows-to-inf": (_spectrum_text(LATTICE, scale="1e400"), "finite"),
    "row-infinity": (_spectrum_text(EXPLICIT, values="[[Infinity, 1, 0]]"), "non-finite"),
    "row-overflows-to-inf": (_spectrum_text(EXPLICIT, values="[[1e400, 1, 0]]"), "finite"),
    "row-mult-fraction": (_spectrum_text(EXPLICIT, values="[[2.0, 1.7, 0.0]]"), "integer"),
    "row-mult-true": (_spectrum_text(EXPLICIT, values="[[2.0, true, 0.0]]"), "integer"),
    "lattice-mult-fraction": (_spectrum_text(LATTICE, mult="1.7"), "integer"),
    "lattice-mult-true": (_spectrum_text(LATTICE, mult="true"), "integer"),
    "kernel-dim-true": (_spectrum_text(EXPLICIT, kernel_dim="true"), "integer"),
    "orbit-rank-fraction": (_orbit_text(rank="1.7"), "integer"),
    "orbit-rank-true": (_orbit_text(rank="true", positive_roots="[[true]]"), "integer"),
    "orbit-root-true": (_orbit_text(positive_roots="[[true]]"), "number"),
    "orbit-s-overflows-to-inf": (_orbit_text(s="1e400"), "finite"),
    "s-values-true": (_spectrum_text(EXPLICIT)[:-1] + ', "s_values": [true]}', "s_values"),
    "s-values-overflow-to-inf": (_spectrum_text(EXPLICIT)[:-1] + ', "s_values": [1e400]}',
                                 "outside the supported range"),
}
# the commands each input goes to; detreg and bridge where not listed
COMMANDS_FOR = {"orbit-rank-fraction": ("orbit",), "orbit-rank-true": ("orbit",),
                "orbit-root-true": ("orbit",), "orbit-s-overflows-to-inf": ("orbit",),
                "s-values-true": ("zeta",), "s-values-overflow-to-inf": ("zeta",)}


# bad --abs-tol values on a good input; gamma takes no input file
BAD_ABS_TOL = {"nan": "nan", "infinity": "inf", "zero": "0", "negative": "-1e-9"}


@pytest.mark.parametrize("command, text, fragment, options", [
    pytest.param(command, text, fragment, (), id=f"{name}-{command}")
    for name, (text, fragment) in BAD_INPUTS.items()
    for command in COMMANDS_FOR.get(name, ("detreg", "bridge"))] + [
    pytest.param(command, _spectrum_text(EXPLICIT), "--abs-tol", (f"--abs-tol={value}",),
                 id=f"abs-tol-{name}-{command}")
    for name, value in BAD_ABS_TOL.items() for command in ("bridge", "gamma")] + [
    pytest.param(command, text, "--eps", ("--eps=1e-2,inf",), id=f"eps-infinity-{command}")
    for command, text in (("detreg", _spectrum_text(EXPLICIT)), ("orbit", _orbit_text()))])
def test_bad_input_exits_2_without_traceback(run_cli, tmp_path, command, text, fragment,
                                             options):
    path = tmp_path / "bad.json"
    path.write_text(text)
    inputs = ("--input", str(path)) if command != "gamma" else ()
    proc = run_cli(command, *inputs, *options)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert fragment in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# fuzz: every generated input ends in a certified result or a typed error


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


_JUNK = st.one_of(st.booleans(), st.none(), st.text(max_size=2), st.just(1e400),
                  st.integers(-2, 2), st.floats(-1e3, 1e3))


@st.composite
def _one_sided(draw):
    scale = draw(st.floats(0.5, 8.0))
    ratio = draw(st.floats(-1.0, 3.0, exclude_min=True, exclude_max=True))
    return {"kind": "lattice", "scale": scale, "shift": ratio * scale, "side": "positive",
            "mult": draw(st.integers(1, 3)), "shift_derivative": draw(st.floats(-1.0, 1.0))}


@st.composite
def _full(draw):
    scale = draw(st.floats(0.5, 8.0))
    return {"kind": "lattice", "scale": scale, "side": "full",
            "shift": draw(st.floats(-0.5, 0.5)) * scale, "mult": draw(st.integers(1, 3)),
            "shift_derivative": draw(st.floats(-1.0, 1.0))}


_EXPLICIT = st.builds(lambda rows: {"kind": "explicit", "values": rows}, st.lists(
    st.tuples(st.floats(0.1, 50.0), st.integers(1, 3), st.floats(-1.0, 1.0)).map(list),
    min_size=1, max_size=3))


@st.composite
def _cli_case(draw):
    """(argv tail, input object): a spectrum for detreg/zeta/bridge or an
    orbit for orbit, with at most one field replaced by a junk value."""
    command = draw(st.sampled_from(("orbit", "bridge", "zeta", "detreg")))
    if command == "orbit":
        rank = draw(st.integers(1, 2))
        obj = {"rank": rank,
               "positive_roots": draw(st.lists(st.lists(st.floats(0.0, 1.5), min_size=rank,
                                                        max_size=rank), max_size=2)),
               "x": draw(st.lists(st.floats(0.5, 1.5), min_size=rank, max_size=rank)),
               "s": draw(st.floats(0.0, 1.0)),
               "cartan_mode": draw(st.sampled_from(("consistent-2r", "paper-4r")))}
        target = obj
    else:
        families = draw(st.lists(st.one_of(_one_sided(), _one_sided(), _full(), _EXPLICIT),
                                 min_size=1, max_size=3))
        obj = {"families": families, "kernel_dim": draw(st.integers(0, 1))}
        if command == "zeta":
            obj["s_values"] = draw(st.lists(st.floats(-0.9, 3.0), min_size=1, max_size=2))
        target = draw(st.sampled_from([obj] + families))
    if draw(st.integers(0, 3)) == 0:
        target[draw(st.sampled_from(sorted(target)))] = draw(_JUNK)
    return command, obj


@pytest.fixture(scope="module")
def fuzz_input(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(case=_cli_case())
def test_cli_fuzz_finite_or_typed_error(fuzz_input, case):
    command, obj = case
    fuzz_input.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--input", str(fuzz_input)])
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert _finite(json.loads(out.getvalue()))
    elif code == 1:
        assert err.getvalue().startswith(("numeric failure: ", "bridge check failed: "))
    else:
        assert code == 2 and err.getvalue().startswith("input error: ")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "specreg.cli", "gamma"],
                          capture_output=True, text=True, timeout=120, env=_src_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def _src_env() -> dict[str, str]:
    """This environment with the imported specreg's source root as PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": str(Path(specreg.__file__).resolve().parents[1])}


def _modules_after_cli_import(fragment: str) -> str:
    """The modules whose names contain `fragment` once a fresh interpreter has
    imported specreg.cli, as printed by that interpreter."""
    code = f"import sys, specreg.cli; print(sorted(m for m in sys.modules if {fragment!r} in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_scipy_out():
    assert _modules_after_cli_import("scipy") == "[]\n"


def test_cli_import_leaves_numpy_out():
    assert _modules_after_cli_import("numpy") == "[]\n"


def test_console_script_installed():
    exe = shutil.which("specreg")
    if exe:
        cmd, env = [exe, "gamma"], None
    else:
        # No installed script: run the declared target as setuptools' wrapper does.
        tomllib = pytest.importorskip("tomllib")
        target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["specreg"]
        module, attr = target.split(":")
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.argv[0] = 'specreg'; sys.exit({attr}())")
        cmd, env = [sys.executable, "-c", wrapper, "gamma"], _src_env()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
