"""One measuring process of the benchmark; started by run.py, never by hand.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE T_SPAWN TMPDIR

MODE is "setup" (set up, report the set-up time, exit), "measure" or
"trace".  T_SPAWN is the parent's time.monotonic() just before it started
this interpreter, so set-up time counts interpreter start-up.  The result is
one JSON object on stdout.

In-process workloads import specreg from src/, build the inputs, warm up
(warm-repeat only) and run the job list, one job at a time.  cli-cold starts
`python -m specreg.cli` children, one at a time, with an explicit
environment.  Every job is checked against the oracles after the timed
phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INTERPRETER_SAMPLES = 5


def child_env(pycache: Path) -> dict:
    """The whole environment of a CLI child: nothing inherited but PATH."""
    return {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": "src",
            "PYTHONPYCACHEPREFIX": str(pycache)}


def run_child(argv: list[str], env: dict) -> tuple[int, bytes, bytes, float]:
    """Run one child to completion: (exit code, stdout, stderr, peak RSS in MB)."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss / 1024.0


def cli_argv(job: dict, inputs: Path) -> list[str]:
    """The job's CLI arguments with input names resolved to files in `inputs`,
    which this writes on first use."""
    from workloads import CLI_INPUTS

    if not inputs.exists():
        inputs.mkdir()
        for name, data in CLI_INPUTS.items():
            (inputs / name).write_text(json.dumps(data))
    return [str(inputs / arg) if arg in CLI_INPUTS else arg for arg in job["argv"]]


def interpreter_ms(pycache: Path) -> float:
    """Median wall time of a bare `python -c pass` child."""
    samples = []
    for _ in range(INTERPRETER_SAMPLES):
        t0 = time.perf_counter()
        code, _, _, _ = run_child([sys.executable, "-c", "pass"], child_env(pycache))
        samples.append(1e3 * (time.perf_counter() - t0))
        if code:
            raise RuntimeError("bare interpreter exited with code %d" % code)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# in-process workloads


def build_call(job: dict, specreg):
    """Turn a job into a zero-argument callable of the public API.

    Functions are looked up on their modules at call time, so a traced run
    goes through the rebound wrappers."""
    target = job["target"]
    if "orbit" in target:
        ospec = specreg.orbit.orbit_from_dict(target["orbit"])
        if job["kind"] == "minimality_report" and target["form"] == "anchored":
            arg = ospec
        else:
            arg = specreg.orbit.orbit_spectrum(ospec, primed=True)
    else:
        arg = specreg.spectra.spectrum_from_dict(target["spectrum"])
    kind = job["kind"]
    if kind == "build_report":
        return lambda: specreg.regdet.build_report(arg)
    if kind == "verify_bridge":
        return lambda: specreg.zeta.verify_bridge(arg)
    if kind == "zeta_value":
        s_values = job["s_values"]
        return lambda: [specreg.zeta.zeta_value(arg, s) for s in s_values]
    return lambda: specreg.orbit.minimality_report(arg)


def to_wire(kind: str, result, specreg):
    if kind == "build_report":
        return specreg.regdet.report_to_dict(result)
    if kind == "verify_bridge":
        return specreg.zeta.bridge_to_dict(result)
    if kind == "zeta_value":
        return [{"s": ev.s, "value": ev.value, "error": ev.error} for ev in result]
    return specreg.orbit.curvature_to_dict(result)


def run_in_process(workload: str, seed: int, seconds: float, mode: str,
                   t_spawn: float, tmp: Path) -> dict:
    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import specreg
    import specreg.cli  # noqa: F401  (imports every module, as the CLI does)

    import_ms = 1e3 * (time.perf_counter() - t_import)
    from workloads import generate

    warmup, jobs, shares = generate(workload, seed, seconds)
    calls = [build_call(job, specreg) for job in jobs]
    for job in warmup:
        build_call(job, specreg)()
    t_first = time.monotonic()
    setup_s = t_first - t_spawn
    if mode == "setup":
        return {"setup_s": setup_s}

    tracer = cache_before = None
    if mode == "trace":
        from tracing import Tracer, coeff_cache_info

        tracer = Tracer()
        tracer.install()
        cache_before = coeff_cache_info()
    results, latencies = [], []
    t_phase = time.perf_counter()
    for i, call in enumerate(calls):
        if tracer:
            tracer.current_job[0] = i
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed job is counted, not fatal
            result = exc
        latencies.append(1e3 * (time.perf_counter() - t0))
        results.append(result)
    wall_s = time.perf_counter() - t_phase
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"setup_s": setup_s, "wall_s": wall_s, "latencies_ms": latencies,
           "peak_rss_mb": peak_rss_mb, "shares": shares}
    if tracer:
        from tracing import cache_delta, coeff_cache_info

        out["trace"] = tracer.summary()
        out["trace"]["coeff_cache"] = cache_delta(cache_before, coeff_cache_info())
        out["trace"]["cli"] = {"interpreter_ms": interpreter_ms(tmp / "pycache"),
                               "import_ms": import_ms,
                               "main_ms": cli_main_ms(specreg, tmp / f"inputs-{os.getpid()}")}
    out["failures"] = _check_in_process(jobs, results, specreg)
    return out


def cli_main_ms(specreg, inputs: Path) -> float:
    """Median time of specreg.cli.main over the README calls in this process,
    after the timed phase, with the reports captured."""
    from workloads import cli_jobs

    samples = []
    for job in cli_jobs():
        argv = cli_argv(job, inputs)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            specreg.cli.main(argv)
            samples.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(samples)


def _check_in_process(jobs: list, results: list, specreg) -> list[str]:
    import oracles

    failures = []
    verdicts: dict = {}  # repeated jobs give identical results; check each once
    for i, (job, result) in enumerate(zip(jobs, results)):
        if isinstance(result, Exception):
            failures.append(f"job {i} {job['kind']} {job['key']}: "
                            f"{type(result).__name__}: {result}")
            continue
        payload = to_wire(job["kind"], result, specreg)
        memo = json.dumps([job["kind"], job["target"], job.get("s_values"), payload],
                          sort_keys=True)
        if memo not in verdicts:
            verdicts[memo] = oracles.check(job["kind"], payload, job["families"])
        if verdicts[memo]:
            failures.append(f"job {i} {job['kind']} {job['key']}: {verdicts[memo]}")
    return failures


# ---------------------------------------------------------------------------
# cli-cold


def run_cli(workload: str, seed: int, seconds: float, mode: str,
            t_spawn: float, tmp: Path) -> dict:
    from workloads import generate

    _, jobs, shares = generate(workload, seed, seconds)
    inputs = tmp / f"inputs-{os.getpid()}"
    pycache = tmp / f"pycache-{os.getpid()}"
    env = child_env(pycache)
    argvs = []
    for job in jobs:
        argv = cli_argv(job, inputs)
        if mode == "trace":
            argvs.append([sys.executable, str(ROOT / "perfbench" / "cli_child.py"),
                          str(tmp / f"child-{len(argvs)}.json")] + argv)
        else:
            argvs.append([sys.executable, "-m", "specreg.cli"] + argv)
    # fills the bytecode cache, so that no timed child compiles
    code, _, err, _ = run_child(argvs[0], env)
    if code:
        raise RuntimeError(f"untimed CLI child failed: {err.decode()[-2000:]}")
    t_first = time.monotonic()
    setup_s = t_first - t_spawn
    if mode == "setup":
        return {"setup_s": setup_s}

    runs, latencies = [], []
    t_phase = time.perf_counter()
    for argv in argvs:
        t0 = time.perf_counter()
        runs.append(run_child(argv, env))
        latencies.append(1e3 * (time.perf_counter() - t0))
    wall_s = time.perf_counter() - t_phase

    out = {"setup_s": setup_s, "wall_s": wall_s, "latencies_ms": latencies,
           "peak_rss_mb": max(rss for _, _, _, rss in runs), "shares": shares}
    if mode == "trace":
        out["trace"] = _merge_child_traces(
            [tmp / f"child-{i}.json" for i in range(len(argvs))], interpreter_ms(pycache))
    out["failures"] = _check_cli(jobs, runs)
    return out


def _merge_child_traces(paths: list[Path], interp_ms: float) -> dict:
    functions: dict = {}
    evals = spans = hits = misses = 0
    import_ms, main_ms = [], []
    have_cache = True
    for path in paths:
        if not path.exists():  # the child failed before main returned
            continue
        child = json.loads(path.read_text())
        for label, stats in child["functions"].items():
            acc = functions.setdefault(label, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                acc[key] += value
        evals += child["integrand_evals"]
        spans += child["spans"]
        if child["coeff_cache"] is None:
            have_cache = False
        else:
            hits += child["coeff_cache"]["hits"]
            misses += child["coeff_cache"]["misses"]
        import_ms.append(child["import_ms"])
        main_ms.append(child["main_ms"])
    return {"functions": functions, "integrand_evals": evals, "spans": spans,
            "coeff_cache": {"hits": hits, "misses": misses} if have_cache else None,
            "cli": {"interpreter_ms": interp_ms, "import_ms": statistics.median(import_ms),
                    "main_ms": statistics.median(main_ms)}}


def _check_cli(jobs: list, runs: list) -> list[str]:
    import oracles

    failures = []
    first: dict = {}
    for i, (job, (code, out, err, _)) in enumerate(zip(jobs, runs)):
        label = f"job {i} cli {job['key']}"
        if code:
            failures.append(f"{label}: exit {code}: {err.decode()[-500:]}")
            continue
        if job["key"] not in first:
            first[job["key"]] = out
            verdict = oracles.check_cli(job, out)
            if verdict:
                failures.append(f"{label}: {verdict}")
        elif out != first[job["key"]]:
            failures.append(f"{label}: stdout differs from the first run of this call")
    return failures


def main() -> int:
    workload, seed, seconds, mode, t_spawn, tmp = sys.argv[1:7]
    runner = run_cli if workload == "cli-cold" else run_in_process
    result = runner(workload, int(seed), float(seconds), mode, float(t_spawn), Path(tmp))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
