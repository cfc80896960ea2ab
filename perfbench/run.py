"""specreg benchmark: one closed-loop workload, one client, a fixed job list.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --repeat K

Run from the root of a checkout; the library is imported from src/.  The job
list follows from (workload, seed, seconds) and the run ends when it is done.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the list untraced and
then traced, in fresh processes, and prints the per-layer metrics and
bench.trace_overhead_ratio.  --repeat K is the steadiness report: two sets of
K untraced runs on consecutive seeds, with each end-to-end metric's median,
quartile spread and the shift between the sets, against BENCHMARK.json's
bounds; it exits 1 if a spread (setup_s exempt) or a shift exceeds its bound.

The last line of stdout is one JSON object (not in --repeat mode).  The
benchmark starts and waits for its own processes only; it writes nothing
outside a temporary directory in the checkout, which it removes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import GENERATORS  # noqa: E402

SETUP_REPEATS = 3
TAIL_SAMPLES = 10
RUN_TIMEOUT_S = 170.0  # one run, all of its workers together
UNITS = {"calls": "count", "errors": "count", "ms": "ms", "self_ms": "ms"}


def worker_env() -> dict:
    """Workers compile specreg in memory and write no bytecode anywhere."""
    return {"PATH": os.environ.get("PATH", os.defpath), "PYTHONDONTWRITEBYTECODE": "1"}


def spawn_worker(workload: str, seed: int, seconds: float, mode: str, tmp: Path,
                 deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv + [repr(t_spawn), str(tmp)], cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(0.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child it runs
        proc.communicate()
        raise RuntimeError(f"run exceeded {RUN_TIMEOUT_S} s in its {mode} worker")
    if proc.returncode:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n{err.decode()[-3000:]}")
    return json.loads(out.decode().strip().splitlines()[-1])


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_SAMPLES samples above."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_SAMPLES
    return ordered[k - 1], 100.0 * k / len(ordered)


def end_to_end(result: dict, setups: list[float]) -> dict:
    latencies = result["latencies_ms"]
    n = len(latencies)
    tail, pct = tail_latency(latencies)
    return {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups"),
        "throughput_jobs_per_s": (n / result["wall_s"], "1/s",
                                  f"{n} jobs in {result['wall_s']:.3f} s"),
        "latency_p50_ms": (statistics.median(latencies), "ms", f"{n} samples"),
        "latency_tail_ms": (tail, "ms",
                            f"p{pct:.1f}, {TAIL_SAMPLES} of {n} samples above"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "ru_maxrss"),
        "failed_share": (len(result["failures"]) / n, "1",
                         f"{len(result['failures'])} of {n} jobs"),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    trace = traced["trace"]
    metrics = {}
    for label, stats in trace["functions"].items():
        for key, value in stats.items():
            metrics[f"{label}.{key}"] = (value, UNITS[key], "")
    metrics["quadrature.integrand_evals"] = (
        trace["integrand_evals"], "count", "remainder/heat_trace calls inside quadrature")
    cache = trace["coeff_cache"]
    if cache is not None:  # the exact coefficient tables may be gone later
        lookups = cache["hits"] + cache["misses"]
        metrics["heat_expansion.coeff_cache.misses"] = (cache["misses"], "count", "")
        metrics["heat_expansion.coeff_cache.hit_ratio"] = (
            cache["hits"] / lookups if lookups else 0.0, "1", f"{lookups} lookups")
    for key, value in trace["cli"].items():
        metrics[f"cli.{key}"] = (value, "ms", "")
    metrics["bench.trace_overhead_ratio"] = (
        traced["wall_s"] / untraced["wall_s"], "1",
        f"traced {traced['wall_s']:.3f} s / untraced {untraced['wall_s']:.3f} s, "
        f"{trace['spans']} spans")
    for name, share in traced["shares"].items():
        metrics[name] = (share, "1", "")
    return metrics


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_metrics(title: str, metrics: dict, names) -> None:
    print(title)
    for name in names:
        if name in metrics:
            value, unit, note = metrics[name]
            shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
            print(f"  {name:44s} {shown} {unit:6s} {note}")
        else:
            print(f"  {name:44s} {'(absent)':>14s}")


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        setups = [] if trace else [
            spawn_worker(workload, seed, seconds, "setup", tmp, deadline)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)]
        result = spawn_worker(workload, seed, seconds, "measure", tmp, deadline)
        traced = (spawn_worker(workload, seed, seconds, "trace", tmp, deadline)
                  if trace else None)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    e2e = end_to_end(result, setups + [result["setup_s"]])
    failures = result["failures"] + (traced["failures"] if traced else [])
    return {"e2e": e2e, "layers": per_layer(traced, result) if traced else None,
            "shares": result["shares"], "failures": failures,
            "latencies_ms": result["latencies_ms"],
            "attempted": len(result["latencies_ms"]) * (2 if traced else 1)}


def report(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = benchmark_spec()
    run = run_once(workload, seed, seconds, trace)
    print(f"specreg benchmark: workload={workload} seed={seed} "
          f"jobs={len(run['latencies_ms'])} (closed loop, one client)")
    for name, share in run["shares"].items():
        print(f"  {name:44s} {share:>14.6g}")
    print_metrics("end-to-end (untraced run):", run["e2e"], list(run["e2e"]))
    if trace:
        layers = run["layers"]
        print("traced functions (calls, ms inclusive, self ms, errors):")
        rows = sorted((name for name in layers if name.endswith(".calls") and layers[name][0]),
                      key=lambda name: -layers[name[:-6] + ".self_ms"][0])
        for name in rows:
            base = name[:-6]
            print(f"  {base:44s} {layers[name][0]:>9d} {layers[base + '.ms'][0]:>12.3f} "
                  f"{layers[base + '.self_ms'][0]:>12.3f} {layers[base + '.errors'][0]:>4d}")
        names = [m["name"] for m in spec["per_layer"]]
        print_metrics("per-layer (traced run):", layers, names)
        chosen = {name: layers[name] for name in names if name in layers}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        chosen = {name: run["e2e"][name] for name in names}
    for failure in run["failures"][:20]:
        print(f"FAILED {failure}")
    failed = len(run["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in chosen.items()},
    }))
    return 0


def steadiness(workload: str, seed: int, seconds: float, repeat: int) -> int:
    spec = benchmark_spec()
    sets = []
    for first in (seed, seed + repeat):
        runs = []
        for s in range(first, first + repeat):
            run = run_once(workload, s, seconds, trace=False)
            runs.append(run)
            print(f"seed {s}: " + " ".join(f"{name}={run['e2e'][name][0]:.6g}"
                                           for name in run["e2e"]), flush=True)
            for failure in run["failures"][:5]:
                print(f"  FAILED {failure}")
        sets.append(runs)
    ok = all(not run["failures"] for runs in sets for run in runs)
    print(f"steadiness of {workload}: two sets of {repeat} runs, seeds "
          f"{seed}..{seed + 2 * repeat - 1}; spread = (q3 - q1) / median")
    print(f"  {'metric':24s} {'median A':>12s} {'spread A':>9s} {'median B':>12s} "
          f"{'spread B':>9s} {'B worse by':>10s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = []
        for runs in sets:
            values = [run["e2e"][name][0] for run in runs]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            stats.append((mid, (q3 - q1) / mid))
        (med_a, spread_a), (med_b, spread_b) = stats
        worse = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
        spread = 0.0 if name == "setup_s" else max(spread_a, spread_b)
        if worse > bound or spread > bound:
            verdict = "NOT STEADY"
        else:
            verdict = "ok" if spread < bound / 3 else "within bound, spread above bound/3"
        ok = ok and verdict != "NOT STEADY"
        print(f"  {name:24s} {med_a:>12.6g} {spread_a:>9.3%} {med_b:>12.6g} "
              f"{spread_b:>9.3%} {worse:>10.3%} {bound:>6.2f} {verdict}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--trace", type=int, choices=(0, 1))
    mode.add_argument("--repeat", type=int, help="steadiness report over 2 x REPEAT runs")
    args = parser.parse_args()
    if not (ROOT / "src" / "specreg" / "__init__.py").is_file():
        print(f"no specreg sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.repeat is not None:
            return steadiness(args.workload, args.seed, args.seconds, args.repeat)
        return report(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
