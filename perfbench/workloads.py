"""Seeded job lists for the three benchmark workloads.

Everything here is plain data (wire-format dicts), so the generator needs no
specreg import and the library only ever sees the generated inputs.  A job
list depends on (workload, seed, seconds) alone: `seconds` fixes the job count
through a constant rate per workload, never through a clock.

Job dict keys:
  kind      build_report | verify_bridge | zeta_value | minimality_report | cli
  target    {"spectrum": <spectrum wire dict>} or
            {"orbit": <orbit wire dict>, "form": "anchored" | "at-s"}
  families  the spectrum's families as wire dicts, derived here from the input
            data (for orbits from the documented orbit model), for the oracle
  key       identity of the spectrum, for the repeat share
  s_values  zeta_value jobs only
  argv      cli jobs only
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi
KINDS = ("build_report", "verify_bridge", "zeta_value", "minimality_report")

# Jobs per second of --seconds, measured on a 2-vCPU x86 VM at the commit
# that introduced the benchmark, so that one run measures about that long.
JOBS_PER_SECOND = {"fresh-spectra": 3.9, "warm-repeat": 75.0, "cli-cold": 1.2}
MIN_JOBS = 20  # the tail percentile needs at least ten samples above it
DEFAULT_S_VALUES = (0.25, 0.75, 1.5, 2.0, 3.0)  # specreg zeta's default grid


def lattice(scale, shift, side, mult, shift_derivative=0.0):
    return {"kind": "lattice", "scale": scale, "shift": shift, "side": side,
            "mult": mult, "shift_derivative": shift_derivative}


def orbit_families(orbit: dict) -> list[dict]:
    """Primed orbit spectrum per the orbit model: for each positive root with
    A = s*alpha(x), D = alpha(x), one-sided lattices (2pi, -A) and (2pi, +A) of
    multiplicity 2 with shift derivatives -D and +D, plus the Cartan lattice
    (2pi, 0) of multiplicity 2r or 4r."""
    fams = []
    for root in orbit["positive_roots"]:
        d_val = math.fsum(a * xi for a, xi in zip(root, orbit["x"]))
        a_val = orbit["s"] * d_val
        fams.append(lattice(TWO_PI, -a_val, "positive", 2, -d_val))
        fams.append(lattice(TWO_PI, a_val, "positive", 2, d_val))
    per_rank = 2 if orbit["cartan_mode"] == "consistent-2r" else 4
    fams.append(lattice(TWO_PI, 0.0, "positive", per_rank * orbit["rank"]))
    return fams


def has_shifted_one_sided(families: list[dict]) -> bool:
    """The property the exact coefficient tables (ROADMAP 2a) depend on."""
    return any(f["kind"] == "lattice" and f["side"] == "positive" and f["shift"] != 0.0
               for f in families)


def _s_grid(rng: random.Random) -> list[float]:
    # away from the lattice pole at 1/2 and the Gamma pole at 0
    return sorted([rng.uniform(0.1, 0.4), rng.uniform(0.6, 1.4), rng.uniform(1.4, 2.5)])


def _random_orbit(rng: random.Random, rank: int) -> dict:
    roots = [[rng.uniform(0.5, 1.5)]] if rank == 1 else [
        [rng.uniform(0.5, 1.5), rng.uniform(0.0, 0.4)],
        [rng.uniform(0.0, 0.4), rng.uniform(0.5, 1.5)]]
    orbit = {"rank": rank, "positive_roots": roots,
             "x": [rng.uniform(0.5, 1.5) for _ in range(rank)],
             "s": rng.uniform(0.05, 0.6),
             "cartan_mode": rng.choice(("consistent-2r", "paper-4r"))}
    # 0.25 <= alpha(x) <= 2.85, so 0 < |alpha(a)| < 1.8: inside the principal cell
    return orbit


def _shift_ratio(rng: random.Random) -> float:
    # |shift| >= 0.05*scale keeps the smallest eigenvalue of a full lattice
    # away from 0, where the upper Mellin integral would need t up to ~1e7
    return rng.uniform(0.05, 0.45) * rng.choice((-1.0, 1.0))


def _random_mix(rng: random.Random, shifted: bool) -> dict:
    """Explicit rows plus a full and a one-sided lattice; the one-sided shift is
    nonzero exactly when `shifted`."""
    rows = [[rng.uniform(0.5, 20.0), rng.randint(1, 3), rng.uniform(-0.5, 0.5)]
            for _ in range(rng.randint(1, 3))]
    c_full = rng.uniform(2.0, 7.0)
    c_one = rng.uniform(2.0, 7.0)
    ratio = _shift_ratio(rng) if shifted else 0.0
    fams = [
        {"kind": "explicit", "values": rows},
        lattice(c_full, c_full * _shift_ratio(rng), "full", rng.randint(1, 3),
                rng.uniform(-1.0, 1.0)),
        lattice(c_one, c_one * ratio, "positive", rng.randint(1, 3),
                rng.uniform(-1.0, 1.0)),
    ]
    return {"families": fams, "kernel_dim": rng.randint(0, 1)}


def _job(kind: str, data: dict, key: str, s_values=None, form: str = "at-s") -> dict:
    """One in-process job on a spectrum dict, or on an orbit dict (it has "rank")."""
    if "rank" in data:
        job = {"kind": kind, "target": {"orbit": data, "form": form},
               "families": orbit_families(data), "key": key}
    else:
        job = {"kind": kind, "target": {"spectrum": data},
               "families": data["families"], "key": key}
    if kind == "zeta_value":
        job["s_values"] = list(s_values)
    return job


def _fresh_spectra(rng: random.Random, n_jobs: int) -> tuple[list, list]:
    """Blocks of eight jobs, each on a new spectrum: the four calls on orbits
    (the certificate both anchored and at the requested s) and the three
    spectrum calls on family mixes; minimality_report is the orbit certificate.
    Orbit ranks and mix shiftedness alternate, so every pair of blocks has the
    same shape and seeds differ only in the random numbers."""
    plan = [("orbit", kind, "at-s") for kind in KINDS] + [
        ("orbit", "minimality_report", "anchored")] + [
        ("mix", kind, None) for kind in KINDS[:3]]
    jobs = []
    for block in range(math.ceil(n_jobs / len(plan))):
        batch = []
        for k, (source, kind, form) in enumerate(plan):
            alt = (block + k) % 2
            key = f"{source}-{block}-{k}"
            data = (_random_orbit(rng, rank=1 + alt) if source == "orbit"
                    else _random_mix(rng, shifted=alt == 0))
            batch.append(_job(kind, data, key, _s_grid(rng), form))
        rng.shuffle(batch)
        jobs.extend(batch)
    return [], jobs


def builtin_targets() -> dict[str, dict]:
    """The seven acceptance spectra; the two orbit spectra as their orbit dicts."""
    su2 = {"rank": 1, "positive_roots": [[1.0]], "x": [1.0], "s": 0.25,
           "cartan_mode": "consistent-2r"}
    rank2 = {"rank": 2, "positive_roots": [[1.0, 0.0], [0.5, 0.8]], "x": [1.0, 0.4],
             "s": 0.2, "cartan_mode": "consistent-2r"}
    return {
        "finite-23": {"families": [{"kind": "explicit", "values": [[2.0, 1, 0.0],
                                                                   [3.0, 1, 0.0]]}],
                      "kernel_dim": 0},
        "one-sided-0": {"families": [lattice(TWO_PI, 0.0, "positive", 1)], "kernel_dim": 0},
        "one-sided-pi": {"families": [lattice(TWO_PI, math.pi, "positive", 1)],
                         "kernel_dim": 0},
        "full-pi3": {"families": [lattice(TWO_PI, math.pi / 3.0, "full", 1)], "kernel_dim": 0},
        "full-pi": {"families": [lattice(TWO_PI, math.pi, "full", 1)], "kernel_dim": 0},
        "orbit-su2": su2,
        "orbit-rank2": rank2,
    }


def _warm_repeat(rng: random.Random, n_jobs: int) -> tuple[list, list]:
    """A cycle of 25 jobs: the three spectrum calls on the seven built-in
    spectra, and the certificate of the SU(2) and rank-2 orbits, both anchored
    and at their s.  zeta_value uses the CLI's default s grid, so the seed only
    orders the jobs.  The cycle runs once as warm-up and is then repeated,
    reshuffled each time, for the timed list.  With an odd cycle length the
    median job lies inside one job's cluster of latencies, not between two."""
    cycle = []
    for name, data in builtin_targets().items():
        cycle.extend(_job(kind, data, name, DEFAULT_S_VALUES) for kind in KINDS[:3])
        if "rank" in data:
            cycle.extend(_job("minimality_report", data, name, form=form)
                         for form in ("at-s", "anchored"))
    jobs = []
    while len(jobs) < n_jobs:
        order = list(cycle)
        rng.shuffle(order)
        jobs.extend(order)
    return cycle, jobs


CLI_INPUTS = {
    "fin23.json": builtin_targets()["finite-23"],
    "fullpi.json": dict(builtin_targets()["full-pi"], s_values=[0.75, 2.0]),
    "su2.json": builtin_targets()["orbit-su2"],
}

# The README examples: all five subcommands on fin23, fullpi and su2.
CLI_CALLS = (
    ("detreg", "fin23.json", ()),
    ("detreg", "fin23.json", ("--format", "csv")),
    ("zeta", "fullpi.json", ("--format", "csv")),
    ("bridge", "fullpi.json", ()),
    ("orbit", "su2.json", ()),
    ("gamma", None, ()),
)


def _cli_job(command: str, input_name: str | None, extra: tuple) -> dict:
    argv = [command] + (["--input", input_name] if input_name else []) + list(extra)
    data = CLI_INPUTS.get(input_name)
    if data is None:
        families = []
    elif "rank" in data:
        families = orbit_families(data)
    else:
        families = data["families"]
    return {"kind": "cli", "argv": argv, "families": families, "key": " ".join(argv)}


def cli_jobs() -> list[dict]:
    """One job per README call, in CLI_CALLS order."""
    return [_cli_job(*call) for call in CLI_CALLS]


def _cli_cold(rng: random.Random, n_jobs: int) -> tuple[list, list]:
    jobs = []
    while len(jobs) < n_jobs:
        order = cli_jobs()
        rng.shuffle(order)
        jobs.extend(order)
    return [], jobs


GENERATORS = {"fresh-spectra": _fresh_spectra, "warm-repeat": _warm_repeat,
              "cli-cold": _cli_cold}


def job_count(workload: str, seconds: float) -> int:
    """Jobs asked of the generator, which rounds up to whole blocks or cycles."""
    return max(MIN_JOBS, round(JOBS_PER_SECOND[workload] * seconds))


def generate(workload: str, seed: int, seconds: float) -> tuple[list, list, dict]:
    """(warm-up jobs, timed jobs, shares) for one run."""
    rng = random.Random(f"{workload}:{seed}")
    warmup, jobs = GENERATORS[workload](rng, job_count(workload, seconds))
    seen = {job["key"] for job in warmup}
    repeats = 0
    for job in jobs:
        repeats += job["key"] in seen
        seen.add(job["key"])
    shares = {
        "bench.shifted_one_sided_share":
            sum(has_shifted_one_sided(job["families"]) for job in jobs) / len(jobs),
        "bench.repeat_share": repeats / len(jobs),
    }
    return warmup, jobs, shares
