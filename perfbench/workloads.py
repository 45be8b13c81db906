"""Seeded job lists and output checks for the benchmark workloads.

A workload turns ``(seed, pass index)`` into a list of ``onebit-bounds``
argument vectors.  The seed only moves inputs inside fixed ranges, so the
amount of work in a pass does not depend on it.  A check reads nothing but a
job's CSV output and returns ``(points, problems)``: the number of solved
points (data rows) and the invariants the output breaks.

This module uses only the standard library, so run.py can import it
without paying for numpy.
"""
from __future__ import annotations

import math
import random


def _tables(text: str):
    """CSV sections of a job's output as ``(header, rows of floats)``."""
    out = []
    for block in text.strip("\n").split("\n\n"):
        lines = block.split("\n")
        out.append((lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]))
    return out


def _rng(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


# --- replica-linear: compare points, one fresh training solve per grid point --

def _linear_jobs(seed: int, index: int, small: bool):
    # one compare call per 1-dB bin from -10 to 20 dB, the SNR jittered inside
    # its bin; short jobs keep each one close to its reference-kernel timing
    rng = _rng("replica-linear", seed, index)
    bins = range(-10, -7) if small else range(-10, 21)
    jobs = []
    for alpha in ("1", "2"):
        for lo in bins:
            rho_db = f"{lo + rng.random():.6f}"
            jobs.append(["compare", "--alpha", alpha, "--beta", "5",
                         "--rho-db-min", rho_db, "--rho-db-max", rho_db])
    return jobs


def _linear_check(argv, text):
    (header, rows), = _tables(text)
    col = {name: i for i, name in enumerate(header)}
    problems = [] if len(rows) == 1 else [f"{len(rows)} rows, expected 1"]
    for r in rows:
        rep, bus, csir = (r[col[k]] for k in ("c_bound_replica", "c_bound_bussgang", "r_csir"))
        # criteria 3 and 4: Bussgang <= replica <= known channel, 1e-12 slack
        if not (bus <= rep + 1e-12 and rep <= csir + 1e-12):
            problems.append(f"order broken at {r[col['rho_db']]} dB: {bus} / {rep} / {csir}")
    return len(rows), problems


# --- replica-onebit: figure 3, one training grid shared by nine alphas --------

def _onebit_jobs(seed: int, index: int, small: bool):
    rho_db = 10.0 + _rng("replica-onebit", seed, index).uniform(-0.5, 0.5)
    argv = ["figure", "--which", "3", "--beta", "8", "--rho-db", f"{rho_db:.6f}"]
    return [argv + (["--grid-step", "1"] if small else [])]


def _onebit_check(argv, text):
    (header, rows), = _tables(text)
    c = [r[header.index("c_bound_onebit")] for r in rows]
    problems = []
    if len(rows) != 9:
        problems.append(f"{len(rows)} rows, expected 9")
    # criterion 5: saturation below 2 bits, nondecreasing in alpha (1e-9 slack)
    if not all(v < 2.0 for v in c):
        problems.append(f"c_bound >= 2: {max(c)}")
    if any(b < a - 1e-9 for a, b in zip(c, c[1:])):
        problems.append(f"c_bound decreases in alpha: {c}")
    return len(rows), problems


# --- exact-enum: both exact pipelines, Monte Carlo and quadrature -------------

def _exact_jobs(seed: int, index: int, small: bool):
    rng = _rng("exact-enum", seed, index)
    mc_seed = rng.randrange(2 ** 31)
    rho_mc, rho_quad = rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)
    mc = ["exact", "--m", "2", "--n", "2", "--t", "2" if small else "3",
          "--mc-samples", "2000" if small else "20000", "--seed", str(mc_seed),
          "--rho-db", f"{rho_mc:.6f}"]
    quad = ["exact", "--m", "1", "--n", "1", "--t", "3" if small else "5",
            "--rho-db", f"{rho_quad:.6f}"]
    return [mc, quad]


def _exact_check(argv, text):
    (header, rows), _ = _tables(text)
    col = {name: i for i, name in enumerate(header)}
    t = int(argv[argv.index("--t") + 1])
    problems = []
    if len(rows) != t - 1:
        problems.append(f"{len(rows)} rows, expected {t - 1}")
    if not all(math.isfinite(v) for r in rows for v in r):
        problems.append("non-finite value")
    if "--mc-samples" not in argv:
        # criterion 8: under quadrature the two pipelines agree to 1e-6
        for r in rows:
            if not abs(r[col["reff_exact"]] - r[col["mi_direct"]]) < 1e-6:
                problems.append(f"T_t={r[col['t_t']]:g}: reff_exact and mi_direct differ")
    return len(rows), problems


WORKLOADS = {
    "replica-linear": (_linear_jobs, _linear_check),
    "replica-onebit": (_onebit_jobs, _onebit_check),
    "exact-enum": (_exact_jobs, _exact_check),
}
