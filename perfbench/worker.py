"""Benchmark worker: runs one workload in this process and prints its record.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

run.py starts it in a fresh process with the package source on PYTHONPATH,
so that import time and peak memory belong to one run.  Each job calls
``onebit_bounds.cli.main(argv)`` with stdout and stderr captured.  Passes
over the workload's job list repeat while the next one is expected to end
within ``--seconds``; at least one runs.  With ``--trace 1`` the passes come
in pairs on the same inputs, untraced then traced, and the record also
holds the layer metrics and the spans.  The last line of stdout is the JSON
record.

Around every job the worker also times a fixed reference kernel.  On a
shared host the same job runs up to twice as slow for minutes at a time,
and the kernel slows with it: over such spells the median of a job's time
divided by the kernel time next to it moved by a few percent where the
median job time alone moved by a third.
Each pass therefore also reports its time scaled to a host on which the
kernel takes ``REFERENCE_KERNEL_S`` (``ref_wall_s``, ``ref_cpu_s``).
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import statistics
import sys
import time
import traceback

from workloads import WORKLOADS

REFERENCE_KERNEL_S = 0.02  # never change: it fixes the scale of every ref_s figure
KERNEL_SHARE = 0.05


def openblas():
    """Version string and thread count of the OpenBLAS that numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return config().decode(), threads()
    return None, None


def environment() -> dict:
    import numpy
    import scipy

    config, threads = openblas()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": config, "openblas_threads": threads}


def reference_kernel(budget_s: float):
    """Time a fixed loop of small numpy/scipy calls driven from Python, the
    shape of the package's inner loops, repeated until ``budget_s`` is spent
    (at least once).  Returns ``(seconds, repetitions)``.  It calls no package
    code, so no change to the program moves it."""
    import numpy as np
    from scipy import special

    x = np.linspace(-4.0, 4.0, 128)
    t0 = time.perf_counter()
    reps = 0
    while reps == 0 or time.perf_counter() - t0 < budget_s:
        for i in range(2000):
            v = np.exp(-0.5 * x * x) / special.erfcx(x * (0.5 + 1e-3 * i))
            float(v @ x)
        reps += 1
    return time.perf_counter() - t0, reps


def run_job(cli, argv, check) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on arguments it rejects
        code = exc.code
    except Exception:
        code, error = None, traceback.format_exc()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    text = out.getvalue()
    points, problems = 0, []
    if code == 0:
        try:
            points, problems = check(argv, text)
        except (ValueError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    data = text.encode()
    return {"argv": argv, "wall_s": wall, "cpu_s": cpu, "exit": code, "error": error,
            "stderr": err.getvalue(), "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data), "points": points, "problems": problems,
            "failed": code != 0 or bool(problems)}


def run_pass(cli, argvs, check, index, tracer=None) -> dict:
    jobs = []
    before = reference_kernel(0.0)
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.job = f"p{index}j{i}"
        job = run_job(cli, argv, check)
        # sample the kernel for about a twentieth of the job on each side and
        # average before dividing, so that a noisy sample does not bias 1/x
        after = reference_kernel(KERNEL_SHARE * job["wall_s"])
        job["kernel_s"] = (before[0] + after[0]) / (before[1] + after[1])
        jobs.append(job)
        before = after
    totals = {k: sum(j[k] for j in jobs) for k in ("wall_s", "cpu_s", "points", "bytes")}
    for k in ("wall_s", "cpu_s"):
        totals[f"ref_{k}"] = sum(j[k] * REFERENCE_KERNEL_S / j["kernel_s"] for j in jobs)
    return {"index": index, "traced": tracer is not None, "jobs": jobs, **totals}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    from onebit_bounds import cli
    from onebit_bounds.numerics import gauss_hermite
    gauss_hermite(128)
    import_s = time.perf_counter() - t0

    make_jobs, check = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    passes = []
    start = time.perf_counter()
    index = 0
    while True:
        argvs = make_jobs(args.seed, index, args.small)
        passes.append(run_pass(cli, argvs, check, index))
        if tracer is not None:
            first = len(tracer.spans)
            with tracer.installed():
                traced = run_pass(cli, argvs, check, index, tracer)
            traced["layers"] = tracer.layer_metrics(first)
            passes.append(traced)
        index += 1
        spent = time.perf_counter() - start
        if spent + spent / index > args.seconds:
            break

    record = {"import_s": import_s, "env": environment(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "passes": passes}
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        layers = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        layers["cli.output_bytes"] = statistics.median(p["bytes"] for p in traced)
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in untraced))
        record["layers"] = layers
        record["spans"] = tracer.span_records()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
