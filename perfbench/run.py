"""Benchmark entry point for onebit-bounds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from anywhere inside a source checkout: it finds the package under
``src/`` next to this directory and fails, without printing a result, when
the source is not there.  The workloads are defined in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median,
in plain seconds, of ten fresh processes that import ``onebit_bounds.cli``
and build the default quadrature rule, five started before the worker and
five after it, so that the probes span the run; the other metrics come from
one worker process
that repeats the workload's job list for ``--seconds`` (see ``worker.py``).
``wall_s``, ``cpu_s`` and ``points_per_s`` are medians over its passes of
the pass's time, scaled to the reference host speed that ``worker.py``
defines (unit ``ref_s``); the raw seconds are in the full record.
``peak_rss_mb`` is the worker's peak resident memory.  ``--trace 1`` runs the worker with the
layer wrappers of ``tracing.py`` and reports the per-layer metrics.
``--smoke`` shrinks every job, for a quick check of the output format.
The spans of a traced run go to ``perfbench/out/<run>-spans.json``.

The full record (environment, every job's timing, output sha256 and checks,
comparison of the output hashes with ``baseline.json``) goes to
``perfbench/out/``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5  # on each side of the worker
DEADLINE_S = 170.0  # a run must end within 180 s
PROBES_AFTER_S = 30.0  # time kept back from the worker for the probes after it

SETUP_PROBE = """
import time
t0 = time.perf_counter()
import onebit_bounds.cli
from onebit_bounds.numerics import gauss_hermite
gauss_hermite(128)
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def setup_probes(env: dict, deadline: float) -> list:
    """Seconds to set up a fresh CLI process, once per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                               capture_output=True, text=True, check=True,
                               timeout=max(1.0, deadline - time.perf_counter()))
        samples.append(float(probe.stdout))
    return samples


def metric_specs(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def output_changes(passes, workload: str, seed: int) -> dict:
    """Compare each job's output sha256 with the committed baseline."""
    with open(HERE / "baseline.json", encoding="utf-8") as fh:
        known = json.load(fh)["outputs"]
    status = {"unchanged": 0, "changed": [], "no_baseline": 0}
    for p in passes:
        for i, job in enumerate(p["jobs"]):
            key = f"{workload}/{seed}/{p['index']}/{i}"
            if key not in known:
                status["no_baseline"] += 1
            elif known[key] == job["sha256"]:
                status["unchanged"] += 1
            else:
                status["changed"].append(key)
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="shrink every job")
    args = ap.parse_args()

    started = time.perf_counter()
    if not (ROOT / "src" / "onebit_bounds" / "cli.py").is_file():
        print(f"perfbench: no onebit_bounds source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    context = {"nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0]}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--small")
    deadline = started + DEADLINE_S
    setup = []
    try:
        if not args.trace:
            setup += setup_probes(env, deadline - PROBES_AFTER_S)
        worker = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                timeout=max(1.0, deadline - PROBES_AFTER_S - time.perf_counter()))
        if not args.trace and worker.returncode == 0:
            setup += setup_probes(env, deadline)
    except subprocess.TimeoutExpired:
        print("perfbench: the run did not finish in time", file=sys.stderr)
        return 1
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr)
        print(f"perfbench: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    record = json.loads(worker.stdout.strip().splitlines()[-1])
    if args.trace:
        with open(out_dir / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(record.pop("spans"), fh)
    passes = record["passes"]
    jobs = [j for p in passes for j in p["jobs"]]
    failed = sum(j["failed"] for j in jobs)

    if args.trace:
        specs = metric_specs("per_layer")
        values = record["layers"]
    else:
        specs = metric_specs("end_to_end")
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["ref_wall_s"] for p in passes),
            "points_per_s": statistics.median(p["points"] / p["ref_wall_s"] for p in passes),
            "cpu_s": statistics.median(p["ref_cpu_s"] for p in passes),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs.items()}

    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    outputs = output_changes(passes, args.workload, args.seed)
    full = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "env": {**context, **record["env"]},
            "setup_samples_s": setup, "worker_import_s": record["import_s"],
            "layers": record.get("layers"), "outputs": outputs, "passes": passes}
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)

    print(f"env: {json.dumps(full['env'])}")
    print(f"passes: {len(passes)}, jobs: {len(jobs)}, failed: {failed}, "
          f"outputs vs baseline: {outputs['unchanged']} unchanged, "
          f"{len(outputs['changed'])} changed, {outputs['no_baseline']} without baseline")
    for job in jobs:
        if job["failed"]:
            print(f"failed: {' '.join(job['argv'])}: exit {job['exit']} "
                  f"{job['problems']} {job['error'] or ''}".rstrip())
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
