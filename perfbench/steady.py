"""Run sets of benchmark runs and report each end-to-end metric's spread.

    python3 perfbench/steady.py --seeds 1-10 [--write-baseline]

Runs ``run.py --trace 0`` once per seed and every workload of
BENCHMARK.json, interleaving the workloads (seed 1 of every workload, then
seed 2, ...) so that a slow spell of the machine does not land on one
workload only.  For each workload and metric it prints the median, the
quartiles of Python's ``statistics.quantiles(values, n=4)``, the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json, and flags
every spread over its bound, ``setup_s`` included.  Without
``--write-baseline`` it also prints how far each median moved from the
median in ``baseline.json``, in the direction that is worse, and flags a
move over the bound.  ``--write-baseline`` stores the quartiles, and the
output sha256 of every job in each run's first pass, as the new
``baseline.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]

    values = {w: {} for w in workloads}
    outputs, envs = {}, []
    for seed in args.seeds:
        for w in workloads:
            run = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                                  "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                                  "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if run.returncode != 0:
                print(f"{w} seed {seed}: exit {run.returncode}\n{run.stdout}{run.stderr}")
                return 1
            result = json.loads(run.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            full = json.loads((HERE / "out" / f"{w}-seed{seed}-trace0.json").read_text(encoding="utf-8"))
            envs.append(full["env"])
            for i, job in enumerate(full["passes"][0]["jobs"]):  # every run has a first pass
                outputs[f"{w}/{seed}/0/{i}"] = job["sha256"]
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    baseline_path = HERE / "baseline.json"
    baseline = None if args.write_baseline else json.loads(baseline_path.read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in bench["end_to_end"]}
    quartiles = {}
    ok = True
    print(f"\n{'workload':16} {'metric':14} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6} {'vs base':>8}")
    for w in workloads:
        quartiles[w] = {}
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            quartiles[w][name] = {"q1": q1, "median": med, "q3": q3, "n": len(vals)}
            spread = (q3 - q1) / med
            bound = specs[name]["bound"]
            line = (f"{w:16} {name:14} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                    f"{spread:7.3f} {bound:6.2f}")
            if spread > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            if baseline:
                base = baseline["quartiles"][w][name]["median"]
                worse = (med - base) / base if specs[name]["better"] == "lower" else (base - med) / base
                line += f" {worse:+8.3f}"
                if worse > bound:
                    ok = False
                    line += "  WORSE THAN BOUND"
            print(line)

    if args.write_baseline:
        baseline_path.write_text(json.dumps({
            "seeds": args.seeds, "seconds": bench["run_seconds"], "env": envs[0],
            "quartiles": quartiles, "outputs": outputs}, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {baseline_path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
