"""Smoke test of the benchmark itself, at reduced size.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced with
``run.py --smoke --seconds 1`` and checks the last output line: exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, no failed job,
and every end-to-end (untraced) or per-layer (traced) metric present with
its unit and a finite value.  It then copies only BENCHMARK.json and this
directory into a scratch tree and checks that ``run.py`` fails there without
printing a result.  Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected: dict) -> list:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            problems.append(f"{name}: {m}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m['value']!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kinds = {0: "end_to_end", 1: "per_layer"}
    failures = 0
    for w in (x["name"] for x in bench["workloads"]):
        for trace, kind in kinds.items():
            problems = check_result(run(ROOT, w, trace), {m["name"]: m["unit"] for m in bench[kind]})
            failures += bool(problems)
            print(f"{w} trace={trace}: {'ok' if not problems else '; '.join(problems)}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, bench["workloads"][0]["name"], 0, smoke=False)
    lines = proc.stdout.strip().splitlines()
    bare_ok = proc.returncode != 0 and not (lines and lines[-1].startswith("{"))
    failures += not bare_ok
    print(f"without source: exit {proc.returncode}, {'ok' if bare_ok else 'printed a result'}")
    shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
