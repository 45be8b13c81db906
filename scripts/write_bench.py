"""Write BENCH_<short sha>.json files: fresh-process wall times of the
end-to-end commands, one file per source tree.

    python scripts/write_bench.py [--reps N] TREE [TREE ...]

Each TREE is a git checkout of this repository, for example a clone of the
parent commit and the working tree.  Every command runs in a new Python
process with ``TREE/src`` on the path and ``TREE`` as its directory.  The
repetitions alternate across the trees, command by command, and the order of
the trees flips at every repetition, so a drift in machine load reaches every
tree alike.  Each file holds the median and quartiles of every command's wall
time, the sha256 of its stdout (selftest's timings masked), and the time of
``import onebit_bounds.cli`` alone, which is startup rather than compute.

The files are written at the root of the repository that holds this script.
A tree with uncommitted changes under ``src/`` or ``tests/`` is named
``BENCH_<short sha>-dirty.json``; every file records the sha256 of its
``src/`` so a later checkout can tell whether it measured the same code.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CLI = [sys.executable, "-m", "onebit_bounds.cli"]

# name -> argv, in the order they run within one repetition
COMMANDS = {
    "import": [sys.executable, "-c", "import onebit_bounds.cli"],
    "tier1": [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
              "--continue-on-collection-errors"],
    "selftest": CLI + ["selftest"],
    "figure1": CLI + ["figure", "--which", "1"],
    "figure2": CLI + ["figure", "--which", "2"],
    "figure3": CLI + ["figure", "--which", "3"],
    "compare": CLI + ["compare", "--alpha", "2", "--beta", "5"],
    "exact-m2n2t3": CLI + ["exact", "--m", "2", "--n", "2", "--t", "3", "--rho", "10",
                           "--mc-samples", "20000"],
    "exact-m1n2t5": CLI + ["exact", "--m", "1", "--n", "2", "--t", "5", "--rho", "5"],
}

# selftest prints each criterion's seconds and their total
_TIMINGS = re.compile(rb"\[\d+\.\ds\]|in \d+\.\ds")


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def tree_identity(tree: Path) -> dict:
    """The tree's commit, whether src/ or tests/ differ from it, and the
    sha256 of its src/ files."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes())
    short = git(tree, "rev-parse", "--short", "HEAD")
    dirty = bool(git(tree, "status", "--porcelain", "--", "src", "tests"))
    return {"label": short + ("-dirty" if dirty else ""), "commit": git(tree, "rev-parse", "HEAD"),
            "dirty": dirty, "src_sha256": digest.hexdigest()}


def child_env(tree: Path, **extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_VERBOSE"}
    return {**env, "PYTHONPATH": str(tree / "src"), **extra}


def environment(tree: Path) -> dict:
    """CPU, BLAS kernel, core count and library versions of the runs."""
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, text=True,
                           env=child_env(tree, OPENBLAS_VERBOSE="2"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "openblas_kernel": probe.stderr.strip(),
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        **{name: metadata.version(name) for name in ("numpy", "scipy", "mpmath", "pytest")},
    }


def run_once(tree: Path, name: str) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(COMMANDS[name], cwd=tree, env=child_env(tree), capture_output=True,
                          timeout=1800)
    wall = time.perf_counter() - start
    out = _TIMINGS.sub(b"[masked]", proc.stdout) if name == "selftest" else proc.stdout
    # tier-1's last line counts the outcomes; its time is dropped
    last = (proc.stdout.decode().strip().splitlines() or [""])[-1]
    return {"wall_s": wall, "exit": proc.returncode, "stdout_sha256": hashlib.sha256(out).hexdigest(),
            "summary": re.sub(r" in [\d.]+s\b", "", last)}


def summarize(name: str, runs: list) -> dict:
    walls = [r["wall_s"] for r in runs]
    q1, median, q3 = (float(v) for v in np.percentile(walls, [25, 50, 75]))
    row = {"argv": " ".join(COMMANDS[name][1:]), "median_s": median, "q1_s": q1, "q3_s": q3,
           "runs_s": walls, "exit_codes": sorted({r["exit"] for r in runs})}
    if name == "tier1":
        row["summaries"] = sorted({r["summary"] for r in runs})
    elif name != "import":
        row["stdout_sha256"] = sorted({r["stdout_sha256"] for r in runs})
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="source checkouts to measure")
    parser.add_argument("--reps", type=int, default=5, help="repetitions per command and tree")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    trees = [tree.resolve() for tree in args.trees]
    ids = [tree_identity(tree) for tree in trees]
    runs = {(t, name): [] for t in range(len(trees)) for name in COMMANDS}
    for rep in range(args.reps):
        order = range(len(trees)) if rep % 2 == 0 else range(len(trees) - 1, -1, -1)
        for name in COMMANDS:
            for t in order:
                runs[t, name].append(run_once(trees[t], name))
                print(f"rep {rep + 1}/{args.reps} {ids[t]['label']} {name} "
                      f"{runs[t, name][-1]['wall_s']:.2f}s", file=sys.stderr)
    measured = datetime.now(timezone.utc).isoformat(timespec="seconds")
    for t, tree in enumerate(trees):
        record = {**ids[t], "measured": measured, "reps": args.reps,
                  "compared_with": [i["label"] for k, i in enumerate(ids) if k != t],
                  "environment": environment(tree),
                  "commands": {name: summarize(name, runs[t, name]) for name in COMMANDS}}
        path = ROOT / f"BENCH_{ids[t]['label']}.json"
        path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
