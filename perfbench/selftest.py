"""Self-test of the benchmark: counts are deterministic, seeds matter.

    python3 perfbench/selftest.py

1. Two traced runs of each workload with the same seed give identical
   values for every per-layer count and ratio (``*.calls``, ``*.instances``,
   ``activity.probes``, ``*.yield`` and the like); only times may differ.
2. The same seed draws the same ``polys`` graphs, and another seed draws
   different ones, so a claim can be confirmed on a seed not used while
   the change was written.

Every workload runs at seed ``SEED``; the seed test compares it with
``SEED + 1``.  Exits 1 on the first failed test.  Takes about two traced
runs per workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def traced_metrics(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_counts(workload: str, seed: int) -> list[str]:
    first, second = traced_metrics(workload, seed), traced_metrics(workload, seed)
    exact = [name for name, unit in run.metric_units("per_layer").items()
             if unit in ("count", "ratio")]
    return [f"{workload}: {name} {first[name]} then {second[name]}"
            for name in exact if first[name] != second[name]]


def check_seeds(seed: int) -> list[str]:
    problems = []
    if workloads.polys_choice(seed)[1] != workloads.polys_choice(seed)[1]:
        problems.append(f"polys: seed {seed} drew different graphs twice")
    if workloads.polys_choice(seed)[1] == workloads.polys_choice(seed + 1)[1]:
        problems.append(f"polys: seeds {seed} and {seed + 1} drew the same graphs")
    return problems


def main() -> int:
    problems = check_seeds(SEED)
    for workload in run.WORKLOADS:
        if not problems:
            problems += check_counts(workload, SEED)
            print(f"{workload}: counts compared", flush=True)
    for line in problems:
        print(f"FAILED {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
