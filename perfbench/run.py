"""hytrex benchmark: three workloads, end-to-end metrics, and a traced run
that breaks the time down by module.

    python3 perfbench/run.py --workload polys|verify|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; hytrex is imported from its ``src/``.  Every
pass of the measured phase runs in a fresh interpreter (``worker.py``), and
passes repeat while another one fits in ``--seconds`` (at least one runs).
Set-up is also timed in separate set-up-only interpreters, and ``setup_s``
is the median over all of them.

The metrics reported, and their units, are those BENCHMARK.json lists.
With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` each repetition is an untraced pass followed by a traced one,
and the result carries the per-layer metrics, ``trace.overhead_s`` (the
median over repetitions of traced minus untraced ``wall_s``) and the CLI
phase breakdown.  On ``cli`` both passes of a repetition go through
``clishim.py``, so the overhead is the tracer's alone.  The last line of
stdout is the JSON result; the lines before it are a readable summary that
also shows ``fail_frac`` and the sample counts.  The exit code is 1 when an
output check failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MANIFEST = ROOT / "BENCHMARK.json"
WORKLOADS = ("polys", "verify", "cli")
CHECKS = ("enumeration_oracles", "interpolating", "degree_bounds",
          "linear_coefficients", "invariance", "recursions", "monic_ear",
          "tutte", "negative_controls")
SETUP_PROBES = 24
WORKER_TIMEOUT = 170


def metric_units(kind: str) -> dict:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json defines; the run reports exactly these."""
    return {m["name"]: m["unit"] for m in json.loads(MANIFEST.read_text())[kind]}


class BenchError(Exception):
    """The benchmark itself could not run."""


def run_worker(workload: str, seed: int, mode: str | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    extra = [mode] if mode else []
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(start)] + extra, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode or 'pass'} ran past {WORKER_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode or 'pass'} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(items) -> float:
    """90th percentile; below ten items (one ``verify`` suite a pass) there
    is no tail to cut, and the largest item stands in."""
    return statistics.quantiles(items, n=10)[8] if len(items) >= 10 else max(items)


def end_to_end(passes, setups) -> dict:
    items = [ms for p in passes for ms in p["items"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_ms.p50": statistics.median(items),
        "item_ms.p90": p90(items),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(traced, untraced, breakdown, names) -> dict:
    def one(p):
        values = tracer.layer_metrics(p["trace"])
        checks = p["extra"].get("checks", {})
        values["verify.corpus.graphs"] = p["extra"].get("corpus_graphs", 0)
        for name in CHECKS:
            check = checks.get(name, {"s": 0.0, "instances": 0})
            values[f"verify.check.{name}.s"] = check["s"]
            values[f"verify.check.{name}.instances"] = check["instances"]
        return values

    each = [one(p) for p in traced]
    values = {name: statistics.median(v[name] for v in each) for name in each[0]}
    for key, samples in breakdown["phases"].items():
        values[f"cli.{key}"] = statistics.median(samples)
    values["trace.overhead_s"] = statistics.median(
        t["wall_s"] - u["wall_s"] for t, u in zip(traced, untraced))
    return {name: values[name] for name in names}


def measure(workload: str, seed: int, seconds: int, trace: bool):
    run_worker(workload, seed, "--setup-only")  # compiles bytecode; not counted
    setups = [run_worker(workload, seed, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    # A traced cli pass goes through clishim.py, so its untraced twin does too.
    plain = "--shim" if trace and workload == "cli" else None
    passes, traced = [], []
    start = time.monotonic()
    while True:
        passes.append(run_worker(workload, seed, plain))
        setups.append(passes[-1]["setup_s"])
        if trace:
            traced.append(run_worker(workload, seed, "--trace"))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    breakdown = run_worker(workload, seed, "--breakdown") if trace else None
    return passes, traced, setups, breakdown


def summary(workload, seed, passes, traced, setups, e2e, units, failures, attempted):
    n_items = sum(len(p["items"]) for p in passes)
    lines = [f"workload {workload}  seed {seed}  passes {len(passes)}"
             f"  traced passes {len(traced)}  set-up samples {len(setups)}"]
    tail = (f"{n_items - int(0.9 * n_items)} beyond" if n_items >= 10
            else "the largest")
    notes = {"item_ms.p50": f"{n_items} items", "item_ms.p90": f"{n_items} items, {tail}"}
    for name, unit in units.items():
        lines.append(f"  {name:<14} {e2e[name]:>14.6f} {unit:<5} {notes.get(name, '')}")
    lines.append(f"  {'fail_frac':<14} {len(failures) / attempted:>14.6f} ratio "
                 f"{len(failures)} of {attempted} outputs")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    needed = [MANIFEST, ROOT / "src" / "hytrex" / "__init__.py",
              HERE / "data" / "polys_pool.json", HERE / "data" / "cli_cases.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a hytrex checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    try:
        passes, traced, setups, breakdown = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    runs = passes + traced
    failures = [f for p in runs for f in p["failures"]]
    failures += breakdown["failures"] if breakdown else []
    attempted = sum(p["attempted"] for p in runs)
    attempted += len(breakdown["phases"]["main_s"]) if breakdown else 0
    e2e_units = metric_units("end_to_end")
    e2e = end_to_end(passes, setups)
    e2e = {name: e2e[name] for name in e2e_units}
    print(summary(args.workload, args.seed, passes, traced, setups, e2e, e2e_units,
                  failures, attempted))
    if args.trace:
        units = metric_units("per_layer")
        metrics = per_layer(traced, passes, breakdown, units)
        for name, value in metrics.items():
            print(f"  {name:<42} {value:>16.6f} {units[name]}")
    else:
        metrics, units = e2e, e2e_units
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
