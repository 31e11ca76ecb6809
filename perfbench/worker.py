"""One pass of one workload, in the fresh interpreter this script starts.

    python3 perfbench/worker.py WORKLOAD SEED T0 [--setup-only | --trace | --shim | --breakdown]

T0 is the parent's ``time.monotonic()`` just before it started this process,
so ``setup_s`` runs from interpreter start to the start of the measured
phase.  A fresh interpreter per pass keeps the enumeration cache and the
``mu_table`` slots cold, as every CLI and ``verify`` user finds them.

Prints one JSON line: ``setup_s``, ``wall_s``, ``items`` (ms per item),
``attempted`` (outputs checked), ``failures``, ``rss_mb`` and workload
extras; ``--trace`` adds the tracer's aggregates.  On ``cli``, ``--trace``
runs every call through ``clishim.py`` with the tracer, and ``--shim`` runs
them through it without, as the untraced twin of a traced pass.
``--breakdown`` instead runs each CLI case once through ``clishim.py`` and
reports its interpreter, import and main seconds.
"""

import json
import resource
import sys
import time


def _cli_shim(calls, out_path, trace):
    """Run the cli calls through the shim, reading the record every call
    leaves behind; with ``trace``, merge the tracer's aggregates of them."""
    import tracer
    import workloads

    reports = []

    def collect():
        with open(out_path, encoding="utf-8") as fh:
            record = json.load(fh)
        if trace:
            reports.append(record["trace"])

    prefix = [sys.executable, str(workloads.SHIM), *(["--trace"] if trace else []),
              "--out", out_path, "--"]
    items, failures, extra = workloads.cli_measure(calls, prefix, collect)
    return items, failures, extra, tracer.merge(reports) if trace else None


def _breakdown():
    import workloads

    out_path = str(workloads.WORK / "breakdown.json")
    env = workloads.cli_env()
    phases = {"interpreter_s": [], "import_s": [], "main_s": []}
    failures = []
    workloads.write_cli_inputs()
    for case in json.loads(workloads.CLI_FILE.read_text()):
        prefix = [sys.executable, str(workloads.SHIM), "--t0", repr(time.monotonic()),
                  "--out", out_path, "--"]
        _, failure = workloads.run_cli_call(case, prefix, env)
        if failure:
            failures.append(failure)
        with open(out_path, encoding="utf-8") as fh:
            record = json.load(fh)
        for key in phases:
            phases[key].append(record[key])
    return {"phases": phases, "failures": failures}


def main() -> int:
    workload, seed, t0 = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    mode = sys.argv[4] if len(sys.argv) > 4 else None
    import workloads

    if mode == "--breakdown":
        print(json.dumps(_breakdown()))
        return 0

    import hytrex  # noqa: F401  (part of set-up, whatever the workload)

    trace = None
    if mode == "--trace" and workload != "cli":
        import tracer

        trace = tracer.Tracer()
        trace.install()
    inputs = workloads.SETUP[workload](seed)
    begin = time.monotonic()
    result = {"setup_s": begin - t0}
    if mode == "--setup-only":
        print(json.dumps(result))
        return 0

    raw = None
    if mode in ("--trace", "--shim") and workload == "cli":
        items, failures, extra, raw = _cli_shim(inputs, str(workloads.WORK / "trace.json"),
                                                mode == "--trace")
    else:
        items, failures, extra = workloads.MEASURE[workload](inputs)
    result["wall_s"] = time.monotonic() - begin
    if trace is not None:
        raw = trace.report()
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    result["rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    result.update(items=items, attempted=extra.pop("attempted", len(items)),
                  failures=failures, extra=extra)
    if raw is not None:
        result["trace"] = raw
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
