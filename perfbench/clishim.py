"""Run ``hytrex.cli.main(argv)`` in this fresh process and time its phases.

    python3 perfbench/clishim.py --out FILE [--t0 T] [--trace] -- ARGV...

Writes to FILE: ``interpreter_s`` (from T, the parent's ``time.monotonic()``
just before it started this process, to the first statement here),
``import_s`` (``import hytrex.cli``) and ``main_s`` (``main(argv)``), and
with ``--trace`` the tracer's aggregates.  Stdout and the exit code are
those of ``main``, so outputs can be checked as for ``python -m hytrex.cli``.
"""

import time

_START = time.monotonic()

import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    args = sys.argv[1:]
    sep = args.index("--")
    opts, argv = args[:sep], args[sep + 1:]
    out = opts[opts.index("--out") + 1]
    t0 = float(opts[opts.index("--t0") + 1]) if "--t0" in opts else _START
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

    tick = time.monotonic()
    import hytrex.cli
    imported = time.monotonic()
    tracer = None
    if "--trace" in opts:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    begun = time.monotonic()
    try:
        code = hytrex.cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    sys.stdout.flush()
    ended = time.monotonic()

    import json

    record = {"interpreter_s": _START - t0, "import_s": imported - tick,
              "main_s": ended - begun}
    if tracer is not None:
        record["trace"] = tracer.report()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
