"""Write the committed reference data the benchmark checks outputs against.

    python3 perfbench/make_reference.py

``data/polys_pool.json``: a pool of seeded random connected bipartite graphs
with 15 <= |V|+|E| <= 18, each with its interior and exterior polynomial.
Every reference set is cross-checked here, once, against the brute-force box
scan (``hypertrees_by_brute_force``): the polynomials computed from the
brute-force set must equal those computed from the transfer-closure set.
The pool is sorted by cost and cut into strata.  The cost of a graph is
the number of Python and C function calls its enumeration and polynomials
make: an exact count, so a rewrite gives the same file, and one that tracks
their time far better than the tree searches or hypertrees alone.  A run
of the ``polys`` workload draws one graph per stratum from its seed, so
every seed sees the same spread of cheap and expensive graphs.

``data/cli_cases.json``: the ``hytrex`` invocations of the ``cli`` workload
with the stdout and exit code of each, recorded from the current code.
Polynomial outputs of family inputs are cross-checked against the closed
forms before they are written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (puts the checkout's src/ on sys.path)

from hytrex import (  # noqa: E402
    enumerate_hypertrees,
    exterior_polynomial,
    hypertrees_by_brute_force,
    interior_polynomial,
)
from hytrex.families import (  # noqa: E402
    closed_form_exterior,
    closed_form_interior,
    spec_from_cli,
)
from hytrex.verify import random_connected_bipartite  # noqa: E402

POOL_SEED = 2013
POOL_DRAWS = 2000
POOL_SIZE = 210
# The most expensive graphs of the pool are drawn by every seed (strata of
# one); the rest form strata of STRATUM consecutive graphs by cost.
ALWAYS = 4
STRATUM = 2


def _counting_calls(fn):
    """``fn()`` and the number of Python and C function calls it made."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def _polys_item(g):
    b = enumerate_hypertrees(g)
    return b, interior_polynomial(g, hypertrees=b), exterior_polynomial(g, hypertrees=b)


def _pool_entries():
    drawn = random_connected_bipartite(POOL_DRAWS, max_total=18, seed=POOL_SEED)
    seen, entries = set(), []
    for g in drawn:
        key = (g.n_v, g.e_masks)
        if not 15 <= g.n_v + g.n_e <= 18 or key in seen:
            continue
        seen.add(key)
        (b, interior, exterior), cost = _counting_calls(lambda: _polys_item(g))
        brute = hypertrees_by_brute_force(g, "tree")
        if (interior_polynomial(g, hypertrees=brute) != interior
                or exterior_polynomial(g, hypertrees=brute) != exterior
                or brute != b):
            raise SystemExit(f"brute-force oracle disagrees on {key}")
        entries.append({"n_v": g.n_v, "masks": list(g.e_masks),
                        "hypertrees": len(b), "interior": interior.to_json(),
                        "exterior": exterior.to_json(), "calls": cost})
        if len(entries) == POOL_SIZE:
            break
    return entries


def write_pool() -> None:
    entries = sorted(_pool_entries(), key=lambda e: -e["calls"])
    strata = [[e] for e in entries[:ALWAYS]]
    rest = entries[ALWAYS:]
    strata += [rest[i:i + STRATUM] for i in range(0, len(rest), STRATUM)]
    out = {"pool_seed": POOL_SEED, "draws": POOL_DRAWS, "strata": strata}
    workloads.POOL_FILE.write_text(json.dumps(out, separators=(",", ":")) + "\n")
    print(f"wrote {len(entries)} graphs in {len(strata)} strata to {workloads.POOL_FILE}")


def _closed_form_stdout(argv) -> str | None:
    """Expected stdout of an interior/exterior call on a family input."""
    if argv[0] not in ("interior", "exterior") or argv[1] != "family":
        return None
    spec = spec_from_cli(argv[2], [a for a in argv[3:] if not a.startswith("--")])
    if argv[0] == "interior":
        poly, var = closed_form_interior(spec), "x"
    else:
        poly, var = closed_form_exterior(spec), "y"
    text = json.dumps(poly.to_json()) if "--json" in argv else poly.render(var)
    return text + "\n"


def write_cli_cases() -> None:
    workloads.write_cli_inputs()
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    cases = []
    for argv, exit_code in workloads.CLI_CALLS:
        resolved = workloads.resolve_argv(argv)
        proc = subprocess.run([sys.executable, "-m", "hytrex.cli", *resolved],
                              cwd=workloads.ROOT, env=env, capture_output=True)
        if proc.returncode != exit_code:
            raise SystemExit(f"{argv}: exit {proc.returncode}, expected {exit_code}: "
                             f"{proc.stderr.decode()}")
        stdout = proc.stdout.decode()
        expected = _closed_form_stdout(argv) if exit_code == 0 else None
        if expected is not None and stdout != expected:
            raise SystemExit(f"{argv}: {stdout!r} disagrees with the closed form "
                             f"{expected!r}")
        cases.append({"argv": argv, "exit": exit_code, "stdout": stdout})
    workloads.CLI_FILE.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cli cases to {workloads.CLI_FILE}")


if __name__ == "__main__":
    write_cli_cases()
    write_pool()
