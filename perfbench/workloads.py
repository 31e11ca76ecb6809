"""Inputs, measured phases and output checks of the three workloads.

Each workload has a ``*_setup(seed)`` that builds its inputs (this is the
``setup_s`` phase, after ``import hytrex``) and a ``*_measure(inputs)`` that
runs them closed-loop, one client, and returns ``(items, failures, extra)``:
``items`` the latency in ms of every item, ``failures`` one line per failed
output, ``extra`` workload-specific figures (``attempted`` there when the
outputs checked are not the items timed).  Importing this module puts the
checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
POOL_FILE = HERE / "data" / "polys_pool.json"
CLI_FILE = HERE / "data" / "cli_cases.json"
SHIM = HERE / "clishim.py"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# ---------------------------------------------------------------------------
# polys: one library user asking for the polynomials of mid-sized graphs
# ---------------------------------------------------------------------------

# Named families with closed forms; every run of every seed includes them.
POLYS_FAMILIES = (
    ("ladder", (10,)),
    ("ladder", (11,)),
    ("complete_bipartite", (6, 7)),
    ("cycle", (16,)),
    ("kmn_minus_matching", (6, 7, 3)),
)


def graph_from_masks(n_v: int, masks):
    """The graph ``random_connected_bipartite`` builds from these masks."""
    from hytrex import build_bipartite

    v_names = [f"v{i + 1}" for i in range(n_v)]
    e_names = [f"e{j + 1}" for j in range(len(masks))]
    pairs = [(v_names[v], e_names[e]) for e, mask in enumerate(masks)
             for v in range(n_v) if mask >> v & 1]
    return build_bipartite(v_names, e_names, pairs)


def polys_choice(seed: int):
    """The pool's strata and the index this seed draws from each."""
    strata = json.loads(POOL_FILE.read_text())["strata"]
    rng = random.Random(f"{seed}:polys")
    return strata, [rng.randrange(len(stratum)) for stratum in strata]


def polys_setup(seed: int):
    from hytrex import IntPoly
    from hytrex.families import (FamilySpec, closed_form_exterior,
                                 closed_form_interior, generate)

    strata, picks = polys_choice(seed)
    items = []
    for pick, stratum in zip(picks, strata):
        entry = stratum[pick]
        items.append((f"pool n_v={entry['n_v']} masks={entry['masks']}",
                      graph_from_masks(entry["n_v"], entry["masks"]),
                      IntPoly(entry["interior"]), IntPoly(entry["exterior"])))
    for tag, params in POLYS_FAMILIES:
        spec = FamilySpec(tag, params)
        items.append((f"{tag}{params}", generate(spec),
                      closed_form_interior(spec), closed_form_exterior(spec)))
    random.Random(f"{seed}:polys-order").shuffle(items)
    return items


def polys_measure(items):
    from hytrex import enumerate_hypertrees, exterior_polynomial, interior_polynomial

    clock = time.perf_counter
    latencies, failures = [], []
    for name, g, want_i, want_x in items:
        start = clock()
        try:
            b = enumerate_hypertrees(g)
            got_i = interior_polynomial(g, hypertrees=b)
            got_x = exterior_polynomial(g, hypertrees=b)
        except Exception as exc:  # an unexpected exception is a failed item
            latencies.append((clock() - start) * 1000)
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        latencies.append((clock() - start) * 1000)
        if got_i != want_i or got_x != want_x:
            failures.append(f"{name}: I={got_i.to_json()} X={got_x.to_json()}, "
                            f"expected I={want_i.to_json()} X={want_x.to_json()}")
    return latencies, failures, {}


# ---------------------------------------------------------------------------
# verify: the equivalent of `hytrex verify all --seed 7`
# ---------------------------------------------------------------------------

VERIFY_SEED = 7
# Instance counts of the nine checks at seed 7 on the seed code.
VERIFY_INSTANCES = {
    "enumeration_oracles": 1959,
    "interpolating": 3918,
    "degree_bounds": 1959,
    "linear_coefficients": 1959,
    "invariance": 41140,
    "recursions": 8647,
    "monic_ear": 191,
    "tutte": 56,
    "negative_controls": 3,
}
VERIFY_CORPUS = 1959


def verify_setup(seed: int):
    # The suite's own seed is fixed: the workload is `verify all --seed 7`,
    # whose instance counts are checked.  The run seed does not change it.
    return VERIFY_SEED


def verify_measure(verify_seed: int):
    """One item per pass: the whole suite, corpus included, to its verdict.
    The corpus and each check are checked as ten separate outputs."""
    from hytrex import verify

    clock = time.perf_counter
    failures, extra = [], {"checks": {}, "attempted": 1 + len(VERIFY_INSTANCES)}
    start = clock()
    corpus = verify.default_corpus(seed=verify_seed)
    mark = clock()
    extra["corpus_graphs"] = len(corpus)
    if len(corpus) != VERIFY_CORPUS:
        failures.append(f"corpus has {len(corpus)} graphs, expected {VERIFY_CORPUS}")

    def progress(report):
        nonlocal mark
        now = clock()
        extra["checks"][report.name] = {"s": now - mark, "instances": report.instances}
        mark = now
        want = VERIFY_INSTANCES.get(report.name)
        if not report.passed:
            failures.append(f"{report.name}: failed: {report.counterexample}")
        elif report.instances != want:
            failures.append(f"{report.name}: {report.instances} instances, expected {want}")

    error = "no report"
    try:
        verify.run_all_checks(seed=verify_seed, corpus=corpus, progress=progress)
    except Exception as exc:  # the suite must reach a verdict
        error = f"suite raised {type(exc).__name__}: {exc}"
    latencies = [(clock() - start) * 1000]
    failures += [f"{name}: {error}" for name in VERIFY_INSTANCES
                 if name not in extra["checks"]]
    return latencies, failures, extra


# ---------------------------------------------------------------------------
# cli: sequential `hytrex` processes on small inputs
# ---------------------------------------------------------------------------

# (argv, expected exit code).  "{work}" is the directory the set-up writes the
# input files into.  No call passes --max-e: in-process main() would write it
# into os.environ.
CLI_CALLS = (
    (["interior", "family", "cycle", "5"], 0),
    (["interior", "family", "ladder", "4", "--json"], 0),
    (["interior", "{work}/k33.json"], 0),
    (["interior", "{work}/cycle6.json", "--order", "e3,e1,e2"], 0),
    (["exterior", "family", "complete_bipartite", "3", "4"], 0),
    (["exterior", "{work}/k23.json", "--hyperedges", "v"], 0),
    (["exterior", "{work}/ladder4.json", "--json"], 0),
    (["hypertrees", "family", "complete_bipartite", "2", "3"], 0),
    (["hypertrees", "{work}/cycle6.json", "--json"], 0),
    (["hypertrees", "{work}/k23.json", "--order", "e3,e2,e1"], 0),
    (["tutte", "{work}/triangle.json"], 0),
    (["tutte", "{work}/k4.json", "--json"], 0),
    (["tutte", "family", "cycle", "3"], 0),
    (["tutte", "{work}/k23.json"], 0),
    (["family", "ladder", "3"], 0),
    (["family", "tree", "6", "--seed", "3"], 0),
    (["family", "kmn_minus_matching", "3", "4", "2"], 0),
    (["transform", "{work}/cycle6.json", "--op", "contract", "--vertex", "e1"], 0),
    (["transform", "{work}/k33.json", "--op", "dual"], 0),
    (["transform", "{work}/k23.json", "--op", "add-parallel", "--pair", "e1,e2",
      "--count", "2"], 0),
    (["transform", "{work}/ladder4.json", "--op", "delete", "--vertex", "u1_1"], 0),
    (["interior", "{work}/disconnected.json"], 2),
    (["interior", "{work}/malformed.json"], 2),
    (["interior", "family", "nosuch", "3"], 2),
    (["transform", "{work}/cycle6.json", "--op", "delete"], 2),
    (["exterior", "{work}/missing.json"], 2),
    (["interior", "--bogus"], 2),
    (["hypertrees", "{work}/unknown_key.json"], 2),
)
# Every case runs this many times per pass, in an order drawn from the seed.
CLI_REPEATS = 4


def resolve_argv(argv):
    work = os.path.relpath(WORK, ROOT)
    return [a.replace("{work}", work) for a in argv]


def write_cli_inputs() -> None:
    """The JSON input files of the cli workload, built with hytrex itself."""
    from hytrex import graph_to_json
    from hytrex.families import FamilySpec, generate

    WORK.mkdir(exist_ok=True)
    graphs = {
        "k33": FamilySpec("complete_bipartite", (3, 3)),
        "k23": FamilySpec("complete_bipartite", (2, 3)),
        "cycle6": FamilySpec("cycle", (3,)),
        "ladder4": FamilySpec("ladder", (4,)),
    }
    files = {name: graph_to_json(generate(spec)) for name, spec in graphs.items()}
    files["triangle"] = {"vertices": ["a", "b", "c"],
                         "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}
    files["k4"] = {"vertices": ["a", "b", "c", "d"],
                   "edges": [[x, y] for i, x in enumerate("abcd") for y in "abcd"[i + 1:]]}
    files["disconnected"] = {"v": ["v1", "v2"], "e": ["e1", "e2"],
                             "adj": [["v1", "e1"], ["v2", "e2"]]}
    files["unknown_key"] = dict(files["k23"], extra=1)
    for name, data in files.items():
        (WORK / f"{name}.json").write_text(json.dumps(data))
    (WORK / "malformed.json").write_text('{"v": ["v1"], "e": ')
    (WORK / "missing.json").unlink(missing_ok=True)


def cli_setup(seed: int):
    write_cli_inputs()
    cases = json.loads(CLI_FILE.read_text())
    calls = [case for case in cases for _ in range(CLI_REPEATS)]
    random.Random(f"{seed}:cli").shuffle(calls)
    return calls


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli_call(case, prefix, env):
    """Run one case with ``prefix`` (the interpreter and how it reaches
    hytrex.cli); returns (latency ms, failure line or None)."""
    argv = resolve_argv(case["argv"])
    start = time.perf_counter()
    proc = subprocess.run(prefix + argv, cwd=ROOT, env=env, capture_output=True)
    ms = (time.perf_counter() - start) * 1000
    want = case["stdout"].encode()
    if proc.returncode != case["exit"] or proc.stdout != want:
        return ms, (f"{' '.join(case['argv'])}: exit {proc.returncode} "
                    f"(expected {case['exit']}), stdout {proc.stdout[:200]!r} "
                    f"(expected {want[:200]!r})")
    return ms, None


def cli_measure(calls, prefix=None, after_call=None):
    """Run the calls one after another; ``after_call`` runs after each one,
    outside its latency."""
    prefix = prefix or [sys.executable, "-m", "hytrex.cli"]
    env = cli_env()
    latencies, failures = [], []
    for case in calls:
        ms, failure = run_cli_call(case, prefix, env)
        latencies.append(ms)
        if failure:
            failures.append(failure)
        if after_call is not None:
            after_call()
    return latencies, failures, {}


SETUP = {"polys": polys_setup, "verify": verify_setup, "cli": cli_setup}
MEASURE = {"polys": polys_measure, "verify": verify_measure, "cli": cli_measure}
