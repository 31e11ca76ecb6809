"""What ``import hytrex`` executes.  The CLI's polynomial subcommands need
neither the check suite, the surgeries nor the family generators, and no
module of the package, the check suite included, loads ``dataclasses``;
each check runs in a fresh interpreter, since the test session has
imported everything already."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

K33 = {"v": ["a", "b", "c"], "e": ["x", "y", "z"],
       "adj": [[v, e] for v in "abc" for e in "xyz"]}

CLI_FOOTPRINT = """
import json, sys, types
import hytrex.cli
hytrex.cli.build_parser()
code = hytrex.cli.main(["interior", sys.argv[1]])
print(json.dumps({
    "code": code,
    "loaded": sorted(m for m in ("dataclasses", "hytrex.canonical") if m in sys.modules),
    "executed": sorted(m for m in ("hytrex.families", "hytrex.transforms", "hytrex.verify")
                       if type(sys.modules[m]) is types.ModuleType),
}))
"""

PACKAGE_FOOTPRINT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hytrex
from tracer import COUNTERS, SPANS
traced = {module for module, *_ in [*SPANS.values(), *COUNTERS.values()]}
missing = sorted(m for m in traced if "hytrex." + m not in sys.modules)
from hytrex import FamilySpec, run_all_checks
print(json.dumps({
    "missing": missing,
    "resolved": [FamilySpec is sys.modules["hytrex.families"].FamilySpec,
                 run_all_checks is sys.modules["hytrex.verify"].run_all_checks],
    "dataclasses": "dataclasses" in sys.modules,
}))
"""


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_interior_runs_without_checks_surgeries_families_or_dataclasses(tmp_path):
    path = tmp_path / "k33.json"
    path.write_text(json.dumps(K33))
    report = _run(CLI_FOOTPRINT, str(path))
    assert report == {"code": 0, "loaded": [], "executed": []}


def test_package_binds_every_traced_module_and_resolves_lazy_names():
    report = _run(PACKAGE_FOOTPRINT, str(ROOT / "perfbench"))
    assert report == {"missing": [], "resolved": [True, True], "dataclasses": False}
