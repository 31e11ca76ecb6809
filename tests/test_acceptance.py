"""Acceptance criteria, one test per criterion, each printing a verdict line.

Verdict lines are written to the real stdout so they stay visible under
pytest's output capture.
"""

import json
import sys
import time
from math import comb
from pathlib import Path

import pytest

from hytrex.families import FamilySpec, generate
from hytrex.hypertrees import enumerate_hypertrees, hypertrees_by_brute_force
from hytrex.poly import (
    IntPoly,
    exterior_from_tutte,
    exterior_polynomial,
    interior_from_tutte,
    interior_polynomial,
    is_interpolating,
    subdivision,
)
from hytrex.hypertrees import is_hypertree_by_polymatroid, is_hypertree_by_tree_search
from hytrex.verify import default_corpus, run_all_checks, tutte_graph_corpus

SEED = 7


@pytest.fixture(scope="module")
def corpus():
    return default_corpus(seed=SEED)


def _verdict(number, label, elapsed):
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s",
          file=sys.__stdout__)


def test_criterion_1_cycle_closed_forms():
    start = time.perf_counter()
    for n in range(2, 8):
        g = generate(FamilySpec("cycle", (n,)))
        b = enumerate_hypertrees(g)
        assert interior_polynomial(g, hypertrees=b) == IntPoly([1] * n)
        assert exterior_polynomial(g, hypertrees=b) == IntPoly([1, n - 1])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"cycle regression took {elapsed:.2f}s, budget 1s"
    _verdict(1, "cycles C_2n for n = 2..7, exact closed forms, < 1s", elapsed)


def test_criterion_2_complete_bipartite_table():
    start = time.perf_counter()
    for m in range(2, 5):
        for n in range(m, 6):
            g = generate(FamilySpec("complete_bipartite", (m, n)))
            b = enumerate_hypertrees(g)
            expected_i = IntPoly([comb(n - 1, i) * comb(m - 1, i) for i in range(m)])
            expected_x = IntPoly([comb(m + i - 2, i) if m + i - 2 >= i else 0
                                  for i in range(n)])
            assert interior_polynomial(g, hypertrees=b) == expected_i
            assert exterior_polynomial(g, hypertrees=b) == expected_x
    g33 = generate(FamilySpec("complete_bipartite", (3, 3)))
    assert interior_polynomial(g33) == IntPoly([1, 4, 1])
    assert exterior_polynomial(g33) == IntPoly([1, 2, 3])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"complete bipartite table took {elapsed:.2f}s, budget 60s"
    _verdict(2, "complete bipartite table 2<=m<=4, m<=n<=5, < 60s", elapsed)


def test_criterion_3_matching_deleted_consistency():
    start = time.perf_counter()
    g = generate(FamilySpec("kmn_minus_matching", (3, 3, 3)))
    hexagon = generate(FamilySpec("cycle", (3,)))
    assert interior_polynomial(g) == IntPoly([1, 1, 1]) == interior_polynomial(hexagon)
    assert exterior_polynomial(g) == IntPoly([1, 2]) == exterior_polynomial(hexagon)
    _verdict(3, "K_3,3 minus a perfect matching matches the hexagon exactly",
             time.perf_counter() - start)


def test_criterion_4_ladder_identity():
    start = time.perf_counter()
    for n in range(1, 7):
        g = generate(FamilySpec("ladder", (n,)))
        b = enumerate_hypertrees(g)
        binomial = IntPoly([1, 1]) ** n
        assert interior_polynomial(g, hypertrees=b) == binomial
        assert exterior_polynomial(g, hypertrees=b) == binomial
    _verdict(4, "ladders n <= 6 give (1+x)^n and (1+y)^n exactly",
             time.perf_counter() - start)


def test_criterion_5_tutte_cross_check():
    start = time.perf_counter()
    graphs = tutte_graph_corpus(seed=SEED)
    assert all(len(mg.edges) <= 7 for mg in graphs)
    for mg in graphs:
        bip = subdivision(mg)
        b = enumerate_hypertrees(bip)
        assert interior_polynomial(bip, hypertrees=b) == interior_from_tutte(mg)
        assert exterior_polynomial(bip, hypertrees=b) == exterior_from_tutte(mg)
    _verdict(5, f"Tutte specializations on {len(graphs)} graphs, zero tolerance",
             time.perf_counter() - start)


def test_criterion_6_theorem_suite(corpus):
    # The corpus and orders are those of ``hytrex verify all --seed 7``, so
    # every report must be the one that command's pinned output records.
    pinned = json.loads((Path(__file__).resolve().parent / "data"
                         / "verify_all_seed7.json").read_text())["checks"]
    start = time.perf_counter()
    reports = run_all_checks(seed=SEED, corpus=corpus, orders_per_graph=20)
    for report in reports:
        assert report.passed, (report.name, report.counterexample)
    assert [r.to_json() for r in reports] == pinned
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"theorem suite took {elapsed:.2f}s, budget 600s"
    total = sum(r.instances for r in reports)
    _verdict(6, f"theorem suite, {len(reports)} checks, {total} instances, "
                f"{len(corpus)} graphs, < 10min", elapsed)


def test_criterion_7_oracle_equivalence_gate(corpus):
    start = time.perf_counter()
    for g in corpus:
        bfs = enumerate_hypertrees(g)
        assert bfs == hypertrees_by_brute_force(g, "tree"), \
            f"transfer closure diverges from brute force on {g!r}"
        assert bfs == hypertrees_by_brute_force(g, "polymatroid"), \
            f"polymatroid filter diverges on {g!r}"
    _verdict(7, f"oracle equivalence gate over all {len(corpus)} corpus graphs",
             time.perf_counter() - start)


def test_criterion_8_negative_controls():
    start = time.perf_counter()
    # corrupted polynomial: a gap in the support must be flagged
    assert not is_interpolating(IntPoly([1, 0, 1]))
    # corrupted hypertree: both membership oracles must reject it
    hexagon = generate(FamilySpec("cycle", (3,)))
    assert not is_hypertree_by_tree_search(hexagon, (0, 0, 2))
    assert not is_hypertree_by_polymatroid(hexagon, (0, 0, 2))
    # and the packaged control check must confirm all controls are caught
    report, = run_all_checks(corpus=(), names=("negative_controls",))
    assert report.passed, report.counterexample
    _verdict(8, "corrupted fixtures fail their checks", time.perf_counter() - start)
