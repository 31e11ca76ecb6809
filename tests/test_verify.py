"""The check suite itself: corpus construction, determinism, replay, and the
negative controls that prove the harness can fail."""

import inspect
import json
import textwrap
from pathlib import Path

import pytest

from hytrex.errors import GraphError
from hytrex.graph import BipGraph, graph_to_json
from hytrex.hypertrees import HypertreeSet, hypertrees_by_brute_force
from hytrex.poly import IntPoly
from hytrex.transforms import DecompositionTerm
from hytrex import hypertrees, transforms, verify
from hytrex.verify import (
    CENSUS_CAP,
    CHECK_NAMES,
    default_corpus,
    exhaustive_connected_bipartite,
    family_instances,
    random_connected_bipartite,
    replay_counterexample,
    run_all_checks,
    tutte_graph_corpus,
)
from conftest import cycle, sha256_json

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def small_corpus():
    return default_corpus(seed=5, max_total=6, random_count=5, random_max_total=9)


class TestCorpus:
    def test_census_is_deterministic_and_connected(self):
        a = exhaustive_connected_bipartite(6)
        b = exhaustive_connected_bipartite(6)
        assert [graph_to_json(g) for g in a] == [graph_to_json(g) for g in b]
        assert all(g.connected for g in a)

    def test_census_small_cells(self):
        # hand-countable cells: one star per (1, k), two graphs on (2, 2),
        # four on (2, 3)
        from collections import Counter

        cells = Counter((g.n_v, g.n_e) for g in exhaustive_connected_bipartite(5))
        assert cells[(1, 4)] == 1
        assert cells[(2, 2)] == 2
        assert cells[(2, 3)] == 4
        assert cells[(3, 2)] == 4

    def test_census_cells_share_label_tuples(self):
        graphs = exhaustive_connected_bipartite(6)
        first = {}
        for g in graphs:
            h = first.setdefault((g.n_v, g.n_e), g)
            assert g.v_names is h.v_names and g.e_names is h.e_names
        assert len({id(label) for g in graphs for label in g.v_names + g.e_names}) == 10

    def test_random_corpus_respects_caps_and_seed(self):
        a = random_connected_bipartite(count=8, max_total=10, seed=3)
        b = random_connected_bipartite(count=8, max_total=10, seed=3)
        c = random_connected_bipartite(count=8, max_total=10, seed=4)
        assert [graph_to_json(g) for g in a] == [graph_to_json(g) for g in b]
        assert [graph_to_json(g) for g in a] != [graph_to_json(g) for g in c]
        assert all(g.connected and g.n_v + g.n_e <= 10 for g in a)

    @pytest.mark.parametrize("call", [
        lambda: exhaustive_connected_bipartite(True),
        lambda: exhaustive_connected_bipartite(9.0),
        lambda: random_connected_bipartite(count=-1),
        lambda: random_connected_bipartite(count=2.0),
        lambda: random_connected_bipartite(count=True),
        lambda: random_connected_bipartite(max_total=1),
        lambda: random_connected_bipartite(seed=True),
        lambda: random_connected_bipartite(seed="1"),
        lambda: tutte_graph_corpus(seed=True),
    ], ids=["census-bool", "census-float", "count-negative", "count-float", "count-bool",
            "random-size", "seed-bool", "seed-str", "tutte-seed-bool"])
    def test_integer_arguments_are_ints_in_range(self, call):
        with pytest.raises(GraphError):
            call()

    @pytest.mark.parametrize("kwargs", [
        {"max_total": 1}, {"max_total": CENSUS_CAP + 1}, {"max_total": 12},
        {"max_total": True}, {"random_count": -1}, {"random_count": 2.0},
        {"random_max_total": 1}, {"seed": True}])
    def test_default_corpus_rejects_sizes_before_building_a_graph(self, monkeypatch,
                                                                  kwargs):
        def build(*args, **kwargs):
            raise AssertionError("no graph may be built for a rejected size")

        for name in ("exhaustive_connected_bipartite", "family_instances",
                     "_wilson_spanning_tree"):
            monkeypatch.setattr(verify, name, build)
        with pytest.raises(GraphError):
            default_corpus(**kwargs)

    def test_census_above_the_cap_is_rejected(self):
        with pytest.raises(GraphError, match="cap of 9"):
            default_corpus(max_total=CENSUS_CAP + 1)

    def test_family_instances_connected(self):
        instances = family_instances()
        assert all(g.connected for g in instances)
        assert len(instances) > 30

    def test_default_corpus_sorted_and_unique(self, small_corpus):
        sizes = [g.n_v + g.n_e for g in small_corpus]
        assert sizes == sorted(sizes)
        seen = set()
        for g in small_corpus:
            key = (g.v_names, g.e_names, g.adj)
            assert key not in seen
            seen.add(key)

    def test_tutte_corpus_within_caps(self):
        graphs = tutte_graph_corpus(seed=2)
        assert all(len(mg.edges) <= 7 and mg.connected for mg in graphs)

        def is_cycle(mg, k):
            degs = [0] * mg.n
            for u, v in mg.edges:
                degs[u] += 1
                degs[v] += 1
            return mg.n == k and len(mg.edges) == k and all(d == 2 for d in degs)

        # the named instances are present: triangle, K4, C5, paths
        assert any(is_cycle(mg, 3) for mg in graphs)
        assert any(is_cycle(mg, 5) for mg in graphs)
        assert any(mg.n == 4 and len(mg.edges) == 6 for mg in graphs)
        assert any(mg.n == 8 and len(mg.edges) == 7 for mg in graphs)


# sha256 of the JSON of each corpus (``json.dumps(..., sort_keys=True)``),
# recorded before the census moved from a minimum over all permutations to
# the table-driven canonical form; any exact canonical form keeps the same
# first graph of each class, so the corpora must not change.
CENSUS_SHA256 = {
    2: (1, "68246a044b772076899a40869f79ed9e085c53c37ac0e64d4216e23ce43e8476"),
    3: (3, "5d57335e786b59f364f67e6ab36472003cf9cddaa9aa81fa209c0244542af636"),
    4: (7, "12784d1ba2f8721aa885c78f13dc589a27dedba41aea0d248835f5998b715487"),
    5: (17, "0476dd2f84465e0a96313d54845b994460baaf9901dda2788f917ca4c6bc11d8"),
    6: (44, "14cbe333074ade52d7f7f01129f5fb2fe2553d8aa53e0cea0d77ee1f5d68c318"),
    7: (132, "f370ad5ed5fd9374720d350a1aae49c5043206df1344abf91b0898803890a5b8"),
    8: (460, "75cc54de991c5988e0a061632b30984a851882c83bb9ba7be9867cf84b6311dc"),
    9: (1920, "39cfcb2e3abb819d33dd330981517e864ccc6a39d17efc1a0ad4a93228b647f6"),
}
DEFAULT_CORPUS_SEED7_SHA256 = (
    1959, "669f8eee06f1fb9be2a0d6ea6f970bf70855c5296c1bb2435606371ccbbcdc46")
TUTTE_CORPUS_SEED7_SHA256 = (
    56, "03efa1ffadfe73837dcd3ceb91d37ab0dc35caa32da4e55957ef7319ab64e1c8")


class TestCorpusUnchanged:
    @pytest.mark.parametrize("max_total", sorted(CENSUS_SHA256))
    def test_census(self, max_total):
        census = exhaustive_connected_bipartite(max_total)
        got = (len(census), sha256_json([graph_to_json(g) for g in census]))
        assert got == CENSUS_SHA256[max_total]

    def test_default_corpus(self):
        corpus = default_corpus(seed=7)
        got = (len(corpus), sha256_json([graph_to_json(g) for g in corpus]))
        assert got == DEFAULT_CORPUS_SEED7_SHA256

    def test_tutte_corpus(self):
        corpus = tutte_graph_corpus(seed=7)
        got = (len(corpus),
               sha256_json([[mg.n, [list(e) for e in mg.edges]] for mg in corpus]))
        assert got == TUTTE_CORPUS_SEED7_SHA256


def _run(name, **options):
    """The report of the one check ``name`` over a corpus, made by
    run_all_checks with ``options`` (a ``corpus`` among them overrides)."""
    return lambda corpus: run_all_checks(
        **{"corpus": corpus, **options}, names=(name,))[0]


def _passing(name, corpus, instances):
    return {"name": name, "corpus": corpus, "instances": instances,
            "passed": True, "counterexample": None}


SMALL = "81 connected bipartite graphs, largest |V|+|E| = 16"
# Every report of run_all_checks(seed=5, corpus=small_corpus,
# orders_per_graph=5), recorded before each property got one instance
# function shared by the sweep and the replay; the verdicts, instance counts
# and corpus descriptions must not move.
SMALL_CORPUS_REPORTS = [
    _passing("enumeration_oracles", SMALL, 81),
    _passing("interpolating", SMALL, 162),
    _passing("degree_bounds", SMALL, 81),
    _passing("linear_coefficients", SMALL, 81),
    _passing("invariance", SMALL, 487),
    _passing("recursions", SMALL, 490),
    _passing("monic_ear", "15 seeded ear graphs + 81 corpus graphs", 48),
    _passing("tutte", "56 connected simple graphs with at most 7 edges", 56),
    _passing("negative_controls", "3 deliberately corrupted fixtures", 3),
]


class TestSuite:
    def test_all_checks_pass_on_small_corpus(self, small_corpus):
        reports = run_all_checks(seed=5, corpus=small_corpus, orders_per_graph=5)
        assert tuple(r.name for r in reports) == CHECK_NAMES
        assert [r.to_json() for r in reports] == SMALL_CORPUS_REPORTS

    def test_recursions_with_a_label_in_both_classes(self):
        # V-vertex "a" is a leaf and E-vertex "a" has valence 2.  The
        # surgeries resolve "a" to the V-vertex, so the check runs the
        # pendant removal at V-vertex "a" (which keeps E-vertex "a" and its
        # edges) and skips the E-vertex and the E-join at its first
        # hyperedge, which that label cannot reach.
        g = BipGraph(("a", "b"), ("a", "c"), [(0, 0), (1, 0), (1, 1)])
        report = _run("recursions")([g])
        assert (report.passed, report.instances) == (True, 7)

    def test_deterministic_given_corpus_and_seed(self, small_corpus):
        a = run_all_checks(seed=5, corpus=small_corpus, orders_per_graph=3)
        b = run_all_checks(seed=5, corpus=small_corpus, orders_per_graph=3)
        assert [r.to_json() for r in a] == [r.to_json() for r in b]

    def test_check_selection_and_unknown_name(self, small_corpus):
        reports = run_all_checks(seed=5, corpus=small_corpus,
                                 names=("interpolating", "linear_coefficients"))
        assert [r.name for r in reports] == ["interpolating", "linear_coefficients"]
        with pytest.raises(Exception):
            run_all_checks(seed=5, corpus=small_corpus, names=("nonsense",))

    def test_empty_selection_is_rejected(self, monkeypatch):
        # Only names=None means every check; an empty selection is an error
        # raised before the corpus is built.
        def build(*args, **kwargs):
            raise AssertionError("the corpus must not be built for no check")

        monkeypatch.setattr(verify, "default_corpus", build)
        for names in ((), []):
            with pytest.raises(GraphError, match="no check selected"):
                run_all_checks(corpus=(), names=names)
            with pytest.raises(GraphError, match="no check selected"):
                run_all_checks(names=names)

    def test_parameters(self):
        # Every corpus size belongs to default_corpus; the runner takes a corpus.
        params = inspect.signature(run_all_checks).parameters
        assert [(p.name, p.default) for p in params.values()] == [
            ("seed", 0), ("corpus", None), ("orders_per_graph", 20), ("names", None),
            ("progress", None)]

    @pytest.mark.parametrize("kwargs", [
        {"orders_per_graph": 0}, {"orders_per_graph": -1},
        {"orders_per_graph": True}, {"orders_per_graph": 2.0},
        {"seed": True}, {"seed": 1.0}, {"names": ("nonsense",)},
        {"names": "tutte"}])
    def test_bad_arguments_are_rejected_before_the_corpus_is_read(self, kwargs):
        started = []

        def corpus():
            started.append(True)
            yield cycle(2)

        with pytest.raises(GraphError):
            run_all_checks(corpus=corpus(), **kwargs)
        assert started == []
        report, = run_all_checks(corpus=corpus(), names=("degree_bounds",))
        assert (started, report.instances, report.passed) == ([True], 1, True)

    def test_names_must_be_a_sequence(self):
        with pytest.raises(GraphError, match="sequence of check names"):
            run_all_checks(corpus=(), names="tutte")

    def test_an_iterator_corpus_gives_the_reports_of_a_list(self, small_corpus):
        names = ("interpolating", "invariance", "recursions", "monic_ear")
        from_list = run_all_checks(seed=5, corpus=small_corpus, orders_per_graph=2,
                                   names=names)
        from_iterator = run_all_checks(seed=5, corpus=iter(small_corpus),
                                       orders_per_graph=2, names=names)
        assert [r.to_json() for r in from_iterator] == [r.to_json() for r in from_list]

    def test_seconds_are_recorded_but_not_serialised(self, small_corpus):
        seen = []
        reports = run_all_checks(seed=5, corpus=small_corpus,
                                 names=("interpolating",), progress=seen.append)
        assert seen == reports
        assert reports[0].seconds > 0
        assert "seconds" not in reports[0].to_json()
        with pytest.raises(AttributeError, match="cannot assign to field"):
            reports[0].seconds = 0.0

    def test_reports_serialize(self, small_corpus):
        reports = run_all_checks(seed=5, corpus=small_corpus,
                                 names=("enumeration_oracles",))
        text = json.dumps([r.to_json() for r in reports])
        assert json.loads(text)[0]["passed"] is True


class TestNegativeControls:
    def test_controls_are_detected(self):
        assert _run("negative_controls")(()).passed

    def test_corrupted_polynomial_fails_support_check(self, monkeypatch):
        # A gap, a zero constant term and the zero polynomial all fail the check.
        for coeffs in ([1, 0, 1], [0, 2, 5], []):
            monkeypatch.setattr(verify, "interior_polynomial",
                                lambda g, p=IntPoly(coeffs): p)
            assert not _run("interpolating")([cycle(2)]).passed
        # A support test that accepts everything lets the control leak.
        monkeypatch.setattr(verify, "is_interpolating", lambda p: True)
        report = _run("negative_controls")(())
        assert not report.passed
        assert report.counterexample["control"] == "corrupted_polynomial"

    def test_corrupted_hypertree_set_diverges_from_oracle(self):
        g = cycle(3)
        truth = hypertrees_by_brute_force(g, "tree")
        assert HypertreeSet(list(truth) + [(0, 0, 2)]) != truth
        assert HypertreeSet([f for f in truth if f != (0, 1, 1)]) != truth


class TestReplay:
    def test_replay_recomputes_from_the_graph(self):
        # the recorded polynomial has a gap, but the graph's does not
        ce = {"kind": "interpolating", "polynomial": [1, 0, 1],
              "graph": graph_to_json(cycle(3)), "which": "interior"}
        assert replay_counterexample(ce) is False

    def test_healthy_graph_does_not_reproduce_failure(self):
        g = cycle(3)
        ce = {"kind": "enumeration", "graph": graph_to_json(g)}
        assert replay_counterexample(ce) is False
        ce2 = {"kind": "degree_bound", "graph": graph_to_json(g)}
        assert replay_counterexample(ce2) is False
        ce3 = {"kind": "invariance", "mode": "order", "graph": graph_to_json(g),
               "order": [2, 0, 1]}
        assert replay_counterexample(ce3) is False

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError, match="cannot replay counterexample of kind"):
            replay_counterexample({"kind": "???"})

    @pytest.mark.parametrize("counterexample", [
        [1], None,
        {"kind": ["enumeration"]},
        {"kind": "enumeration"},
        {"kind": "enumeration", "graph": [1]},
        {"kind": "interpolating", "graph": graph_to_json(cycle(2)), "which": "both"},
        {"kind": "recursion", "mode": "pendant", "graph": graph_to_json(cycle(2))},
        {"kind": "recursion", "mode": "join", "factors": [graph_to_json(cycle(2))],
         "join": "v"},
        {"kind": "recursion", "mode": "join",
         "factors": [graph_to_json(cycle(2))] * 2, "join": "x"},
        {"kind": "recursion", "mode": "parallel_pair", "graph": graph_to_json(cycle(2)),
         "pair": ["e1"], "t": 1},
        {"kind": "recursion", "mode": "parallel_pair", "graph": graph_to_json(cycle(2)),
         "pair": ["e1", "e2"], "t": "1"},
        {"kind": "recursion", "mode": "parallel_pair", "graph": graph_to_json(cycle(2)),
         "pair": ["e1", "e2"], "t": True},
        {"kind": "invariance", "mode": "order", "graph": graph_to_json(cycle(2)),
         "order": 5},
        {"kind": "monic", "mode": "ear", "params": [2, 1]},
        {"kind": "tutte", "multigraph": {"n": 3}},
        {"kind": "tutte", "multigraph": [3, [[0, 1]]]},
        {"kind": "tutte", "multigraph": {"n": 3, "edges": 5}},
        {"kind": "tutte", "multigraph": {"n": 3, "edges": [[0, 1, 2]]}},
        {"kind": "negative_control", "control": "corrupted_nothing"},
        {"kind": "negative_control"},
    ], ids=["list", "none", "unhashable-kind", "no-graph", "bad-graph", "bad-which",
            "pendant-no-vertex", "one-factor", "bad-join", "short-pair", "str-t", "bool-t",
            "int-order", "ear-no-seed", "multigraph-no-edges", "multigraph-list",
            "multigraph-int-edges", "multigraph-three-ends",
            "unknown-control", "no-control"])
    def test_malformed_counterexample_rejected(self, counterexample):
        with pytest.raises(GraphError):
            replay_counterexample(counterexample)

    def test_an_error_inside_the_instance_surfaces_unchanged(self, monkeypatch):
        def fail(g):
            raise KeyError("inside the instance")

        monkeypatch.setattr(verify, "enumerate_hypertrees", fail)
        with pytest.raises(KeyError, match="inside the instance"):
            replay_counterexample({"kind": "enumeration", "graph": graph_to_json(cycle(2))})


_ONE_POINT_JOIN = transforms.one_point_join
_INACTIVE_SETS = hypertrees._inactive_sets


def _wrap(monkeypatch, owner, name, change):
    """Replace ``owner.name`` by a function that hands the original's result
    and the call's arguments to ``change``."""
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs:
                        change(original(*args, **kwargs), *args, **kwargs))


def _grow(joined, *args):
    """Glue a 4-cycle to a graph, which multiplies I by 1 + x."""
    c4 = cycle(2)
    return _ONE_POINT_JOIN(joined, c4, joined.v_names[0], c4.v_names[0])


def _top_plus_one(p, g, *args, **kwargs):
    return p + IntPoly.one().shift(g.n_v - 1)


def _top_two_unless_monic(p, g, *args, **kwargs):
    """Put 2 x^(|V|-1) into an I whose coefficient there is 0, which spares
    the ear graphs (monic of degree |V| - 1) and breaks the cap."""
    return p if p.coeff(g.n_v - 1) else p + (2 * IntPoly.one()).shift(g.n_v - 1)


def _order_sensitive(pairs, g, orders):
    """Add x to I under every order other than the input order."""
    return [(i + IntPoly.one().shift(1), x) if order is not None and order != sorted(order)
            else (i, x) for (i, x), order in zip(pairs, orders)]


def _strict_internal(reach, order):
    """The walk's rule with the internal test made strict: valence must be
    able to move at least two places down the order, not just one."""
    _, external = _INACTIVE_SETS(reach, order)
    internal = before = 0
    for prev, e in zip((None,) + tuple(order), order):
        if before >> e & 1:
            internal |= 1 << e
        if prev is not None:
            before |= reach[prev]
    return internal, external


def _edit_source(monkeypatch, owner, name, old, new):
    """Rebind ``name`` in module ``owner`` to a copy of the function whose
    source has its one ``old`` replaced by ``new``: a fault inside a rule
    that no call boundary exposes."""
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (name, old)
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"),
         namespace)
    monkeypatch.setattr(owner, name, namespace[name])


# (what the counterexample must say, fault injection, failing check)
FAULTS = [
    ({"kind": "enumeration"},
     lambda mp: _wrap(mp, verify, "hypertrees_by_brute_force",
                      lambda b, g, method: HypertreeSet(list(b)[:-1])
                      if method == "polymatroid" else b),
     _run("enumeration_oracles")),
    ({"kind": "enumeration", "mode": "activity"},
     lambda mp: _edit_source(mp, hypertrees, "_fibres", "t > lo,", "t > lo + 1,"),
     _run("enumeration_oracles")),
    # The internal-inactivity term grows by one wherever a memo entry is
    # reused, in the one recursion that lists and counts: each completion of
    # a reused count entry gains an internally inactive position.  No table
    # is reused below |V| + |E| = 7, so the census to 7 is the corpus.
    ({"kind": "enumeration", "mode": "activity",
      "detail": "inactivities read off the enumeration engine disagree with membership "
                "probes of the polymatroid scan"},
     lambda mp: _edit_source(mp, hypertrees, "_fibres", "below = memo.get(child)",
                             "below = memo.get(child); inside += below is not None"),
     _run("enumeration_oracles", corpus=exhaustive_connected_bipartite(7))),
    # A reused count entry gains one externally inactive position in every
    # completion; the counting path alone reads it.  Both vectors still sum
    # to the same total, so only the probe gate sees it.
    ({"kind": "enumeration", "mode": "activity", "engine_exterior": [0, 2]},
     lambda mp: _edit_source(mp, hypertrees, "_fibres", "memo[child] = below",
                             "memo[child] = [below[0], below[1] << width] if counted "
                             "else below"),
     _run("enumeration_oracles", corpus=exhaustive_connected_bipartite(7))),
    ({"kind": "interpolating", "which": "exterior"},
     lambda mp: _wrap(mp, verify, "exterior_polynomial",
                      lambda p, *args, **kwargs: IntPoly((1, 0) + p.coeffs[1:])),
     _run("interpolating")),
    ({"kind": "degree_bound"},
     lambda mp: _wrap(mp, verify, "interior_polynomial",
                      lambda p, *args, **kwargs: p + IntPoly.one().shift(p.degree + 1)),
     _run("degree_bounds")),
    ({"kind": "linear_coefficient"},
     lambda mp: _wrap(mp, verify, "nullity", lambda n, g: n + 1),
     _run("linear_coefficients")),
    ({"kind": "invariance", "mode": "order"},
     lambda mp: _wrap(mp, verify, "polynomial_pairs", _order_sensitive),
     _run("invariance", orders_per_graph=3)),
    # The walk breaks where the fibre search does not: a shuffled order that
    # is the input order still differs from the search's pair.
    ({"kind": "invariance", "mode": "order", "order": [0, 1]},
     lambda mp: mp.setattr(hypertrees, "_inactive_sets", _strict_internal),
     _run("invariance", orders_per_graph=3)),
    ({"kind": "invariance", "mode": "dual"},
     lambda mp: mp.setattr(verify, "abstract_dual", lambda g: cycle(3)),
     _run("invariance", orders_per_graph=1)),
    ({"kind": "invariance", "mode": "asymmetry"},
     lambda mp: mp.setattr(verify, "abstract_dual", lambda g: g),
     _run("invariance", corpus=[], orders_per_graph=1)),
    ({"kind": "recursion", "mode": "pendant"},
     lambda mp: mp.setattr(transforms, "delete_valence1", lambda g, label: cycle(2)),
     _run("recursions")),
    ({"kind": "recursion", "mode": "deletion_contraction"},
     lambda mp: mp.setattr(transforms, "contract_vertex", transforms.delete_vertex),
     _run("recursions")),
    ({"kind": "recursion", "mode": "join", "join": "v"},
     lambda mp: _wrap(mp, transforms, "one_point_join",
                      lambda j, g1, g2, l1, l2: _grow(j) if l1 in g1.v_names else j),
     _run("recursions")),
    ({"kind": "recursion", "mode": "join", "join": "e"},
     lambda mp: _wrap(mp, transforms, "one_point_join",
                      lambda j, g1, g2, l1, l2: _grow(j) if l1 in g1.e_names else j),
     _run("recursions")),
    ({"kind": "recursion", "mode": "join", "join": "edge"},
     lambda mp: _wrap(mp, transforms, "edge_join", _grow),
     _run("recursions")),
    ({"kind": "recursion", "mode": "parallel_pair"},
     lambda mp: _wrap(mp, transforms, "add_parallel_pair_vertices", _grow),
     _run("recursions")),
    ({"kind": "recursion", "mode": "decomposition"},
     lambda mp: _wrap(mp, transforms, "balanced_decomposition", lambda terms, g: [
         DecompositionTerm(t.coefficient + 1, t.exponent, t.graph) for t in terms]),
     _run("recursions")),
    ({"kind": "monic", "mode": "ear"},
     lambda mp: _wrap(mp, verify, "interior_polynomial", _top_plus_one),
     _run("monic_ear")),
    ({"kind": "monic", "mode": "ear", "detail": "ear 1 has an even number of edges"},
     lambda mp: _wrap(mp, verify, "ear_decomposition",
                      lambda ears, spec: tuple(ear[:-1] for ear in ears)),
     _run("monic_ear")),
    ({"kind": "monic", "mode": "ear",
      "detail": "ear 1 does not run from a V-vertex to an E-vertex"},
     lambda mp: _wrap(mp, verify, "ear_decomposition",
                      lambda ears, spec: tuple(ear[::-1] for ear in ears)),
     _run("monic_ear")),
    ({"kind": "monic", "mode": "ear",
      "detail": "ear 1 steps between vertices that are not adjacent"},
     lambda mp: _wrap(mp, verify, "ear_decomposition",
                      lambda ears, spec: tuple(ear[:1] + ear[-2:0:-1] + ear[-1:]
                                               for ear in ears)),
     _run("monic_ear")),
    ({"kind": "monic", "mode": "ear",
      "detail": "ear 2 does not attach new inner vertices to the graph before it"},
     lambda mp: _wrap(mp, verify, "ear_decomposition", lambda ears, spec: ears[:1] * 2),
     _run("monic_ear")),
    ({"kind": "monic", "mode": "cap"},
     lambda mp: _wrap(mp, verify, "interior_polynomial", _top_two_unless_monic),
     _run("monic_ear")),
    ({"kind": "tutte"},
     lambda mp: _wrap(mp, verify, "interior_from_tutte", lambda p, mg: p + 1),
     _run("tutte")),
    ({"kind": "negative_control", "control": "corrupted_polynomial"},
     lambda mp: mp.setattr(verify, "is_interpolating", lambda p: True),
     _run("negative_controls")),
    ({"kind": "negative_control", "control": "corrupted_hypertree"},
     lambda mp: mp.setattr(verify, "is_hypertree_by_polymatroid", lambda g, f: True),
     _run("negative_controls")),
    ({"kind": "negative_control", "control": "corrupted_hypertree_set"},
     lambda mp: mp.setattr(verify, "HypertreeSet",
                           lambda vectors: hypertrees_by_brute_force(cycle(3), "tree")),
     _run("negative_controls")),
]


@pytest.fixture(scope="module")
def census5():
    return exhaustive_connected_bipartite(5)


def _fault_id(expected):
    return "-".join(map(str, expected.values()))


# The counterexample of each FAULTS entry after its JSON round trip, keyed
# by test id, recorded while each check still built its counterexamples its
# own way; the one builder must move no key and no value.
FAULT_COUNTEREXAMPLES = json.loads((DATA / "fault_counterexamples.json").read_text())


class TestFaultReplay:
    """Each kind of counterexample, made by a check under an injected fault,
    is the recorded one after a JSON round trip, and replays True while the
    fault is in place and False once it is removed."""

    def test_every_fault_has_its_recorded_counterexample(self):
        assert sorted(map(_fault_id, (e for e, _, _ in FAULTS))) == sorted(
            FAULT_COUNTEREXAMPLES)

    @pytest.mark.parametrize("expected, inject, check", FAULTS,
                             ids=[_fault_id(e) for e, _, _ in FAULTS])
    def test_counterexample_replays_only_under_its_fault(self, census5, monkeypatch,
                                                         expected, inject, check):
        inject(monkeypatch)
        report = check(census5)
        assert not report.passed
        ce = json.loads(json.dumps(report.counterexample))
        assert {key: ce.get(key) for key in expected} == expected
        recorded = FAULT_COUNTEREXAMPLES[_fault_id(expected)]
        assert ce == recorded
        assert list(ce) == list(recorded)
        assert replay_counterexample(ce) is True
        monkeypatch.undo()
        assert replay_counterexample(ce) is False


class TestGate:
    def test_enumeration_gate_runs_first(self, small_corpus):
        reports = run_all_checks(seed=5, corpus=small_corpus,
                                 names=("tutte", "enumeration_oracles"))
        assert reports[0].name == "enumeration_oracles"

    def test_enumeration_oracles_pass(self, small_corpus):
        assert _run("enumeration_oracles")(small_corpus).passed
