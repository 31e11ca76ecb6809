"""Graph data model: construction, mu, duals, JSON format."""

import ast
import copy
import json
import pickle
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_bipartite, connected_bipgraphs, count_builds, cycle, path_graph
from hytrex.errors import GraphError
from hytrex.families import FamilySpec
from hytrex.poly import IntPoly, IntPoly2, MultiGraph
from hytrex.transforms import DecompositionTerm
from hytrex.verify import CheckReport
from hytrex.graph import (
    BipGraph,
    Hypergraph,
    abstract_dual,
    bits_of,
    build_bipartite,
    component_count,
    from_hypergraph,
    graph_from_json,
    graph_to_json,
    mu_table,
    normalize_edge_order,
    nullity,
    subgraph_components,
)


class TestBuild:
    def test_multi_edge_collapses(self):
        g = build_bipartite(["v1"], ["e1"], [("v1", "e1"), ("v1", "e1")])
        assert g.n_edges == 1

    def test_hexagon(self):
        g = cycle(3)
        assert (g.n_v, g.n_e, g.n_edges) == (3, 3, 6)
        assert all(g.deg_e(e) == 2 for e in range(3))
        assert all(g.deg_v(v) == 2 for v in range(3))
        assert g.connected

    def test_unknown_label_rejected(self):
        with pytest.raises(GraphError):
            build_bipartite(["v1"], ["e1"], [("x", "e1")])
        with pytest.raises(GraphError):
            build_bipartite(["v1"], ["e1"], [("v1", "x")])

    def test_empty_class_rejected(self):
        with pytest.raises(GraphError):
            build_bipartite([], ["e1"], [])
        with pytest.raises(GraphError):
            build_bipartite(["v1"], [], [])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(GraphError):
            build_bipartite(["v1", "v1"], ["e1"], [])

    @pytest.mark.parametrize("pair, message", [
        ((1.5, 0), "an adjacency index must be an integer, got 1.5"),
        ((True, 0), "an adjacency index must be an integer, got True"),
        (("0", 0), "an adjacency index must be an integer, got '0'"),
        ((0, 0.0), "an adjacency index must be an integer, got 0.0"),
        ((0, None), "an adjacency index must be an integer, got None"),
        ((0, 0, 0), r"an adjacency entry must be a \(v, e\) pair, got \(0, 0, 0\)"),
        ((0,), r"an adjacency entry must be a \(v, e\) pair, got \(0,\)"),
        (5, r"an adjacency entry must be a \(v, e\) pair, got 5")],
        ids=["float", "bool", "str", "float-e", "None-e", "triple", "single", "int"])
    def test_non_integer_index_rejected(self, pair, message):
        with pytest.raises(GraphError, match=message):
            BipGraph(("a", "b"), ("e",), [pair, (0, 0)])

    @pytest.mark.parametrize("order", [[2.9, 0.2, 1.5], ["x", "0", "1"], ["2", "0", "1"],
                                       [True, False, 2]],
                             ids=["float", "text", "numeric-str", "bool"])
    def test_non_integer_order_rejected(self, order):
        with pytest.raises(GraphError, match="must hold integers"):
            normalize_edge_order(cycle(3), order)
        assert normalize_edge_order(cycle(3), [2, 0, 1]) == (2, 0, 1)

    def test_one_build_per_graph(self, monkeypatch):
        data = graph_to_json(cycle(3))
        assert count_builds(monkeypatch, lambda: graph_from_json(data)) == 1

    def test_connectivity_flag_matches_fresh_search(self):
        g = build_bipartite(["a", "b"], ["c", "d"], [("a", "c"), ("b", "d")])
        assert not g.connected
        assert component_count(g) == 2


class TestModelContract:
    """The masks are the only stored form; everything read off a graph must
    agree with the pairs it was built from, whatever their order."""

    @staticmethod
    def _rebuild(g, data):
        pairs = sorted(g.adj)
        extra = data.draw(st.lists(st.sampled_from(pairs), max_size=4))
        given_pairs = data.draw(st.permutations(pairs + extra))
        return pairs, BipGraph(g.v_names, g.e_names, given_pairs)

    @settings(max_examples=50, deadline=None)
    @given(connected_bipgraphs(), st.data())
    def test_adj_equality_and_hash_follow_the_pairs(self, g, data):
        pairs, h = self._rebuild(g, data)
        assert h.adj == set(pairs)
        _, h2 = self._rebuild(g, data)
        assert h == h2 == g
        assert hash(h) == hash(h2) == hash(g)

    @settings(max_examples=50, deadline=None)
    @given(connected_bipgraphs(), st.data())
    def test_one_edge_or_label_changed_is_unequal(self, g, data):
        pairs, h = self._rebuild(g, data)
        v = data.draw(st.integers(0, g.n_v - 1))
        e = data.draw(st.integers(0, g.n_e - 1))
        assert BipGraph(g.v_names, g.e_names, set(pairs) ^ {(v, e)}) != h
        v_names = g.v_names[:v] + (g.v_names[v] + "'",) + g.v_names[v + 1:]
        assert BipGraph(v_names, g.e_names, pairs) != h
        e_names = g.e_names[:e] + (g.e_names[e] + "'",) + g.e_names[e + 1:]
        assert BipGraph(g.v_names, e_names, pairs) != h

    @settings(max_examples=50, deadline=None)
    @given(connected_bipgraphs(), st.data())
    def test_degrees_match_pair_counts(self, g, data):
        pairs, h = self._rebuild(g, data)
        v_count = Counter(v for v, _ in pairs)
        e_count = Counter(e for _, e in pairs)
        assert [h.deg_v(v) for v in range(h.n_v)] == [v_count[v] for v in range(h.n_v)]
        assert [h.deg_e(e) for e in range(h.n_e)] == [e_count[e] for e in range(h.n_e)]
        assert h.n_edges == len(pairs)

    # Assignment succeeded and left the hash stale, so a graph used as a key
    # (poly.pair_memo keys its memo on graphs) could be misfiled.
    def test_immutable(self):
        g = cycle(3)
        before = hash(g)
        for name in BipGraph.__slots__:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(g, name, ("zz",))
            with pytest.raises(AttributeError, match="cannot delete field"):
                delattr(g, name)
        assert hash(g) == before and g == cycle(3)

    def test_copy_and_pickle(self):
        g = complete_bipartite(2, 3)
        for h in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert h == g and hash(h) == hash(g) and h.connected and h.v_masks == g.v_masks

    @settings(max_examples=20, deadline=None)
    @given(connected_bipgraphs())
    def test_label_positions(self, g):
        assert [g.v_index(name) for name in g.v_names] == list(range(g.n_v))
        assert [g.e_index(name) for name in g.e_names] == list(range(g.n_e))
        with pytest.raises(GraphError, match=r"^unknown V label 'e1'$"):
            g.v_index("e1")
        with pytest.raises(GraphError, match=r"^unknown E label 'v1'$"):
            g.e_index("v1")


class TestHypergraph:
    def test_single_hyperedge(self):
        g = from_hypergraph(Hypergraph.of(["a", "b"], [{"a", "b"}]))
        assert (g.n_v, g.n_e, g.n_edges) == (2, 1, 2)

    def test_multiset_members_stay_distinct(self):
        g = from_hypergraph(Hypergraph.of(["a", "b"], [{"a", "b"}, {"a", "b"}]))
        assert (g.n_v, g.n_e, g.n_edges) == (2, 2, 4)

    def test_triangle_becomes_hexagon(self):
        triangle = Hypergraph.of("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}])
        g = from_hypergraph(triangle)
        assert (g.n_v, g.n_e, g.n_edges) == (3, 3, 6)
        assert all(g.deg_e(e) == 2 for e in range(3))
        assert g.connected

    def test_hyperedges_become_e_vertex_neighbourhoods(self):
        h = Hypergraph.of("abc", [{"a"}, {"a"}, {"b", "c"}])
        g = from_hypergraph(h)
        assert [{g.v_names[v] for v in bits_of(m)} for m in g.e_masks] == list(h.hyperedges)

    def test_empty_hyperedge_rejected(self):
        with pytest.raises(GraphError):
            Hypergraph.of(["a"], [set()])


# Class, field names, field values, and the exact repr: the text a frozen
# dataclass with those fields prints, which callers may have logged.
VALUES = [
    (Hypergraph, ("vertices", "hyperedges"), (("a", "b"), (frozenset({"a"}),)),
     "Hypergraph(vertices=('a', 'b'), hyperedges=(frozenset({'a'}),))"),
    (FamilySpec, ("tag", "params", "seed"), ("tree", (5,), 3),
     "FamilySpec(tag='tree', params=(5,), seed=3)"),
    (DecompositionTerm, ("coefficient", "exponent", "graph"), (-2, 1, cycle(2)),
     "DecompositionTerm(coefficient=-2, exponent=1, "
     "graph=BipGraph(|V|=2, |E|=2, edges=4, connected=True))"),
    # Its own repr, which lists the edges.
    (MultiGraph, ("n", "edges"), (3, ((0, 1), (1, 1))), "MultiGraph(n=3, edges=[(0, 1), (1, 1)])"),
]


@pytest.mark.parametrize("cls, fields, values, text", VALUES,
                         ids=[row[0].__name__ for row in VALUES])
class TestValueClasses:
    def test_equal_hash_and_repr(self, cls, fields, values, text):
        a, b = cls(*values), cls(**dict(zip(fields, values)))
        assert a == b and hash(a) == hash(b) == hash(values)
        assert tuple(getattr(a, name) for name in fields) == values
        assert a != values
        assert repr(a) == text

    def test_immutable(self, cls, fields, values, text):
        a = cls(*values)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(a, fields[0], None)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(a, fields[-1])

    def test_copy_and_pickle(self, cls, fields, values, text):
        a = cls(*values)
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a


# The immutable values with their own ``==``, ``hash`` and ``repr``: a value,
# an equal one built another way, the hash both have, and the repr of the first.
OWN_VALUES = [
    (IntPoly((1, -2, 0, 1, 0)), IntPoly([1, -2, 0, 1]), hash((1, -2, 0, 1)),
     "IntPoly(1 - 2x + x^3)"),
    (IntPoly2({(1, 0): 1, (0, 1): -1, (2, 2): 3}),
     IntPoly2.monomial(2, 2, 3) + IntPoly2({(0, 1): -1, (1, 0): 1, (3, 0): 0}),
     hash((((0, 1), -1), ((1, 0), 1), ((2, 2), 3))), "IntPoly2(3x^2 y^2 + x - y)"),
    # ``seconds`` is neither compared nor hashed, but it is printed.
    (CheckReport(name="tutte", corpus="3 graphs", instances=3, passed=True, seconds=1.5),
     CheckReport("tutte", "3 graphs", 3, True, None, 0.25),
     hash(("tutte", "3 graphs", 3, True, None)),
     "CheckReport(name='tutte', corpus='3 graphs', instances=3, passed=True, "
     "counterexample=None, seconds=1.5)"),
]


@pytest.mark.parametrize("a, b, digest, text", OWN_VALUES,
                         ids=[type(row[0]).__name__ for row in OWN_VALUES])
class TestOwnValueClasses:
    def test_equal_hash_and_repr(self, a, b, digest, text):
        assert a == b and hash(a) == hash(b) == digest
        assert repr(a) == text

    def test_immutable(self, a, b, digest, text):
        for name in type(a).__slots__:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(a, name, None)
            with pytest.raises(AttributeError, match="cannot delete field"):
                delattr(a, name)
        assert a == b and repr(a) == text

    def test_copy_and_pickle(self, a, b, digest, text):
        for twin in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(twin) is type(a) and twin == a and repr(twin) == text


def test_bivariate_terms_are_read_only():
    p = IntPoly2({(0, 1): 1})
    with pytest.raises(TypeError):
        p.terms[(0, 1)] = 3
    assert p.terms == {(0, 1): 1} and p == IntPoly2.monomial(0, 1)


def test_check_report_defaults_and_unhashable_counterexample():
    report = CheckReport("tutte", "3 graphs", 3, False, {"kind": "tutte"})
    assert (report.counterexample, report.seconds) == ({"kind": "tutte"}, 0.0)
    assert report == CheckReport(name="tutte", corpus="3 graphs", instances=3,
                                 passed=False, counterexample={"kind": "tutte"}, seconds=2.0)
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)


class TestDual:
    def test_hexagon_self_dual_shape(self):
        g = cycle(3)
        d = abstract_dual(g)
        assert (d.n_v, d.n_e) == (3, 3)
        assert d.v_names == g.e_names

    def test_k23_swaps_sizes(self):
        d = abstract_dual(complete_bipartite(2, 3))
        assert (d.n_v, d.n_e) == (3, 2)

    def test_involution(self):
        for g in (cycle(3), complete_bipartite(2, 3), path_graph()):
            assert abstract_dual(abstract_dual(g)) == g

    @settings(max_examples=30, deadline=None)
    @given(connected_bipgraphs())
    def test_involution_preserves_edges_and_connectivity(self, g):
        d = abstract_dual(g)
        assert d.n_edges == g.n_edges
        assert d.connected == g.connected
        assert abstract_dual(d) == g


class TestSubgraphComponents:
    def test_single_hyperedge_of_hexagon(self):
        g = cycle(3)
        assert subgraph_components(g, 1 << g.e_index("e1")) == 1

    def test_two_adjacent_hyperedges(self):
        g = cycle(3)
        assert subgraph_components(g, 1 << g.e_index("e1") | 1 << g.e_index("e2")) == 1

    def test_two_opposite_hyperedges_of_the_octagon(self):
        g = cycle(4)
        assert subgraph_components(g, 1 << g.e_index("e1") | 1 << g.e_index("e3")) == 2

    # True counted as the mask 1; 1.5 and "1" raised bare TypeErrors.
    def test_out_of_range_subset_rejected(self):
        g = cycle(3)
        for subset in (-1, 1 << g.n_e, True, 1.5, "1"):
            with pytest.raises(GraphError):
                subgraph_components(g, subset)


class TestMu:
    def test_nothing_is_cached_on_a_graph(self):
        # __weakref__ holds no value of the graph; it lets poly.pair_memo
        # drop a graph's entry with the graph.
        assert BipGraph.__slots__ == ("v_names", "e_names", "v_masks", "e_masks",
                                      "connected", "_hash", "__weakref__")

    def test_empty_set_is_zero(self):
        assert mu_table(cycle(3))[0] == 0
        assert mu_table(complete_bipartite(2, 3))[0] == 0

    def test_hexagon_single(self):
        g = cycle(3)
        assert mu_table(g)[1 << g.e_index("e1")] == 1

    def test_k23_full(self):
        g = complete_bipartite(2, 3)
        assert mu_table(g)[(1 << g.n_e) - 1] == 1

    @settings(max_examples=30, deadline=None)
    @given(connected_bipgraphs())
    def test_bounded_and_monotone(self, g):
        table = mu_table(g)
        full = 1 << g.n_e
        for mask in range(full):
            union = 0
            for e in range(g.n_e):
                if mask >> e & 1:
                    union |= g.e_masks[e]
            assert table[mask] <= union.bit_count()
            # dropping any single element cannot increase mu
            for e in range(g.n_e):
                if mask >> e & 1:
                    assert table[mask ^ (1 << e)] <= table[mask]

    @settings(max_examples=25, deadline=None)
    @given(connected_bipgraphs(max_v=3, max_e=4))
    def test_submodular(self, g):
        table = mu_table(g)
        full = 1 << g.n_e
        for a in range(full):
            for b in range(full):
                assert table[a] + table[b] >= table[a | b] + table[a & b]

    def test_submodular_exhaustive_on_named_graphs(self):
        for g in (cycle(3), cycle(4), complete_bipartite(2, 3),
                  complete_bipartite(3, 3)):
            table = mu_table(g)
            full = 1 << g.n_e
            for a in range(full):
                for b in range(full):
                    assert table[a] + table[b] >= table[a | b] + table[a & b]


class TestNullity:
    def test_tree(self):
        assert nullity(path_graph()) == 0

    def test_hexagon(self):
        assert nullity(cycle(3)) == 1

    def test_k23(self):
        assert nullity(complete_bipartite(2, 3)) == 2


class TestJson:
    def test_round_trip_bit_exact(self):
        g = complete_bipartite(2, 3)
        data = graph_to_json(g)
        text = json.dumps(data)
        assert graph_from_json(json.loads(text)) == g
        assert json.dumps(graph_to_json(graph_from_json(data))) == text

    def test_unknown_keys_rejected(self):
        data = graph_to_json(cycle(2))
        data["extra"] = 1
        with pytest.raises(GraphError):
            graph_from_json(data)

    def test_missing_key_rejected(self):
        with pytest.raises(GraphError):
            graph_from_json({"v": ["a"], "e": ["b"]})

    def test_bad_adjacency_rejected(self):
        with pytest.raises(GraphError):
            graph_from_json({"v": ["a"], "e": ["b"], "adj": [["a", "b", "c"]]})
        with pytest.raises(GraphError):
            graph_from_json({"v": ["a"], "e": ["b"], "adj": [["a", "zzz"]]})


# Where the package spells out the integer rule ("an int, and a bool is not
# one"): the two graph.py helpers that every integer argument goes through,
# and IntPoly's operators, which take an int as a constant polynomial.
INTEGER_RULE_SITES = {
    ("graph.py", "_integer"), ("graph.py", "_integers"),
    ("poly.py", "IntPoly.__add__"), ("poly.py", "IntPoly.__sub__"),
    ("poly.py", "IntPoly.__mul__"), ("poly.py", "IntPoly.__eq__"),
}


INTEGER_RULE = re.compile(r"type\(.*\) is (not )?int$|map\(type, ")


def _integer_rule_scopes(node, scope=""):
    """The scope of each expression under ``node`` that spells out the rule:
    ``type(x) is int``, ``type(x) is not int`` or ``map(type, ...)``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}".lstrip(".")
    elif isinstance(node, (ast.Compare, ast.Call)) and INTEGER_RULE.match(ast.unparse(node)):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _integer_rule_scopes(child, scope)


def test_integer_rule_is_written_only_in_the_graph_helpers():
    src = Path(__file__).resolve().parents[1] / "src" / "hytrex"
    sites = {(path.name, scope) for path in src.glob("*.py")
             for scope in _integer_rule_scopes(ast.parse(path.read_text()))}
    assert sites == INTEGER_RULE_SITES
