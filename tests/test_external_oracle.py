"""Cross-check hypertrees and connectivity against a foreign implementation.

networkx enumerates spanning trees with its own partition-based iterator;
collecting the hyperedge degree vectors of every spanning tree gives the
hypertree set by definition, with none of this package's code on the path.
Its component counter likewise checks the bitmask connectivity routine, and
its isomorphism test (VF2, with the colour classes kept apart) checks that
the census holds exactly one graph per class.
"""

from collections import defaultdict
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from networkx.algorithms.tree import SpanningTreeIterator

from conftest import complete_bipartite, cycle, ladder
from hytrex.canonical import CanonicalForms
from hytrex.families import FamilySpec, generate
from hytrex.graph import BipGraph, component_count, subgraph_components
from hytrex.hypertrees import enumerate_hypertrees
from hytrex.verify import (
    _components_without,
    _graph_key,
    exhaustive_connected_bipartite,
    random_connected_bipartite,
)


def networkx_graph(g):
    nxg = nx.Graph()
    nxg.add_nodes_from((("v", i) for i in range(g.n_v)), side="v")
    nxg.add_nodes_from((("e", j) for j in range(g.n_e)), side="e")
    nxg.add_edges_from((("v", v), ("e", e)) for v, e in g.adj)
    return nxg


def hypertrees_via_networkx(g):
    nxg = networkx_graph(g)
    vectors = set()
    for tree in SpanningTreeIterator(nxg):
        vectors.add(tuple(tree.degree(("e", j)) - 1 for j in range(g.n_e)))
    return sorted(vectors)


@pytest.mark.parametrize("g", [
    cycle(3),
    cycle(5),
    complete_bipartite(2, 3),
    complete_bipartite(3, 3),
    ladder(2),
    ladder(3),
    generate(FamilySpec("kmn_minus_matching", (3, 4, 2))),
    generate(FamilySpec("ear_graph", (2, 2), seed=0)),
], ids=lambda g: f"{g.n_v}x{g.n_e}e{g.n_edges}")
def test_named_graphs(g):
    assert list(enumerate_hypertrees(g)) == hypertrees_via_networkx(g)


def test_seeded_random_graphs():
    for g in random_connected_bipartite(count=12, max_total=9, seed=42):
        assert list(enumerate_hypertrees(g)) == hypertrees_via_networkx(g)


@st.composite
def bipgraphs(draw, max_v=4, max_e=4):
    """Bipartite graphs with any edge set, so also disconnected ones and
    ones with isolated vertices of either class."""
    n_v = draw(st.integers(min_value=1, max_value=max_v))
    n_e = draw(st.integers(min_value=1, max_value=max_e))
    pairs = [(v, e) for v in range(n_v) for e in range(n_e)]
    adj = draw(st.lists(st.sampled_from(pairs), unique=True))
    return BipGraph([f"v{i}" for i in range(n_v)], [f"e{j}" for j in range(n_e)], adj)


@settings(max_examples=150, deadline=None)
@given(bipgraphs())
def test_component_counts_match_networkx(g):
    nxg = networkx_graph(g)
    assert component_count(g) == nx.number_connected_components(nxg)
    for subset in range(1 << g.n_e):
        es = [("e", e) for e in range(g.n_e) if subset >> e & 1]
        vs = {v for e in es for v in nxg[e]}
        assert (subgraph_components(g, subset)
                == nx.number_connected_components(nxg.subgraph(es + list(vs))))
    # Deleting one vertex, or two of the same class (the two-vertex cuts of
    # the degree_bounds check); node i < n_v is V-vertex i, else E-vertex
    # i - n_v.
    nodes = [("v", i) for i in range(g.n_v)] + [("e", j) for j in range(g.n_e)]
    removals = [(i,) for i in range(len(nodes))]
    removals += combinations(range(g.n_v), 2)
    removals += combinations(range(g.n_v, len(nodes)), 2)
    for removed in removals:
        rest = nxg.copy()
        rest.remove_nodes_from(nodes[i] for i in removed)
        assert _components_without(g, removed) == nx.number_connected_components(rest)


def same_class(g, h):
    """Isomorphic with V mapped to V and E to E."""
    return ((g.n_v, g.n_e, g.n_edges) == (h.n_v, h.n_e, h.n_edges)
            and nx.is_isomorphic(networkx_graph(g), networkx_graph(h),
                                 node_match=lambda a, b: a["side"] == b["side"]))


def isomorphic_pairs(graphs):
    cells = defaultdict(list)
    for g in graphs:
        cells[g.n_v, g.n_e, g.n_edges].append(g)
    return [(g, h) for cell in cells.values()
            for g, h in combinations(cell, 2) if same_class(g, h)]


CENSUS_7 = exhaustive_connected_bipartite(7)


def test_census_has_no_isomorphic_pair():
    assert len(CENSUS_7) == 132
    assert isomorphic_pairs(CENSUS_7) == []


@st.composite
def connected_bipgraphs(draw, max_total=7):
    n_v = draw(st.integers(min_value=1, max_value=max_total - 1))
    n_e = draw(st.integers(min_value=1, max_value=max_total - n_v))
    pairs = [(v, e) for v in range(n_v) for e in range(n_e)]
    adj = draw(st.lists(st.sampled_from(pairs), unique=True))
    g = BipGraph([f"a{i}" for i in range(n_v)], [f"b{j}" for j in range(n_e)], adj)
    assume(g.connected)
    return g


@settings(max_examples=150, deadline=None)
@given(connected_bipgraphs())
def test_random_graph_matches_exactly_one_census_member(g):
    matches = [h for h in CENSUS_7 if same_class(g, h)]
    assert len(matches) == 1
    forms = CanonicalForms()
    assert _graph_key(g, forms) == _graph_key(matches[0], forms)


def test_canonicaliser_missing_a_permutation_is_caught(monkeypatch):
    full = CanonicalForms.relabellings

    def one_dropped(self, *args):
        tables = full(self, *args)
        return tables[:-1] if len(tables) > 1 else tables

    monkeypatch.setattr(CanonicalForms, "relabellings", one_dropped)
    assert isomorphic_pairs(exhaustive_connected_bipartite(7)) != []
