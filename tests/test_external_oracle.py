"""Cross-check hypertrees and connectivity against a foreign implementation.

networkx enumerates spanning trees with its own partition-based iterator;
collecting the hyperedge degree vectors of every spanning tree gives the
hypertree set by definition, with none of this package's code on the path.
Its component counter likewise checks the bitmask connectivity routine.
"""

from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.tree import SpanningTreeIterator

from conftest import complete_bipartite, cycle, ladder
from hytrex.families import FamilySpec, generate
from hytrex.graph import BipGraph, component_count, subgraph_components
from hytrex.hypertrees import enumerate_hypertrees
from hytrex.verify import _components_without, random_connected_bipartite


def networkx_graph(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(("v", i) for i in range(g.n_v))
    nxg.add_nodes_from(("e", j) for j in range(g.n_e))
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
    # check_degree_bounds); node i < n_v is V-vertex i, else E-vertex i - n_v.
    nodes = [("v", i) for i in range(g.n_v)] + [("e", j) for j in range(g.n_e)]
    removals = [(i,) for i in range(len(nodes))]
    removals += combinations(range(g.n_v), 2)
    removals += combinations(range(g.n_v, len(nodes)), 2)
    for removed in removals:
        rest = nxg.copy()
        rest.remove_nodes_from(nodes[i] for i in removed)
        assert _components_without(g, removed) == nx.number_connected_components(rest)
