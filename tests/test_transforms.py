"""Graph surgeries and the polynomial identities they support."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_bipartite,
    connected_bipgraphs,
    cycle,
    path_graph,
    sha256_json,
)
from hytrex.errors import DisconnectedGraphError, GraphError
from hytrex.graph import BipGraph, build_bipartite, graph_to_json
from hytrex.poly import IntPoly, exterior_polynomial, interior_polynomial
from hytrex.transforms import (
    DecompositionTerm,
    add_parallel_pair_vertices,
    balanced_decomposition,
    contract_vertex,
    delete_valence1,
    delete_vertex,
    edge_join,
    identify_pair,
    one_point_join,
)
from hytrex.verify import exhaustive_connected_bipartite


class TestPendantRemoval:
    def test_short_path(self):
        g = BipGraph(("v1", "v2"), ("e1",), [(0, 0), (1, 0)])
        out = delete_valence1(g, "v2")
        assert (out.n_v, out.n_e, out.n_edges) == (1, 1, 1)

    def test_pendant_on_hexagon(self):
        g = cycle(3)
        with_pendant = build_bipartite(
            list(g.v_names) + ["w"], g.e_names,
            [(g.v_names[v], g.e_names[e]) for v, e in sorted(g.adj)] + [("w", "e1")])
        assert delete_valence1(with_pendant, "w") == g

    def test_wrong_degree_rejected(self):
        with pytest.raises(GraphError):
            delete_valence1(cycle(3), "v1")

    def test_emptying_a_class_rejected(self):
        g = path_graph()
        with pytest.raises(GraphError):
            delete_valence1(delete_valence1(g, "v2"), "v1")


class TestDeleteContract:
    def test_hexagon_contract(self):
        out = contract_vertex(cycle(3), "e1")
        assert (out.n_v, out.n_e, out.n_edges) == (2, 2, 4)
        assert sorted(out.v_names) == ["v1+v2", "v3"]

    def test_hexagon_delete(self):
        out = delete_vertex(cycle(3), "e1")
        assert (out.n_v, out.n_e, out.n_edges) == (3, 2, 4)
        degrees = sorted(out.deg_v(v) for v in range(out.n_v))
        assert degrees == [1, 1, 2]

    def test_contract_isolated_rejected(self):
        g = build_bipartite(["a"], ["b", "c"], [("a", "b")])
        with pytest.raises(GraphError):
            contract_vertex(g, "c")

    def test_hexagon_recursion_by_hand(self):
        # interior of the hexagon = interior of the path + x * interior of
        # the 4-cycle = 1 + x(1 + x)
        g = cycle(3)
        i_deleted = interior_polynomial(delete_vertex(g, "e1"))
        i_contracted = interior_polynomial(contract_vertex(g, "e1"))
        assert i_deleted == IntPoly.one()
        assert i_contracted == IntPoly([1, 1])
        assert i_deleted + i_contracted.shift(1) == interior_polynomial(g)

    @settings(max_examples=25, deadline=None)
    @given(connected_bipgraphs())
    def test_valence2_recursions(self, g):
        interior_g = interior_polynomial(g)
        exterior_g = exterior_polynomial(g)
        for side, names in (("v", g.v_names), ("e", g.e_names)):
            for idx, label in enumerate(names):
                degree = g.deg_v(idx) if side == "v" else g.deg_e(idx)
                if degree != 2 or (g.n_v if side == "v" else g.n_e) < 2:
                    continue
                deleted = delete_vertex(g, label)
                if not deleted.connected:
                    continue
                contracted = contract_vertex(g, label)
                assert interior_polynomial(deleted) \
                    + interior_polynomial(contracted).shift(1) == interior_g
                if side == "e":
                    assert exterior_polynomial(deleted).shift(1) \
                        + exterior_polynomial(contracted) == exterior_g

    @settings(max_examples=25, deadline=None)
    @given(connected_bipgraphs(max_v=3, max_e=3))
    def test_pendant_insensitivity(self, g):
        grown = build_bipartite(
            list(g.v_names) + ["w"], g.e_names,
            [(g.v_names[v], g.e_names[e]) for v, e in sorted(g.adj)]
            + [("w", g.e_names[0])])
        assert interior_polynomial(grown) == interior_polynomial(g)
        assert exterior_polynomial(grown) == exterior_polynomial(g)


def _relabel(g, v_names, e_names):
    return BipGraph(v_names, e_names, g.adj)


def _strip_class_tags(g):
    """Drop the class tag ("v" or "e") from every part of every label;
    labels a surgery made up itself carry no tag."""
    def back(label):
        return "+".join(part[1:] if part[0] in "ve" else part
                        for part in label.split("+"))

    return _relabel(g, [back(x) for x in g.v_names], [back(x) for x in g.e_names])


def _outcome(surgery, g, label):
    """The result as JSON, or the error with the label blanked out."""
    try:
        return graph_to_json(surgery(g, label))
    except GraphError as exc:
        return str(exc).replace(repr(label), "<label>")


class TestMergedLabels:
    """A merged vertex whose "+"-joined label is already in use gets "'"
    appended until the label is free in its class."""

    def _graph(self):
        return build_bipartite(["x", "y"], ["a", "b", "a+b"],
                               [("x", "a"), ("x", "b"), ("y", "b"), ("y", "a+b")])

    def test_contract_takes_a_fresh_label(self):
        assert contract_vertex(self._graph(), "x") == build_bipartite(
            ["y"], ["a+b'", "a+b"], [("y", "a+b'"), ("y", "a+b")])

    def test_identify_pair_takes_a_fresh_label(self):
        assert identify_pair(self._graph(), "a", "b") == build_bipartite(
            ["x", "y"], ["a+b'", "a+b"],
            [("x", "a+b'"), ("y", "a+b'"), ("y", "a+b")])


class TestSharedLabels:
    """A label may name a V-vertex and an E-vertex at once; a surgery must
    act on the vertex the label resolves to (the V one) and leave the other
    vertex's edges alone."""

    def test_delete_keeps_the_edges_of_the_namesake(self):
        g = BipGraph(("a", "b"), ("a", "c"), [(0, 0), (1, 0), (1, 1)])
        out = delete_vertex(g, "a")
        assert out == build_bipartite(["b"], ["a", "c"], [("b", "a"), ("b", "c")])
        assert out.connected
        assert delete_valence1(g, "a") == out

    def test_contract_keeps_the_edges_of_the_namesake(self):
        g = BipGraph(("a", "b"), ("a", "c"), [(0, 0), (1, 0), (1, 1)])
        assert contract_vertex(g, "b") == build_bipartite(["a"], ["a+c"], [("a", "a+c")])

    @settings(max_examples=60, deadline=None)
    @given(connected_bipgraphs(), st.integers(min_value=0, max_value=4))
    def test_surgery_matches_a_copy_with_distinct_labels(self, g, shift):
        # V-vertex i is letter i and E-vertex j letter j + shift, so the
        # classes share labels whenever shift < |V|; the copy tags each
        # label with its class.
        letters = "abcdefgh"
        v_names = [letters[i] for i in range(g.n_v)]
        e_names = [letters[j + shift] for j in range(g.n_e)]
        shared = _relabel(g, v_names, e_names)
        distinct = _relabel(g, ["v" + x for x in v_names], ["e" + x for x in e_names])
        # A shared label names the V-vertex, so E-vertices are reached only
        # through labels of their own.
        targets = [(x, "v" + x) for x in v_names]
        targets += [(x, "e" + x) for x in e_names if x not in v_names]
        for label, tagged in targets:
            for surgery in (delete_vertex, delete_valence1, contract_vertex):
                want = _outcome(lambda h, t: _strip_class_tags(surgery(h, t)),
                                distinct, tagged)
                got = _outcome(surgery, shared, label)
                assert got == want, (surgery, label)
        if g.n_e >= 2:
            pair = (e_names[0], e_names[1])
            for surgery in (identify_pair,
                            lambda h, e1, e2: add_parallel_pair_vertices(h, e1, e2, 2)):
                want = _strip_class_tags(surgery(distinct, *("e" + x for x in pair)))
                assert surgery(shared, *pair) == want


class TestJoins:
    def test_hexagon_wedge_squares_interior(self):
        g = one_point_join(cycle(3), cycle(3), "e1", "e1")
        assert interior_polynomial(g) == IntPoly([1, 1, 1]) ** 2
        assert exterior_polynomial(g) == IntPoly([1, 2]) ** 2

    def test_edge_join_of_two_squares(self):
        g = edge_join(cycle(2), cycle(2), ("v1", "e1"), ("v1", "e1"))
        assert interior_polynomial(g) == IntPoly([1, 2, 1])

    def test_class_mismatch_rejected(self):
        with pytest.raises(GraphError):
            one_point_join(cycle(3), cycle(3), "v1", "e1")

    def test_non_edge_rejected(self):
        g = cycle(3)
        with pytest.raises(GraphError):
            edge_join(g, cycle(3), ("v1", "e2"), ("v1", "e1"))

    @settings(max_examples=15, deadline=None)
    @given(connected_bipgraphs(max_v=3, max_e=3), connected_bipgraphs(max_v=3, max_e=3))
    def test_join_multiplicativity(self, g1, g2):
        i1, x1 = interior_polynomial(g1), exterior_polynomial(g1)
        i2, x2 = interior_polynomial(g2), exterior_polynomial(g2)
        joined = one_point_join(g1, g2, g1.v_names[0], g2.v_names[0])
        assert interior_polynomial(joined) == i1 * i2
        assert exterior_polynomial(joined) == x1 * x2
        joined_e = one_point_join(g1, g2, g1.e_names[0], g2.e_names[0])
        assert interior_polynomial(joined_e) == i1 * i2
        assert exterior_polynomial(joined_e) == x1 * x2


class TestParallelPair:
    def test_construction_shape(self):
        g = add_parallel_pair_vertices(cycle(3), "e1", "e2", 1)
        assert (g.n_v, g.n_e) == (4, 3)
        new = g.v_index("p1")
        assert g.deg_v(new) == 2

    def test_identify_pair_shape(self):
        out = identify_pair(cycle(3), "e1", "e2")
        assert (out.n_v, out.n_e, out.n_edges) == (3, 2, 5)
        degrees = sorted([out.deg_v(v) for v in range(3)]
                         + [out.deg_e(e) for e in range(2)])
        assert degrees == [1, 2, 2, 2, 3]

    def test_same_edge_rejected(self):
        with pytest.raises(GraphError):
            add_parallel_pair_vertices(cycle(3), "e1", "e1", 1)
        with pytest.raises(GraphError):
            identify_pair(cycle(3), "e1", "e1")

    # True added one vertex; 2.0 and "x" raised bare TypeErrors.
    @pytest.mark.parametrize("t", [True, 2.0, "x"], ids=["bool", "float", "str"])
    def test_non_integer_count_rejected(self, t):
        with pytest.raises(GraphError, match="t must be an integer of at least 1"):
            add_parallel_pair_vertices(cycle(3), "e1", "e2", t)

    def test_hexagon_identity(self):
        g = cycle(3)
        interior_g = interior_polynomial(g)
        quotient = identify_pair(g, "e1", "e2")
        for t in (1, 2, 3):
            extended = add_parallel_pair_vertices(g, "e1", "e2", t)
            assert interior_polynomial(extended) \
                - (t * interior_polynomial(quotient)).shift(1) == interior_g

    def test_quadratic_coefficients_match_for_equivalent_pairs(self):
        # pairs with the same number of common neighbours produce the same
        # quadratic coefficient after the same parallel-pair extension
        for g in (cycle(3), complete_bipartite(2, 3), complete_bipartite(3, 3)):
            for m_new in (1, 2):
                seen = {}
                for a in range(g.n_e):
                    for b in range(a + 1, g.n_e):
                        common = (g.e_masks[a] & g.e_masks[b]).bit_count()
                        extended = add_parallel_pair_vertices(
                            g, g.e_names[a], g.e_names[b], m_new)
                        quad = interior_polynomial(extended).coeff(2)
                        if (m_new, common) in seen:
                            assert seen[(m_new, common)] == quad
                        else:
                            seen[(m_new, common)] = quad


class TestBalancedDecomposition:
    def test_balanced_graph_is_single_term(self):
        g = cycle(3)
        terms = balanced_decomposition(g)
        assert len(terms) == 1
        assert terms[0].coefficient == 1
        assert terms[0].exponent == 0
        assert terms[0].graph == g

    def test_k23_two_terms_identity(self):
        g = complete_bipartite(2, 3)
        terms = balanced_decomposition(g)
        assert len(terms) == 2
        total = IntPoly.zero()
        for term in terms:
            assert term.graph.n_v == term.graph.n_e
            total = total + (term.coefficient
                             * interior_polynomial(term.graph)).shift(term.exponent)
        assert total == interior_polynomial(g)

    def test_wrong_orientation_rejected(self):
        with pytest.raises(GraphError):
            balanced_decomposition(complete_bipartite(2, 3).__class__(
                ("a", "b", "c"), ("d",), [(0, 0), (1, 0), (2, 0)]))

    # A plain GraphError, where every other connectivity precondition
    # raises DisconnectedGraphError.
    def test_disconnected_graph_rejected(self):
        g = BipGraph(("a", "b"), ("c", "d"), [(0, 0), (1, 1)])
        with pytest.raises(DisconnectedGraphError,
                           match="balanced decomposition requires a connected graph"):
            balanced_decomposition(g)

    # Accepted; verify's reassembly shifts by the exponent.
    @pytest.mark.parametrize("coefficient, exponent",
                             [(True, 0), (1.5, 0), ("1", 0), (1, True), (1, 1.5), (1, "1"),
                              (1, -1)],
                             ids=["bool", "float", "str", "bool-exponent", "float-exponent",
                                  "str-exponent", "negative-exponent"])
    def test_non_integer_term_rejected(self, coefficient, exponent):
        with pytest.raises(GraphError, match="a term (coefficient|exponent) must be an integer"):
            DecompositionTerm(coefficient, exponent, cycle(3))

    @settings(max_examples=20, deadline=None)
    @given(connected_bipgraphs(max_v=3, max_e=4))
    def test_reassembly(self, g):
        if g.n_v > g.n_e:
            return
        total = IntPoly.zero()
        for term in balanced_decomposition(g):
            assert term.graph.n_v == term.graph.n_e
            total = total + (term.coefficient
                             * interior_polynomial(term.graph)).shift(term.exponent)
        assert total == interior_polynomial(g)


def _json_or_error(surgery, *args):
    try:
        return graph_to_json(surgery(*args))
    except GraphError as exc:
        return f"error: {exc}"


def _partners(g):
    """What each graph is joined with: itself; a copy with "'" appended to
    every label; and a copy whose labels in each class are the first label
    followed by 0, 1, 2, ... primes, so renaming it away from ``g`` walks
    each name onto the next one and pins the order of the renaming."""
    def relabel(v_names, e_names):
        return BipGraph(v_names, e_names, g.adj)

    return (g,
            relabel([x + "'" for x in g.v_names], [x + "'" for x in g.e_names]),
            relabel([g.v_names[0] + "'" * i for i in range(g.n_v)],
                    [g.e_names[0] + "'" * i for i in range(g.n_e)]))


def _edges(g):
    return [(g.v_names[v], g.e_names[e]) for v, e in sorted(g.adj)]


def _vertex_cases(surgery):
    return lambda g: [(surgery, g, x) for x in g.v_names + g.e_names]


# Every call each surgery makes on a census graph, as (surgery, *args).
SURGERY_CASES = {
    "delete": _vertex_cases(delete_vertex),
    "delete_leaf": _vertex_cases(delete_valence1),
    "contract": _vertex_cases(contract_vertex),
    "identify_pair": lambda g: [(identify_pair, g, a, b)
                                for a, b in permutations(g.e_names, 2)],
    "add_parallel": lambda g: [(add_parallel_pair_vertices, g, a, b, t)
                               for a, b in permutations(g.e_names, 2) for t in (1, 2)],
    "one_point_join": lambda g: [(one_point_join, g, h, x, y)
                                 for h in _partners(g)
                                 for ours, theirs in ((g.v_names, h.v_names),
                                                      (g.e_names, h.e_names))
                                 for x in ours for y in theirs],
    "edge_join": lambda g: [(edge_join, g, h, a, b)
                            for h in _partners(g) for a in _edges(g) for b in _edges(h)],
}
# (number of calls, sha256 of the JSON of every result or error text) over
# the 44 graphs of exhaustive_connected_bipartite(6), recorded before the
# surgeries moved onto one index-level core; outputs, labels, vertex order
# and error texts must not move.
SURGERIES_SHA256 = {
    "add_parallel": (476, "f62d820cc5725f9c7451ccbe6f31db17212e51b8c8a1f605e5c14fc7d4548c23"),
    "contract": (236, "df9e8df30601e275bfa7952aab1f12667b907872db3377402d04e59822ac61f9"),
    "delete": (236, "4ec561ddab00294172cf55d82123402bc311cb456ee19599d23c508464a2d854"),
    "delete_leaf": (236, "825f08175522b89376a6cf48e3fc1671150bbda105f5c307f13ddaf9a41ae24b"),
    "edge_join": (3978, "2f67abaec01574351c468a6976538bdd4330be00ca03ed20c966ad9271ba89e6"),
    "identify_pair": (238, "8d299d030ff4af3287df067767bc4141f540609b543e53fd4cfffc5e5e2c5f1f"),
    "one_point_join": (2136, "73e8081d3e333c77a31af96e021ca715a8915d332a1616fb1c83cf9f76f51968"),
}


class TestSurgeriesUnchanged:
    @pytest.mark.parametrize("name", sorted(SURGERY_CASES))
    def test_surgery(self, name):
        outcomes = [_json_or_error(*case) for g in exhaustive_connected_bipartite(6)
                    for case in SURGERY_CASES[name](g)]
        assert (len(outcomes), sha256_json(outcomes)) == SURGERIES_SHA256[name]
