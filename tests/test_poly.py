"""Polynomial arithmetic, the invariant pipeline, and the Tutte oracle."""

import random

import pytest
from hypothesis import given, settings

from conftest import complete_bipartite, connected_bipgraphs, cycle, path_graph
from hytrex.errors import CapacityError, DisconnectedGraphError, GraphError
from hytrex.graph import BipGraph, abstract_dual
from hytrex.hypertrees import HypertreeSet, enumerate_hypertrees
from hytrex.poly import (
    IntPoly,
    IntPoly2,
    MultiGraph,
    exterior_from_tutte,
    exterior_polynomial,
    interior_from_tutte,
    interior_polynomial,
    is_interpolating,
    pair_memo,
    polynomial_pair,
    polynomial_pairs,
    subdivision,
    tutte_polynomial,
)
from hytrex import poly, transforms
from hytrex.verify import exhaustive_connected_bipartite, run_all_checks

K4 = MultiGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestIntPoly:
    def test_canonical_form_trims_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()

    @pytest.mark.parametrize("coeffs", [[1.5, 2.7], ["3", True], [1, 2.0]],
                             ids=["floats", "string-and-bool", "integral-float"])
    def test_non_integer_coefficients_rejected(self, coeffs):
        with pytest.raises(GraphError, match="polynomial coefficients must hold integers"):
            IntPoly(coeffs)

    def test_bool_is_no_scalar(self):
        assert IntPoly([1]) != True  # noqa: E712
        with pytest.raises(TypeError):
            IntPoly([1]) + True

    def test_zero_has_no_degree(self):
        with pytest.raises(ValueError):
            IntPoly.zero().degree

    def test_arithmetic(self):
        p = IntPoly([1, 1])
        assert (p * p).coeffs == (1, 2, 1)
        assert (p + IntPoly([0, 0, 3])).coeffs == (1, 1, 3)
        assert (p - p).is_zero
        assert (2 * p).coeffs == (2, 2)
        assert (p ** 3).coeffs == (1, 3, 3, 1)
        assert p.shift(2).coeffs == (0, 0, 1, 1)

    @pytest.mark.parametrize("poly", [IntPoly([0, 1]), IntPoly.zero()], ids=["x", "zero"])
    def test_negative_shift_rejected(self, poly):
        with pytest.raises(GraphError, match="a shift must be an integer of at least 0"):
            poly.shift(-1)

    @pytest.mark.parametrize("k", [True, 1.0, "1"], ids=["bool", "float", "string"])
    def test_non_integer_shift_rejected(self, k):
        with pytest.raises(GraphError, match="a shift must be an integer"):
            IntPoly([0, 1]).shift(k)

    # True read the coefficient of x; 1.5 raised a bare TypeError.
    @pytest.mark.parametrize("k", [True, 1.5, "1"], ids=["bool", "float", "string"])
    def test_non_integer_coefficient_index_rejected(self, k):
        with pytest.raises(GraphError, match="a coefficient index must be an integer"):
            IntPoly([1, 2]).coeff(k)

    # True acted as 1, and 2.0 raised a bare TypeError from range.
    @pytest.mark.parametrize("n", [True, 2.0, "2"], ids=["bool", "float", "string"])
    def test_non_integer_exponent_rejected(self, n):
        with pytest.raises(GraphError, match="an exponent must be an integer"):
            IntPoly([1, 1]) ** n

    def test_render(self):
        assert IntPoly([1, 1, 1]).render() == "1 + x + x^2"
        assert IntPoly([1, 2]).render("y") == "1 + 2y"
        assert IntPoly([0, -1, 3]).render() == "-x + 3x^2"
        assert IntPoly.zero().render() == "0"
        assert IntPoly([5]).render() == "5"

    def test_json_round_trip(self):
        p = IntPoly([1, 4, 1])
        assert IntPoly(p.to_json()) == p

    def test_is_interpolating(self):
        assert is_interpolating(IntPoly([1, 1, 1]))
        assert is_interpolating(IntPoly([0, 2, 5]))
        assert not is_interpolating(IntPoly([1, 0, 1]))
        assert is_interpolating(IntPoly.zero())


class TestIntPoly2:
    @pytest.mark.parametrize("terms", [{(0.9, 1.2): 2.5}, {(0, 1): 2.5},
                                       {(0, "1"): 2}, {(True, 0): 1}],
                             ids=["all-floats", "float-coefficient",
                                  "string-exponent", "bool-exponent"])
    def test_non_integer_terms_rejected(self, terms):
        with pytest.raises(GraphError, match="bivariate term"):
            IntPoly2(terms)

    @pytest.mark.parametrize("terms", [{(-1, 0): 2, (0, -2): 1}, {(0, -1): 0}],
                             ids=["both-exponents", "zero-coefficient"])
    def test_negative_exponents_rejected(self, terms):
        with pytest.raises(GraphError,
                           match=r"bivariate term \((-1, 0|0, -1)\): \d+ has a negative"):
            IntPoly2(terms)

    def test_arithmetic_and_render(self):
        t = IntPoly2.monomial(2, 0) + IntPoly2.monomial(1, 0) + IntPoly2.monomial(0, 1)
        assert t.terms == {(0, 1): 1, (1, 0): 1, (2, 0): 1}
        assert t.render() == "x^2 + x + y"
        assert t + IntPoly2({(1, 0): -1}) == IntPoly2({(2, 0): 1, (0, 1): 1})

    def test_json_sorted(self):
        t = IntPoly2({(2, 0): 1, (0, 1): 1, (1, 0): 1})
        assert t.to_json() == [[0, 1, 1], [1, 0, 1], [2, 0, 1]]


class TestPipeline:
    def test_hexagon(self):
        g = cycle(3)
        assert interior_polynomial(g) == IntPoly([1, 1, 1])
        assert exterior_polynomial(g) == IntPoly([1, 2])

    def test_k23(self):
        g = complete_bipartite(2, 3)
        assert interior_polynomial(g) == IntPoly([1, 2])
        assert exterior_polynomial(g) == IntPoly([1, 1, 1])
        # the other class as hyperedges gives a different exterior polynomial
        assert exterior_polynomial(abstract_dual(g)) == IntPoly([1, 2])

    def test_k33_derived(self):
        g = complete_bipartite(3, 3)
        assert interior_polynomial(g) == IntPoly([1, 4, 1])
        assert exterior_polynomial(g) == IntPoly([1, 2, 3])

    def test_tree_is_one(self):
        assert interior_polynomial(path_graph()) == IntPoly.one()
        assert exterior_polynomial(path_graph()) == IntPoly.one()

    def test_disconnected_rejected(self):
        g = BipGraph(("a", "b"), ("c", "d"), [(0, 0), (1, 1)])
        with pytest.raises(DisconnectedGraphError):
            interior_polynomial(g)
        with pytest.raises(DisconnectedGraphError):
            exterior_polynomial(g)

    # On the hexagon, 4-long vectors gave 1 + x and 2-long ones a bare
    # IndexError.
    @pytest.mark.parametrize("vectors", [[(1, 1, 0, 0)], [(1, 1)]], ids=["longer", "shorter"])
    def test_given_hypertrees_of_another_length_rejected(self, vectors):
        for polynomial in (interior_polynomial, exterior_polynomial):
            with pytest.raises(GraphError, match="expected 3"):
                polynomial(cycle(3), hypertrees=HypertreeSet(vectors))

    # Under an explicit order the empty set once raised a bare IndexError.
    @pytest.mark.parametrize("order", [None, (0, 1, 2), (2, 1, 0)])
    def test_given_empty_set_counts_nothing(self, order):
        for polynomial in (interior_polynomial, exterior_polynomial):
            for empty in ([], HypertreeSet([])):
                assert polynomial(cycle(3), order=order, hypertrees=empty) == IntPoly.zero()

    def test_given_plain_vectors_count_as_their_set(self):
        g = complete_bipartite(2, 3)
        vectors = list(enumerate_hypertrees(g))
        assert interior_polynomial(g, hypertrees=vectors + vectors[:1]) == interior_polynomial(g)
        assert exterior_polynomial(g, hypertrees=iter(vectors)) == exterior_polynomial(g)

    def test_order_invariance_20_random_orders(self):
        rng = random.Random(20260808)
        for g in (cycle(4), complete_bipartite(2, 4), complete_bipartite(3, 3)):
            b = enumerate_hypertrees(g)
            base_i = interior_polynomial(g, hypertrees=b)
            base_x = exterior_polynomial(g, hypertrees=b)
            for _ in range(20):
                order = list(range(g.n_e))
                rng.shuffle(order)
                assert interior_polynomial(g, order=order, hypertrees=b) == base_i
                assert exterior_polynomial(g, order=order, hypertrees=b) == base_x

    @settings(max_examples=25, deadline=None)
    @given(connected_bipgraphs())
    def test_dual_invariance_and_coefficient_sum(self, g):
        b = enumerate_hypertrees(g)
        interior = interior_polynomial(g, hypertrees=b)
        exterior = exterior_polynomial(g, hypertrees=b)
        assert interior == interior_polynomial(abstract_dual(g))
        assert sum(interior.coeffs) == len(b)
        assert sum(exterior.coeffs) == len(b)


class TestWalkPath:
    """The polynomials read off one walk, and the probe path they replace."""

    @settings(max_examples=25, deadline=None)
    @given(connected_bipgraphs())
    def test_walk_matches_the_probe_path_under_several_orders(self, g):
        b = enumerate_hypertrees(g)
        orders = [None, list(range(g.n_e))[::-1]]
        for order, (interior, exterior) in zip(orders, polynomial_pairs(g, orders)):
            assert interior == interior_polynomial(g, order=order, hypertrees=b)
            assert exterior == exterior_polynomial(g, order=order, hypertrees=b)

    def test_given_hypertrees_are_counted_as_given(self):
        # The probe path trusts the set it is handed: drop a hypertree and
        # the coefficients no longer sum to the number of hypertrees.
        g = complete_bipartite(3, 3)
        b = enumerate_hypertrees(g)
        partial = type(b)(list(b)[1:])
        assert sum(interior_polynomial(g, hypertrees=partial).coeffs) == len(b) - 1
        assert sum(interior_polynomial(g).coeffs) == len(b)

    def test_memo_lives_only_inside_the_block(self, monkeypatch):
        g = complete_bipartite(2, 3)
        walks = []
        count = poly.polynomial_pairs
        monkeypatch.setattr(poly, "polynomial_pairs",
                            lambda *args: walks.append(1) or count(*args))
        with pair_memo():
            with pair_memo():
                assert polynomial_pair(g) == (IntPoly([1, 2]), IntPoly([1, 1, 1]))
            interior_polynomial(g)
            exterior_polynomial(g)
            assert len(walks) == 1
        assert poly._pairs.get() is None
        interior_polynomial(g)
        assert len(walks) == 2

    def test_memo_keeps_an_entry_only_while_its_graph_lives(self):
        corpus_graph = complete_bipartite(2, 3)
        with pair_memo():
            memo = poly._pairs.get()
            polynomial_pair(corpus_graph)
            surgery = transforms.add_parallel_pair_vertices(corpus_graph, "e1", "e2", 1)
            pair = polynomial_pair(surgery)
            assert len(memo) == 2
            assert polynomial_pair(surgery) is pair  # reuse while it lives
            del surgery  # its last reference: reference counting frees it
            assert list(memo.keys()) == [corpus_graph]
            assert polynomial_pair(complete_bipartite(2, 3)) is memo[corpus_graph]
        assert poly._pairs.get() is None

    def test_a_run_keeps_no_more_entries_than_corpus_graphs(self):
        corpus = exhaustive_connected_bipartite(6)
        sizes = []
        run_all_checks(corpus=corpus, orders_per_graph=2,
                       progress=lambda report: sizes.append(len(poly._pairs.get())))
        # Every check asks for the pairs of surgery results, which are gone
        # by the time it reports; each corpus graph keeps its entry.
        assert sizes[-1] == len(corpus) == len(set(corpus))
        assert max(sizes) <= len(corpus)

    @pytest.mark.parametrize("bad", ["x", 3, [1], None], ids=["str", "int", "list", "None"])
    def test_a_non_graph_raises_alike_inside_and_outside_the_block(self, bad):
        # A graph is the only memo key: anything else reaches the same
        # check inside the block as outside, not a weak reference's TypeError.
        with pytest.raises(Exception) as outside:
            polynomial_pair(bad)
        with pair_memo():
            with pytest.raises(type(outside.value)) as inside:
                polynomial_pair(bad)
        assert str(inside.value) == str(outside.value)

    def test_no_module_level_cache(self):
        import hytrex

        for module in (hytrex, *(m for name, m in vars(hytrex).items()
                                  if type(m) is type(hytrex))):
            for name, value in vars(module).items():
                assert not hasattr(value, "cache_info"), f"{module.__name__}.{name}"


class TestTutte:
    def test_single_edge_is_x(self):
        assert tutte_polynomial(MultiGraph(2, [(0, 1)])) == IntPoly2.monomial(1, 0)

    def test_single_loop_is_y(self):
        assert tutte_polynomial(MultiGraph(1, [(0, 0)])) == IntPoly2.monomial(0, 1)

    def test_triangle_by_hand(self):
        t = tutte_polynomial(MultiGraph.cycle(3))
        assert t == IntPoly2({(2, 0): 1, (1, 0): 1, (0, 1): 1})

    def test_k4_known_value(self):
        t = tutte_polynomial(K4)
        assert t == IntPoly2({(3, 0): 1, (2, 0): 3, (1, 0): 2, (1, 1): 4,
                              (0, 1): 2, (0, 2): 3, (0, 3): 1})

    def test_paths_are_powers_of_x(self):
        for k in range(2, 6):
            assert tutte_polynomial(MultiGraph.path(k)) == IntPoly2.monomial(k - 1, 0)

    def test_parallel_edges(self):
        # two parallel edges: T = x + y
        t = tutte_polynomial(MultiGraph(2, [(0, 1), (0, 1)]))
        assert t == IntPoly2({(1, 0): 1, (0, 1): 1})

    def test_capacity(self):
        with pytest.raises(CapacityError):
            tutte_polynomial(MultiGraph(2, [(0, 1)] * 15))

    # Truncated and converted, the first two were the path 0-1-2 and the
    # third kept n = 2.5.
    @pytest.mark.parametrize("n, edges", [(3, [(0.9, 1.2), (1, 2)]),
                                          (3, [(0, 1), ("2", True)]),
                                          (2.5, [(0, 1)]), (True, []), (2.0, [(0, 1)]),
                                          (3, [(0, 1, 2)]), (3, [(0,)]), (3, [5])],
                             ids=["float-edge", "str-bool-edge", "float-n", "bool-n",
                                  "integral-float-n", "three-ends", "one-end", "int-edge"])
    def test_non_integers_rejected(self, n, edges):
        with pytest.raises(GraphError):
            MultiGraph(n, edges)


class TestSpecializations:
    def test_triangle(self):
        tri = MultiGraph.cycle(3)
        assert interior_from_tutte(tri) == IntPoly([1, 1, 1])
        assert exterior_from_tutte(tri) == IntPoly([1, 2])

    def test_trees_give_one(self):
        for k in range(2, 7):
            assert interior_from_tutte(MultiGraph.path(k)) == IntPoly.one()
            assert exterior_from_tutte(MultiGraph.path(k)) == IntPoly.one()

    def test_disconnected_rejected(self):
        g = MultiGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            interior_from_tutte(g)

    @pytest.mark.parametrize("mg", [
        MultiGraph.cycle(3),
        MultiGraph.cycle(4),
        MultiGraph.cycle(5),
        K4,
        MultiGraph.path(5),
        MultiGraph.star(4),
        MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    ])
    def test_subdivision_pipeline_matches_oracle(self, mg):
        bip = subdivision(mg)
        assert interior_polynomial(bip) == interior_from_tutte(mg)
        assert exterior_polynomial(bip) == exterior_from_tutte(mg)

    def test_subdivision_handles_multi_edges_and_loops(self):
        # a loop subdivides to a pendant; a doubled edge to two parallel paths
        mg = MultiGraph(2, [(0, 1), (0, 1), (1, 1)])
        bip = subdivision(mg)
        assert (bip.n_v, bip.n_e) == (2, 3)
        assert interior_polynomial(bip) == interior_from_tutte(mg)
        assert exterior_polynomial(bip) == exterior_from_tutte(mg)
