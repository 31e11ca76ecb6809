"""Family generators and their closed forms as oracles for the pipeline."""

import pytest

from conftest import count_builds, sha256_json
from hytrex.errors import ClosedFormUnavailable, GraphError
from hytrex.families import (
    FamilySpec,
    closed_form_exterior,
    closed_form_interior,
    ear_decomposition,
    generate,
)
from hytrex.graph import graph_to_json
from hytrex.verify import family_instances
from hytrex.hypertrees import enumerate_hypertrees
from hytrex.poly import IntPoly, exterior_polynomial, interior_polynomial, polynomial_pair
from hytrex import transforms


def _is_even_cycle(g, half):
    return (g.n_v == half and g.n_e == half and g.n_edges == 2 * half
            and g.connected
            and all(g.deg_v(v) == 2 for v in range(g.n_v))
            and all(g.deg_e(e) == 2 for e in range(g.n_e)))


class TestGenerators:
    def test_cycle(self):
        assert _is_even_cycle(generate(FamilySpec("cycle", (3,))), 3)

    def test_complete_bipartite(self):
        g = generate(FamilySpec("complete_bipartite", (2, 3)))
        assert (g.n_v, g.n_e, g.n_edges) == (2, 3, 6)

    def test_matching_deletion_of_k33_is_hexagon(self):
        g = generate(FamilySpec("kmn_minus_matching", (3, 3, 3)))
        assert _is_even_cycle(g, 3)

    def test_ladder_shape(self):
        g = generate(FamilySpec("ladder", (2,)))
        assert g.n_v + g.n_e == 6 and g.n_edges == 7 and g.connected

    def test_tree_and_unicyclic_shapes(self):
        t = generate(FamilySpec("tree", (8,), seed=3))
        assert t.n_v + t.n_e == 8 and t.n_edges == 7 and t.connected
        u = generate(FamilySpec("unicyclic", (3, 5), seed=3))
        assert u.n_v + u.n_e == 11 and u.n_edges == 11 and u.connected

    def test_seeded_determinism(self):
        a = generate(FamilySpec("ear_graph", (3, 2), seed=9))
        b = generate(FamilySpec("ear_graph", (3, 2), seed=9))
        assert a == b
        c = generate(FamilySpec("tree", (7,), seed=1))
        d = generate(FamilySpec("tree", (7,), seed=2))
        assert c != d

    def test_ear_graph_stays_balanced_and_ears_cross_classes(self):
        spec = FamilySpec("ear_graph", (3, 3), seed=4)
        g = generate(spec)
        assert g.n_v == g.n_e
        for path in ear_decomposition(spec):
            assert len(path) % 2 == 0  # odd number of edges
            assert path[0] in g.v_names and path[-1] in g.e_names

    def test_invalid_parameters(self):
        with pytest.raises(GraphError):
            FamilySpec("cycle", (1,))
        with pytest.raises(GraphError):
            FamilySpec("complete_bipartite", (3, 2))
        with pytest.raises(GraphError):
            FamilySpec("kmn_minus_matching", (3, 3, 4))  # q > m
        with pytest.raises(GraphError):
            FamilySpec("unknown", (1,))
        with pytest.raises(GraphError):
            FamilySpec("cycle", (2, 2))

    @pytest.mark.parametrize("params", [(2.9,), ("x",), (None,), (True,), (3.0,)],
                             ids=["float", "str", "None", "bool", "whole-float"])
    def test_non_integer_parameters_rejected(self, params):
        with pytest.raises(GraphError, match="family parameters must hold integers"):
            FamilySpec("cycle", params)

    def test_non_iterable_parameters_rejected(self):
        with pytest.raises(GraphError, match="family parameters must hold integers, got 3"):
            FamilySpec("cycle", 3)

    @pytest.mark.parametrize("seed", ["x", 2.5, True], ids=["str", "float", "bool"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(GraphError, match="family seed must be an integer,"):
            FamilySpec("tree", (5,), seed=seed)

    @pytest.mark.parametrize("tag, params", [("cycle", (3,)), ("ladder", (2,)),
                                             ("complete_bipartite", (2, 3)),
                                             ("kmn_minus_matching", (3, 3, 1))])
    def test_seed_on_a_family_that_reads_none_rejected(self, tag, params):
        with pytest.raises(GraphError, match="takes no seed; only tree, unicyclic, ear_graph do"):
            FamilySpec(tag, params, seed=0)

    def test_disconnected_matching_deletion_rejected(self):
        with pytest.raises(GraphError):
            generate(FamilySpec("kmn_minus_matching", (2, 2, 2)))

    @pytest.mark.parametrize("m, n, q", [(m, n, q) for m in range(1, 6)
                                         for n in range(m, 6) for q in range(m + 1)])
    def test_closed_forms_reject_what_generate_rejects(self, m, n, q):
        # K_{1,3} minus a 1-matching used to get X = 1 - y^2, K_{1,1} minus
        # one edge the zero polynomial, and K_{2,2} minus both I = 1 - x.
        spec = FamilySpec("kmn_minus_matching", (m, n, q))
        try:
            pair = polynomial_pair(generate(spec))
        except GraphError:
            for closed_form in (closed_form_interior, closed_form_exterior):
                with pytest.raises(GraphError, match="is disconnected"):
                    closed_form(spec)
            return
        assert closed_form_interior(spec) == pair[0]
        if (m, q) == (2, 2):
            with pytest.raises(ClosedFormUnavailable):
                closed_form_exterior(spec)
        else:
            assert closed_form_exterior(spec) == pair[1]


class TestClosedForms:
    def test_ladder_two(self):
        assert closed_form_interior(FamilySpec("ladder", (2,))) == IntPoly([1, 2, 1])

    def test_k33(self):
        assert closed_form_interior(FamilySpec("complete_bipartite", (3, 3))) \
            == IntPoly([1, 4, 1])
        assert closed_form_exterior(FamilySpec("complete_bipartite", (3, 3))) \
            == IntPoly([1, 2, 3])

    def test_cycle_exterior(self):
        assert closed_form_exterior(FamilySpec("cycle", (4,))) == IntPoly([1, 3])

    def test_matching_deleted_hexagon_case(self):
        spec = FamilySpec("kmn_minus_matching", (3, 3, 3))
        assert closed_form_interior(spec) == IntPoly([1, 1, 1])
        # trailing zero collapses: 1 + 2y + 0y^2
        assert closed_form_exterior(spec) == IntPoly([1, 2])

    def test_ear_graph_has_no_closed_form(self):
        with pytest.raises(ClosedFormUnavailable):
            closed_form_interior(FamilySpec("ear_graph", (2, 1), seed=0))
        with pytest.raises(ClosedFormUnavailable):
            closed_form_exterior(FamilySpec("ear_graph", (2, 1), seed=0))


def _desk_scale_specs():
    specs = [FamilySpec("cycle", (n,)) for n in range(2, 8)]
    specs += [FamilySpec("ladder", (n,)) for n in range(1, 7)]
    for m in range(2, 5):
        for n in range(m, 6):
            specs.append(FamilySpec("complete_bipartite", (m, n)))
            for q in range(1, m + 1):
                if (m, n, q) != (2, 2, 2):
                    specs.append(FamilySpec("kmn_minus_matching", (m, n, q)))
    specs += [FamilySpec("unicyclic", (2, 6), seed=21),
              FamilySpec("unicyclic", (3, 8), seed=22),
              FamilySpec("unicyclic", (4, 8), seed=23),
              FamilySpec("tree", (10,), seed=24)]
    return specs


class TestOracleAgreement:
    @pytest.mark.parametrize("spec", _desk_scale_specs(),
                             ids=lambda s: f"{s.tag}{s.params}")
    def test_pipeline_matches_closed_forms(self, spec):
        g = generate(spec)
        b = enumerate_hypertrees(g)
        assert interior_polynomial(g, hypertrees=b) == closed_form_interior(spec)
        if spec.tag == "kmn_minus_matching" and spec.params[0] == 2 and spec.params[2] == 2:
            return  # exterior formula degenerates there, covered below
        assert exterior_polynomial(g, hypertrees=b) == closed_form_exterior(spec)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_degenerate_matching_deletion_exterior(self, n):
        # For m = 2, q = 2 the hypertrees are exactly the single-support
        # vectors on unmatched hyperedges, so X = 1 + y + ... + y^(n-3).
        spec = FamilySpec("kmn_minus_matching", (2, n, 2))
        g = generate(spec)
        assert exterior_polynomial(g) == IntPoly([1] * (n - 2))
        with pytest.raises(ClosedFormUnavailable):
            closed_form_exterior(spec)


class TestEarMonicity:
    @pytest.mark.parametrize("k,ears", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_top_coefficient_is_one(self, k, ears, seed):
        g = generate(FamilySpec("ear_graph", (k, ears), seed=seed))
        n = g.n_v
        assert n <= 7
        poly = interior_polynomial(g)
        assert poly.degree == n - 1
        assert poly.coeff(n - 1) == 1


class TestLadderJoinIdentity:
    def test_ladder_is_edge_join_of_squares(self):
        # Join n copies of the 4-cycle along edges; polynomials must match
        # the ladder closed forms (1 + x)^n and (1 + y)^n.
        def square():
            return generate(FamilySpec("cycle", (2,)))

        for n in range(1, 5):
            g = square()
            for _ in range(n - 1):
                extra = square()
                v, e = sorted(g.adj)[-1]
                g = transforms.edge_join(
                    g, extra, (g.v_names[v], g.e_names[e]),
                    (extra.v_names[0], extra.e_names[0]))
            expected = IntPoly([1, 1]) ** n
            assert interior_polynomial(g) == expected
            assert exterior_polynomial(g) == expected
            assert interior_polynomial(g) == closed_form_interior(
                FamilySpec("ladder", (n,)))


# One spec per family tag.
ONE_PER_TAG = [FamilySpec("tree", (7,), seed=5), FamilySpec("cycle", (4,)),
               FamilySpec("unicyclic", (3, 6), seed=12), FamilySpec("ladder", (4,)),
               FamilySpec("complete_bipartite", (2, 3)),
               FamilySpec("kmn_minus_matching", (3, 4, 2)),
               FamilySpec("ear_graph", (3, 2), seed=1)]


@pytest.mark.parametrize("spec", ONE_PER_TAG, ids=lambda spec: spec.tag)
def test_generate_builds_one_graph(monkeypatch, spec):
    assert count_builds(monkeypatch, lambda: generate(spec)) == 1


# The family sources of the CLI benchmark cases (perfbench/data/cli_cases.json).
CLI_FAMILY_SPECS = [FamilySpec("cycle", (5,)), FamilySpec("ladder", (4,)),
                    FamilySpec("complete_bipartite", (3, 4)),
                    FamilySpec("complete_bipartite", (2, 3)), FamilySpec("cycle", (3,)),
                    FamilySpec("ladder", (3,)), FamilySpec("tree", (6,), seed=3),
                    FamilySpec("kmn_minus_matching", (3, 4, 2))]


def _seeded_cycle_growths():
    out = []
    for seed in range(10):
        ears = FamilySpec("ear_graph", (3, 3), seed=seed)
        out += [graph_to_json(generate(FamilySpec("unicyclic", (3, 5), seed=seed))),
                graph_to_json(generate(ears)),
                [list(path) for path in ear_decomposition(ears)]]
    return out


class TestFamiliesUnchanged:
    """(count, sha256 of the graph_to_json list) of the generated graphs,
    recorded before the cycle-based generators shared one label helper; the
    labels and edges must not move."""

    def test_family_instances(self):
        graphs = [graph_to_json(g) for g in family_instances()]
        assert (len(graphs), sha256_json(graphs)) == (
            52, "8367b0c24cb70ff4c429ac7dd60594c739e7a4024c7a093aa3ce60553c71fd10")

    def test_cli_family_sources(self):
        graphs = [graph_to_json(generate(spec)) for spec in CLI_FAMILY_SPECS]
        assert (len(graphs), sha256_json(graphs)) == (
            8, "3e57acc6db721a7391ab29b5565458b0f2989af98def62490355d5f1470df990")

    def test_seeded_unicyclic_and_ear_graphs(self):
        out = _seeded_cycle_growths()
        assert (len(out), sha256_json(out)) == (
            30, "23365b04b6242dc76755da37de7551c84f15ad125fce54951759d3a01e5fe01d")
