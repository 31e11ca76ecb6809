"""The public surface: the names ``hytrex`` exports, each module's
``__all__``, and the README that says what each exported name is for.
Adding or removing a public name has to change this file."""

import importlib
import pkgutil
import types
from pathlib import Path

import pytest

from conftest import cycle
import hytrex
from hytrex import transforms
from hytrex.errors import GraphError

# The names of the package itself, submodules aside.
PACKAGE_NAMES = [
    "BipGraph", "CapacityError", "CheckReport", "ClosedFormUnavailable",
    "DecompositionTerm", "DisconnectedGraphError", "FamilySpec", "GraphError",
    "Hypergraph", "HypertreeSet", "IntPoly", "IntPoly2", "MultiGraph",
    "abstract_dual", "balanced_decomposition", "build_bipartite", "component_count",
    "default_corpus", "enumerate_hypertrees", "exterior_from_tutte",
    "exterior_polynomial", "external_active_flags", "find_realizing_tree",
    "from_hypergraph", "graph_from_json", "graph_to_json", "greedy_exterior_hypertree",
    "hypertrees_by_brute_force", "interior_from_tutte", "interior_polynomial",
    "internal_active_flags", "is_hypertree_by_polymatroid", "is_hypertree_by_tree_search",
    "is_interpolating", "mu_table", "normalize_edge_order", "nullity",
    "replay_counterexample", "run_all_checks", "subdivision", "subgraph_components",
    "transfer", "tutte_polynomial",
]

# Sorted ``__all__`` of every module that declares one.
MODULE_ALL = {
    "activity": ["external_active_flags", "internal_active_flags"],
    "canonical": ["CanonicalForms", "MAX_WIDTH"],
    "families": [
        "FAMILY_TAGS", "FamilySpec", "closed_form_exterior", "closed_form_interior",
        "ear_decomposition", "generate", "spec_from_cli",
    ],
    "graph": [
        "BipGraph", "Hypergraph", "SUBSET_CAP", "abstract_dual", "build_bipartite",
        "component_count", "components", "from_hypergraph", "graph_from_json",
        "graph_to_json", "mu_table", "normalize_edge_order", "nullity",
        "subgraph_components",
    ],
    "hypertrees": [
        "HypertreeSet", "enumerate_hypertrees", "find_realizing_tree",
        "greedy_exterior_hypertree", "hypertrees_by_brute_force",
        "hypertrees_with_inactivity", "is_hypertree_by_polymatroid", "is_hypertree_by_tree_search", "transfer",
    ],
    "poly": [
        "IntPoly", "IntPoly2", "MultiGraph", "TUTTE_CAP", "exterior_from_tutte",
        "exterior_polynomial", "interior_from_tutte", "interior_polynomial",
        "is_interpolating", "pair_memo", "polynomial_pair", "polynomial_pairs",
        "subdivision", "tutte_polynomial",
    ],
    "transforms": [
        "DecompositionTerm", "add_parallel_pair_vertices", "balanced_decomposition",
        "contract_vertex", "delete_valence1", "delete_vertex", "edge_join",
        "identify_pair", "one_point_join",
    ],
    "verify": [
        "CENSUS_CAP", "CHECK_NAMES", "CheckReport", "default_corpus",
        "exhaustive_connected_bipartite", "family_instances", "random_connected_bipartite",
        "replay_counterexample", "run_all_checks", "tutte_graph_corpus",
    ],
}


def test_package_names():
    # dir(), not vars(): the names of the lazily executed modules resolve
    # through the package's __getattr__ and are absent from its __dict__.
    names = sorted(name for name in dir(hytrex) if not name.startswith("_")
                   and not isinstance(getattr(hytrex, name), types.ModuleType))
    assert names == PACKAGE_NAMES
    assert sorted(hytrex.__all__) == PACKAGE_NAMES


def test_readme_names_every_package_name():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert [name for name in PACKAGE_NAMES if f"`{name}`" not in readme] == []


def test_modules_with_all():
    declaring = [info.name for info in pkgutil.iter_modules(hytrex.__path__)
                 if hasattr(importlib.import_module(f"hytrex.{info.name}"), "__all__")]
    assert sorted(declaring) == sorted(MODULE_ALL)


@pytest.mark.parametrize("name", sorted(MODULE_ALL))
def test_module_all(name):
    module = importlib.import_module(f"hytrex.{name}")
    assert sorted(module.__all__) == MODULE_ALL[name]
    for public in module.__all__:
        getattr(module, public)


# The shape rule, one row per public entry point and bad input: a vector or
# a pair that is no collection (3, None), has the wrong length, or holds a
# float or a bool where an integer belongs is a GraphError.  The hexagon C6
# has three hyperedges, so its hypertree vectors have three entries.
C6 = cycle(3)
C6_SET = hytrex.enumerate_hypertrees(C6)
BAD_VECTORS = {"int": 3, "none": None, "short": (0, 1), "float": (1.0, 1, 0),
               "bool": (True, 1, 0)}
VECTOR_TAKERS = {
    "HypertreeSet-member": lambda f: hytrex.HypertreeSet([(0, 1, 1), f]),
    "HypertreeSet-argument": hytrex.HypertreeSet,
    "find_realizing_tree": lambda f: hytrex.find_realizing_tree(C6, f),
    "is_hypertree_by_tree_search": lambda f: hytrex.is_hypertree_by_tree_search(C6, f),
    "is_hypertree_by_polymatroid": lambda f: hytrex.is_hypertree_by_polymatroid(C6, f),
    # Index 2 is past the end of the short vector.
    "transfer": lambda f: hytrex.transfer(f, 1, 2),
    "internal_active_flags": lambda f: hytrex.internal_active_flags(C6_SET, f),
    "external_active_flags": lambda f: hytrex.external_active_flags(C6_SET, f),
    "interior_polynomial": lambda f: hytrex.interior_polynomial(C6, hypertrees=[f]),
    "exterior_polynomial": lambda f: hytrex.exterior_polynomial(C6, hypertrees=[f]),
}
# For a pair, the wrong length is three entries.
BAD_PAIRS = {"int": 3, "none": None, "long": (0, 0, 0), "float": (0.0, 0),
             "bool": (True, 0)}
BAD_LABEL_PAIRS = {"int": 3, "none": None, "long": ("v1", "e1", "e1"),
                   "float": (1.0, "e1"), "bool": (True, "e1")}
PAIR_TAKERS = {
    "BipGraph": (BAD_PAIRS, lambda p: hytrex.BipGraph(("v1",), ("e1",), [p])),
    "MultiGraph": (BAD_PAIRS, lambda p: hytrex.MultiGraph(2, [p])),
    "IntPoly2": (BAD_PAIRS, lambda p: hytrex.IntPoly2({p: 1})),
    "build_bipartite": (BAD_LABEL_PAIRS,
                        lambda p: hytrex.build_bipartite(("v1",), ("e1",), [p])),
    "graph_from_json": (BAD_LABEL_PAIRS, lambda p: hytrex.graph_from_json(
        {"v": ["v1"], "e": ["e1"], "adj": [list(p) if isinstance(p, tuple) else p]})),
    "edge_join": (BAD_LABEL_PAIRS, lambda p: transforms.edge_join(C6, C6, p, ("v1", "e1"))),
}
SHAPE_ROWS = {
    **{f"{taker}-{kind}": (lambda call=call, f=f: call(f))
       for taker, call in VECTOR_TAKERS.items() for kind, f in BAD_VECTORS.items()},
    **{f"{taker}-{kind}": (lambda call=call, p=p: call(p))
       for taker, (bad, call) in PAIR_TAKERS.items() for kind, p in bad.items()},
    # A collection of pairs that is no collection.
    "BipGraph-adjacency-int": lambda: hytrex.BipGraph(("v1",), ("e1",), 3),
    "build_bipartite-adjacency-int": lambda: hytrex.build_bipartite(("v1",), ("e1",), 3),
    "IntPoly2-terms-int": lambda: hytrex.IntPoly2(3),
    # A falsy non-collection once gave the zero polynomial; IntPoly(0) raises.
    "IntPoly2-terms-zero": lambda: hytrex.IntPoly2(0),
    # A key that is no tuple, though it holds three integers.
    "IntPoly2-frozenset-key": lambda: hytrex.IntPoly2({frozenset({0, 1, 2}): 5}),
    # An unhashable label once escaped the label lookup.
    "build_bipartite-list-label": lambda: hytrex.build_bipartite(("v1",), ("e1",),
                                                                 [(["v1"], "e1")]),
    # A transfer needs both indices inside the vector and a unit to send.
    "transfer-zero-sender": lambda: hytrex.transfer((0, 1, 1), 0, 1),
    "transfer-negative-index": lambda: hytrex.transfer((0, 1, 1), -1, 0),
    "transfer-index-past-the-end": lambda: hytrex.transfer((0, 1, 1), 5, 0),
    "transfer-float-index": lambda: hytrex.transfer((0, 1, 1), 1.0, 0),
    "transfer-bool-index": lambda: hytrex.transfer((0, 1, 1), True, 0),
}


@pytest.mark.parametrize("call", SHAPE_ROWS.values(), ids=SHAPE_ROWS.keys())
def test_bad_vectors_and_pairs_raise_graph_error(call):
    with pytest.raises(GraphError):
        call()


# Membership is the one unchecked vector path: a non-vector is no member,
# and a bool entry still packs as an integer (left open on purpose).
@pytest.mark.parametrize("f, member", [(3, False), (None, False), ((0, 1), False),
                                       ((1.0, 1, 0), False), ((True, 0, 1), True)],
                         ids=["int", "none", "short", "float", "bool"])
def test_membership_of_bad_vectors(f, member):
    assert (f in C6_SET) is member
