"""The public surface: the names ``hytrex`` exports, each module's
``__all__``, and the README that says what each exported name is for.
Adding or removing a public name has to change this file."""

import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import hytrex

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
