"""Exact combinatorics of interior and exterior polynomials.

The package computes the interior polynomial I(x) and exterior polynomial
X(y) of connected bipartite graphs (equivalently, hypergraphs), enumerates
their hypertrees with independent cross-checking oracles, generates named
graph families with closed-form polynomials, applies the surgeries behind
the deletion/contraction recursions, and ships an executable check suite
that re-proves the supported identities on a desk-scale corpus.

``import hytrex`` executes ``errors``, ``graph``, ``hypertrees``,
``activity`` and ``poly``.  ``families``, ``transforms`` and ``verify``
(which brings ``canonical``) are bound here and in ``sys.modules`` at once,
but each executes on the first access to one of its attributes; the package
names defined there (``FamilySpec``, ``run_all_checks`` and the rest of
``_LAZY_NAMES``) resolve through them on each access.  CPython's ``LazyLoader``
takes no lock on that first access in 3.10, 3.11 and 3.12.1 (3.13 takes
one), so on those versions two threads that touch a module first at once can
both execute it; touch it from one thread first where that matters.
"""

from .errors import (
    CapacityError,
    ClosedFormUnavailable,
    DisconnectedGraphError,
    GraphError,
)
from .graph import (
    BipGraph,
    Hypergraph,
    abstract_dual,
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
from .hypertrees import (
    HypertreeSet,
    enumerate_hypertrees,
    find_realizing_tree,
    greedy_exterior_hypertree,
    hypertrees_by_brute_force,
    is_hypertree_by_polymatroid,
    is_hypertree_by_tree_search,
    transfer,
)
from .activity import external_active_flags, internal_active_flags
from .poly import (
    IntPoly,
    IntPoly2,
    MultiGraph,
    exterior_from_tutte,
    exterior_polynomial,
    interior_from_tutte,
    interior_polynomial,
    is_interpolating,
    subdivision,
    tutte_polynomial,
)


def _lazy(name: str):
    """Submodule ``name``, registered in ``sys.modules`` but executed only
    on the first access to one of its attributes."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


families = _lazy("families")
transforms = _lazy("transforms")
verify = _lazy("verify")

# Package names defined in the lazy modules, looked up there on each access.
_LAZY_NAMES = {
    "FamilySpec": families,
    "DecompositionTerm": transforms,
    "balanced_decomposition": transforms,
    "CheckReport": verify,
    "default_corpus": verify,
    "replay_counterexample": verify,
    "run_all_checks": verify,
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        return getattr(_LAZY_NAMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES})


__all__ = [
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

__version__ = "0.1.0"
